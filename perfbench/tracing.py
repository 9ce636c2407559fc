"""In-memory spans around the calls into each wcfar module.

The traced run executes `wcfar.cli.main` in the benchmark's own process
with selected module attributes replaced by span-recording wrappers, so
the program's files are not touched.  A span is (name, start, end,
parent, attrs); `attrs` holds the few numbers an extractor reads from the
call's arguments and return value, never the objects themselves.

A span's layer is its name up to the first dot.  Its layer-self time is
its duration minus the time of child spans from other layers, recursing
into children of the same layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, extract=None, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent=parent)
        idx = len(self.spans)
        self.spans.append(span)
        if parent >= 0:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
        if extract is not None:
            try:
                span.attrs = extract(args, kwargs, result)
            except (AttributeError, IndexError, TypeError):
                pass  # a changed signature loses the attributes, not the run
        return result

    def wrap(self, name, fn, extract=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, extract=extract, **kwargs)

        return traced

    def layer_self(self, idx: int) -> float:
        span = self.spans[idx]
        own = span.duration
        for c in span.children:
            child = self.spans[c]
            own -= child.duration
            if child.layer == span.layer:
                own += self.layer_self(c)
        return own

    def descendants(self, idx: int):
        for c in self.spans[idx].children:
            yield c
            yield from self.descendants(c)


def _cfg_attrs(args, kwargs, result):
    cfg = args[2]
    return {"n": cfg.n_impostors, "t": cfg.t_outer, "value": result.value,
            "halfwidth": max(result.value - result.ci_low, result.ci_high - result.value)}


def _predict_attrs(args, kwargs, result):
    attrs = _cfg_attrs(args, kwargs, result)
    attrs.update(theta=args[0].to_json(), tau=args[1], l=kwargs.get("scores_per_pair"))
    return attrs


def _pack_attrs(args, kwargs, result):
    return {"targets": result.n_targets, "pairs": result.n_pairs, "scores": int(result.scores.size)}


def _fit_attrs(args, kwargs, result):
    return {"iterations": result.iterations}


# (module, attribute, span name, extractor).  `wcfar.cli` binds the library
# functions by name, so they are replaced there; calls made inside the
# library are replaced in the calling module.
PATCHES = [
    ("wcfar.cli", "load_corpus", "score_data.load_corpus", None),
    ("wcfar.cli", "load_labeled_scores", "score_data.load_labeled_scores", None),
    ("wcfar.cli", "pack_corpus", "score_data.pack_corpus", _pack_attrs),
    ("wcfar.estimators", "pack_corpus", "score_data.pack_corpus", _pack_attrs),
    ("wcfar.inference", "pack_corpus", "score_data.pack_corpus", _pack_attrs),
    ("wcfar.cli", "eer_threshold", "metrics.eer_threshold", None),
    ("wcfar.cli", "min_dcf_threshold", "metrics.min_dcf_threshold", None),
    ("wcfar.cli", "fit", "inference.fit", _fit_attrs),
    ("wcfar.inference", "moment_init", "inference.moment_init", None),
    ("wcfar.inference", "e_step", "inference.e_step", None),
    ("wcfar.inference", "m_step", "inference.m_step", None),
    ("wcfar.inference", "elbo", "inference.elbo", None),
    ("wcfar.cli", "estimate_pfa_worst_case", "estimators.worst_case", _cfg_attrs),
    ("wcfar.cli", "diagnose", "estimators.diagnose", None),
    ("wcfar.cli", "predict_pfa_closed_form", "model.closed_form", _predict_attrs),
    ("wcfar.cli", "predict_pfa_sampling", "model.sampling", _predict_attrs),
    ("wcfar.streams:RngStream", "generator", "streams.generator", None),
    ("wcfar.cli", "generate_model_corpus", "synthetic.generate_model_corpus", None),
    ("wcfar.cli", "generate_toy_asv_corpus", "synthetic.generate_toy_asv_corpus", None),
]


def _resolve(path: str):
    """`package.module` or `package.module:Class`."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers for the duration of the block.

    A name the program no longer has is skipped, so its metrics read 0
    instead of breaking the run.
    """
    saved = []
    try:
        for owner_path, attr, name, extract in PATCHES:
            owner = _resolve(owner_path)
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, extract))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
