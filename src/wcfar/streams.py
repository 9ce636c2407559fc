"""Reproducible, splittable random number streams.

A stream is identified by a master seed plus a path of child indices.  The
(seed, path) pair is hashed into an independent Philox key, so any unit of
work (a target, an outer Monte-Carlo iteration, a worker) can derive its
own stream from the path alone.  Draws therefore do not depend on execution
order or on how work is divided between threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """A node in a tree of mutually independent random streams."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if any(i < 0 for i in self.path):
            raise ValueError(f"stream path indices must be non-negative, got {self.path}")

    def child(self, *indices: int) -> "RngStream":
        """Derive the sub-stream addressed by `indices` below this node."""
        return RngStream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        """Instantiate the counter-based generator for this node."""
        ss = np.random.SeedSequence(entropy=self.seed & _MASK64, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))
