import numpy as np
import pytest

from wcfar.streams import RngStream


def test_same_path_same_draws():
    a = RngStream(123).child(4, 5).generator().random(64)
    b = RngStream(123).child(4).child(5).generator().random(64)
    assert np.array_equal(a, b)


def test_sibling_streams_differ():
    root = RngStream(123)
    a = root.child(0).generator().random(64)
    b = root.child(1).generator().random(64)
    assert not np.array_equal(a, b)


def test_child_does_not_disturb_parent():
    root = RngStream(9)
    before = root.generator().random(16)
    root.child(3)
    after = root.generator().random(16)
    assert np.array_equal(before, after)


def test_distinct_seeds_differ():
    a = RngStream(1).generator().random(16)
    b = RngStream(2).generator().random(16)
    assert not np.array_equal(a, b)


def test_negative_seed_normalised():
    assert np.array_equal(
        RngStream(-1).generator().random(8),
        RngStream((1 << 64) - 1).generator().random(8),
    )


def test_negative_child_index_rejected():
    with pytest.raises(ValueError):
        RngStream(1).child(-1)
