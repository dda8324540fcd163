import numpy as np
import pytest

from cfota.rng import substream


def test_same_tags_same_stream():
    a = substream(7, "fading", 3).standard_normal(8)
    b = substream(7, "fading", 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_different_tags_differ():
    a = substream(7, "fading", 3).standard_normal(8)
    b = substream(7, "fading", 4).standard_normal(8)
    c = substream(8, "fading", 3).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_int_and_string_tags_do_not_collide():
    a = substream(1, "x").standard_normal(4)
    b = substream("1", "x").standard_normal(4)
    assert not np.array_equal(a, b)


def test_unsupported_tags_rejected():
    with pytest.raises(TypeError):
        substream(1.5)
    with pytest.raises(TypeError):
        substream(True)
    with pytest.raises(TypeError):
        substream((1, "x"))


def test_draw_order_independent_of_other_streams():
    first = substream(0, "a")
    _ = first.standard_normal(100)
    fresh = substream(0, "b").standard_normal(5)
    np.testing.assert_array_equal(fresh, substream(0, "b").standard_normal(5))
