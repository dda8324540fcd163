import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfota.rng import substream
from cfota.topology import (Area, DistributionMode, NotPerfectSquare,
                            TooManyGroups, grid_points, place_devices,
                            wrap_distances, wrap_displacement)

from oracles import brute_force_wrap_distance, wrap_distance

AREA = Area(500.0)


def test_single_ap_centered():
    pts = grid_points(1, AREA)
    assert pts.shape == (1, 2)
    np.testing.assert_allclose(pts[0], [250.0, 250.0])


def test_four_aps_cell_centers():
    pts = grid_points(4, AREA)
    got = {tuple(p) for p in pts}
    assert got == {(125.0, 125.0), (125.0, 375.0), (375.0, 125.0), (375.0, 375.0)}


def test_non_square_count_rejected():
    with pytest.raises(NotPerfectSquare):
        grid_points(3, AREA)


def test_grid_is_deterministic():
    a = grid_points(16, AREA)
    b = grid_points(16, AREA)
    np.testing.assert_array_equal(a, b)


def test_mode1_devices_stay_in_their_cell():
    rng = substream(7, "drop")
    pos, groups = place_devices(DistributionMode.PER_CELL, [6, 6, 6], AREA,
                                4, rng)
    assert pos.shape == (18, 2)
    # cells of a 2x2 layout: cell g spans [ (g%2)*250, ... ) x [ (g//2)*250, ... )
    for g in range(3):
        pts = pos[groups == g]
        x0, y0 = (g % 2) * 250.0, (g // 2) * 250.0
        assert np.all((pts[:, 0] >= x0) & (pts[:, 0] < x0 + 250.0))
        assert np.all((pts[:, 1] >= y0) & (pts[:, 1] < y0 + 250.0))


def test_mode2_uniform_over_area():
    pos, groups = place_devices(DistributionMode.UNIFORM, [10], AREA, 4,
                                substream(3, "drop"))
    assert pos.shape == (10, 2)
    assert np.all((pos >= 0) & (pos < 500.0))
    assert np.all(groups == 0)


def test_mode1_too_many_groups():
    with pytest.raises(TooManyGroups):
        place_devices(DistributionMode.PER_CELL, [1] * 5, AREA, 4,
                      substream(0, "drop"))


def test_placement_reproducible_from_seed():
    a, _ = place_devices(DistributionMode.UNIFORM, [4, 4], AREA, 4,
                         substream(11, "drop"))
    b, _ = place_devices(DistributionMode.UNIFORM, [4, 4], AREA, 4,
                         substream(11, "drop"))
    np.testing.assert_array_equal(a, b)


def test_wrap_distance_examples():
    assert wrap_distance((0, 0), (490, 0), AREA) == pytest.approx(10.0)
    assert wrap_distance((0, 0), (0, 0), AREA) == 0.0
    assert wrap_distance((0, 0), (250, 250), AREA) == pytest.approx(
        353.553, abs=1e-3)
    # the derived value is just the brute force over all nine shifts
    assert wrap_distance((0, 0), (250, 250), AREA) == pytest.approx(
        brute_force_wrap_distance((0, 0), (250, 250), 500.0))


coords = st.floats(min_value=0.0, max_value=499.999, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(ax=coords, ay=coords, bx=coords, by=coords)
def test_wrap_distance_symmetry_and_bounds(ax, ay, bx, by):
    a, b = (ax, ay), (bx, by)
    d_ab = wrap_distance(a, b, AREA)
    d_ba = wrap_distance(b, a, AREA)
    assert d_ab == pytest.approx(d_ba, rel=1e-12, abs=1e-9)
    straight = float(np.hypot(ax - bx, ay - by))
    assert d_ab <= straight + 1e-9
    assert d_ab <= 500.0 * np.sqrt(2.0) / 2.0 + 1e-9
    assert d_ab == pytest.approx(brute_force_wrap_distance(a, b, 500.0),
                                 rel=1e-12, abs=1e-9)


def test_wrap_displacement_matches_distance():
    rng = substream(5, "pairs")
    for _ in range(50):
        a, b = rng.random(2) * 500.0, rng.random(2) * 500.0
        d = wrap_displacement(a, b, AREA)
        assert np.linalg.norm(d) == pytest.approx(wrap_distance(a, b, AREA))


def test_wrap_distances_matrix_matches_scalar():
    rng = substream(9, "pairs")
    pa, pb = rng.random((4, 2)) * 500.0, rng.random((3, 2)) * 500.0
    mat = wrap_distances(pa, pb, AREA)
    for i in range(4):
        for j in range(3):
            assert mat[i, j] == pytest.approx(wrap_distance(pa[i], pb[j], AREA))
