"""Network geometry: AP/BS grids, device drops, and wrap-around distances.

All placement happens inside a square service area.  Distances use a
toroidal (wrap-around) metric so that the square behaves like a patch of
an infinite deployment with no boundary effects.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from . import CfotaError


class NotPerfectSquare(CfotaError):
    """Raised when a grid placement is requested with a non-square count."""


class TooManyGroups(CfotaError):
    """Raised when the clustered drop has more groups than cells."""


@dataclass(frozen=True)
class Area:
    """Square service area with side length in meters."""

    side_m: float

    def __post_init__(self):
        if self.side_m <= 0:
            raise ValueError(f"area side must be positive, got {self.side_m}")


class DistributionMode(Enum):
    """How devices are dropped over the area.

    PER_CELL confines the devices of group g to cell g's square;
    UNIFORM spreads all devices uniformly over the whole area.
    """

    PER_CELL = 1
    UNIFORM = 2


@dataclass(frozen=True)
class NetworkGeometry:
    """Positions of APs, BSs, and devices plus the device-to-group map.

    Device positions are ordered by group: each group occupies a contiguous
    index block.
    """

    area: Area
    ap_positions: np.ndarray      # (L, 2)
    bs_positions: np.ndarray      # (cells, 2)
    device_positions: np.ndarray  # (K, 2), or (S, K, 2) for a block of S seeds
    group_of_device: np.ndarray   # (K,) int

    def __post_init__(self):
        side = self.area.side_m
        for name in ("ap_positions", "bs_positions", "device_positions"):
            pts = getattr(self, name)
            if pts.size and (np.any(pts < 0) or np.any(pts >= side)):
                raise ValueError(f"{name} contains points outside the area")


def _isqrt_exact(count):
    root = math.isqrt(count)
    if root * root != count:
        raise NotPerfectSquare(f"{count} is not a perfect square")
    return root


def grid_points(count, area):
    """Cell-centered uniform sqrt(count) x sqrt(count) grid, row-major order.

    Point i sits at the center of cell i, where cell i spans
    ``[ix*w, (ix+1)*w) x [iy*w, (iy+1)*w)`` with ``ix = i % m``,
    ``iy = i // m``, ``m = sqrt(count)`` and ``w = side/m``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    m = _isqrt_exact(count)
    step = area.side_m / m
    centers = (np.arange(m) + 0.5) * step
    ix, iy = np.arange(count) % m, np.arange(count) // m
    return np.column_stack((centers[ix], centers[iy]))


def cell_origin(cell, cells, area):
    """Lower-left corner of the given cell in the cells-grid layout."""
    m = _isqrt_exact(cells)
    step = area.side_m / m
    return np.array([(cell % m) * step, (cell // m) * step])


def place_devices(mode, group_sizes, area, cells, rng):
    """Drop devices for each group; returns (positions, group_of_device).

    PER_CELL requires one cell per group and draws group g uniformly inside
    cell g's square.  UNIFORM draws every device uniformly over the area.
    Reproducible from the supplied generator.
    """
    group_sizes = list(group_sizes)
    n_groups = len(group_sizes)
    if mode == DistributionMode.PER_CELL and n_groups > cells:
        raise TooManyGroups(f"{n_groups} groups need {n_groups} cells, have {cells}")

    positions = []
    for g, size in enumerate(group_sizes):
        draw = rng.random((size, 2))
        if mode == DistributionMode.PER_CELL:
            m = _isqrt_exact(cells)
            origin = cell_origin(g, cells, area)
            positions.append(origin + draw * (area.side_m / m))
        else:
            positions.append(draw * area.side_m)
    group_of_device = np.repeat(np.arange(n_groups), group_sizes)
    return np.vstack(positions), group_of_device


_SHIFTS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=float)


def wrap_displacement(a, b, area):
    """Shortest displacement vector from a to (a translated copy of) b.

    ``a`` and ``b`` are points of shape (..., 2) that broadcast together;
    the result has their broadcast shape.
    """
    diffs = (np.asarray(b)[..., None, :] + _SHIFTS * area.side_m
             - np.asarray(a)[..., None, :])
    nearest = np.argmin(np.einsum("...ij,...ij->...i", diffs, diffs), axis=-1)
    return np.take_along_axis(diffs, nearest[..., None, None], axis=-2)[..., 0, :]


def wrap_bearing(a, b, area):
    """Angle (radians, from the +x axis) of the shortest path from a to b.

    Broadcasts like ``wrap_displacement``.
    """
    d = wrap_displacement(a, b, area)
    return np.arctan2(d[..., 1], d[..., 0])


def wrap_distances(points_a, points_b, area):
    """Pairwise wrap distances of (..., A, 2) and (..., B, 2) points, whose
    leading axes broadcast together; shape (..., A, B)."""
    pa = np.asarray(points_a)[..., :, None, None, :]
    pb = np.asarray(points_b)[..., None, :, None, :] + _SHIFTS * area.side_m
    return np.sqrt(((pb - pa) ** 2).sum(-1)).min(-1)
