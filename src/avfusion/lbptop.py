"""LBP-TOP descriptor: uniform LBP histograms on three orthogonal planes.

For every spatial block of a T×H×W grayscale volume, 8-neighbor local
binary patterns are accumulated on the XY, XT and YT planes and reduced
to 59-bin uniform-pattern histograms.  The per-block, per-plane
histograms are concatenated into one descriptor of length
``grid_rows * grid_cols * 3 * 59`` (2832 with the default 4×4 grid).

Conventions, fixed so that independent reimplementations agree:

* Neighbor k of a center sits at angle ``2*pi*k/8`` on the ellipse with
  the plane's two radii; the first in-plane axis carries the cosine, the
  second the sine.  Bit k of the code is 1 when the sampled neighbor is
  >= the center intensity.
* Off-lattice samples are bilinearly interpolated with nested lerps
  (``a + t*(b-a)``); offsets within 1e-9 of an integer are snapped, so
  axis-aligned samples are exact lattice reads.
* Centers whose neighbor circle leaves the volume are skipped (no
  padding).  A block/plane with no valid centers yields an all-zero
  histogram.
* Blocks partition H and W as evenly as possible; the first ``H mod
  grid_rows`` row-blocks get one extra row (same for columns).  Time is
  never blocked.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .core import EmptyVolume, check_volume  # EmptyVolume: re-exported for callers

N_BINS = 59
N_PLANES = 3


class GridLargerThanFrame(ValueError):
    pass


@dataclass(frozen=True)
class LbpTopParams:
    radius_x: int = 1
    radius_y: int = 1
    radius_t: int = 1
    grid_rows: int = 4
    grid_cols: int = 4
    normalize_histograms: bool = True

    def __post_init__(self):
        sizes = (self.radius_x, self.radius_y, self.radius_t, self.grid_rows, self.grid_cols)
        if not all(isinstance(v, numbers.Integral) and v >= 1 for v in sizes):
            raise ValueError(f"radii and grid dimensions must be integers >= 1, got {sizes}")

    @property
    def descriptor_length(self):
        return self.grid_rows * self.grid_cols * N_PLANES * N_BINS


def build_uniform_mapping():
    """Build the 256-entry code -> bin table for 8-neighbor uniform LBP.

    A code is uniform when its circular 0/1 transition count is at most
    2; the 58 uniform codes get bins 0..57 in ascending numeric order and
    every other code maps to bin 58.
    """
    table = np.full(256, N_BINS - 1, dtype=np.uint8)
    next_bin = 0
    for code in range(256):
        rotated = ((code << 1) | (code >> 7)) & 0xFF
        if bin(code ^ rotated).count("1") <= 2:
            table[code] = next_bin
            next_bin += 1
    return table


_UNIFORM_MAPPING = build_uniform_mapping()


def _block_index(size, blocks):
    """Block index of each of ``size`` cells split into ``blocks`` near-equal runs."""
    base, extra = divmod(size, blocks)
    return np.repeat(np.arange(blocks), base + (np.arange(blocks) < extra))


def _neighbor_offsets(r_u, r_v):
    """The 8 (du, dv) sampling offsets, near-integers snapped."""
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    du = r_u * np.cos(angles)
    dv = r_v * np.sin(angles)
    du = np.where(np.abs(du - np.rint(du)) < 1e-9, np.rint(du), du)
    dv = np.where(np.abs(dv - np.rint(dv)) < 1e-9, np.rint(dv), dv)
    return du, dv


# Planes as (first in-plane volume axis, second in-plane volume axis);
# volume axes are (t, y, x) = (0, 1, 2).
_PLANE_AXES = ((2, 1), (2, 0), (1, 0))  # XY, XT, YT


def _plane_codes(vol, axis_u, axis_v, radii):
    """LBP codes for all valid centers of one orthogonal plane.

    Returns ``(codes, lo)`` where ``codes`` spans the valid-center region
    and ``lo`` gives that region's start index per volume axis, or None
    when the plane has no valid centers.
    """
    shape = vol.shape
    r_u, r_v = radii[axis_u], radii[axis_v]
    lo = [0, 0, 0]
    hi = list(shape)
    lo[axis_u] += r_u
    hi[axis_u] -= r_u
    lo[axis_v] += r_v
    hi[axis_v] -= r_v
    if lo[axis_u] >= hi[axis_u] or lo[axis_v] >= hi[axis_v]:
        return None, lo

    def corner(shift_u, shift_v):
        sl = []
        for axis in range(3):
            s = lo[axis], hi[axis]
            if axis == axis_u:
                s = (s[0] + shift_u, s[1] + shift_u)
            elif axis == axis_v:
                s = (s[0] + shift_v, s[1] + shift_v)
            sl.append(slice(*s))
        return vol[tuple(sl)]

    center = corner(0, 0)
    codes = np.zeros(center.shape, dtype=np.uint8)
    du_all, dv_all = _neighbor_offsets(r_u, r_v)
    for k in range(8):
        du, dv = du_all[k], dv_all[k]
        iu, iv = int(np.floor(du)), int(np.floor(dv))
        fu, fv = du - iu, dv - iv
        # Integer radii put an offset on the lattice or off it on both axes.
        if fu == 0.0 and fv == 0.0:
            sample = corner(iu, iv)
        else:
            p00 = corner(iu, iv)
            p10 = corner(iu + 1, iv)
            a = p00 + fv * (corner(iu, iv + 1) - p00)
            b = p10 + fv * (corner(iu + 1, iv + 1) - p10)
            sample = a + fu * (b - a)
        codes |= (sample >= center).astype(np.uint8) << k
    return codes, lo


def lbp_top_descriptor(volume, params=None):
    """Compute the concatenated LBP-TOP descriptor of a video volume.

    ``volume`` is T×H×W with finite intensities in [0, 255], treated as
    float64; anything else raises a ValueError.  Layout of
    the result: blocks in row-major order; within a block planes XY, XT,
    YT; within a plane bins 0..58.  With ``normalize_histograms`` each
    non-empty 59-bin segment is L1-normalized to sum 1; segments with no
    valid centers stay all-zero.
    """
    params = params or LbpTopParams()
    vol = check_volume(volume)
    _, height, width = vol.shape
    if height < params.grid_rows or width < params.grid_cols:
        raise GridLargerThanFrame(
            f"{params.grid_rows}x{params.grid_cols} grid does not fit a {height}x{width} frame")

    radii = (params.radius_t, params.radius_y, params.radius_x)
    row_block = _block_index(height, params.grid_rows)
    col_block = _block_index(width, params.grid_cols)
    n_blocks = params.grid_rows * params.grid_cols
    hist = np.zeros((n_blocks, N_PLANES, N_BINS), dtype=np.float64)
    for plane_idx, (axis_u, axis_v) in enumerate(_PLANE_AXES):
        codes, lo = _plane_codes(vol, axis_u, axis_v, radii)
        if codes is None:
            continue
        _, n_y, n_x = codes.shape  # the valid-center span starts at lo
        block = (row_block[lo[1]:lo[1] + n_y, None] * params.grid_cols
                 + col_block[None, lo[2]:lo[2] + n_x])
        keys = block * N_BINS + _UNIFORM_MAPPING[codes]
        hist[:, plane_idx] = np.bincount(keys.ravel(), minlength=n_blocks * N_BINS).reshape(
            n_blocks, N_BINS)
    if params.normalize_histograms:
        totals = hist.sum(axis=2, keepdims=True)
        np.divide(hist, totals, out=hist, where=totals > 0)
    return hist.reshape(-1)
