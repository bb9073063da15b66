"""Fast Vilenkin transform between cell samples and Fourier coefficients.

Analysis is measure-weighted (a 1/M_N factor on the forward direction), so
coefficient 0 is the mean of the samples; synthesis is the plain character
sum.  The fast path decimates by mixed-radix digits: one butterfly stage per
coordinate, each contracting a stride-M_t block with the m_t-point root
table, for O(M_N * sum(m_k)) arithmetic in total.  Because the group is a
direct product, the stages touch disjoint digit positions and no reordering
pass is needed.  Each stage contracts the leading axis of a contiguous copy,
so all the other axes form einsum's inner loop.  Two-dimensional grids are
transformed axis by axis, and their results are column-major: norms reduce
in memory order, and the last bits of reported values depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import GroupContext, _check_index
from .kernels import MAX_CELLS_1D, _check_cap, _root_table

__all__ = [
    "MAX_CELLS_1D",
    "MAX_CELLS_2D",
    "SampledFunction1D",
    "SampledFunction2D",
    "SpectralGrid1D",
    "SpectralGrid2D",
    "fvt_forward",
    "fvt_inverse",
    "fvt_forward_2d",
    "fvt_inverse_2d",
    "partial_sum_rect",
    "marginal_partial_sum",
]

# Desk-scale resolution caps: grids stay well under ~10^6 complex entries.
# MAX_CELLS_1D is defined with the dense kernel tables it also bounds.
MAX_CELLS_2D = 1024


@dataclass(frozen=True, eq=False)
class _GridBase:
    """Complex values on M_N cells or indices per axis, checked and read-only.

    The values are copied in the caller's memory order: norms reduce in
    memory order, so a layout change would move the last bits of reports.
    """

    ctx: GroupContext
    values: np.ndarray
    _ndim, _cap = 1, MAX_CELLS_1D

    def __post_init__(self) -> None:
        _check_cap(self.ctx, self._cap)
        arr = np.array(self.values, dtype=np.complex128, copy=True)
        shape = (self.ctx.size,) * self._ndim
        if arr.shape != shape:
            raise ValueError(f"values have shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def _binop(self, other, op):
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.ctx != self.ctx:
            raise ValueError("operands belong to different group contexts")
        return type(self)(self.ctx, op(self.values, other.values))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)


class SampledFunction1D(_GridBase):
    """Complex samples on the M_N level-N cells, indexed by cell id."""


class SpectralGrid1D(_GridBase):
    """Fourier coefficients f_hat(k) for indices k < M_N."""


class SampledFunction2D(_GridBase):
    """Complex samples on the M_N x M_N grid of level-N cell pairs."""

    _ndim, _cap = 2, MAX_CELLS_2D


class SpectralGrid2D(_GridBase):
    """Fourier coefficients f_hat(k1, k2) for indices below M_N."""

    _ndim, _cap = 2, MAX_CELLS_2D


def _decimate(
    ctx: GroupContext, values: np.ndarray, sign: int, axis: int = -1
) -> np.ndarray:
    """Apply the digit-wise butterfly stages along ``axis``.

    The transform axis is moved to the front of a contiguous copy, so each
    stage contracts a leading axis and einsum's inner loop runs over all the
    other axes at once.  Every output is still summed over the digit in the
    same order, so the values are bit for bit those of a last-axis contraction.
    """
    arr = np.asarray(values, dtype=np.complex128)
    out = np.ascontiguousarray(np.moveaxis(arr, axis, 0))
    shape = out.shape
    size = ctx.size
    for mt, Mt in zip(ctx.m, ctx.M):
        view = out.reshape(size // (mt * Mt), mt, Mt, -1)
        out = np.einsum("qjrl,jk->qkrl", view, _root_table(mt, sign))
    return np.moveaxis(out.reshape(shape), 0, axis)


def _decimate_2d(ctx: GroupContext, values: np.ndarray, sign: int) -> np.ndarray:
    # Column-major, as norms reduce in memory order and report bytes depend on it.
    half = _decimate(ctx, values, sign, axis=1)
    return np.asfortranarray(_decimate(ctx, half, sign, axis=0))


def fvt_forward(f: SampledFunction1D) -> SpectralGrid1D:
    """Coefficients f_hat(k) = (1/M_N) sum_x f(x) * conj(psi_k(x))."""
    coeffs = _decimate(f.ctx, f.values, -1) / f.ctx.size
    return SpectralGrid1D(f.ctx, coeffs)


def fvt_inverse(grid: SpectralGrid1D) -> SampledFunction1D:
    """Samples f(x) = sum_k f_hat(k) * psi_k(x)."""
    return SampledFunction1D(grid.ctx, _decimate(grid.ctx, grid.values, 1))


def fvt_forward_2d(f: SampledFunction2D) -> SpectralGrid2D:
    """Axis-wise 2D analysis with 1/M_N^2 normalization."""
    coeffs = _decimate_2d(f.ctx, f.values, -1) / f.ctx.size**2
    return SpectralGrid2D(f.ctx, coeffs)


def fvt_inverse_2d(grid: SpectralGrid2D) -> SampledFunction2D:
    """Axis-wise 2D synthesis."""
    return SampledFunction2D(grid.ctx, _decimate_2d(grid.ctx, grid.values, 1))


def partial_sum_rect(grid: SpectralGrid2D, n1: int, n2: int) -> SampledFunction2D:
    """Rectangular partial sum S_{n1,n2}: synthesis of indices k1 < n1, k2 < n2."""
    n1, n2 = (_check_index(n, 0, grid.ctx.size, "truncation") for n in (n1, n2))
    masked = np.zeros_like(grid.values)
    masked[:n1, :n2] = grid.values[:n1, :n2]
    return fvt_inverse_2d(SpectralGrid2D(grid.ctx, masked))


def marginal_partial_sum(grid: SpectralGrid2D, axis: int, n: int) -> SampledFunction2D:
    """Partial sum truncated along one variable only.

    ``axis=1`` truncates the first variable (keeping the full spectrum in the
    second), ``axis=2`` the other way around.  The single convention of this
    module applies on both axes: coefficients come from conjugated analysis
    and synthesis uses plain characters.
    """
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    size = grid.ctx.size
    return partial_sum_rect(grid, n, size) if axis == 1 else partial_sum_rect(grid, size, n)
