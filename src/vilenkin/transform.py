"""Fast Vilenkin transform between cell samples and Fourier coefficients.

Analysis is measure-weighted (a 1/M_N factor on the forward direction), so
coefficient 0 is the mean of the samples; synthesis is the plain character
sum.  The fast path decimates by mixed-radix digits: one butterfly stage per
coordinate, each contracting a stride-M_t block with the m_t-point root
table, for O(M_N * sum(m_k)) arithmetic in total.  Because the group is a
direct product, the stages touch disjoint digit positions and no reordering
pass is needed.  Two-dimensional grids are transformed axis by axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionExceededError
from .group import GroupContext
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


def _validated(ctx: GroupContext, values, shape: tuple[int, ...], cap: int) -> np.ndarray:
    _check_cap(ctx, cap)
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.shape != shape:
        raise ValueError(f"values have shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    arr.flags.writeable = False
    return arr


class _GridBase:
    ctx: GroupContext
    values: np.ndarray

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


@dataclass(frozen=True, eq=False)
class SampledFunction1D(_GridBase):
    """Complex samples on the M_N level-N cells, indexed by cell id."""

    ctx: GroupContext
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _validated(self.ctx, self.values, (self.ctx.size,), MAX_CELLS_1D)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class SpectralGrid1D(_GridBase):
    """Fourier coefficients f_hat(k) for indices k < M_N."""

    ctx: GroupContext
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _validated(self.ctx, self.values, (self.ctx.size,), MAX_CELLS_1D)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class SampledFunction2D(_GridBase):
    """Complex samples on the M_N x M_N grid of level-N cell pairs."""

    ctx: GroupContext
    values: np.ndarray

    def __post_init__(self) -> None:
        size = self.ctx.size
        arr = _validated(self.ctx, self.values, (size, size), MAX_CELLS_2D)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class SpectralGrid2D(_GridBase):
    """Fourier coefficients f_hat(k1, k2) for indices below M_N."""

    ctx: GroupContext
    values: np.ndarray

    def __post_init__(self) -> None:
        size = self.ctx.size
        arr = _validated(self.ctx, self.values, (size, size), MAX_CELLS_2D)
        object.__setattr__(self, "values", arr)


def _decimate(ctx: GroupContext, values: np.ndarray, sign: int) -> np.ndarray:
    """Apply the digit-wise butterfly stages along the last axis."""
    out = np.asarray(values, dtype=np.complex128)
    lead = out.shape[:-1]
    size = ctx.size
    for mt, Mt in zip(ctx.m, ctx.M):
        stage = _root_table(mt, sign)
        view = out.reshape(*lead, size // (mt * Mt), mt, Mt)
        out = np.einsum("...qjr,jk->...qkr", view, stage).reshape(*lead, size)
    return out


def _decimate_2d(ctx: GroupContext, values: np.ndarray, sign: int) -> np.ndarray:
    half = _decimate(ctx, values, sign)
    return _decimate(ctx, half.T, sign).T


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
    size = grid.ctx.size
    for n in (n1, n2):
        if not 0 <= n <= size:
            raise ResolutionExceededError(f"truncation {n} outside 0..{size}")
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
    size = grid.ctx.size
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    if not 0 <= n <= size:
        raise ResolutionExceededError(f"truncation {n} outside 0..{size}")
    masked = np.zeros_like(grid.values)
    if axis == 1:
        masked[:n, :] = grid.values[:n, :]
    else:
        masked[:, :n] = grid.values[:, :n]
    return fvt_inverse_2d(SpectralGrid2D(grid.ctx, masked))
