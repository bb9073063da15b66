"""Fast Vilenkin transform between cell samples and Fourier coefficients.

Analysis is measure-weighted (a 1/M_N factor on the forward direction), so
coefficient 0 is the mean of the samples; synthesis is the plain character
sum.  The fast path decimates by mixed-radix digits: one butterfly stage per
coordinate, each contracting a stride-M_t block with the m_t-point root
table, for O(M_N * sum(m_k)) arithmetic in total.  Because the group is a
direct product, the stages touch disjoint digit positions and no reordering
pass is needed.  Each stage contracts the leading axis of a contiguous copy,
so all the other axes, a stack's included, form einsum's inner loop.  A
radix-2 stage is one add and one subtract instead: the einsum against the
exact table [[1, 1], [1, -1]] forms the same a0 + a1 and a0 - a1, since
0 + a0 and the products by +-1 are exact (only the sign of a zero can
differ, and no norm sees it).  Two-dimensional grids are
transformed along the last two axes, the last first.

Norms reduce in memory order, so the last bits of reported values depend on
a grid's layout, and the rule is this: a grid keeps the caller's memory
order, and transforms and syntheses return row-major values.  The one
column-major grid is a ``random_poly`` family's, whose sweep reports are
pinned with its norms reduced in that order.

A spectrum that vanishes outside its leading n x n block has period M_j in
both variables, M_j the smallest scale >= n, since characters below M_j see
only the low j digits of a cell id.  Such a spectrum is synthesised on the
grid of ``ctx.truncate(max(j, 1))`` and tiled back: partial sums, Cesaro
means and ``random_poly`` families pay for M_j^2 cells, not M_N^2.

Overflow has one rule.  The forward transforms, a modulus and both sides of
a theorem report are homogeneous of degree 1 in f, so a grid whose peak |f|
reaches ``_SAFE_PEAK`` runs on f / 2^k, 2^k the smallest power of two that
brings the peak below it, and its values (not a ratio) are multiplied by
2^k.  A coefficient never exceeds the peak, so the spectrum of a finite grid
is finite; a modulus or a report value is finite or inf.  Syntheses, Cesaro
means and partial sums included, raise ``ValueError`` when their values leave
the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import GroupContext, _band_level, _check_index
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

    The values are copied in the caller's memory order (see the module
    docstring for why the layout matters).
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


# Peak |f| from which a grid is scaled down.  A coefficient is at most the peak,
# a Cesaro weight below 2^20 (``cesaro_weights(1024, 0.999)``: 2^19.95), a
# transform or L1 mean sums M_N^2 <= 2^20 terms and sigma_n f - f doubles: no sum,
# the moduli's included, exceeds 2^61 peaks, and 2^960 = 2^1024 / 2^64 is safe.
_SAFE_PEAK = 2.0**960


def _safe_scaled(f: _GridBase) -> tuple[_GridBase, float]:
    """``(f, 1.0)``, or ``(f / 2^k, 2^k)`` when f peaks at or above ``_SAFE_PEAK``."""
    # halved, since |v| of a finite complex v can exceed the float range
    half_peak = float(np.max(np.abs(f.values * 0.5)))
    if half_peak < _SAFE_PEAK / 2:
        return f, 1.0
    scale = math.ldexp(1.0, math.frexp(half_peak / (_SAFE_PEAK / 2))[1])
    return type(f)(f.ctx, f.values / scale), scale


def _decimate(
    ctx: GroupContext, values: np.ndarray, sign: int, axis: int = -1
) -> np.ndarray:
    """Apply the digit-wise butterfly stages along ``axis``.

    The transform axis is moved to the front of a contiguous copy, so each
    stage contracts a leading axis and its inner loop runs over all the
    other axes at once.  Every output is still summed over the digit in the
    same order, so the values are bit for bit those of a last-axis
    contraction, whatever the other axes hold.  A radix-2 stage overflows
    to inf or nan without a warning, as the einsum does.
    """
    arr = np.asarray(values, dtype=np.complex128)
    out = np.ascontiguousarray(np.moveaxis(arr, axis, 0))
    shape = out.shape
    size = ctx.size
    with np.errstate(over="ignore", invalid="ignore"):
        for mt, Mt in zip(ctx.m, ctx.M):
            view = out.reshape(size // (mt * Mt), mt, Mt, -1)
            if mt == 2:
                out = np.empty_like(view)
                np.add(view[:, 0], view[:, 1], out=out[:, 0])
                np.subtract(view[:, 0], view[:, 1], out=out[:, 1])
            else:
                out = np.einsum("qjrl,jk->qkrl", view, _root_table(mt, sign))
    return np.moveaxis(out.reshape(shape), 0, axis)


def _decimate_2d(ctx: GroupContext, values: np.ndarray, sign: int) -> np.ndarray:
    """The stages along the last two axes, the last first; leading axes are a stack."""
    return _decimate(ctx, _decimate(ctx, values, sign, axis=-1), sign, axis=-2)


def _divided(sums: np.ndarray, count: int) -> np.ndarray:
    """``sums`` divided in place by the real ``count``, each part on its own.

    numpy divides a complex array by a number as a complex division, through
    a rounded 1 / count, which would give the constant 1 on 3^3 cells
    f_hat(0, 0) = 1 - 2^-53.  One real division per part rounds each part
    once.
    """
    sums.real /= count
    sums.imag /= count
    return sums


def fvt_forward(f: SampledFunction1D) -> SpectralGrid1D:
    """Coefficients f_hat(k) = (1/M_N) sum_x f(x) * conj(psi_k(x))."""
    scaled, scale = _safe_scaled(f)
    coeffs = _divided(_decimate(f.ctx, scaled.values, -1), f.ctx.size)
    return SpectralGrid1D(f.ctx, coeffs * scale)


def fvt_inverse(grid: SpectralGrid1D) -> SampledFunction1D:
    """Samples f(x) = sum_k f_hat(k) * psi_k(x)."""
    return SampledFunction1D(grid.ctx, _decimate(grid.ctx, grid.values, 1))


def fvt_forward_2d(f: SampledFunction2D) -> SpectralGrid2D:
    """Axis-wise 2D analysis with 1/M_N^2 normalization."""
    scaled, scale = _safe_scaled(f)
    coeffs = _divided(_decimate_2d(f.ctx, scaled.values, -1), f.ctx.size**2)
    return SpectralGrid2D(f.ctx, coeffs * scale)


def fvt_inverse_2d(grid: SpectralGrid2D) -> SampledFunction2D:
    """Axis-wise 2D synthesis."""
    return SampledFunction2D(grid.ctx, _decimate_2d(grid.ctx, grid.values, 1))


def _band_synthesis(ctx: GroupContext, coeffs: np.ndarray) -> np.ndarray:
    """Synthesis of spectra that are ``coeffs`` at the low corner and 0 elsewhere.

    ``coeffs`` is one band, or a stack of bands along its leading axes, each
    synthesised as on its own.  With n the larger side of a band and M_j the
    smallest scale >= n, the result has period M_j in both variables: it is
    synthesised on the grid of ``ctx.truncate(max(j, 1))`` and tiled back
    (one tile at j = N).  The sums are bit for bit those of the full grid,
    since the stages of digits t >= j see only index digit 0 and pass each
    value through times 1; at j = 0 the band is at most the (0, 0)
    coefficient, and the digit-0 stage is one of those.
    """
    lead, band = coeffs.shape[:-2], coeffs.shape[-2:]
    sub = ctx.truncate(max(_band_level(ctx, max(band)), 1))
    padded = np.zeros(lead + (sub.size, sub.size), dtype=np.complex128)
    padded[..., : band[0], : band[1]] = coeffs
    reps = ctx.size // sub.size
    out = _decimate_2d(sub, padded, 1)
    if reps == 1:
        # a stack comes back with its grids interleaved: one copy into C order
        return np.ascontiguousarray(out)
    # reps on the last two axes only: np.tile prepends 1s for the stack axes
    return np.tile(out, (reps, reps))


def partial_sum_rect(grid: SpectralGrid2D, n1: int, n2: int) -> SampledFunction2D:
    """Rectangular partial sum S_{n1,n2}: synthesis of indices k1 < n1, k2 < n2."""
    n1, n2 = (_check_index(n, 0, grid.ctx.size, "truncation") for n in (n1, n2))
    return SampledFunction2D(grid.ctx, _band_synthesis(grid.ctx, grid.values[:n1, :n2]))


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
