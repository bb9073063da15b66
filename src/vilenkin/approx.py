"""Negative-order Cesaro means, Lp norms, and dyadic moduli of continuity.

The (C,-alpha) mean sigma_n of the quadratic partial sums S_{j,j} is applied
in the spectral domain: a coefficient at (k1, k2) survives in S_{j,j} for
every j > max(k1, k2), so its net multiplier telescopes to
A_{n-1-max}^{-alpha} / A_{n-1}^{-alpha}.  One synthesis replaces the n-term
average; the literal S_{j,j} sum is kept in the test layer as an oracle.

Moduli of continuity are exact: a shift inside I_n permutes level-N cells,
and sampled functions are constant on cells, so the supremum over I_n is the
maximum over the M_N/M_n cells of I_n, the multiples of M_n.  One
``translate_ids`` call builds the permutations of all of them.  The
single-shift kinds form each shifted difference once and reduce it for every
p; since I_r holds every M_r-th shift of I_0, one level-0 table of these
norms gives every level.  The double-shift kinds (``omega12``, ``total``)
loop over row shifts only and gather the column shifts in blocks of bounded
size.  At p = 2 they enumerate no shift: by Plancherel,

    ||tau_(u,v) f - f||_2^2 = sum_k |f_hat(k)|^2 |psi_k1(u) psi_k2(v) - 1|^2,

so one inverse transform of the power spectrum gives every shift's norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import GroupContext, _check_index, _negate_ids, translate_ids
from .kernels import cesaro_numbers
from .transform import SampledFunction2D, SpectralGrid2D, fvt_forward_2d, fvt_inverse_2d

__all__ = [
    "ModulusReport",
    "MODULUS_KINDS",
    "lp_norm",
    "cesaro_weights",
    "cesaro_mean",
    "shift_representatives",
    "modulus",
]

MODULUS_KINDS = ("omega1", "omega2", "omega12", "total")


# Smallest normal float: a mean of |v|^p below it has lost significant bits.
_TINY = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)


def _lp_mags(mags: np.ndarray, p: float, axis=None):
    """Lp mean of the magnitudes ``mags``, over every entry or along ``axis``."""
    if math.isinf(p):
        out = np.max(mags, axis=axis)
    else:
        with np.errstate(over="ignore"):
            power_mean = np.mean(mags**p, axis=axis)
        out = power_mean ** (1.0 / p)
        lo = hi = power_mean
        if axis is not None:
            lo, hi = power_mean.min(), power_mean.max()
        if not _TINY <= lo <= hi < math.inf:
            out = _lp_rescaled(mags, p, axis, power_mean, out)
    return float(out) if axis is None else out


def _lp_rescaled(mags: np.ndarray, p: float, axis, power_mean, out):
    """Redo the entries of ``out`` whose mean of mags**p is not a normal float.

    A large finite p can overflow mags**p, or underflow it to a subnormal or
    0, which leaves the p-th root with few or no correct bits.  Only those
    entries are recomputed scaled by their maximum, so every entry whose
    mean is a normal float keeps the bits of the plain expression.
    """
    peak = np.max(mags, axis=axis, keepdims=True)
    inexact = ~((power_mean >= _TINY) & (power_mean < math.inf))
    redo = inexact & (np.squeeze(peak, axis) > 0.0)
    if not redo.any():
        return out
    safe = np.where(peak > 0.0, peak, 1.0)
    rescaled = np.mean((mags / safe) ** p, axis=axis) ** (1.0 / p) * np.squeeze(safe, axis)
    return np.where(redo, rescaled, out)


def _check_p(p: float) -> float:
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return p


def lp_norm(f: SampledFunction2D, p: float) -> float:
    """Lp norm with the exact cell measure 1/M_N^2; p = inf is the cell maximum."""
    return _lp_mags(np.abs(f.values), _check_p(p))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def cesaro_weights(n: int, alpha: float) -> np.ndarray:
    """Read-only multipliers A_{n-1-mx}^{-a} / A_{n-1}^{-a}, mx = max(k1, k2) < n.

    Coefficients at mx >= n are dropped.
    """
    n = _check_index(n, 1, None, "mean order")
    alpha = _check_alpha(alpha)
    table = cesaro_numbers(-alpha, n - 1)
    weights = table[::-1] / table[n - 1]
    weights.flags.writeable = False
    return weights


def cesaro_mean(grid: SpectralGrid2D, n: int, alpha: float) -> SampledFunction2D:
    """The (C,-alpha) mean of the quadratic partial sums, via one synthesis."""
    size = grid.ctx.size
    n = _check_index(n, 1, size, "mean order")
    weights = cesaro_weights(n, alpha)
    idx = np.maximum.outer(np.arange(size), np.arange(size))
    multiplier = np.where(idx < n, weights[np.minimum(idx, n - 1)], 0.0)
    return fvt_inverse_2d(SpectralGrid2D(grid.ctx, grid.values * multiplier))


def shift_representatives(ctx: GroupContext, level: int) -> np.ndarray:
    """Cell ids of I_level: one representative per level-N cell of the interval."""
    step = ctx.M[_check_index(level, 0, ctx.level, "level")]
    return np.arange(0, ctx.size, step)


@dataclass(frozen=True)
class ModulusReport:
    """One modulus-of-continuity evaluation."""

    kind: str
    level: int
    level2: int | None
    p: float
    value: float


def _axis_norms(f: SampledFunction2D, axis: int, level: int, ps) -> np.ndarray:
    """Lp norms of f(. + u) - f along ``axis``: a row per p, a column per u in I_level."""
    perms = translate_ids(f.ctx, shift_representatives(f.ctx, level))
    table = np.empty((len(ps), len(perms)))
    for j, perm in enumerate(perms):
        mags = np.abs((f.values[perm, :] if axis == 0 else f.values[:, perm]) - f.values)
        for i, p in enumerate(ps):
            table[i, j] = _lp_mags(mags, p)
    return table


def _plancherel_modulus(f: SampledFunction2D, kind: str, level: int, level2: int) -> float:
    """p = 2 double-shift modulus from one inverse transform of |f_hat|^2.

    With G the synthesis of the power spectrum P and S = sum P,
    ||tau_(u,v) f - f||^2 = 2S - 2 Re G(u, v) and the squared mixed double
    difference is 4S - 4 Re G(u, 0) - 4 Re G(0, v) + 2 Re G(u, v) + 2 Re G(u, -v).
    Coefficients invariant under the shifts contribute exactly 0 and are
    dropped first.  What is left of a constant is the transform's rounding,
    whose l2 size stays below 2 * sum(m) * eps of ||f||_2 (each radix-m
    butterfly pass rounds a sum of m terms, N passes per variable); power
    under that bound is read as exact 0, so constants and the top level
    return 0.0 for every radix.
    """
    ctx = f.ctx
    coeffs = fvt_forward_2d(f).values
    # dividing by a power of two near the peak keeps |coeffs|^2 finite, exactly
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(coeffs))))[1])
    power = np.abs(coeffs / scale) ** 2
    full = power.sum()
    low1 = np.arange(ctx.size) < ctx.M[level]
    low2 = np.arange(ctx.size) < ctx.M[level2]
    if kind == "total":
        power[np.outer(low1, low2)] = 0.0
    else:
        power[low1, :] = 0.0
        power[:, low2] = 0.0
    total = power.sum()
    if total <= (2 * sum(ctx.m) * _EPS) ** 2 * full:
        return 0.0
    gram = fvt_inverse_2d(SpectralGrid2D(ctx, power)).values.real
    rows = shift_representatives(ctx, level)
    cols = shift_representatives(ctx, level2)
    if kind == "total":
        sq = 2.0 * total - 2.0 * gram[np.ix_(rows, cols)]
    else:
        sq = (
            4.0 * total
            - 4.0 * gram[rows, 0][:, None]
            - 4.0 * gram[0, cols][None, :]
            + 2.0 * gram[np.ix_(rows, cols)]
            + 2.0 * gram[np.ix_(rows, _negate_ids(ctx, cols))]
        )
    return math.sqrt(max(float(sq.max()), 0.0)) * scale


# Complex entries per gathered block of column shifts (one shift per block
# once a single grid is larger).
_BLOCK_ENTRIES = 2**14


def _double_shift_modulus(
    f: SampledFunction2D, kind: str, level: int, level2: int, p: float
) -> float:
    """Max over (u, v) of the Lp norm of the double difference, blocked in v.

    Works on transposed grids so that a column shift is a row gather: for
    ``total`` the difference is f(x+u, y+v) - f(x, y); for ``omega12`` it is
    g(x, y+v) - g(x, y) with the row difference g = f(x+u, y) - f(x, y).
    """
    ctx = f.ctx
    vals_t = np.ascontiguousarray(f.values.T)
    col_perms = translate_ids(ctx, shift_representatives(ctx, level2))
    block = max(1, _BLOCK_ENTRIES // ctx.size**2)
    best = 0.0
    for pu in translate_ids(ctx, shift_representatives(ctx, level)):
        shifted_t = vals_t[:, pu]
        base_t = shifted_t - vals_t if kind == "omega12" else shifted_t
        ref_t = base_t if kind == "omega12" else vals_t
        for start in range(0, len(col_perms), block):
            diff = base_t[col_perms[start : start + block]]
            diff -= ref_t
            best = max(best, float(np.max(_lp_mags(np.abs(diff), p, axis=(1, 2)))))
    return best


def modulus(
    f: SampledFunction2D,
    kind: str,
    level: int,
    p: float,
    level2: int | None = None,
) -> ModulusReport:
    """Dyadic modulus of continuity at the given level(s).

    ``omega1``/``omega2`` shift the first/second variable over I_level;
    ``omega12`` is the mixed double difference over I_level x I_level2
    (level2 defaults to level); ``total`` shifts both variables over I_level.
    The supremum is a maximum over shift representatives, exact for sampled
    functions.
    """
    if kind not in MODULUS_KINDS:
        raise ValueError(f"kind must be one of {MODULUS_KINDS}, got {kind!r}")
    level = _check_index(level, 0, f.ctx.level, "level")
    if kind != "omega12":
        if level2 is not None:
            raise ValueError("level2 applies only to the mixed modulus")
        second = None
    else:
        second = level if level2 is None else _check_index(level2, 0, f.ctx.level, "level")
    p = _check_p(p)

    if kind in ("omega1", "omega2"):
        axis = 0 if kind == "omega1" else 1
        value = float(_axis_norms(f, axis, level, [p]).max())
    else:
        col_level = level if second is None else second
        if p == 2.0:
            value = _plancherel_modulus(f, kind, level, col_level)
        else:
            value = _double_shift_modulus(f, kind, level, col_level, p)
    return ModulusReport(kind, level, second, p, value)
