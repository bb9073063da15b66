"""Characters, Dirichlet kernels, and generalized binomial numbers.

The character psi_n is the product over coordinates of powers of the
generalized Rademacher functions r_k(x) = exp(2*pi*i*x_k/m_k); Dirichlet
kernels are the partial sums D_n = sum_{k<n} psi_k, with D_0 taken as the
empty sum so the reflection identity below holds at its boundary.  The
generalized binomial numbers A_n^beta = (beta+1)...(beta+n)/n! drive the
negative-order Cesaro means; they are computed by the multiplicative
recurrence A_n = A_{n-1} * (beta+n)/n in double precision.

Identity checkers return max-absolute residuals rather than booleans; the
tolerance policy lives in the callers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ResolutionExceededError
from .group import (
    GroupContext,
    GroupElement,
    _check_element,
    _check_index,
    _real,
    digit_table,
    index_expand,
)

__all__ = [
    "unit_roots",
    "rademacher",
    "psi",
    "psi_values",
    "character_table",
    "dirichlet",
    "dirichlet_table",
    "cesaro_numbers",
    "compensated_cumsum",
    "lemma2_check",
    "paley_check",
    "eq1_residual",
    "eq2_residual",
    "eq3_residual",
    "eq4_residual",
]

MAX_TABLE_LENGTH = 10**6

# The 1D resolution cap; it also bounds the dense (M_N, M_N) kernel tables,
# 256 MiB of complex entries each at the cap.
MAX_CELLS_1D = 4096


def _check_cap(ctx: GroupContext, cap: int) -> None:
    if ctx.size > cap:
        raise ResolutionExceededError(f"M_N = {ctx.size} exceeds the resolution cap {cap}")


_SQRT3_HALF = math.sqrt(3.0) / 2.0


def _root_fraction(num: int, den: int) -> complex:
    """exp(2*pi*i*num/den) with exact components where they exist.

    Angles whose reduced denominator divides 4 or 6 have cosine/sine pairs
    representable exactly (0, +-1, +-1/2); using those keeps the column sums
    of small butterfly tables identically zero, so transforms of constant
    input produce exact zero coefficients.
    """
    num %= den
    g = math.gcd(num, den) or 1
    num, den = num // g, den // g
    if den == 1:
        return complex(1.0, 0.0)
    if den == 2:
        return complex(-1.0, 0.0)
    if den == 4:
        return complex(0.0, 1.0) if num == 1 else complex(0.0, -1.0)
    if den == 3:
        return complex(-0.5, _SQRT3_HALF if num == 1 else -_SQRT3_HALF)
    if den == 6:
        return complex(0.5, _SQRT3_HALF if num == 1 else -_SQRT3_HALF)
    angle = 2.0 * math.pi * num / den
    return complex(math.cos(angle), math.sin(angle))


@lru_cache(maxsize=None)
def unit_roots(m: int) -> np.ndarray:
    """The m-th roots of unity exp(2*pi*i*j/m), conjugate-symmetric by construction."""
    roots = np.empty(m, dtype=np.complex128)
    for j in range(m // 2 + 1):
        roots[j] = _root_fraction(j, m)
    for j in range(m // 2 + 1, m):
        roots[j] = roots[m - j].conjugate()
    roots.flags.writeable = False
    return roots


@lru_cache(maxsize=None)
def _root_table(m: int, sign: int) -> np.ndarray:
    """[j, k] = exp(2*pi*i*sign*j*k/m): a Kronecker factor of the character table."""
    idx = np.outer(np.arange(m), np.arange(m))
    table = unit_roots(m)[(sign * idx) % m]
    table.flags.writeable = False
    return table


def rademacher(ctx: GroupContext, k: int, x: GroupElement) -> complex:
    """Generalized Rademacher value r_k(x) = exp(2*pi*i*x_k/m_k)."""
    k = _check_index(k, 0, ctx.level - 1, "coordinate")
    _check_element(ctx, x)
    return complex(unit_roots(ctx.m[k])[x.digits[k]])


def psi(ctx: GroupContext, n: int, x: GroupElement) -> complex:
    """Character value psi_n(x), the product of r_k(x)**n_k over coordinates."""
    nd = index_expand(ctx, n).digits
    _check_element(ctx, x)
    out = complex(1.0, 0.0)
    for mk, d, xk in zip(ctx.m, nd, x.digits):
        if d:
            out *= complex(unit_roots(mk)[(d * xk) % mk])
    return out


def psi_values(ctx: GroupContext, n: int) -> np.ndarray:
    """psi_n evaluated on every level-N cell, indexed by cell id."""
    nd = index_expand(ctx, n).digits
    table = digit_table(ctx)
    out = np.ones(ctx.size, dtype=np.complex128)
    for t, (mk, d) in enumerate(zip(ctx.m, nd)):
        if d:
            out *= unit_roots(mk)[(d * table[t]) % mk]
    return out


def character_table(ctx: GroupContext) -> np.ndarray:
    """(M_N, M_N) matrix with entry [n, j] = psi_n(cell j).

    Built as the Kronecker product of the per-coordinate root tables, which
    matches the mixed-radix linearization of both indices.  Raises
    ResolutionExceededError before allocating when M_N exceeds MAX_CELLS_1D.
    """
    _check_cap(ctx, MAX_CELLS_1D)
    table = np.ones((1, 1), dtype=np.complex128)
    for mk in ctx.m:
        table = np.kron(_root_table(mk, 1), table)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def dirichlet_table(ctx: GroupContext) -> np.ndarray:
    """(M_N + 1, M_N) matrix whose row n is the Dirichlet kernel D_n on all cells.

    Row 0 is the empty sum; row n is the cumulative sum of the first n
    characters, so requesting the full table costs O(M_N) per cell.

    The characters are formed one top digit j at a time: rows j * S to
    (j + 1) * S - 1 of the character table, S = M_{N-1}, are the Kronecker
    product of the top roots exp(2*pi*i*j*k/m_{N-1}), read from
    ``unit_roots``, with the character table of the first N - 1
    coordinates.  Each block continues the running sum from the row before
    it, so neither the full character table nor the top root table is held,
    and every entry is the same product and the same sequential sum as in a
    cumsum of the full table.  Raises ResolutionExceededError before
    allocating when M_N exceeds MAX_CELLS_1D.
    """
    _check_cap(ctx, MAX_CELLS_1D)
    top = ctx.m[-1]
    roots = unit_roots(top)
    if ctx.level > 1:
        lower = character_table(ctx.truncate(ctx.level - 1))
    else:
        lower = np.ones((1, 1), dtype=np.complex128)
    step = lower.shape[0]
    out = np.zeros((ctx.size + 1, ctx.size), dtype=np.complex128)
    for j in range(top):
        lo = j * step
        out[lo + 1 : lo + step + 1] = np.kron(roots[j * np.arange(top) % top], lower)
        # row lo holds the sum so far, so the cumsum continues from it
        np.cumsum(out[lo : lo + step + 1], axis=0, out=out[lo : lo + step + 1])
    out.flags.writeable = False
    return out


def dirichlet(ctx: GroupContext, n: int, x: GroupElement) -> complex:
    """Pointwise Dirichlet kernel D_n(x) = sum_{k<n} psi_k(x).

    Convenience for single evaluations; bulk work should go through
    :func:`dirichlet_table`.
    """
    n = _check_index(n, 0, ctx.size, "kernel index")
    _check_element(ctx, x)
    return complex(sum(psi(ctx, k, x) for k in range(n)))


def cesaro_numbers(beta: float, length: int) -> np.ndarray:
    """Read-only A_n^beta for n = 0..length via the multiplicative recurrence.

    The recurrence is a sequential ``cumprod``: a shorter table is a bit-exact
    prefix of a longer one.
    """
    length = _check_index(length, 0, MAX_TABLE_LENGTH, "table length")
    beta = _real(beta, "exponent")
    if not math.isfinite(beta):
        raise ValueError(f"exponent must be finite, got {beta}")
    n = np.arange(1, length + 1, dtype=np.float64)
    values = np.ones(length + 1, dtype=np.float64)
    if length:
        np.cumprod((beta + n) / n, out=values[1:])
    values.flags.writeable = False
    return values


def compensated_cumsum(values: np.ndarray) -> np.ndarray:
    """Prefix sums with Neumaier compensation.

    The uncompensated prefix sums of A_n^{beta-1} lose enough bits through
    cancellation to spoil a 1e-12 recurrence check near n = 10^4; the
    compensated version keeps every prefix accurate to a few ulps.
    """
    v = np.asarray(values, dtype=np.float64)
    # np.cumsum adds in sequence, as a running total does
    total = np.cumsum(v)
    prev = np.concatenate(([0.0], total[:-1]))
    err = np.where(np.abs(prev) >= np.abs(v), (prev - total) + v, (v - total) + prev)
    return total + np.cumsum(err)


def lemma2_check(ctx: GroupContext, s: int, n_s: int) -> np.ndarray:
    """Max residuals of the kernel reflection identity, one per offset j.

    For 0 < n_s < m_s and every 0 <= j <= n_s*M_s, checks
    D_{n_s*M_s - j} = D_{n_s*M_s} - psi_{n_s*M_s - 1} * conj(D_j).
    """
    s = _check_index(s, 0, ctx.level - 1, "level")
    n_s = _check_index(n_s, 1, ctx.m[s] - 1, "digit")
    block = n_s * ctx.M[s]
    kern = dirichlet_table(ctx)
    char = psi_values(ctx, block - 1)
    return np.array([np.max(np.abs(kern[block - j] - (kern[block] - char * kern[j].conj())))
                     for j in range(block + 1)])


def paley_check(ctx: GroupContext, level: int, digit: int) -> tuple[np.ndarray, np.ndarray]:
    """Max residuals ``(direct, block)`` of the Paley shift decomposition per j < M_level.

    Direct form: D_{j + digit*M_level} = D_{digit*M_level} + psi_{digit*M_level} * D_j.
    Block form: the same left side against
    (sum_{q<digit} psi_{M_level}^q) * D_{M_level} + psi_{M_level}^digit * D_j.
    Requires 0 <= digit < m_level.
    """
    level = _check_index(level, 0, ctx.level - 1, "level")
    digit = _check_index(digit, 0, ctx.m[level] - 1, "digit")
    kern = dirichlet_table(ctx)
    step = ctx.M[level]
    base = digit * step
    char = psi_values(ctx, base)
    head = sum(psi_values(ctx, q * step) for q in range(digit)) * kern[step]
    direct = np.array([np.max(np.abs(kern[j + base] - (kern[base] + char * kern[j])))
                       for j in range(step)])
    block = np.array([np.max(np.abs(kern[j + base] - (head + char * kern[j])))
                      for j in range(step)])
    return direct, block


def eq1_residual(ctx: GroupContext, k: int) -> float:
    """Max residual of D_{M_k} = M_k * indicator(I_k) on every cell."""
    k = _check_index(k, 0, ctx.level, "level")
    kern = dirichlet_table(ctx)
    ids = np.arange(ctx.size)
    indicator = (ids % ctx.M[k] == 0).astype(np.float64)
    return float(np.max(np.abs(kern[ctx.M[k]] - ctx.M[k] * indicator)))


def eq2_residual(beta: float, length: int) -> float:
    """Max relative residual of A_n^beta = sum_{k<=n} A_k^{beta-1}.

    Relative to the largest magnitude entering each instance of the identity
    (the running max of the summands and the left side).  The telescoped sum
    crosses through O(1) on its way down to values as small as ~1e-13, so a
    residual relative to the tiny endpoint would measure nothing but the
    condition number of the cancellation; relative to the data scale it
    measures the accuracy of the tables, which is the contract.
    """
    direct = cesaro_numbers(beta, length)
    summands = cesaro_numbers(beta - 1.0, length)
    summed = compensated_cumsum(summands)
    scale = np.maximum.accumulate(np.abs(summands))
    denom = np.maximum(np.abs(direct), scale)
    return float(np.max(np.abs(direct - summed) / denom))


def eq3_residual(beta: float, length: int) -> float:
    """Max relative residual of A_n^beta - A_{n-1}^beta = A_n^{beta-1}."""
    upper = cesaro_numbers(beta, length)
    lower = cesaro_numbers(beta - 1.0, length)
    diff = upper[1:] - upper[:-1]
    denom = np.maximum(np.maximum(np.abs(upper[1:]), np.abs(lower[1:])),
                       np.finfo(np.float64).tiny)
    return float(np.max(np.abs(diff - lower[1:]) / denom))


def eq4_residual(alpha: float, n: int = 10_000) -> float:
    """Gap |A_n^alpha * n^(-alpha) - 1/Gamma(alpha+1)| at a single n >= 1."""
    n = _check_index(n, 1, None, "order")
    alpha = _real(alpha, "alpha")
    value = float(cesaro_numbers(alpha, n)[n])
    return abs(value * n ** (-alpha) - 1.0 / math.gamma(alpha + 1.0))
