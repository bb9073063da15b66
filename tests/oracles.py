"""Independent reference implementations used only as test oracles.

Each oracle deliberately avoids the library code path it checks: transforms
are plain character-matrix sums, moduli enumerate shifts by literal element
arithmetic (or, for a character, take a closed form over exact phases), the
gamma function is a standalone Lanczos evaluation, the telescoped Cesaro sums
are re-done term by term in 80-bit precision, the weighted kernel integral of
Lemma 4 is rebuilt from pointwise Dirichlet sums, the weighted kernel
integrals take their period product in one call, the theorem rows of a
character come from its closed form, and compensated prefix sums run one
element at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from vilenkin.group import GroupContext, add, cell_enumerate, cell_id, in_interval, norm_map
from vilenkin.kernels import cesaro_numbers, character_table, dirichlet, dirichlet_table
from vilenkin.transform import SpectralGrid2D, fvt_inverse_2d, partial_sum_rect
from vilenkin.verify import _grid_mean


def naive_forward_1d(ctx: GroupContext, values: np.ndarray) -> np.ndarray:
    """O(M^2) coefficient sum straight from the character matrix."""
    chars = character_table(ctx)
    return chars.conj() @ values / ctx.size


def naive_forward_2d(ctx: GroupContext, values: np.ndarray) -> np.ndarray:
    chars = character_table(ctx)
    return chars.conj() @ values @ chars.conj().T / ctx.size**2


def full_grid_synthesis(ctx: GroupContext, coeffs: np.ndarray) -> np.ndarray:
    """Synthesis of ``coeffs`` zero-padded to the full M_N x M_N spectrum.

    The library synthesises a band-limited spectrum on its period grid and
    tiles it back; this is the full-grid transform that must give its bits.
    """
    padded = np.zeros((ctx.size, ctx.size), dtype=np.complex128)
    padded[: coeffs.shape[0], : coeffs.shape[1]] = coeffs
    return fvt_inverse_2d(SpectralGrid2D(ctx, padded)).values


def block_average(ctx: GroupContext, values: np.ndarray, k: int) -> np.ndarray:
    """Conditional expectation of a 2D grid on level-k cell pairs.

    Cells of I_k(x) are the ids congruent to x modulo M_k, so averaging the
    reshaped (high, low, high, low) axes over the high digits and tiling back
    realizes the projection that the partial sum S_{M_k,M_k} must equal.
    """
    Mk = ctx.M[k]
    q = ctx.size // Mk
    blocks = values.reshape(q, Mk, q, Mk).mean(axis=(0, 2))
    return np.tile(blocks, (q, q))


def brute_lp(values: np.ndarray, p: float) -> float:
    mags = np.abs(values)
    if math.isinf(p):
        return float(mags.max())
    return float((mags**p).mean() ** (1.0 / p))


def brute_shift_perms(ctx: GroupContext, level: int) -> list[np.ndarray]:
    """Shift permutations for every cell of I_level, via element arithmetic."""
    cells = cell_enumerate(ctx)
    perms = []
    for u in cells:
        if in_interval(ctx, u, level):
            perms.append(np.array([cell_id(ctx, add(ctx, x, u)) for x in cells]))
    return perms


def brute_modulus(
    ctx: GroupContext,
    values: np.ndarray,
    kind: str,
    level: int,
    p: float,
    level2: int | None = None,
) -> float:
    """Exhaustive modulus over all shifts in the base interval(s)."""
    perms1 = brute_shift_perms(ctx, level)
    best = 0.0
    if kind == "omega1":
        for pu in perms1:
            best = max(best, brute_lp(values[pu, :] - values, p))
    elif kind == "omega2":
        for pv in perms1:
            best = max(best, brute_lp(values[:, pv] - values, p))
    elif kind == "omega12":
        perms2 = brute_shift_perms(ctx, level if level2 is None else level2)
        for pu in perms1:
            for pv in perms2:
                diff = (
                    values[np.ix_(pu, pv)]
                    - values[pu, :]
                    - values[:, pv]
                    + values
                )
                best = max(best, brute_lp(diff, p))
    elif kind == "total":
        for pu in perms1:
            for pv in perms1:
                best = max(best, brute_lp(values[np.ix_(pu, pv)] - values, p))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return best


def _character_phases(m: tuple[int, ...], n: int, level: int) -> list[Fraction]:
    """psi_n(u) = exp(2 pi i t) for each u in I_level, as the exact t in [0, 1).

    n's mixed-radix digits n_k (least significant first) pair with the
    digits u_k of u, which are 0 below ``level`` and free from it on:
    t = sum_k n_k u_k / m_k mod 1.
    """
    digits = []
    for mk in m:
        n, d = divmod(n, mk)
        digits.append(d)
    free = [range(mk) if k >= level else (0,) for k, mk in enumerate(m)]
    return [sum((Fraction(d * uk, mk) for d, uk, mk in zip(digits, u, m)), Fraction(0)) % 1
            for u in product(*free)]


def _chord(t: Fraction) -> float:
    """|exp(2 pi i t) - 1| for t in [0, 1)."""
    return 2.0 * math.sin(math.pi * float(t))


def character_modulus(
    m: tuple[int, ...],
    a: int,
    b: int,
    kind: str,
    level: int,
    level2: int | None = None,
) -> float:
    """The modulus of f = psi_a(x) psi_b(y) in closed form, the same at every p.

    psi_a(x + u) = psi_a(x) psi_a(u) and |f| = 1, so each difference of f is f
    times a constant, and its L^p norm is that constant's modulus: the sup of
    |psi_a(u) - 1| over I_level for omega1, of |psi_b(v) - 1| for omega2, the
    product of the two (v over I_level2) for omega12, and of
    |psi_a(u) psi_b(v) - 1| over u, v in I_level for total.
    """
    first = _character_phases(m, a, level)
    second = _character_phases(m, b, level if level2 is None else level2)
    if kind == "omega1":
        return max(map(_chord, first))
    if kind == "omega2":
        return max(map(_chord, second))
    if kind == "omega12":
        return max(map(_chord, first)) * max(map(_chord, second))
    if kind == "total":
        return max(_chord((s + t) % 1) for s in first for t in second)
    raise ValueError(f"unknown kind {kind!r}")


@lru_cache(maxsize=None)
def _character_omega(m: tuple[int, ...], a: int, b: int, level: int) -> float:
    return (character_modulus(m, a, b, "omega1", level)
            + character_modulus(m, a, b, "omega2", level))


def character_theorem_sides(
    m: tuple[int, ...], a: int, b: int, alpha: float, claim: str, arg: int
) -> tuple[float, float]:
    """(lhs, rhs) of one theorem row for f = psi_a(x) psi_b(y), in closed form.

    ``arg`` is the level k of a theorem1 row, whose order is n = M_k, or the
    order n of a theorem2 row, whose level k = |n| is the position of n's
    leading mixed-radix digit.  With c = max(a, b), the partial sum S_jj f
    is f for j > c and 0 otherwise, so sigma_n f = w f with
    w = A_{n-1-c}^{-alpha} / A_{n-1}^{-alpha} (0 when c >= n); as |f| = 1,
    lhs = |1 - w| at every p.  rhs = M_k^alpha * L * omega(k - 1)
    + sum_{r < k-1} M_r / M_k * omega(r), with L = 1 for theorem1 and the
    clamped log n for theorem2, and omega(r) = omega1 + omega2 at level r
    from ``character_modulus``.
    """
    scales = [1]
    for mk in m:
        scales.append(scales[-1] * mk)
    if claim == "theorem1":
        k, n, factor = arg, scales[arg], 1.0
    else:
        n, digits, rem = arg, [], arg
        for mk in m:
            rem, d = divmod(rem, mk)
            digits.append(d)
        k = max(j for j, d in enumerate(digits) if d)
        factor = math.log(n) if n >= 3 else 1.0
    c = max(a, b)
    weights = longdouble_cesaro(-alpha, n - 1)
    w = weights[n - 1 - c] / weights[n - 1] if c < n else np.longdouble(0.0)
    lhs = float(abs(1 - w))
    rhs = scales[k] ** alpha * factor * _character_omega(m, a, b, k - 1)
    rhs += sum(scales[r] / scales[k] * _character_omega(m, a, b, r) for r in range(k - 1))
    return lhs, rhs


def brute_inf_omega12(ctx: GroupContext, values: np.ndarray, level: int, level2: int) -> float:
    """p = inf mixed modulus as the max over every (u, v) of |g(x, y+v) - g(x, y)|.

    g = f(x+u, y) - f(x, y) is the row difference; the double difference is
    taken from g in two subtractions, as the library's farthest-pair search
    takes it, so the two maxima have the same bits.
    """
    best = 0.0
    for pu in brute_shift_perms(ctx, level):
        g = values[pu, :] - values
        for pv in brute_shift_perms(ctx, level2):
            best = max(best, float(np.abs(g[:, pv] - g).max()))
    return best


# Lanczos approximation (g = 7, 9 terms), written against the published
# coefficients; the only stdlib calls are sqrt/exp/pow/sin.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def lanczos_gamma(x: float) -> float:
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * lanczos_gamma(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


def longdouble_cesaro(beta: float, length: int) -> np.ndarray:
    """A_n^beta table in 80-bit precision for cancellation-heavy sums."""
    n = np.arange(1, length + 1, dtype=np.longdouble)
    values = np.ones(length + 1, dtype=np.longdouble)
    if length:
        np.cumprod((np.longdouble(beta) + n) / n, out=values[1:])
    return values


def pointwise_lemma4_values(
    ctx: GroupContext, alpha: float, k: int, p_values: list[int]
) -> np.ndarray:
    """The kernel integral II from pointwise Dirichlet sums, term by term.

    II(p) = mean over cell pairs (u, v) of |sum_{i=1}^{M_k} A_{p-i}^{-alpha-1}
    D_i(u) D_i(v)|. Each D_i(x) is a literal character sum at one element
    (no Dirichlet or character table), the weights are 80-bit, and the
    weighted outer products accumulate in extended precision.
    """
    block = ctx.M[k]
    cells = cell_enumerate(ctx)
    kernels = [
        np.array([dirichlet(ctx, i, x) for x in cells], dtype=np.clongdouble)
        for i in range(1, block + 1)
    ]
    weights = longdouble_cesaro(-alpha - 1.0, max(p_values) - 1)
    out = []
    for p in p_values:
        acc = np.zeros((ctx.size, ctx.size), dtype=np.clongdouble)
        for i, d in enumerate(kernels, start=1):
            acc += weights[p - i] * np.multiply.outer(d, d)
        out.append(float(np.abs(acc).mean()))
    return np.array(out)


@lru_cache(maxsize=None)
def _pointwise_kernels(ctx: GroupContext) -> np.ndarray:
    """[i - 1, u] = D_i(u) for i = 1..M_N, each a literal character sum at one element."""
    cells = cell_enumerate(ctx)
    return np.array([[dirichlet(ctx, i, x) for x in cells] for i in range(1, ctx.size + 1)],
                    dtype=np.clongdouble)


def pointwise_kernel_line(ctx: GroupContext, coeffs) -> np.ndarray:
    """|sum_i c_i D_i(u)| at every cell u, from pointwise Dirichlet sums in 80-bit precision."""
    kernels = _pointwise_kernels(ctx)[: len(coeffs)]
    return np.abs(np.asarray(coeffs, dtype=np.longdouble) @ kernels)


def pointwise_lemma0(ctx: GroupContext, coeffs) -> float:
    """Lemma 0's left side: the mean over the cells of |sum_i c_i D_i(u)|, over n."""
    return float(pointwise_kernel_line(ctx, coeffs).mean() / len(coeffs))


def pointwise_eq23_profile(ctx: GroupContext, alpha: float, n: int) -> np.ndarray:
    """|sum_i A_{n-i}^{-alpha-1} D_i(u)| * |u|^(1-alpha) per cell, 0 at u = 0.

    The weights are 80-bit and |u| comes from ``group.norm_map`` at each
    element, not from a digit table.
    """
    weights = longdouble_cesaro(-alpha - 1.0, n - 1)[n - np.arange(1, n + 1)]
    norms = np.array([norm_map(ctx, x) for x in cell_enumerate(ctx)], dtype=np.longdouble)
    profile = pointwise_kernel_line(ctx, weights) * norms ** (1 - np.longdouble(alpha))
    profile[0] = 0.0
    return profile.astype(np.float64)


def one_shot_kernel_moduli(
    ctx: GroupContext, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """|sum_i c_i D_i(u) D_i(v)| and |sum_i c_i D_i(u)| over one period, and its copies.

    The same period P (the smallest M_j >= n) and rows D_1..D_n as
    ``verify._kernel_integrals``, but the whole (P, P) product is one
    matmul, without row blocks.  The third value is M_N / P.
    """
    period = next(M for M in ctx.M if M >= len(coeffs))
    rows = dirichlet_table(ctx)[1 : len(coeffs) + 1, :period]
    quad = np.abs((coeffs[:, None] * rows).T @ rows)
    return quad, np.abs(coeffs @ rows), ctx.size // period


def one_shot_kernel_integrals(ctx: GroupContext, coeffs: np.ndarray) -> float:
    """The two-variable weighted kernel integral from ``one_shot_kernel_moduli``."""
    quad, _, reps = one_shot_kernel_moduli(ctx, coeffs)
    return _grid_mean(quad, reps)


def direct_cesaro_weights(n: int, alpha: float) -> np.ndarray:
    """Weights from the literal sum over mean orders, not the closed form.

    w[mx] = (sum_{j=mx+1}^{n} A_{n-j}^{-alpha-1}) / A_{n-1}^{-alpha}, with the
    numerator summed in 80-bit precision (the partial sums cancel from 1 down
    to ~n^-alpha, which double precision cannot survive at 1e-12 accuracy).
    The denominator is the library's own, so the comparison isolates the
    numerator identity.
    """
    tail = longdouble_cesaro(-alpha - 1.0, n - 1)
    prefix = np.cumsum(tail)
    denominator = cesaro_numbers(-alpha, n - 1)[n - 1]
    return np.asarray(prefix[::-1], dtype=np.float64) / denominator


def direct_cesaro_mean(grid: SpectralGrid2D, n: int, alpha: float) -> np.ndarray:
    """Literal weighted sum of the quadratic partial sums S_{j,j}."""
    weights = cesaro_numbers(-alpha - 1.0, n - 1)
    denominator = cesaro_numbers(-alpha, n - 1)[n - 1]
    acc = np.zeros_like(grid.values)
    for j in range(1, n + 1):
        acc = acc + weights[n - j] * partial_sum_rect(grid, j, j).values
    return acc / denominator


def loop_compensated_cumsum(values: np.ndarray) -> np.ndarray:
    """Neumaier-compensated prefix sums, one running total per element."""
    out = np.empty(len(values), dtype=np.float64)
    total = 0.0
    comp = 0.0
    for i, v in enumerate(np.asarray(values, dtype=np.float64)):
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out[i] = total + comp
    return out
