"""Both sides of the library's target inequalities as exact finite sums.

Every report computes a left side (an exact cell-sum integral or norm), a
right side with the unknown constant stripped out, and their ratio; sweeping
the ratios over parameter grids estimates the constants empirically.  Claim
ids follow the CSV wire format: theorem1/theorem2 for the two approximation
rates of the quadratic-sum Cesaro means, lemma1 (with a lemma0 row for its
one-variable branch) for the normalized Dirichlet quadratic form, lemma4 and
lemma5 for the boundedness and log-growth of the weighted kernel integrals,
and eq23 for the pointwise kernel decay against |u|^(alpha-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approx import _axis_norms, _check_alpha, _check_p, _lp_mags, cesaro_mean
from .group import (
    GroupContext,
    _band_level,
    _check_index,
    _negate_ids,
    digit_table,
    index_expand,
)
from .kernels import _check_cap, cesaro_numbers, dirichlet_table, psi_values
from .transform import (
    MAX_CELLS_2D,
    SampledFunction2D,
    _band_synthesis,
    _safe_scaled,
    fvt_forward_2d,
)

__all__ = [
    "RatioReport",
    "TailDecomposition",
    "FunctionFamily",
    "parse_family",
    "tail_decompose",
    "log_factor",
    "lemma1_report",
    "lemma4_values",
    "lemma4_report",
    "lemma5_report",
    "eq23_profile",
    "eq23_report",
    "theorem_reports",
]


@dataclass(frozen=True, kw_only=True)
class RatioReport:
    """One verification record: claim, parameter tuple, and lhs/rhs/ratio.

    The fields, in order, are the CLI's CSV columns.  A record that could not
    be computed has no lhs, rhs or ratio and says why in ``error``.
    """

    claim: str
    family: str = ""
    seed: int | None = None
    alpha: float | None = None
    p: float | None = None
    k: int | None = None
    n: int | None = None
    lhs: float | None = None
    rhs: float | None = None
    ratio: float | None = None
    error: str = ""


def _ratio(lhs: float, rhs: float) -> float:
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else math.inf


@dataclass(frozen=True)
class TailDecomposition:
    """Index n split along its nonzero digits, highest level first.

    ``tails[i]`` is the partial index spanned by levels[i..]; tails[0] is n
    itself and each step removes one leading block digits[i] * M_{levels[i]}.
    """

    n: int
    levels: tuple[int, ...]
    digits: tuple[int, ...]
    tails: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.levels)


def tail_decompose(ctx: GroupContext, n: int) -> TailDecomposition:
    """Decompose 1 <= n < M_N along its nonzero mixed-radix digits."""
    n = _check_index(n, 1, None, "index")
    expansion = index_expand(ctx, n)
    levels = [k for k in range(ctx.level - 1, -1, -1) if expansion.digits[k]]
    digits = [expansion.digits[k] for k in levels]
    tails = []
    rem = n
    for lvl, d in zip(levels, digits):
        tails.append(rem)
        rem -= d * ctx.M[lvl]
    return TailDecomposition(n, tuple(levels), tuple(digits), tuple(tails))


def log_factor(n: int) -> float:
    """Natural log of n, clamped to 1 below n = 3 to avoid a vacuous bound."""
    return math.log(n) if n >= 3 else 1.0


# ---------------------------------------------------------------------------
# function families


@dataclass(frozen=True)
class FunctionFamily:
    """A named generator of 2D sampled test functions.

    Kinds: ``character(a, b)`` is psi_a (x) psi_b(y); ``cylinder(level)`` the
    indicator of I_level(0) x I_level(0); ``random_poly(degree, seed)`` has
    seeded complex Gaussian coefficients below (degree, degree);
    ``random_cell(seed)`` has i.i.d. complex Gaussian cell values.
    """

    kind: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        arity = {"character": 2, "cylinder": 1, "random_poly": 2, "random_cell": 1}
        if self.kind not in arity:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if len(self.params) != arity[self.kind]:
            raise ValueError(
                f"{self.kind} takes {arity[self.kind]} parameter(s), got {self.params}"
            )
        params = tuple(_check_index(v, 0, None, f"{self.kind} parameter") for v in self.params)
        object.__setattr__(self, "params", params)

    @property
    def label(self) -> str:
        return f"{self.kind}({','.join(str(v) for v in self.params)})"

    @property
    def seed(self) -> int | None:
        if self.kind in ("random_poly", "random_cell"):
            return self.params[-1]
        return None

    def build(self, ctx: GroupContext) -> SampledFunction2D:
        _check_cap(ctx, MAX_CELLS_2D)
        size = ctx.size
        if self.kind == "character":
            a, b = self.params
            values = np.outer(psi_values(ctx, a), psi_values(ctx, b))
        elif self.kind == "cylinder":
            (level,) = self.params
            _check_index(level, 0, ctx.level, "cylinder level")
            ids = np.arange(size)
            edge = (ids % ctx.M[level] == 0).astype(np.complex128)
            values = np.outer(edge, edge)
        elif self.kind == "random_poly":
            degree, seed = self.params
            _check_index(degree, 1, size, "degree")
            rng = np.random.default_rng(seed)
            block = rng.standard_normal((degree, degree)) + 1j * rng.standard_normal(
                (degree, degree)
            )
            return _band_synthesis(ctx, block)
        else:
            (seed,) = self.params
            rng = np.random.default_rng(seed)
            values = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
                (size, size)
            )
        return SampledFunction2D(ctx, values)


def parse_family(text: str) -> FunctionFamily:
    """Parse a family label such as ``"random_poly(6,101)"``."""
    text = text.strip()
    if not text.endswith(")") or "(" not in text:
        raise ValueError(f"bad family spec {text!r}")
    kind, _, inner = text[:-1].partition("(")
    try:
        params = tuple(int(tok) for tok in inner.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad family parameters in {text!r}") from exc
    return FunctionFamily(kind.strip(), params)


# ---------------------------------------------------------------------------
# weighted Dirichlet kernel integrals


def _kernel_weights(alpha: float, terms: int, p: int) -> np.ndarray:
    """A_{p-i}^{-alpha-1} for i = 1..terms, the weight of D_i at order p."""
    return cesaro_numbers(-_check_alpha(alpha) - 1.0, p - 1)[p - np.arange(1, terms + 1)]


# Entries of a leaf of numpy's pairwise summation (PW_BLOCKSIZE), summed
# with eight running accumulators rather than split further.
_PAIRWISE_LEAF = 128


def _grid_mean(block: np.ndarray, reps: int) -> float:
    """``np.mean(np.tile(block, (reps,) * block.ndim))``, bit for bit.

    ``block`` is C-ordered, as the tile is.  numpy sums a contiguous float64
    array pairwise: a run of more than ``_PAIRWISE_LEAF`` entries is split
    into halves at a multiple of 8, and a shorter run is a leaf.  When the
    tiled side M_N = P * reps is a power of two, so is the period P, and
    every split above one period of rows (then, inside a row, above P
    entries or a leaf) has two identical halves.  Two identical halves sum
    to exactly twice one half, and scaling by a power of two commutes with
    the sum and the division of the mean, barring overflow.  So the mean of
    the full tile is the mean of the smallest contiguous tile that the tree
    repeats: P rows of max(P, 128) entries, or, when a leaf holds several
    rows (M_N < 128), as many row copies as fill one leaf; never more than
    the full tile.  Other sides tile in full.  When that tile is the block
    itself (every copy count 1), the mean is taken of the block, without
    the copy ``np.tile`` makes even then.
    """
    period = block.shape[0]
    size = period * reps
    copies = [reps] * block.ndim
    if size & (size - 1) == 0:
        copies[-1] = min(reps, max(1, _PAIRWISE_LEAF // period))
        if block.ndim == 2:
            copies[0] = min(reps, max(period, _PAIRWISE_LEAF // size) // period)
    if copies == [1] * block.ndim:
        return float(np.mean(block))
    return float(np.mean(np.tile(block, copies)))


# Complex entries in one row block of the kernel product: 2 MiB.
_PRODUCT_ENTRIES = 1 << 17


def _kernel_integrals(ctx: GroupContext, coeffs: np.ndarray) -> tuple[float, float]:
    """Exact integrals of |sum_i c_i D_i(u) D_i(v)| and |sum_i c_i D_i(u)|.

    ``coeffs[i-1]`` multiplies D_i, i = 1..n.  D_i with i <= M_k depends on a
    cell id only mod M_k, so the products cover one period P, and
    ``_grid_mean`` takes their mean in the order of the full grid.

    The (P, P) product is formed in row blocks, each taken to its modulus
    before the next is formed, so only the float |.| of the product is held
    in full.  The block height R is the largest scale M_j (j >= 1) with
    R * P <= ``_PRODUCT_ENTRIES``, else M_1; it is P (one block) when P * P
    fits.  Every block has at least 2 rows: BLAS computes each row of such a
    block as it does in the one-block product (a 1-row block takes its
    matrix-vector path and can change the last bits).

    With real c and D_i(-u) = conj D_i(u), Q(-u, v) = conj Q(u, -v), so row
    -u of |Q| is row u gathered at the negated columns.  When P is a power
    of two and some radix below the period's level exceeds 2, only the rows
    u <= -u are formed, split evenly into blocks of at least R rows (at
    least 2 rows when one block holds them all), and each block also fills
    its mirror rows.  The gather keeps the bits only while BLAS computes
    columns v and -v alike, which held at every power-of-two P tried; at
    other P it moved last bits, and with radix 2 alone -u = u, so those
    periods run the slice loop.
    """
    level = _band_level(ctx, len(coeffs))
    period = ctx.M[level]
    reps = ctx.size // period
    rows = dirichlet_table(ctx)[1 : len(coeffs) + 1, :period]
    fits = [M for M in ctx.M[1 : level + 1] if M * period <= _PRODUCT_ENTRIES]
    height = fits[-1] if fits else ctx.M[min(level, 1)]
    quad = np.empty((period, period))
    if period & (period - 1) or all(mk == 2 for mk in ctx.m[:level]):
        for lo in range(0, period, height):
            np.abs((coeffs[:, None] * rows[:, lo : lo + height]).T @ rows,
                   out=quad[lo : lo + height])
    else:
        neg = _negate_ids(ctx, np.arange(period))
        half = np.flatnonzero(np.arange(period) <= neg)
        for block in np.array_split(half, max(1, len(half) // height)):
            left = rows[:, block]
            left *= coeffs[:, None]
            top = np.abs(left.T @ rows)
            quad[block] = top
            quad[neg[block]] = top[:, neg]
    line = np.abs(coeffs @ rows)
    return _grid_mean(quad, reps), _grid_mean(line, reps)


def lemma1_report(
    ctx: GroupContext, coeffs: Sequence[float]
) -> tuple[RatioReport, RatioReport]:
    """Normalized quadratic-form integral against the l2 coefficient bound.

    Returns the two-variable record (claim lemma1) and its one-variable
    specialization (claim lemma0), both over the same coefficients.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    n = len(c)
    if n < 1:
        raise ValueError("coefficient vector must be nonempty")
    quad, line = _kernel_integrals(ctx, c)
    rhs = float(np.sqrt(np.sum(c * c)) / math.sqrt(n))
    lhs2 = quad / n
    lhs1 = line / n
    report2 = RatioReport(claim="lemma1", n=n, lhs=lhs2, rhs=rhs, ratio=_ratio(lhs2, rhs))
    report1 = RatioReport(claim="lemma0", n=n, lhs=lhs1, rhs=rhs, ratio=_ratio(lhs1, rhs))
    return report2, report1


def lemma4_values(
    ctx: GroupContext, alpha: float, k: int, p_values: Sequence[int]
) -> np.ndarray:
    """The kernel integral II at each p: sum to M_k with weights A_{p-i}^{-a-1}."""
    block = ctx.M[_check_index(k, 0, ctx.level, "level")]
    p_list = [_check_index(p, block, None, "p") for p in p_values]
    if not p_list:
        raise ValueError("empty p range")
    out = np.empty(len(p_list), dtype=np.float64)
    for idx, p in enumerate(p_list):
        quad, _ = _kernel_integrals(ctx, _kernel_weights(alpha, block, p))
        out[idx] = quad
    return out


def lemma4_report(
    ctx: GroupContext, alpha: float, k: int, p_values: Sequence[int]
) -> RatioReport:
    """Max of II over the p range; the right side is the constant 1."""
    worst = float(np.max(lemma4_values(ctx, alpha, k, p_values)))
    return RatioReport(
        claim="lemma4", alpha=float(alpha), k=int(k), lhs=worst, rhs=1.0,
        ratio=_ratio(worst, 1.0),
    )


def lemma5_report(ctx: GroupContext, alpha: float, n: int) -> RatioReport:
    """The kernel integral III at order n against the clamped log n.

    The proof bounds III by a constant per tail of n; ``tail_decompose``
    gives the tail count s, which the report does not carry.
    """
    n = _check_index(n, 1, ctx.size - 1, "order")
    quad, _ = _kernel_integrals(ctx, _kernel_weights(alpha, n, n))
    rhs = log_factor(n)
    return RatioReport(
        claim="lemma5", alpha=float(alpha), n=n, lhs=quad, rhs=rhs,
        ratio=_ratio(quad, rhs),
    )


def _cell_norms(ctx: GroupContext) -> np.ndarray:
    weights = np.array(
        [ctx.size // Mk1 for Mk1 in ctx.M[1:]], dtype=np.int64
    )
    return (weights @ digit_table(ctx)) / ctx.size


def eq23_profile(ctx: GroupContext, alpha: float, n: int) -> np.ndarray:
    """Per-cell values |sum_i A_{n-i}^{-a-1} D_i(u)| * |u|^(1-alpha).

    Entry 0 (the zero cell) is set to 0: the decay bound concerns u != 0.
    """
    n = _check_index(n, 1, ctx.size - 1, "order")
    alpha = float(alpha)
    line = _kernel_weights(alpha, n, n) @ dirichlet_table(ctx)[1 : n + 1]
    profile = np.abs(line) * _cell_norms(ctx) ** (1.0 - alpha)
    profile[0] = 0.0
    return profile


def eq23_report(ctx: GroupContext, alpha: float, n: int) -> RatioReport:
    """Empirical constant of the pointwise kernel decay O(|u|^(alpha-1))."""
    worst = float(np.max(eq23_profile(ctx, alpha, n)))
    return RatioReport(
        claim="eq23", alpha=float(alpha), n=int(n), lhs=worst, rhs=1.0,
        ratio=_ratio(worst, 1.0),
    )


# ---------------------------------------------------------------------------
# approximation-rate reports


def _modulus_rhs(
    ctx: GroupContext, k: int, alpha: float, scale: float, omega: Sequence[float]
) -> float:
    """The bound side from ``omega[r]`` = omega1 + omega2 at level r."""
    rhs = ctx.M[k] ** alpha * scale * omega[k - 1]
    for r in range(k - 1):
        rhs += ctx.M[r] / ctx.M[k] * omega[r]
    return rhs


def theorem_reports(
    f: SampledFunction2D,
    alphas: Sequence[float],
    ps: Sequence[float],
    levels: Sequence[int] = (),
    orders: Sequence[int] = (),
) -> list[RatioReport]:
    """Theorem 1 reports at each level k and theorem 2 reports at each order n.

    One pass over f: its spectrum once, each Cesaro mean once per (alpha,
    order) whatever p, and per modulus kind one table of single-shift norms
    over every p and every shift of I_0; level r is the max over the columns
    ``::M_r``.  Reports are ordered by alpha, then theorem 1 levels and
    theorem 2 orders as given, then p.  Both sides follow the overflow rule
    of ``transform``.
    """
    ctx = f.ctx
    cases = []
    for k in levels:
        k = _check_index(k, 1, ctx.level, "level")
        cases.append(("theorem1", k, None, ctx.M[k], 1.0))
    for n in orders:
        # from M_1 = m_0 >= 2 on, an order has a modulus level |n| >= 1
        n = _check_index(n, ctx.M[1], ctx.size - 1, "order")
        cases.append(("theorem2", index_expand(ctx, n).order, n, n, log_factor(n)))
    alphas = [_check_alpha(a) for a in alphas]
    ps = [_check_p(p) for p in ps]
    if not (cases and alphas and ps):
        return []

    f, factor = _safe_scaled(f)
    spectrum = fvt_forward_2d(f)
    lhs = {}
    for alpha in alphas:
        for order in dict.fromkeys(case[3] for case in cases):
            mags = np.abs(cesaro_mean(spectrum, order, alpha).values - f.values)
            for p in ps:
                lhs[alpha, order, p] = _lp_mags(mags, p)
    top = max(case[1] for case in cases)
    w1, w2 = (_axis_norms(f, axis, 0, ps) for axis in (0, 1))
    omega = {p: [float(w1[i, ::ctx.M[r]].max()) + float(w2[i, ::ctx.M[r]].max())
                 for r in range(top)] for i, p in enumerate(ps)}

    reports = []
    for alpha in alphas:
        for claim, k, n, order, scale in cases:
            for p in ps:
                left = lhs[alpha, order, p]
                rhs = _modulus_rhs(ctx, k, alpha, scale, omega[p])
                reports.append(RatioReport(
                    claim=claim, alpha=alpha, p=p, k=k, n=n, lhs=left * factor,
                    rhs=rhs * factor, ratio=_ratio(left, rhs),
                ))
    return reports

