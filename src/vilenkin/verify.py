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

from .approx import (
    _axis_norms,
    _cesaro_synthesis,
    _check_alpha,
    _check_p,
    _stack_mags,
    _stack_norms,
)
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
    "theorem_stack",
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
            # column-major: the pinned sweep bytes reduce its norms in that order
            return SampledFunction2D(ctx, np.asfortranarray(_band_synthesis(ctx, block)))
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


# Complex entries in one row block of the kernel product: 2 MiB.
_PRODUCT_ENTRIES = 1 << 17

# Entries of one leaf of ``_pairwise_walk``: 64 rows of |Q| at P = 1024.
_LEAF_ENTRIES = 1 << 16

# numpy sums a run of at most this many float64 entries with eight running
# accumulators (PW_BLOCKSIZE) and splits only longer runs.
_PAIRWISE_LEAF = 128


def _pairwise_walk(start: int, length: int, width: int, period: int, leaf) -> float:
    """numpy's pairwise sum of entries start..start+length of a tiled row-major grid.

    The grid has ``width`` columns and tiles a (period, period) block.  numpy
    sums a contiguous float64 run of more than ``_PAIRWISE_LEAF`` entries as
    the sum of its halves, split at n/2 - (n/2 mod 8), so every node of that
    tree is ``np.add.reduce`` of its own entries: a run of at most
    ``_LEAF_ENTRIES`` is summed by ``leaf(start, length, width)``, and the
    leaves may be summed in any order.  Halves that hold the same entries
    sum to exactly twice one half: a node whose halves are P rows apart is
    twice its first half, and a node of 2^j whole rows whose every row
    splits into two equal halves is twice the same rows of the grid half as
    wide (every split of such a node falls between rows).
    """
    half = length // 2 - length // 2 % 8
    if length > _PAIRWISE_LEAF and 2 * half == length and half % (width * period) == 0:
        return 2.0 * _pairwise_walk(start, half, width, period, leaf)
    rows = length // width
    if (width > _PAIRWISE_LEAF and width % 16 == 0 and width // 2 % period == 0
            and start % width == 0 and length == rows * width and rows & (rows - 1) == 0):
        return 2.0 * _pairwise_walk(start // 2, length // 2, width // 2, period, leaf)
    if length <= _LEAF_ENTRIES:
        return leaf(start, length, width)
    return (_pairwise_walk(start, half, width, period, leaf)
            + _pairwise_walk(start + half, length - half, width, period, leaf))


def _leaf_sum(block: np.ndarray, start: int, length: int, width: int) -> float:
    """``np.add.reduce`` of a run of the grid whose rows from ``start // width`` on are ``block``.

    The rows of ``block`` repeat across the grid's ``width`` columns.
    """
    if width > block.shape[1]:
        block = np.tile(block, width // block.shape[1])
    offset = start % width
    return float(np.add.reduce(block.ravel()[offset : offset + length]))


def _leaf_rows(start: int, length: int, width: int, period: int) -> np.ndarray:
    """The rows of the (period, period) block under each grid row that a run meets."""
    return np.arange(start // width, (start + length - 1) // width + 1) % period


def _kernel_rows(rows: np.ndarray, coeffs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows ``ids`` of |Q| as one BLAS product of the weighted columns ``ids`` with ``rows``."""
    left = rows[:, ids]
    left *= coeffs[:, None]
    return np.abs(left.T @ rows)


def _formed_rows(rows: np.ndarray, coeffs: np.ndarray, new: np.ndarray, neg: np.ndarray):
    """(ids, rows of |Q|) of each product block over the rows ``new``, then of its mirror rows.

    The rows are split into near-equal blocks of at most ``_PRODUCT_ENTRIES``
    + P entries; row -u = ``neg[u]`` of a block is its row u at the
    negated columns.
    """
    period = rows.shape[1]
    count = -(-len(new) * period // _PRODUCT_ENTRIES)
    for k in range(count):
        block = new[k * len(new) // count : (k + 1) * len(new) // count]
        top = _kernel_rows(rows, coeffs, block)
        yield block, top
        mates = np.flatnonzero(neg[block] != block)
        if len(mates):
            yield neg[block[mates]], top[mates][:, neg]


def _leaf_plan(needs: list[np.ndarray], neg: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The leaves in visit order, each with the rows u <= -u to form before it.

    ``needs[j]`` holds the distinct rows of |Q| that leaf j reads; forming
    row u also gives row -u = ``neg[u]``.  Next comes the pending leaf that
    reads the most rows formed, so the mirror rows of one leaf are read soon
    after they are formed and the rows held between leaves stay within
    about two leaves.  A block of one row joins the block before it (the
    first block takes in the next), since BLAS computes a 1-row product by
    its matrix-vector path.
    """
    rep = np.minimum(np.arange(len(neg)), neg)
    formed = np.zeros(len(neg), dtype=bool)
    pending, plan = list(range(len(needs))), []
    while pending:
        j = max(pending, key=lambda i: (np.count_nonzero(formed[needs[i]]), -i))
        pending.remove(j)
        new = np.zeros(len(neg), dtype=bool)
        new[rep[needs[j]]] = True
        new = (new & ~formed).nonzero()[0]
        formed[new] = formed[neg[new]] = True
        plan.append((j, new))
    prev = None
    for i, (j, new) in enumerate(plan):
        if prev is not None and 1 in (len(new), len(plan[prev][1])):
            plan[prev] = (plan[prev][0], np.concatenate([plan[prev][1], new]))
            plan[i] = (j, new[:0])
        elif len(new):
            prev = i
    return plan


def _kernel_integrals(ctx: GroupContext, coeffs: np.ndarray) -> float:
    """Exact integral of |Q(u, v)| = |sum_i c_i D_i(u) D_i(v)| over the cell pairs.

    ``coeffs[i-1]`` multiplies D_i, i = 1..n.  D_i with i <= M_k depends on a
    cell id only mod M_k, so |Q| over the M_N x M_N cell pairs tiles its
    (P, P) block over one period P.  The mean is ``np.mean`` of that tiled
    grid, bit for bit, but the grid is never held: ``_pairwise_walk``
    follows numpy's summation tree down to leaves of at most
    ``_LEAF_ENTRIES`` entries.  A block that takes no more entries than one
    leaf (P <= 256) is formed whole and read by every leaf.  A larger block
    is not held either: the rows of |Q| a leaf reads are formed just before
    it is summed, and a formed row is held as a view into its product block
    until the last leaf that reads it (numpy frees a block with its last row).

    Rows are formed in BLAS products of at least 2 rows (a 1-row block takes
    the matrix-vector path and can change the last bits) and at most
    ``_PRODUCT_ENTRIES`` + P entries, each row with the bits it has in one
    product of all P rows.  With real c and D_i(-u) = conj D_i(u),
    Q(-u, v) = conj Q(u, -v), so row -u of |Q| is row u gathered at the
    negated columns.  When P is a power of two and some radix below the
    period's level exceeds 2, only the rows u <= -u are formed and each also
    gives its mirror row.  The gather keeps the bits only while BLAS
    computes columns v and -v alike, which held at every power-of-two P
    tried; at other P it moved last bits, and with radix 2 alone -u = u, so
    those periods form every row.  ``_leaf_plan`` orders the leaves so that
    the rows held between two leaves, mirror rows included, stay within
    about two leaves.
    """
    level = _band_level(ctx, len(coeffs))
    period, side = ctx.M[level], ctx.size
    rows = dirichlet_table(ctx)[1 : len(coeffs) + 1, :period]
    ids = np.arange(period)
    if period & (period - 1) or all(mk == 2 for mk in ctx.m[:level]):
        neg = ids
    else:
        neg = _negate_ids(ctx, ids)
    if period * period <= _LEAF_ENTRIES:
        # the whole block takes no more than one leaf: every leaf reads it
        quad = np.empty((period, period))
        for got, values in _formed_rows(rows, coeffs, np.flatnonzero(ids <= neg), neg):
            quad[got] = values

        def leaf(start: int, length: int, width: int) -> float:
            return _leaf_sum(quad[_leaf_rows(start, length, width, period)], start, length, width)

        return _pairwise_walk(0, side * side, side, period, leaf) / (side * side)

    leaves = []
    _pairwise_walk(0, side * side, side, period, lambda *leaf: leaves.append(leaf) or 0.0)
    # the grid rows of each leaf, as rows of |Q|, the first P of them distinct
    reads = [_leaf_rows(*leaf, period) for leaf in leaves]
    plan = _leaf_plan([read[:period] for read in reads], neg)
    last = np.empty(period, dtype=int)
    for i, (j, _) in enumerate(plan):
        last[reads[j]] = i
    # row id -> that row of |Q|, a view into its product block
    held, sums = {}, {}
    for i, (j, new) in enumerate(plan):
        for got, values in _formed_rows(rows, coeffs, new, neg):
            held.update(zip(got.tolist(), values))
        sums[leaves[j]] = _leaf_sum(np.array([held[u] for u in reads[j].tolist()]), *leaves[j])
        for u in np.flatnonzero(last == i).tolist():
            del held[u]
    total = _pairwise_walk(0, side * side, side, period, lambda *leaf: sums[leaf])
    return total / (side * side)


def lemma1_report(
    ctx: GroupContext, coeffs: Sequence[float]
) -> tuple[RatioReport, RatioReport]:
    """Normalized quadratic-form integral against the l2 coefficient bound.

    Returns the two-variable record (claim lemma1) and its one-variable
    specialization (claim lemma0), both over the same coefficients, which
    must form a nonempty 1-D vector of finite reals (a bool, string or
    object array is refused).  Lemma 0 takes the mean of |sum_i c_i D_i(u)|
    over every cell, the sum ``eq23_profile`` forms.  When the sum of
    squares overflows, both sides are computed on c / 2^k, 2^k the largest
    power of two at most max |c|, and multiplied back by 2^k; a power of two
    divides out exactly from every step, so the ratio is that of c.
    """
    c = np.asarray(coeffs)
    if c.ndim != 1 or c.dtype.kind not in "iuf":
        raise ValueError("coefficients must be a 1-D vector of reals")
    c = np.asarray(c, dtype=np.float64)
    n = len(c)
    if n < 1:
        raise ValueError("coefficient vector must be nonempty")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    with np.errstate(over="ignore"):
        squares = np.sum(c * c)
    scale = 1.0
    if math.isinf(squares):
        scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(c))))[1] - 1)
        c = c / scale
        squares = np.sum(c * c)
    rhs = float(np.sqrt(squares) / math.sqrt(n))
    lhs2 = _kernel_integrals(ctx, c) / n
    lhs1 = float(np.mean(np.abs(c @ dirichlet_table(ctx)[1 : n + 1]))) / n
    report2 = RatioReport(claim="lemma1", n=n, lhs=lhs2 * scale, rhs=rhs * scale,
                          ratio=_ratio(lhs2, rhs))
    report1 = RatioReport(claim="lemma0", n=n, lhs=lhs1 * scale, rhs=rhs * scale,
                          ratio=_ratio(lhs1, rhs))
    return report2, report1


def lemma4_values(
    ctx: GroupContext, alpha: float, k: int, p_values: Sequence[int]
) -> np.ndarray:
    """The kernel integral II at each p: sum to M_k with weights A_{p-i}^{-a-1}.

    One table of A_j^{-a-1} up to j = max(p) - 1 serves every p: a shorter
    table is a bit-exact prefix of it, so each p reads the weights
    ``_kernel_weights`` gives.
    """
    block = ctx.M[_check_index(k, 0, ctx.level, "level")]
    p_list = [_check_index(p, block, None, "p") for p in p_values]
    if not p_list:
        raise ValueError("empty p range")
    table = cesaro_numbers(-_check_alpha(alpha) - 1.0, max(p_list) - 1)
    terms = np.arange(1, block + 1)
    return np.array([_kernel_integrals(ctx, table[p - terms]) for p in p_list])


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
    quad = _kernel_integrals(ctx, _kernel_weights(alpha, n, n))
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
    alpha = _check_alpha(alpha)
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
    of ``transform``.  This is ``theorem_stack`` of f alone.
    """
    return theorem_stack([f], alphas, ps, levels, orders)[0]


def theorem_stack(
    functions: Sequence[SampledFunction2D],
    alphas: Sequence[float],
    ps: Sequence[float],
    levels: Sequence[int] = (),
    orders: Sequence[int] = (),
    labels: Sequence[tuple[str, int | None]] | None = None,
) -> list[list[RatioReport]]:
    """``theorem_reports`` of each function of one group, in one pass over the stack.

    Past each function's forward transform, each step runs once for the
    (B, M_N, M_N) stack of the functions: each Cesaro mean's multiplier and
    band synthesis, and each shift's gather and difference.  Every norm is
    taken of one function's own block, in that function's memory order, so
    its reports have the bits it has alone.  Each function takes the
    overflow rule on its own.  ``labels`` gives each function's (family,
    seed) for its reports, one per function; without it they are unlabelled.
    """
    functions = list(functions)
    if labels is not None:
        labels = list(labels)
        if len(labels) != len(functions):
            raise ValueError(f"{len(labels)} labels for {len(functions)} functions")
    if not functions:
        return []
    ctx = functions[0].ctx
    if any(f.ctx != ctx for f in functions):
        raise ValueError("functions belong to different group contexts")
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
        return [[] for _ in functions]

    # the row-major grids first: ``_stack_mags`` keeps the rest transposed
    stack = sorted(range(len(functions)), key=lambda b: functions[b].values.flags.f_contiguous)
    split = sum(not f.values.flags.f_contiguous for f in functions)
    scaled = [_safe_scaled(functions[b]) for b in stack]
    vals = np.stack([f.values for f, _ in scaled])
    spectra = np.stack([fvt_forward_2d(f).values for f, _ in scaled])
    lhs = {}
    for alpha in alphas:
        for order in dict.fromkeys(case[3] for case in cases):
            diff = _cesaro_synthesis(ctx, spectra, order, alpha)
            diff -= vals
            lhs[alpha, order] = _stack_norms(_stack_mags(diff, split), ps)
    top = max(case[1] for case in cases)
    w1, w2 = (_axis_norms(ctx, vals, split, axis, 0, ps) for axis in (0, 1))

    reports: list[list[RatioReport]] = [[] for _ in functions]
    for j, (b, (_, factor)) in enumerate(zip(stack, scaled)):
        family, seed = labels[b] if labels is not None else ("", None)
        omega = {p: [float(w1[i, ::ctx.M[r], j].max()) + float(w2[i, ::ctx.M[r], j].max())
                     for r in range(top)] for i, p in enumerate(ps)}
        for alpha in alphas:
            for claim, k, n, order, scale in cases:
                for i, p in enumerate(ps):
                    left = float(lhs[alpha, order][i, j])
                    rhs = _modulus_rhs(ctx, k, alpha, scale, omega[p])
                    reports[b].append(RatioReport(
                        claim=claim, family=family, seed=seed, alpha=alpha, p=p, k=k, n=n,
                        lhs=left * factor, rhs=rhs * factor, ratio=_ratio(left, rhs),
                    ))
    return reports
