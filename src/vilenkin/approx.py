"""Negative-order Cesaro means, Lp norms, and dyadic moduli of continuity.

The (C,-alpha) mean sigma_n of the quadratic partial sums S_{j,j} is applied
in the spectral domain: a coefficient at (k1, k2) survives in S_{j,j} for
every j > max(k1, k2), so its net multiplier telescopes to
A_{n-1-max}^{-alpha} / A_{n-1}^{-alpha}.  One synthesis replaces the n-term
average; the literal S_{j,j} sum is kept in the test layer as an oracle.
The multiplier is built on the n x n band only, and the synthesis runs on
the period grid of the smallest scale M_j >= n and is tiled back.

Moduli of continuity are exact: a shift inside I_n permutes level-N cells,
and sampled functions are constant on cells, so the supremum over I_n is the
maximum over the M_N/M_n cells of I_n, the multiples of M_n.  One
``translate_ids`` call builds the permutations of all of them.  The
single-shift kinds form each shifted difference once, for every grid of a
stack at once, and reduce it for every p; since I_r holds every M_r-th shift
of I_0, one level-0 table of these norms gives every level.  The
double-shift kinds (``omega12``, ``total``) enumerate no column shift at
p = inf or p = 2.  At p = inf the maximum over shifts and cells is the
largest distance between two points of one coset, read from one reshape of
f into the cosets of I_level x I_level2: for ``total`` the points are the
values of f, and for ``omega12`` the row differences f(x', y) - f(x, y) of
two rows x != x' of one I_level coset, each unordered pair of rows once, as
the reversed pair negates every difference exactly.  A farthest-pair search
pairs only the points that the triangle inequality cannot rule out, and
takes the same abs(a - b) as a full enumeration, so the maximum keeps its
bits.  At p = 2, by Plancherel,

    ||tau_(u,v) f - f||_2^2 = sum_k |f_hat(k)|^2 |psi_k1(u) psi_k2(v) - 1|^2,

so one inverse transform of the power spectrum gives every shift's norm.
At other p every (u, v) shift is screened first, on a single-precision
copy of f divided by a power of two near its peak.  Each magnitude there
is off by at most 2^-14 times the sum of the 2 (``total``) or 4
(``omega12``) |f| values in it, where the cast, the subtractions and abs
round by fewer than 6 units of 2^-24.  By Minkowski every shift's estimate
is then within a known delta of its exact norm, and a shift estimated more
than 2 delta below the largest cannot reach the maximum.

The screen evaluates one shift of each symmetry orbit.  With d the double
difference of the shift (u, v), fl(a - b) = -fl(b - a) gives
d_(-u,-v)(x + u, y + v) = -d_(u,v)(x, y) for ``total``, and for ``omega12``
d_(-u,v)(x, y) = -d_(u,v)(x - u, y) and d_(u,-v)(x, y) = -d_(u,v)(x, y - v),
so the shifts of an orbit have the same magnitudes.  A shift s of order 2
(2s = 0, s != 0) maps its own magnitudes onto themselves, x to x + s; its
first nonzero digit k is m_k / 2, and digits add without carry, so the
points with x_k < m_k / 2 hold each magnitude once where the full set
holds it twice.  ``omega12`` halves the row points so for a row shift of
order 2, and the column points for a column shift of order 2; ``total``
halves the row points for a joint shift (u, v) of order 2 with u != 0,
and the column points when u = 0.  A zero row or column shift of
``omega12``, and the zero shift of ``total``, leave the difference exactly
0 and are not formed.  Each estimate is then a mean of the same
single-precision magnitudes as a full enumeration's, summed in another
order, and the delta holds as before; the shifts of one orbit share their
estimate, so they are kept or dropped together.

Only the kept shifts are computed in double precision, over every point
and without symmetry.  Both passes run one gather loop over tiles: row
shifts times column shifts that take the same points, one row shift per
tile in the double-precision pass.  A block gathers the column shifts of
several row shifts at once, and each shift's magnitudes are reduced in
float64 over their own contiguous (y, x) block by the module's one Lp
mean, scalar root included, so a shift's norm does not depend on the
other shifts of its block, and the maximum keeps the bits of computing
every shift.  When every shift ties, as for a constant, the
screen keeps them all and its cost comes on top of the full pass.

A modulus takes the overflow rule of ``transform``: a grid that peaks at or
above ``_SAFE_PEAK`` runs on f / 2^k, and its value is multiplied by 2^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import GroupContext, _check_index, _negate_ids, _real, digit_table, translate_ids
from .kernels import cesaro_numbers
from .transform import (
    SampledFunction2D,
    SpectralGrid2D,
    _band_synthesis,
    _decimate_2d,
    _safe_scaled,
    fvt_forward_2d,
)

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


def _lp_mags(mags: np.ndarray, p: float) -> float:
    """Lp mean of every entry of the magnitudes ``mags``."""
    return float(_stack_norms(mags[None], [p])[0, 0])


def _stack_norms(mags: np.ndarray, ps) -> np.ndarray:
    """(len(ps), B) table of Lp means: entry (i, b) is the mean of block ``mags[b]`` at ``ps[i]``.

    This is the one Lp mean of the package.  Each block sums in its own
    memory order, as a single grid does, and each root is the scalar power,
    as a vector root moves last bits.  An entry whose mean of mags**p is not
    a normal float is 0.0 if its block is all 0, else ``_lp_rescaled``.
    """
    table = np.empty((len(ps), len(mags)))
    for i, p in enumerate(ps):
        if math.isinf(p):
            table[i] = mags.max(axis=(1, 2))
            continue
        with np.errstate(over="ignore"):
            power_mean = np.mean(mags if p == 1.0 else mags**p, axis=(1, 2))
        table[i] = [
            mean ** (1.0 / p) if _TINY <= mean < math.inf
            else _lp_rescaled(mags[b], p) if mags[b].max() > 0.0 else 0.0
            for b, mean in enumerate(power_mean.tolist())
        ]
    return table


def _lp_rescaled(mags: np.ndarray, p: float) -> float:
    """Lp mean of one block of magnitudes, not all 0, computed scaled by its maximum.

    A large finite p can overflow mags**p, or underflow it to a subnormal or
    0, which leaves the p-th root with few or no correct bits.
    """
    peak = float(mags.max())
    return float(np.mean((mags / peak) ** p)) ** (1.0 / p) * peak


def _stack_mags(diff: np.ndarray, split: int) -> np.ndarray:
    """|diff| of a (B, M, M) stack as C-contiguous blocks, each in its grid's memory order.

    The grids from ``split`` on are column-major: their blocks hold the
    transpose, so that a block's memory order is that of its grid.
    """
    mags = np.empty(diff.shape)
    np.abs(diff[:split], out=mags[:split])
    np.abs(diff[split:], out=mags[split:].transpose(0, 2, 1))
    return mags


def _check_p(p: float) -> float:
    p = _real(p, "p")
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return p


def lp_norm(f: SampledFunction2D, p: float) -> float:
    """Lp norm with the exact cell measure 1/M_N^2; p = inf is the cell maximum."""
    return _lp_mags(np.abs(f.values), _check_p(p))


def _check_alpha(alpha: float) -> float:
    alpha = _real(alpha, "alpha")
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


def _cesaro_synthesis(
    ctx: GroupContext, spectra: np.ndarray, n: int, alpha: float
) -> np.ndarray:
    """The values of the (C,-alpha) mean of order n of one spectrum or a stack of them."""
    weights = cesaro_weights(n, alpha)
    band = np.arange(n)
    multiplier = weights[np.maximum.outer(band, band)]
    return _band_synthesis(ctx, spectra[..., :n, :n] * multiplier)


def cesaro_mean(grid: SpectralGrid2D, n: int, alpha: float) -> SampledFunction2D:
    """The (C,-alpha) mean of the quadratic partial sums, via one synthesis."""
    n = _check_index(n, 1, grid.ctx.size, "mean order")
    return SampledFunction2D(grid.ctx, _cesaro_synthesis(grid.ctx, grid.values, n, alpha))


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


def _axis_norms(
    ctx: GroupContext, vals: np.ndarray, split: int, axis: int, level: int, ps
) -> np.ndarray:
    """Lp norms of f(. + u) - f along ``axis`` for each grid f of a stack.

    ``vals`` is the (B, M_N, M_N) stack, its grids from ``split`` on
    column-major ones.  The table has a row per p, a column per u in
    I_level and a layer per grid.  Each difference reduces in the order a
    single grid's did: along axis 0 row-major, along axis 1 in its grid's
    own order.
    """
    perms = translate_ids(ctx, shift_representatives(ctx, level))
    table = np.empty((len(ps), len(perms), len(vals)))
    split = len(vals) if axis == 0 else split
    for j, perm in enumerate(perms):
        diff = np.take(vals, perm, axis=axis + 1)
        diff -= vals
        table[:, j] = _stack_norms(_stack_mags(diff, split), ps)
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
    gram = _decimate_2d(ctx, power, 1).real
    # G at the shifts of I_level x I_level2
    g = gram[:: ctx.M[level], :: ctx.M[level2]]
    if kind == "total":
        sq = 2.0 * total - 2.0 * g
    else:
        neg = _negate_ids(ctx, shift_representatives(ctx, level2)) // ctx.M[level2]
        sq = 4.0 * total - 4.0 * g[:, :1] - 4.0 * g[:1, :] + 2.0 * g + 2.0 * g[:, neg]
    return math.sqrt(max(float(sq.max()), 0.0)) * scale


# Complex entries per gathered block of column shifts or of point pairs (one
# shift, or one point against its whole set, per block once a grid is larger).
_BLOCK_ENTRIES = 2**14
# Relative slack on the pruning bound of ``_max_pair_distance``: far above the
# few ulps by which computed centroid and pair distances can be off.
_PRUNE_SLACK = 2.0**-40
# Bound on the error of a single-precision double-difference magnitude,
# relative to the sum of the |f| values in it: 2**10 units of 2**-24, far
# above the fewer than 6 that the cast, the subtractions and abs add.
_SCREEN_SLACK = 2.0**-14


def _max_pair_distance(sets: np.ndarray, floor: float = 0.0) -> float:
    """Largest abs(a - b) over pairs of points in one row of ``sets``, or ``floor``.

    A farthest-pair search that forms few pairs.  The point farthest from
    its set's centroid, against its own set, gives real pair distances, and
    their maximum L is a lower bound of the answer.  A pair within a set is
    at most r_a + rho apart, with r_a the centroid distance of a and rho
    the set's largest, so only points with r >= L - rho can exceed L; the
    bound carries a relative slack for rounding and an absolute one for
    subnormals.  The kept points of each set are paired in blocks of at
    most ``_BLOCK_ENTRIES`` entries, one point against its set once a set
    is larger.  Every pair is evaluated as abs(a - b), so the maximum has
    the bits of enumerating all pairs.
    """
    radius = np.abs(sets - sets.mean(axis=1, keepdims=True))
    rows = np.arange(len(sets))
    far = np.argmax(radius, axis=1)
    rho = radius[rows, far]
    best = max(floor, float(np.abs(sets - sets[rows, far][:, None]).max()))
    # with at most two points a set's only pair has been formed
    if sets.shape[1] <= 2:
        return best
    bound = best * (1.0 - _PRUNE_SLACK) - rho * (1.0 + _PRUNE_SLACK) - _TINY
    keep = radius >= bound[:, None]
    counts = keep.sum(axis=1)
    order = np.argsort(-counts, kind="stable")
    order = order[counts[order] > 1]
    start = 0
    while start < len(order):
        # the sets are sorted by count, so the first one's count fits the chunk
        k = counts[order[start]]
        chunk = order[start : start + max(1, _BLOCK_ENTRIES // k**2)]
        start += len(chunk)
        kept_first = np.argsort(~keep[chunk], axis=1, kind="stable")[:, :k]
        points = np.take_along_axis(sets[chunk], kept_first, axis=1)
        step = max(1, _BLOCK_ENTRIES // (len(chunk) * k))
        for i in range(0, k, step):
            diff = points[:, i : i + step, None] - points[:, None, :]
            best = max(best, float(np.abs(diff).max()))
    return best


def _shift_set(ctx: GroupContext, level: int):
    """The shifts of I_level: their permutations, inverses and halving digits.

    The inverse of each shift is given by its position in the set, and its
    halving digit is its first nonzero digit if it has order 2, else -1.
    """
    ids = shift_representatives(ctx, level)
    neg = _negate_ids(ctx, ids) // ctx.M[level]
    first = np.argmax(digit_table(ctx)[:, ids] != 0, axis=0)
    half = np.where((neg == np.arange(len(ids))) & (ids != 0), first, -1)
    return translate_ids(ctx, ids), neg, half


def _tile_norms(vals_t: np.ndarray, kind: str, p: float, row_perms, col_perms, tiles) -> np.ndarray:
    """Lp norm of the double difference at each shift of ``tiles``, else 0.0.

    A tile is (row shifts, x points, [(column shifts, y points), ...]), the
    shifts as positions in ``row_perms`` and ``col_perms``.  ``vals_t`` is
    the transposed grid, so that a column shift gathers along the y axis;
    its dtype sets the precision of the differences and their magnitudes,
    which are reduced in float64.
    """
    C = len(col_perms)
    norms = np.zeros(len(row_perms) * C)
    # blocks of the same bytes at either precision
    entries = _BLOCK_ENTRIES * 16 // vals_t.itemsize
    for tile_rows, xs, col_groups in tiles:
        if not any(len(tile_cols) for tile_cols, _ in col_groups):
            continue
        plain = vals_t[:, xs]
        chunk = max(1, entries // plain.size)
        for start in range(0, len(tile_rows), chunk):
            rc = tile_rows[start : start + chunk]
            # (row shift, y, x): one grid per row shift
            base = np.ascontiguousarray(vals_t[:, row_perms[rc][:, xs]].transpose(1, 0, 2))
            if kind == "omega12":
                base -= plain
            for tile_cols, ys in col_groups:
                ref = base[:, None, ys] if kind == "omega12" else plain[ys]
                perms = col_perms[tile_cols][:, ys]
                block = max(1, entries // (len(rc) * perms.shape[1] * plain.shape[1]))
                for col in range(0, len(tile_cols), block):
                    diff = np.take(base, perms[col : col + block], axis=1)
                    diff -= ref
                    mags = np.abs(diff).astype(float, copy=False)
                    at = np.add.outer(rc * C, tile_cols[col : col + block])
                    # one (y, x) block per shift
                    blocks = mags.reshape(-1, *mags.shape[2:])
                    norms[at] = _stack_norms(blocks, [p]).reshape(at.shape)
    return norms.reshape(-1, C)


def _screen_norms(vals_t: np.ndarray, kind: str, p: float, ctx: GroupContext, rows, cols):
    """Every shift's norm, evaluated once per symmetry orbit on the points it halves to.

    ``rows`` and ``cols`` are the ``_shift_set`` of the two levels.  The
    evaluated shifts fall into tiles, row shifts times column shifts that
    halve the same points.
    """
    row_perms, neg_r, half_r = rows
    col_perms, neg_c, half_c = cols
    R, C = len(neg_r), len(neg_c)
    i, j = np.arange(R), np.arange(C)
    if kind == "omega12":
        orbit = np.minimum(i, neg_r)[:, None] * C + np.minimum(j, neg_c)
        # a zero row or column shift leaves the difference exactly 0
        first_r, first_c = i[(i <= neg_r) & (i > 0)], j[(j <= neg_c) & (j > 0)]
        col_groups = [
            (first_c[half_c[first_c] == yk], yk) for yk in set(half_c[first_c].tolist())
        ]
        tiles = [
            (first_r[half_r[first_r] == xk], xk, col_groups) for xk in set(half_r[first_r].tolist())
        ]
    else:
        orbit = np.minimum(i[:, None] * C + j, neg_r[:, None] * C + neg_c)
        # u != -u pairs rows, each with every column; u = -u pairs columns
        tiles = [(i[i < neg_r], -1, [(j, -1)]), (i[i == neg_r], -1, [(j[j < neg_c], -1)])]
        # the rest have order 2, or are the zero shift (0, 0), whose difference is 0
        both = j[j == neg_c]
        tiles += [(i[half_r == xk], xk, [(both, -1)]) for xk in set(half_r[half_r >= 0].tolist())]
        zero_row = [(both[half_c[both] == yk], yk) for yk in set(half_c[both[1:]].tolist())]
        tiles.append((i[:1], -1, zero_row))
    table = digit_table(ctx)
    # key -1, no halving, takes every point
    halves = [np.flatnonzero(table[k] < ctx.m[k] // 2) for k in range(ctx.level)]
    halves.append(slice(None))
    tiles = [(r, halves[xk], [(c, halves[yk]) for c, yk in groups]) for r, xk, groups in tiles]
    return _tile_norms(vals_t, kind, p, row_perms, col_perms, tiles).ravel()[orbit]


def _kept_tiles(keep: np.ndarray):
    """One tile per row shift with a kept shift: its kept column shifts, every point."""
    rows = np.flatnonzero(keep.any(axis=1))[:, None]
    return [(i, slice(None), [(np.flatnonzero(keep[i]), slice(None))]) for i in rows]


def _double_shift_modulus(
    f: SampledFunction2D, kind: str, level: int, level2: int, p: float
) -> float:
    """Max over (u, v) of the Lp norm of the double difference.

    For ``total`` the difference is f(x+u, y+v) - f(x, y); for ``omega12``
    it is g(x, y+v) - g(x, y) with the row difference g = f(x+u, y) - f(x, y).
    p = 2 takes Plancherel; p = inf the farthest pairs within the cosets of
    I_level x I_level2, of f for ``total`` and, for ``omega12``, of the
    differences of each unordered pair of rows of one I_level coset; any
    other p the screen, then double precision over the kept shifts.
    """
    if p == 2.0:
        return _plancherel_modulus(f, kind, level, level2)
    ctx = f.ctx
    if math.isinf(p):
        A, A2 = ctx.M[level], ctx.M[level2]
        B, B2 = ctx.size // A, ctx.size // A2
        # (x coset, y coset, x point, y point)
        cosets = f.values.reshape(B, A, B2, A2).transpose(1, 3, 0, 2)
        if kind == "total":
            return _max_pair_distance(cosets.reshape(A * A2, B * B2))
        best = 0.0
        # row a against every later row of its coset: the earlier rows' pairs
        # negate these differences, which have the same distances
        for a in range(B - 1):
            diff = cosets[:, :, a + 1 :] - cosets[:, :, a : a + 1]
            best = _max_pair_distance(diff.reshape(-1, B2), best)
        return best
    rows = _shift_set(ctx, level)
    cols = rows if level2 == level else _shift_set(ctx, level2)
    terms = 4 if kind == "omega12" else 2
    peak = float(np.max(np.abs(f.values)))
    # a power of two near the peak, >= 2^-1021: exact to divide by above the subnormals
    scale = math.ldexp(1.0, max(math.frexp(peak)[1], -1021))
    screen_t = np.ascontiguousarray((f.values / scale).T, dtype=np.complex64)
    estimate = _screen_norms(screen_t, kind, p, ctx, rows, cols)
    # each single-precision magnitude is within _SCREEN_SLACK times the sum
    # of the ``terms`` |f| values in it, so by Minkowski each estimate is
    # within ``slack`` of the exact norm, and a shift more than twice that
    # below the largest estimate cannot reach the maximum
    slack = _SCREEN_SLACK * terms * peak / scale
    tiles = _kept_tiles(~(estimate < estimate.max() - 2.0 * slack))
    plain_t = np.ascontiguousarray(f.values.T)
    return float(_tile_norms(plain_t, kind, p, rows[0], cols[0], tiles).max())


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

    f, scale = _safe_scaled(f)
    if kind in ("omega1", "omega2"):
        axis = 0 if kind == "omega1" else 1
        split = int(not f.values.flags.f_contiguous)
        value = float(_axis_norms(f.ctx, f.values[None], split, axis, level, [p]).max())
    else:
        value = _double_shift_modulus(f, kind, level, level if second is None else second, p)
    return ModulusReport(kind, level, second, p, value * scale)
