import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_grid_2d
from oracles import (
    character_theorem_sides,
    full_grid_synthesis,
    one_shot_kernel_integrals,
    one_shot_kernel_moduli,
    pointwise_eq23_profile,
    pointwise_lemma0,
    pointwise_lemma4_values,
)
from test_approx import (
    TRANSLATION_REL,
    near_overflow_grids,
    scaled_below_safe_peak,
    translated_grids,
)
from vilenkin import (
    GroupContext,
    ResolutionExceededError,
    SampledFunction2D,
    cesaro_mean,
    cesaro_weights,
    dirichlet_table,
    eq23_report,
    fvt_forward_2d,
    index_expand,
    lemma1_report,
    lemma4_report,
    lemma5_report,
    modulus,
    psi_values,
    tail_decompose,
    theorem_reports,
)
from vilenkin.approx import MODULUS_KINDS, _lp_mags, shift_representatives
from vilenkin.cli import eq23_orders, lemma1_coefficient_sets, theorem2_orders
from vilenkin.group import _negate_ids, translate_ids
from vilenkin.transform import _safe_scaled
from vilenkin.verify import (
    _LEAF_ENTRIES,
    _PRODUCT_ENTRIES,
    FunctionFamily,
    RatioReport,
    _kernel_integrals,
    _kernel_rows,
    _kernel_weights,
    _leaf_rows,
    _leaf_sum,
    _modulus_rhs,
    _pairwise_walk,
    _ratio,
    eq23_profile,
    lemma4_values,
    log_factor,
    parse_family,
    theorem_stack,
)


class TestTailDecomposition:
    def test_scale_point_single_tail(self, ctx2323):
        for k in range(ctx2323.level):
            tails = tail_decompose(ctx2323, ctx2323.M[k])
            assert tails.s == 1
            assert tails.levels == (k,)
            assert tails.tails == (ctx2323.M[k],)

    def test_example_seven(self):
        ctx = GroupContext((2, 3, 2))
        tails = tail_decompose(ctx, 7)
        assert tails.levels == (2, 0)
        assert tails.tails == (7, 1)
        assert tails.s == 2

    def test_maximal_digits(self, ctx2323):
        tails = tail_decompose(ctx2323, ctx2323.size - 1)
        assert tails.s == ctx2323.level
        assert tails.levels == (3, 2, 1, 0)

    def test_reconstruction(self, ctx2323):
        for n in range(1, ctx2323.size):
            tails = tail_decompose(ctx2323, n)
            assert tails.tails[0] == n
            assert all(a > b for a, b in zip(tails.levels, tails.levels[1:]))
            for i in range(tails.s):
                expected = sum(
                    d * ctx2323.M[lvl]
                    for lvl, d in zip(tails.levels[i:], tails.digits[i:])
                )
                assert tails.tails[i] == expected

    def test_zero_rejected(self, ctx2323):
        with pytest.raises(ValueError):
            tail_decompose(ctx2323, 0)


def test_log_factor_clamp():
    assert log_factor(1) == 1.0
    assert log_factor(2) == 1.0
    assert log_factor(3) == pytest.approx(math.log(3.0))


def mirror_coefficient_sets(ctx):
    """``kernel_coefficient_sets``, the lemma 5 weights at both ends of each period, all-ones."""
    ends = [
        _kernel_weights(alpha, n, n)
        for alpha in (0.1, 0.5, 0.9)
        for j in range(1, ctx.level + 1)
        for n in dict.fromkeys((ctx.M[j - 1] + 1, ctx.M[j]))
    ]
    return kernel_coefficient_sets(ctx) + ends + [np.ones(M) for M in ctx.M[1:]]


def mirrored_row_count(ctx, period):
    """Rows of |Q| the product forms at ``period``: P, or the rows u <= -u.

    The mirror runs at a power-of-two P with some radix above 2; -u = u on
    the F = prod_k (2 if m_k is even else 1) cells with digits in {0, m_k/2}.
    """
    radices = ctx.m[: ctx.M.index(period)]
    if period & (period - 1) or max(radices, default=2) == 2:
        return period
    return (period + math.prod(2 - mk % 2 for mk in radices)) // 2


def spy_kernel_product(monkeypatch):
    """Hold each product block of |Q| with its row ids, and each row of |Q| a leaf sum reads."""
    formed, read = [], {}

    def holding_rows(rows, coeffs, ids):
        top = _kernel_rows(rows, coeffs, ids)
        formed.append((ids.copy(), top.copy()))
        return top

    def reading_sum(block, start, length, width):
        period = block.shape[1]
        for i, row in enumerate(block, start // width):
            read[i % period] = row.copy()
        return _leaf_sum(block, start, length, width)

    monkeypatch.setattr("vilenkin.verify._kernel_rows", holding_rows)
    monkeypatch.setattr("vilenkin.verify._leaf_sum", reading_sum)
    return formed, read


def assert_rows_of_one_product(formed, read, quad):
    """Every formed and every read row of |Q| has the bits of the one-product row."""
    bits = quad.view(np.int64)
    assert sorted(read) == list(range(len(quad)))
    for u, row in read.items():
        assert np.array_equal(row.view(np.int64), bits[u]), u
    for ids, top in formed:
        assert np.array_equal(top.view(np.int64), bits[ids]), ids


def assert_blocks_keep_the_budget(formed, period):
    """Each product block has at least 2 rows and at most ``_PRODUCT_ENTRIES`` + P entries."""
    heights = [len(ids) for ids, _ in formed]
    assert all(min(2, period) <= h and h * period <= _PRODUCT_ENTRIES + period
               for h in heights), heights


def formed_row_count(formed):
    return sum(len(ids) for ids, _ in formed)


def full_grid_integrals(ctx, coeffs):
    """The kernel integral as a product over every cell pair, without the period."""
    rows = dirichlet_table(ctx)[1 : len(coeffs) + 1]
    return float(np.mean(np.abs((coeffs[:, None] * rows).T @ rows)))


def kernel_coefficient_sets(ctx):
    """Lemma 4 weights at p = M_k and M_k + 7 for each k < N, and lemma 1's unit(M_j)."""
    sets = [
        _kernel_weights(alpha, ctx.M[k], p)
        for alpha in (0.1, 0.5, 0.9)
        for k in range(ctx.level)
        for p in (ctx.M[k], ctx.M[k] + 7)
    ]
    for j in range(ctx.level):
        unit = np.zeros(ctx.M[j])
        unit[-1] = 1.0
        sets.append(unit)
    return sets


def grid_blocks(period, seed):
    """C-ordered (P, P) |.|-like blocks to tile: mixed magnitudes, zeros."""
    rng = np.random.default_rng(seed)
    shape = (period, period)
    mixed = np.abs(rng.standard_normal(shape)) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    zeros = np.where(rng.random(shape) < 0.3, 0.0, mixed)
    return [mixed, zeros, np.zeros(shape)]


def tiled_mean(block, reps):
    return float(np.mean(np.tile(block, (reps,) * block.ndim)))


def walk_mean(block, reps):
    """The mean of the tiled block from ``_pairwise_walk`` over ``_leaf_sum``."""
    period = len(block)
    side = period * reps

    def leaf(start, length, width):
        return _leaf_sum(block[_leaf_rows(start, length, width, period)], start, length, width)

    return _pairwise_walk(0, side * side, side, period, leaf) / (side * side)


# Leaves of 128 entries split every row at M_N >= 256, and leaves of 1000
# entries end inside rows, so the halving, the doubling of repeated halves
# and the leaf edges are all met at the sides below, not only at the default.
LEAF_SIZES = (128, 1000, _LEAF_ENTRIES)


class TestGridMean:
    @pytest.mark.parametrize("size", [2**a for a in range(1, 11)] + [4096])
    def test_equals_tiled_mean_at_power_of_two_sides(self, size, monkeypatch):
        # every period up to 1024; two at 4096, whose full tiles take 128 MB
        periods = [4, 256] if size == 4096 else [2**b for b in range(size.bit_length())]
        for leaf in LEAF_SIZES:
            monkeypatch.setattr("vilenkin.verify._LEAF_ENTRIES", leaf)
            for period in periods:
                for i, block in enumerate(grid_blocks(period, size + period)):
                    reps = size // period
                    assert walk_mean(block, reps) == tiled_mean(block, reps), (leaf, period, i)

    @pytest.mark.parametrize(
        "m", [(2, 3, 2, 3), (3,) * 5, (2, 2, 3), (4, 2, 5)], ids=["2323", "3^5", "223", "425"]
    )
    def test_equals_tiled_mean_on_other_sides(self, m, monkeypatch):
        ctx = GroupContext(m)
        for leaf in LEAF_SIZES:
            monkeypatch.setattr("vilenkin.verify._LEAF_ENTRIES", leaf)
            for period in ctx.M:
                for i, block in enumerate(grid_blocks(period, period)):
                    reps = ctx.size // period
                    assert walk_mean(block, reps) == tiled_mean(block, reps), (leaf, period, i)


class TestKernelIntegrals:
    @pytest.mark.parametrize("m", [(4,) * 5, (2,) * 8], ids=["4^5", "2^8"])
    def test_period_path_bit_identical_on_power_groups(self, m):
        ctx = GroupContext(m)
        for coeffs in kernel_coefficient_sets(ctx):
            assert _kernel_integrals(ctx, coeffs) == full_grid_integrals(ctx, coeffs)

    @pytest.mark.parametrize(
        "m", [(2,) * 6, (2,) * 7, (2, 4, 2, 4, 2)], ids=["2^6", "2^7", "24242"]
    )
    def test_period_path_bit_identical_around_the_summation_leaf(self, m):
        # M_N = 64 has several rows per 128-entry leaf of numpy's pairwise
        # sum, M_N = 128 exactly one
        ctx = GroupContext(m)
        for coeffs in kernel_coefficient_sets(ctx):
            assert _kernel_integrals(ctx, coeffs) == full_grid_integrals(ctx, coeffs)

    @pytest.mark.parametrize("m", [(2, 3, 2, 3), (3,) * 5], ids=["2323", "3^5"])
    def test_period_path_matches_full_grid(self, m):
        ctx = GroupContext(m)
        for coeffs in kernel_coefficient_sets(ctx):
            np.testing.assert_allclose(
                _kernel_integrals(ctx, coeffs), full_grid_integrals(ctx, coeffs),
                rtol=1e-15, atol=0.0,
            )

    @pytest.mark.parametrize("m", [(3,) * 6, (2,) * 10, (4,) * 5], ids=["3^6", "2^10", "4^5"])
    def test_row_blocks_bit_identical_to_one_product(self, m, monkeypatch):
        # at P = M_N each leaf forms its own rows of |Q|: about 45 rows a
        # leaf at 3^6, 64 at 2^10, 36 or 64 mirrored rows at 4^5; the lemma 5
        # weights and a unit reach that period.
        # A mean of ~10^6 entries can hide a last-bit change in one row (a
        # 1-row block takes BLAS's matrix-vector path), so every row of |Q|
        # that is formed or read is compared too.
        formed, read = spy_kernel_product(monkeypatch)
        ctx = GroupContext(m)
        top = [_kernel_weights(alpha, n, n)
               for alpha in (0.1, 0.5, 0.9) for n in (ctx.M[-2] + 1, ctx.size - 1)]
        unit = np.zeros(ctx.size)
        unit[-1] = 1.0
        for coeffs in kernel_coefficient_sets(ctx) + top + [unit, np.ones(ctx.size)]:
            formed.clear()
            read.clear()
            assert _kernel_integrals(ctx, coeffs) == one_shot_kernel_integrals(ctx, coeffs)
            quad, _, _ = one_shot_kernel_moduli(ctx, coeffs)
            assert_rows_of_one_product(formed, read, quad)
            assert_blocks_keep_the_budget(formed, len(quad))

    def test_peak_memory_at_1024_cells(self):
        # the full table is 16 MiB; one product with its weighted copy, the
        # complex product and the tile of |Q| took 40 MiB on top of it, and
        # a table built from the full character table 32 MiB in all
        ctx = GroupContext((4,) * 5)
        dirichlet_table.cache_clear()
        tracemalloc.start()
        try:
            dirichlet_table(ctx)
            _, build = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            warm, _ = tracemalloc.get_traced_memory()
            lemma1_report(ctx, np.ones(ctx.size))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert build < 24 << 20
        assert peak - warm < 16 << 20

    @pytest.mark.parametrize("alpha", (0.0, 1.0, 1.5, -0.5, math.nan))
    @pytest.mark.parametrize("report", [
        lambda ctx, alpha: lemma4_report(ctx, alpha, 1, [2, 3]),
        lambda ctx, alpha: lemma5_report(ctx, alpha, 4),
        lambda ctx, alpha: eq23_report(ctx, alpha, 4),
    ], ids=["lemma4", "lemma5", "eq23"])
    def test_reports_refuse_alpha_outside_unit_interval(
        self, ctx2323, report, alpha, monkeypatch
    ):
        def no_table(_):
            raise AssertionError("kernel table built before alpha was checked")

        monkeypatch.setattr("vilenkin.verify.dirichlet_table", no_table)
        with pytest.raises(ValueError, match="alpha must lie in"):
            report(ctx2323, alpha)

    @pytest.mark.parametrize(
        "m",
        [(8, 8, 8), (4, 2, 4, 2, 4), (2, 4, 2, 4, 2), (2, 3, 2, 3, 2), (5,) * 4],
        ids=["888", "42424", "24242", "23232", "5^4"],
    )
    def test_mirrored_rows_bit_identical_to_one_product(self, m, monkeypatch):
        # row -u is row u at the negated columns; that gather keeps the bits
        # only where BLAS computes columns v and -v alike, seen at every
        # power-of-two P, while at P = 6 of 2,3,2,3,2 a mirror moved last
        # bits of the lemma 4 and 5 rows.  So only power-of-two periods with a
        # radix above 2 form half the rows, and the rest form all of them.
        formed, read = spy_kernel_product(monkeypatch)
        ctx = GroupContext(m)
        for coeffs in mirror_coefficient_sets(ctx):
            formed.clear()
            read.clear()
            assert _kernel_integrals(ctx, coeffs) == one_shot_kernel_integrals(ctx, coeffs)
            quad, _, _ = one_shot_kernel_moduli(ctx, coeffs)
            assert_rows_of_one_product(formed, read, quad)
            assert_blocks_keep_the_budget(formed, len(quad))
            assert formed_row_count(formed) == mirrored_row_count(ctx, len(quad)), len(coeffs)

    def test_mirror_forms_half_the_rows_at_1024_cells(self, monkeypatch):
        # 32 cells of 4^5 (digits in {0, 2}) are their own negatives, so 528
        # of 1024 rows are formed, each once, all of them rows u <= -u
        formed, read = spy_kernel_product(monkeypatch)
        ctx = GroupContext((4,) * 5)
        coeffs = _kernel_weights(0.9, ctx.size - 1, ctx.size - 1)
        assert _kernel_integrals(ctx, coeffs) == one_shot_kernel_integrals(ctx, coeffs)
        quad, _, _ = one_shot_kernel_moduli(ctx, coeffs)
        assert_rows_of_one_product(formed, read, quad)
        assert_blocks_keep_the_budget(formed, ctx.size)
        ids = np.concatenate([ids for ids, _ in formed])
        neg = _negate_ids(ctx, np.arange(ctx.size))
        assert len(set(ids.tolist())) == len(ids) == 528
        assert (ids <= neg[ids]).all()

    def test_one_generator_blocks_keep_the_budget(self, monkeypatch):
        # with one generator the period 1024 is the only scale above 1, so a
        # block height taken from the scales held all 513 mirrored rows at
        # once; leaf j of 64 rows reads the negations of rows in leaves
        # 15 - j and 16 - j, so no leaf holds all of its mirror rows
        formed, read = spy_kernel_product(monkeypatch)
        ctx = GroupContext((1024,))
        top = [_kernel_weights(alpha, ctx.size - 1, ctx.size - 1) for alpha in (0.1, 0.5, 0.9)]
        for coeffs in mirror_coefficient_sets(ctx) + top:
            formed.clear()
            read.clear()
            assert _kernel_integrals(ctx, coeffs) == one_shot_kernel_integrals(ctx, coeffs)
            quad, _, _ = one_shot_kernel_moduli(ctx, coeffs)
            assert_rows_of_one_product(formed, read, quad)
            assert_blocks_keep_the_budget(formed, len(quad))
            assert formed_row_count(formed) == mirrored_row_count(ctx, len(quad)), len(coeffs)

    @pytest.mark.parametrize("m, orders", [
        ((1024,), (2, 700, 1023)),
        ((8, 8, 8), (300, 511)),
        ((3,) * 6, (700,)),
        ((2,) * 10, (400, 512)),
        ((4,) * 5, (257, 640, 1023)),
    ], ids=["1024", "888", "3^6", "2^10-tiled", "4^5"])
    def test_leaf_walk_bit_identical_to_one_product(self, m, orders, monkeypatch):
        # leaves that are not closed under negation: at (1024,) leaf j reads
        # the negations of rows in leaves 15 - j and 16 - j, and at (8,8,8)
        # the negations of a 128-row leaf fall in two leaves; at 3^6 and P =
        # 729 the leaves end inside rows; at 2^10 and P = 512 the period
        # tiles twice per side; at 4^5 the leaves are closed.  c = [-0.1, 1]
        # reaches P = 1024 at (1024,) with two terms.
        formed, read = spy_kernel_product(monkeypatch)
        ctx = GroupContext(m)
        for n in orders:
            alternating = np.where(np.arange(n) % 2, 1.0, -0.1)
            for coeffs in [_kernel_weights(0.1, n, n), _kernel_weights(0.9, n, n), alternating]:
                formed.clear()
                read.clear()
                assert _kernel_integrals(ctx, coeffs) == one_shot_kernel_integrals(ctx, coeffs)
                quad, _, _ = one_shot_kernel_moduli(ctx, coeffs)
                assert_rows_of_one_product(formed, read, quad)
                assert_blocks_keep_the_budget(formed, len(quad))

    def test_leaf_walk_on_a_mirrored_period_tiled_three_times(self, monkeypatch):
        # M_N = 1536 and P = 512: the streamed walk with both the mirror and
        # rows read again, since leaves end inside rows and each row of |Q|
        # comes back in all three tiles
        formed, read = spy_kernel_product(monkeypatch)
        ctx = GroupContext((2, 4, 4, 4, 4, 3))
        for n in (300, 512):
            alternating = np.where(np.arange(n) % 2, 1.0, -0.1)
            for coeffs in [_kernel_weights(0.1, n, n), _kernel_weights(0.9, n, n), alternating]:
                formed.clear()
                read.clear()
                assert _kernel_integrals(ctx, coeffs) == one_shot_kernel_integrals(ctx, coeffs)
                quad, _, _ = one_shot_kernel_moduli(ctx, coeffs)
                assert len(quad) == 512
                assert_rows_of_one_product(formed, read, quad)
                assert_blocks_keep_the_budget(formed, len(quad))
                assert formed_row_count(formed) == mirrored_row_count(ctx, len(quad)) == 272

    @pytest.mark.parametrize("m", [(4,) * 5, (1024,), (2,) * 10], ids=["4^5", "1024", "2^10"])
    def test_peak_memory_of_one_call_at_1024_cells(self, m):
        # A leaf of the walk holds 2^16 entries, 64 rows at P = 1024.  Above
        # the table, an n = 1023 call holds at most one product block of a
        # leaf's rows as weighted columns and as complex product (64 x 1023
        # and 64 x 1024 entries, 1 MiB each) and four leaves of float rows
        # (the block's |.| and mirror rows, the rows another leaf holds, the
        # stacked leaf; 0.5 MiB each): 4 MiB.  The (P, P) |Q| alone was 8 MiB.
        ctx = GroupContext(m)
        dirichlet_table(ctx)
        rows = (1 << 16) // ctx.size
        bound = 2 * (rows * ctx.size * 16) + 4 * (rows * ctx.size * 8)
        coeffs = _kernel_weights(0.9, ctx.size - 1, ctx.size - 1)
        tracemalloc.start()
        try:
            warm, _ = tracemalloc.get_traced_memory()
            _kernel_integrals(ctx, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bound == 4 << 20
        assert peak - warm <= bound

    def test_peak_memory_with_one_generator_at_1024_cells(self):
        # one block of 513 rows with its weighted copy and complex product
        # took 28.1 MiB above the table
        ctx = GroupContext((1024,))
        dirichlet_table(ctx)
        tracemalloc.start()
        try:
            warm, _ = tracemalloc.get_traced_memory()
            lemma1_report(ctx, np.ones(ctx.size))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - warm < 16 << 20


class TestLemma1:
    def test_single_coefficient(self, ctx232):
        quad, line = lemma1_report(ctx232, [1.0])
        assert quad.lhs == pytest.approx(1.0, abs=1e-14)
        assert quad.rhs == 1.0
        assert quad.ratio == pytest.approx(1.0, abs=1e-14)
        assert line.claim == "lemma0"
        assert line.lhs == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_unit_at_scale_point(self, ctx2323, j):
        n = ctx2323.M[j]
        coeffs = np.zeros(n)
        coeffs[n - 1] = 1.0
        quad, _ = lemma1_report(ctx2323, coeffs)
        assert quad.lhs == pytest.approx(1.0 / n, abs=1e-12)
        assert quad.n == n

    def test_too_long_rejected(self, ctx23):
        with pytest.raises(ResolutionExceededError):
            lemma1_report(ctx23, np.ones(ctx23.size + 1))
        with pytest.raises(ValueError):
            lemma1_report(ctx23, [])

    def test_sign_coefficients_under_empirical_cap(self):
        # baseline max over these seeds is 0.889 (2d) and 0.469 (1d)
        ctx = GroupContext((2,) * 6)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            coeffs = rng.integers(0, 2, ctx.size) * 2.0 - 1.0
            quad, line = lemma1_report(ctx, coeffs)
            assert quad.ratio <= 1.0
            assert line.ratio <= 0.6

    @pytest.mark.parametrize("m", [(2, 3, 2, 3), (5, 7), (2,) * 6, (4,) * 5, (3, 3, 2)])
    def test_scales_exactly_with_the_coefficients(self, m):
        # doubling is exact through the products, sums, means and square root
        ctx = GroupContext(m)
        rng = np.random.default_rng(26)
        for n in dict.fromkeys((1, 2, 3, ctx.M[1], ctx.size // 2 + 1, ctx.size)):
            c = rng.standard_normal(n)
            for got, want in zip(lemma1_report(ctx, 2 * c), lemma1_report(ctx, c)):
                assert (got.claim, got.lhs, got.rhs) == (want.claim, 2 * want.lhs, 2 * want.rhs)
                assert got.ratio == want.ratio, (got.claim, n)

    @pytest.mark.parametrize("coeffs", [
        [math.nan, 1.0], [1.0, math.inf], [[1.0, 2.0]], 3.0, np.array([1 + 1j, 2.0]),
        [True, False, True], ["1", "2"], [b"1", b"2"], np.array([1.0, 2.0], dtype=object),
    ], ids=["nan", "inf", "2-D", "0-D", "complex", "bool", "str", "bytes", "object"])
    def test_refuses_bad_coefficients_before_the_table(self, ctx23, coeffs, monkeypatch):
        # a NaN rhs read as ratio inf, a complex vector lost its imaginary
        # part, a 2-D one failed inside numpy, and bools and strings were
        # read as numbers
        def no_table(_):
            raise AssertionError("kernel table built before the coefficients were checked")

        monkeypatch.setattr("vilenkin.verify.dirichlet_table", no_table)
        with pytest.raises(ValueError, match="coefficients must be"):
            lemma1_report(ctx23, coeffs)

    @pytest.mark.parametrize("m", [
        (2,) * 6, (2,) * 7, (2,) * 8, (4,) * 5, (2, 4, 2, 4, 2),
        (2, 3, 2, 3), (3,) * 5, (5, 7, 5), (2, 3, 2, 3, 2),
    ], ids=["2^6", "2^7", "2^8", "4^5", "24242", "2323", "3^5", "575", "23232"])
    def test_lemma0_matches_the_period_sum(self, m):
        # lemma 0 sums over every cell; the sum over one period, tiled, has
        # the same bits wherever gemv computes columns u and u + P of the
        # periodic table alike.  The CLI's vectors are ones, signs (n = M_N)
        # and units, whose sums are exact; lemma 4 weights off a power of
        # two moved one last bit on 3^5.
        ctx = GroupContext(m)
        power_of_two = ctx.size & (ctx.size - 1) == 0
        cli_sets = [coeffs for _, _, coeffs in lemma1_coefficient_sets(ctx)]
        for i, coeffs in enumerate(cli_sets + kernel_coefficient_sets(ctx)):
            _, line, reps = one_shot_kernel_moduli(ctx, coeffs)
            want = np.mean(np.tile(line, reps)) / len(coeffs)
            got = lemma1_report(ctx, coeffs)[1].lhs
            if i < len(cli_sets) or power_of_two:
                assert got == want, (i, len(coeffs))
            else:
                assert got == pytest.approx(want, rel=1e-15, abs=0.0), (i, len(coeffs))

    def test_huge_coefficients_scale_exactly(self, ctx23):
        # the plain sum of squares overflows at 2^1200; both sides run on
        # c / 2^600 instead, where the rhs was inf and the ratio 0.0
        huge, unit = lemma1_report(ctx23, [2.0**600] * 2), lemma1_report(ctx23, [1.0, 1.0])
        for got, want in zip(huge, unit):
            assert (got.lhs, got.rhs) == (2.0**600 * want.lhs, 2.0**600 * want.rhs), got.claim
            assert got.ratio == want.ratio == 1.0, got.claim


class TestLemma4:
    def test_level_zero_at_most_one(self, ctx2323):
        values = lemma4_values(ctx2323, 0.5, 0, range(1, 32))
        assert np.all(values <= 1.0 + 1e-14)
        assert values[0] == pytest.approx(1.0, abs=1e-14)

    def test_level_one_closed_form(self, ctx2323):
        # at p = M_1 = 2 the kernel is D_2 x D_2 - alpha, integrating to 1 + alpha/2
        for alpha in (0.1, 0.5, 0.9):
            values = lemma4_values(ctx2323, alpha, 1, [2])
            assert values[0] == pytest.approx(1.0 + alpha / 2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "m, k",
        [((2, 3, 2, 3), 2), ((2, 3, 2, 3), 3), ((3, 3, 3), 1)],
        ids=["2323-k2", "2323-k3", "333-k1"],
    )
    @pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9))
    def test_matches_pointwise_oracle(self, m, k, alpha):
        ctx = GroupContext(m)
        p_values = [ctx.M[k], ctx.M[k] + 5]
        np.testing.assert_allclose(
            lemma4_values(ctx, alpha, k, p_values),
            pointwise_lemma4_values(ctx, alpha, k, p_values),
            rtol=0.0,
            atol=1e-12,
        )

    def test_one_weight_table_keeps_the_bits(self):
        # every p reads its weights from the table of the largest p
        ctx = GroupContext((4, 4, 4))
        for k in range(ctx.level):
            p_values = [ctx.M[k] + 30, ctx.M[k], ctx.M[k] + 7]
            for alpha in (0.1, 0.9):
                each = [_kernel_integrals(ctx, _kernel_weights(alpha, ctx.M[k], p))
                        for p in p_values]
                assert lemma4_values(ctx, alpha, k, p_values).tolist() == each, (k, alpha)

    def test_report_takes_max(self, ctx2323):
        p_range = range(ctx2323.M[2], ctx2323.M[2] + 10)
        report = lemma4_report(ctx2323, 0.5, 2, p_range)
        assert report.lhs == pytest.approx(
            float(np.max(lemma4_values(ctx2323, 0.5, 2, p_range)))
        )
        assert report.rhs == 1.0
        assert report.k == 2

    def test_validation(self, ctx232):
        with pytest.raises(ValueError):
            lemma4_values(ctx232, 0.5, 1, [1])
        with pytest.raises(ValueError):
            lemma4_values(ctx232, 0.5, 1, [])
        with pytest.raises(ResolutionExceededError):
            lemma4_values(ctx232, 0.5, 4, [100])

    @pytest.mark.parametrize("p", (2.7, math.inf, math.nan))
    def test_refuses_non_integral_p(self, ctx232, p):
        with pytest.raises(ValueError, match=f"p = {p} is not an integer"):
            lemma4_values(ctx232, 0.5, 1, [2, p])
        assert np.array_equal(lemma4_values(ctx232, 0.5, 1, [2.0, np.int64(3)]),
                              lemma4_values(ctx232, 0.5, 1, [2, 3]))


class TestLemma5:
    def test_order_one_trivial(self, ctx232):
        report = lemma5_report(ctx232, 0.5, 1)
        assert report.lhs == pytest.approx(1.0, abs=1e-14)
        assert report.rhs == 1.0
        assert tail_decompose(ctx232, 1).s == 1

    @pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_matches_uniform_bound_at_scale_points(self, ctx2323, alpha, k):
        n = ctx2323.M[k]
        report = lemma5_report(ctx2323, alpha, n)
        assert tail_decompose(ctx2323, n).s == 1
        reference = lemma4_values(ctx2323, alpha, k, [n])[0]
        assert abs(report.lhs - reference) <= 1e-10

    def test_resolution_stability(self):
        # the integrand is a cylinder function, so one extra level is inert
        coarse = GroupContext((2, 3, 2))
        fine = GroupContext((2, 3, 2, 3))
        for n in (2, 5, 11):
            lhs_coarse = lemma5_report(coarse, 0.5, n).lhs
            lhs_fine = lemma5_report(fine, 0.5, n).lhs
            assert abs(lhs_coarse - lhs_fine) <= 1e-10

    def test_validation(self, ctx232):
        with pytest.raises(ValueError):
            lemma5_report(ctx232, 0.5, 0)
        with pytest.raises(ResolutionExceededError):
            lemma5_report(ctx232, 0.5, ctx232.size)


class TestEq23:
    def test_order_one_below_one(self, ctx2323):
        report = eq23_report(ctx2323, 0.5, 1)
        assert 0.0 < report.lhs < 1.0
        assert report.rhs == 1.0

    def test_profile_excludes_origin(self, ctx232):
        profile = eq23_profile(ctx232, 0.5, 5)
        assert profile[0] == 0.0
        assert profile.shape == (ctx232.size,)
        assert np.all(profile >= 0.0)

    @pytest.mark.parametrize("m", [(2, 3, 2, 3), (3, 3, 3)], ids=["2323", "333"])
    def test_profile_and_lemma0_match_pointwise_sums(self, m):
        # eq23 and lemma 0 share one sum over the full grid; the oracle sums
        # literal Dirichlet kernels with 80-bit weights and takes |u| from
        # norm_map.  Worst relative error 2.8e-15.
        ctx = GroupContext(m)
        for alpha in (0.1, 0.5, 0.9):
            for n in eq23_orders(ctx):
                np.testing.assert_allclose(
                    eq23_profile(ctx, alpha, n), pointwise_eq23_profile(ctx, alpha, n),
                    rtol=1e-12, atol=0.0, err_msg=f"alpha {alpha}, n {n}",
                )
        for label, _, coeffs in lemma1_coefficient_sets(ctx):
            got = lemma1_report(ctx, coeffs)[1].lhs
            assert got == pytest.approx(pointwise_lemma0(ctx, coeffs), rel=1e-12, abs=0.0), label

    def test_two_resolution_stability(self):
        coarse = eq23_report(GroupContext((2,) * 7), 0.9, 8)
        fine = eq23_report(GroupContext((2,) * 8), 0.9, 8)
        assert math.isfinite(coarse.lhs) and math.isfinite(fine.lhs)
        assert abs(fine.lhs - coarse.lhs) / coarse.lhs <= 0.02


class TestTheorem1:
    def test_constant_gives_exact_zero(self, ctx2323):
        f = FunctionFamily("character", (0, 0)).build(ctx2323)
        for p in (1.0, 2.0, math.inf):
            report = theorem_reports(f, [0.5], [p], levels=[2])[0]
            assert report.lhs == 0.0
            assert report.ratio == 0.0

    def test_constant_gives_exact_zero_at_odd_radix(self):
        # M_N^2 = 729: a division through a rounded 1 / 729 gave f_hat(0, 0) =
        # 1 - 2^-53, an lhs of 1.1e-16 and, over an rhs of 0, an inf ratio
        ctx = GroupContext((3, 3, 3))
        f = FunctionFamily("character", (0, 0)).build(ctx)
        assert fvt_forward_2d(f).values[0, 0] == 1.0
        reports = theorem_reports(f, (0.1, 0.5, 0.9), (1.0, 2.0, 3.0, math.inf),
                                  levels=(1, 2), orders=theorem2_orders(ctx))
        assert len(reports) == 3 * 4 * (2 + 6)
        assert all(r.lhs == 0.0 for r in reports)

    def test_single_character_frozen_value(self, walsh4):
        f = FunctionFamily("character", (1, 1)).build(walsh4)
        for p in (1.0, 2.0, math.inf):
            report = theorem_reports(f, [0.5], [p], levels=[2])[0]
            # surviving weight is A_2/A_3 at exponent -1/2: 0.375/0.3125 = 1.2
            assert report.lhs == pytest.approx(0.2, abs=1e-12)
            assert math.isfinite(report.ratio) and report.ratio > 0.0

    def test_level_validation(self, ctx232):
        f = random_grid_2d(ctx232, 0)
        with pytest.raises(ResolutionExceededError):
            theorem_reports(f, [0.5], [2.0], levels=[0])
        with pytest.raises(ResolutionExceededError):
            theorem_reports(f, [0.5], [2.0], levels=[ctx232.level + 1])

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_bound_side_matches_literal_formula(self, ctx2323, k):
        from vilenkin import cesaro_mean, fvt_forward_2d, lp_norm, modulus

        f = random_grid_2d(ctx2323, 71)
        alpha, p = 0.3, 2.0
        report = theorem_reports(f, [alpha], [p], levels=[k])[0]
        M = ctx2323.M
        w1 = lambda r: modulus(f, "omega1", r, p).value
        w2 = lambda r: modulus(f, "omega2", r, p).value
        expected = M[k] ** alpha * (w1(k - 1) + w2(k - 1))
        expected += sum(M[r] / M[k] * w1(r) for r in range(k - 1))
        expected += sum(M[s] / M[k] * w2(s) for s in range(k - 1))
        assert report.rhs == pytest.approx(expected, rel=1e-12)
        sigma = cesaro_mean(fvt_forward_2d(f), M[k], alpha)
        assert report.lhs == pytest.approx(lp_norm(sigma - f, p), rel=1e-12)


class TestTheorem2:
    def test_constant_gives_exact_zero(self, ctx2323):
        f = FunctionFamily("cylinder", (0,)).build(ctx2323)
        report = theorem_reports(f, [0.5], [2.0], orders=[7])[0]
        assert report.lhs == 0.0
        assert report.ratio == 0.0

    @pytest.mark.parametrize("k", (2, 3))
    def test_dominates_scale_point_rate(self, ctx2323, k):
        f = random_grid_2d(ctx2323, 55)
        n = ctx2323.M[k]
        first = theorem_reports(f, [0.5], [2.0], levels=[k])[0]
        second = theorem_reports(f, [0.5], [2.0], orders=[n])[0]
        assert second.k == k
        assert second.rhs >= first.rhs - 1e-12
        assert second.ratio <= first.ratio + 1e-12

    def test_small_order_rejected(self, ctx2323):
        f = random_grid_2d(ctx2323, 1)
        with pytest.raises(ValueError):
            theorem_reports(f, [0.5], [2.0], orders=[1])
        with pytest.raises(ResolutionExceededError):
            theorem_reports(f, [0.5], [2.0], orders=[ctx2323.size])

    def test_order_below_first_scale_rejected(self):
        ctx = GroupContext((3, 3, 3))
        f = random_grid_2d(ctx, 2)
        with pytest.raises(ValueError):
            theorem_reports(f, [0.5], [2.0], orders=[2])

    def test_bound_side_carries_log_factor(self, ctx2323):
        from vilenkin import modulus

        f = random_grid_2d(ctx2323, 72)
        alpha, p, n = 0.3, 2.0, 17
        report = theorem_reports(f, [alpha], [p], orders=[n])[0]
        k = report.k
        M = ctx2323.M
        w1 = lambda r: modulus(f, "omega1", r, p).value
        w2 = lambda r: modulus(f, "omega2", r, p).value
        expected = M[k] ** alpha * math.log(n) * (w1(k - 1) + w2(k - 1))
        expected += sum(M[r] / M[k] * w1(r) for r in range(k - 1))
        expected += sum(M[s] / M[k] * w2(s) for s in range(k - 1))
        assert report.rhs == pytest.approx(expected, rel=1e-12)


class TestTheoremReports:
    def test_matches_single_reports_bit_for_bit(self, ctx2323):
        f = random_grid_2d(ctx2323, 91)
        alphas, ps = (0.1, 0.5, 0.9), (1.0, 2.0, math.inf)
        levels, orders = (1, 2, 3), (6, 9, 11, 12, 24, 35)
        reports = theorem_reports(f, alphas, ps, levels=levels, orders=orders)
        expected = [
            theorem_reports(f, [alpha], [p], levels=[k])[0]
            for alpha in alphas for k in levels for p in ps
        ] + [
            theorem_reports(f, [alpha], [p], orders=[n])[0]
            for alpha in alphas for n in orders for p in ps
        ]
        assert len(reports) == len(expected) == 3 * 3 * (3 + 6)
        key = lambda r: (r.claim, r.alpha, r.k, r.n, r.p)
        assert sorted(reports, key=key) == sorted(expected, key=key)

    def test_bad_level_or_order_raises_like_single_reports(self, ctx2323):
        f = random_grid_2d(ctx2323, 92)
        with pytest.raises(ResolutionExceededError):
            theorem_reports(f, [0.5], [2.0], levels=[1, 0])
        with pytest.raises(ResolutionExceededError):
            theorem_reports(f, [0.5], [2.0], levels=[ctx2323.level + 1])
        with pytest.raises(ValueError):
            theorem_reports(f, [0.5], [2.0], levels=[1], orders=[1])
        with pytest.raises(ResolutionExceededError):
            theorem_reports(f, [0.5], [2.0], orders=[ctx2323.size])
        below_first_scale = random_grid_2d(GroupContext((3, 3, 3)), 2)
        with pytest.raises(ValueError):
            theorem_reports(below_first_scale, [0.5], [2.0], orders=[2])

    @pytest.mark.parametrize("p", (math.nan, -math.inf, 0.5))
    def test_bad_p_raises_before_transform(self, ctx2323, p, monkeypatch):
        def no_transform(_):
            raise AssertionError("forward transform ran before p was checked")

        f = random_grid_2d(ctx2323, 94)
        monkeypatch.setattr("vilenkin.verify.fvt_forward_2d", no_transform)
        with pytest.raises(ValueError, match="p must be >= 1 or inf"):
            theorem_reports(f, [0.5], [2.0, p], levels=[1])
        monkeypatch.undo()
        (report,) = theorem_reports(f, [0.5], [math.inf], levels=[1])
        assert math.isfinite(report.ratio)

    @pytest.mark.parametrize("alpha", (1.5, 0.0, math.nan))
    def test_bad_alpha_raises_before_transform(self, ctx2323, alpha, monkeypatch):
        def no_transform(_):
            raise AssertionError("forward transform ran before alpha was checked")

        f = random_grid_2d(ctx2323, 95)
        monkeypatch.setattr("vilenkin.verify.fvt_forward_2d", no_transform)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            theorem_reports(f, [0.5, alpha], [2.0], levels=[1])
        monkeypatch.undo()
        (report,) = theorem_reports(f, [0.5], [2.0], levels=[1])
        assert math.isfinite(report.ratio)

    def test_empty_grid_gives_no_reports(self, ctx2323):
        f = random_grid_2d(ctx2323, 93)
        assert theorem_reports(f, [0.5], [2.0]) == []
        assert theorem_reports(f, [], [2.0], levels=[1], orders=[6]) == []

    # random_poly values come out of a synthesis and are not C-contiguous;
    # cylinder(0) is constant, so every modulus is an exact 0
    @pytest.mark.parametrize("label", ("random_poly(6,3)", "cylinder(0)", "random_cell(5)"))
    def test_bound_side_equals_public_moduli_exactly(self, ctx2323, label):
        f = parse_family(label).build(ctx2323)
        alphas, ps = (0.1, 0.9), (1.0, 2.0, 3.0, math.inf)
        reports = theorem_reports(f, alphas, ps, levels=(1, 2, 3), orders=(2, 6, 17, 35))
        assert len(reports) == 2 * 4 * (3 + 4)
        omega = {
            p: [modulus(f, "omega1", r, p).value + modulus(f, "omega2", r, p).value
                for r in range(ctx2323.level)]
            for p in ps
        }
        for r in reports:
            scale = 1.0 if r.claim == "theorem1" else log_factor(r.n)
            assert r.rhs == _modulus_rhs(ctx2323, r.k, r.alpha, scale, omega[r.p])
        assert theorem_reports(f, alphas, ps) == []

    def test_band_edge_characters_match_closed_form(self, ctx2323):
        # psi_(0,c), psi_(c,0) and psi_(c,c) for each band edge c = M_k - 1;
        # the worst relative error, 4.3e-14, is an lhs of 0.016, where 1 - w
        # cancels
        assert band_edge_characters_checked(ctx2323, levels=(1, 2, 3)) == 2592

    def test_band_edge_characters_match_closed_form_on_2_6(self):
        # the same characters at levels 1-5; worst relative error 2.3e-15.
        # 3^5 is left out at this bound: where c >= n makes sigma_n f = 0 the
        # radix-3 transform leaves rounding-level coefficients in the band,
        # and the theorem 2 lhs of psi_(242,242) at alpha 0.9, p = inf,
        # n = 162 reads 1 + 1e-13
        assert band_edge_characters_checked(GroupContext((2,) * 6), levels=range(1, 6)) == 6156

    def test_band_edge_characters_match_closed_form_on_3_5(self):
        # the 1e-13 bound alone fails here (above), so the lhs bound takes
        # the transform's rounding in.  Over all 15 band-edge characters the
        # worst lhs error, 5.1e-13, was 0.008 of its bound and the worst rhs
        # error 1.0e-15 relative.  c = 242 gives sigma_n f = 0 on every row,
        # so psi_(0,80), whose multiplier reaches the band from n = 81 on,
        # joins the three at c = 242: about 1 s of the 5 s all 15 take
        ctx = GroupContext((3,) * 5)
        characters = [(0, 242), (242, 0), (242, 242), (0, 80)]
        checked = band_edge_characters_checked(ctx, levels=range(1, 5), characters=characters,
                                               transform_rounding=True)
        assert checked == 4 * 3 * 3 * (4 + len(theorem2_orders(ctx))) * 2


def one_function_pass(f, alphas, ps, levels, orders):
    """The theorem rows of f from its own grid, one mean and one shift at a time.

    Each norm is ``_lp_mags`` of a grid in a stated memory order: f's own
    for sigma_n f - f and for the shifts along axis 1, row-major for the
    shifts along axis 0.  These are the orders a stacked pass must keep.
    """
    ctx = f.ctx
    g, factor = _safe_scaled(f)
    own = np.asfortranarray if g.values.flags.f_contiguous else np.ascontiguousarray
    spectrum = fvt_forward_2d(g)
    perms = translate_ids(ctx, shift_representatives(ctx, 0))
    omega = {}
    for p in ps:
        w1 = [_lp_mags(np.ascontiguousarray(np.abs(g.values[perm, :] - g.values)), p)
              for perm in perms]
        w2 = [_lp_mags(own(np.abs(g.values[:, perm] - g.values)), p) for perm in perms]
        omega[p] = [max(w1[:: ctx.M[r]]) + max(w2[:: ctx.M[r]]) for r in range(ctx.level)]
    cases = [("theorem1", k, None, ctx.M[k], 1.0) for k in levels]
    cases += [("theorem2", index_expand(ctx, n).order, n, n, log_factor(n)) for n in orders]
    reports = []
    for alpha in alphas:
        for claim, k, n, order, scale in cases:
            mags = own(np.abs(cesaro_mean(spectrum, order, alpha).values - g.values))
            for p in ps:
                left = _lp_mags(mags, p)
                rhs = _modulus_rhs(ctx, k, alpha, scale, omega[p])
                reports.append(RatioReport(
                    claim=claim, alpha=alpha, p=p, k=k, n=n, lhs=left * factor,
                    rhs=rhs * factor, ratio=_ratio(left, rhs),
                ))
    return reports


class TestTheoremStack:
    @pytest.mark.parametrize("m", [(2,) * 6, (2, 3, 2, 3), (3, 3, 3)])
    def test_rows_equal_each_function_alone(self, m):
        ctx = GroupContext(m)
        rng = np.random.default_rng(33)
        shape = (ctx.size, ctx.size)
        functions = [
            FunctionFamily("random_cell", (7,)).build(ctx),
            # synthesised, so column-major
            FunctionFamily("random_poly", (ctx.M[2], 101)).build(ctx),
            # every shift difference and sigma_n f - f are exactly 0
            FunctionFamily("character", (0, 0)).build(ctx),
            # scaled down by 2^k first, beside grids that are not
            SampledFunction2D(ctx, np.asfortranarray(
                rng.uniform(1.0, 1.7, shape) * rng.choice([-1.0, 1.0j], shape) * 2.0**960)),
            # its means of |.|^2 and |.|^3 underflow: the rescaled norms
            SampledFunction2D(ctx, 1e-200 * (rng.standard_normal(shape)
                                             + 1j * rng.standard_normal(shape))),
        ]
        assert [f.values.flags.f_contiguous for f in functions] == [0, 1, 0, 1, 0]
        assert _safe_scaled(functions[3])[1] > 1.0
        alphas, ps = (0.1, 0.5, 0.9), (1.0, 2.0, 3.0, math.inf)
        levels, orders = range(1, ctx.level), theorem2_orders(ctx)
        stacked = theorem_stack(functions, alphas, ps, levels, orders)
        assert len(stacked) == len(functions)
        for f, rows in zip(functions, stacked):
            alone = theorem_reports(f, alphas, ps, levels, orders)
            assert list(map(repr, rows)) == list(map(repr, alone))
            own = one_function_pass(f, alphas, ps, levels, orders)
            assert list(map(repr, rows)) == list(map(repr, own))
        assert all(r.rhs == 0.0 for r in stacked[2])
        assert all(r.lhs > 0.0 for r in stacked[4] if r.p == 2.0)

    def test_empty_stack_and_mixed_groups(self, ctx2323):
        assert theorem_stack([], [0.5], [2.0], levels=[1]) == []
        f = random_grid_2d(ctx2323, 5)
        assert theorem_stack([f, f], [0.5], [2.0]) == [[], []]
        with pytest.raises(ValueError, match="different group contexts"):
            theorem_stack([f, random_grid_2d(GroupContext((2, 3, 2)), 5)], [0.5], [2.0],
                          levels=[1])

    def test_label_count_checked_before_transform(self, ctx2323, monkeypatch):
        def no_transform(_):
            raise AssertionError("forward transform ran before the labels were checked")

        functions = [random_grid_2d(ctx2323, 96), random_grid_2d(ctx2323, 97)]
        labels = [("random_cell", 96), ("random_cell", 97), ("random_cell", 98)]
        monkeypatch.setattr("vilenkin.verify.fvt_forward_2d", no_transform)
        for wrong in (labels[:1], labels):
            with pytest.raises(ValueError, match=f"{len(wrong)} labels for 2 functions"):
                theorem_stack(functions, [0.5], [2.0], levels=[1], labels=wrong)
        monkeypatch.undo()
        rows = theorem_stack(functions, [0.5], [2.0], levels=[1], labels=iter(labels[:2]))
        assert rows == theorem_stack(functions, [0.5], [2.0], levels=[1], labels=labels[:2])
        assert [(r.family, r.seed) for r, in rows] == labels[:2]


def band_edge_characters_checked(ctx, levels, characters=None, transform_rounding=False):
    """Compare the theorem rows of band-edge characters with the closed form.

    Checks ``characters``, by default psi_(0,c), psi_(c,0) and psi_(c,c) for
    every c = M_k - 1, at alpha 0.1, 0.5, 0.9, p 1, 2, inf, ``levels`` and
    ``cli.theorem2_orders``, each side at 1e-13 * max(|value|, 1); returns
    the number of values checked.

    With ``transform_rounding`` the lhs bound adds max|w_n| * n * 2 * sum(m)
    * eps, w_n = ``cesaro_weights(n, alpha)`` at the row's order n: the
    forward transform's error has l2 size at most 2 * sum(m) * eps * ||f||_2
    (as ``approx._plancherel_modulus`` states; ||f||_2 = 1), and by
    Plancherel and Cauchy-Schwarz over the n^2 weighted coefficients it
    moves sigma_n f by at most max|w_n| * n times that at any cell.
    """
    if characters is None:
        edges = [M - 1 for M in ctx.M[1:]]
        characters = [(0, c) for c in edges] + [(c, 0) for c in edges] + [(c, c) for c in edges]
    rounding = 2 * sum(ctx.m) * np.finfo(np.float64).eps
    checked = 0
    for a, b in characters:
        f = FunctionFamily("character", (a, b)).build(ctx)
        reports = theorem_reports(f, (0.1, 0.5, 0.9), (1.0, 2.0, math.inf),
                                  levels=levels, orders=theorem2_orders(ctx))
        for r in reports:
            arg = r.k if r.claim == "theorem1" else r.n
            lhs, rhs = character_theorem_sides(ctx.m, a, b, r.alpha, r.claim, arg)
            slack = 0.0
            if transform_rounding:
                n = ctx.M[r.k] if r.claim == "theorem1" else r.n
                slack = float(np.max(np.abs(cesaro_weights(n, r.alpha)))) * n * rounding
            assert abs(r.lhs - lhs) <= 1e-13 * max(abs(lhs), 1.0) + slack, (a, b, r)
            assert abs(r.rhs - rhs) <= 1e-13 * max(abs(rhs), 1.0), (a, b, r)
            checked += 2
    return checked


def every_theorem_report(f, ps=(1.0, 2.0, 3.0, math.inf)):
    ctx = f.ctx
    return theorem_reports(f, (0.1, 0.5, 0.9), ps, levels=range(1, ctx.level + 1),
                           orders=theorem2_orders(ctx))


def assert_same_sides(got, want):
    for g, w in zip(got, want):
        case = (g.claim, g.alpha, g.p, g.k, g.n)
        assert g.lhs == pytest.approx(w.lhs, rel=TRANSLATION_REL, abs=0.0), case
        assert g.rhs == pytest.approx(w.rhs, rel=TRANSLATION_REL, abs=0.0), case


class TestTheoremRelations:
    """Metamorphic relations: inputs whose theorem reports are known from f's."""

    @given(translated_grids())
    @settings(max_examples=25, deadline=5000, derandomize=True)
    def test_translation_keeps_both_sides(self, case):
        # the Cesaro mean commutes with translation, and the norms and moduli
        # are translation invariant; only the order of rounding differs
        ctx, values, shifted = case
        got = every_theorem_report(SampledFunction2D(ctx, shifted))
        assert_same_sides(got, every_theorem_report(SampledFunction2D(ctx, values)))

    @given(translated_grids())
    @settings(max_examples=25, deadline=5000, derandomize=True)
    def test_swap_keeps_both_sides(self, case):
        # the multiplier depends on max(k1, k2), and omega1 and omega2
        # exchange inside the bound side's sum omega1 + omega2
        ctx, values, _ = case
        got = every_theorem_report(SampledFunction2D(ctx, values.T))
        assert_same_sides(got, every_theorem_report(SampledFunction2D(ctx, values)))

    @pytest.mark.parametrize("m", [(2, 3, 2, 3), (5, 7), (2,) * 6])
    def test_doubling_is_exact(self, m):
        # every step is linear or positively homogeneous and exact under
        # doubling at these p; p = 3 is left out, where pow rounds
        ctx = GroupContext(m)
        f = random_grid_2d(ctx, 96)
        ps = (1.0, 2.0, math.inf)
        doubled = every_theorem_report(SampledFunction2D(ctx, 2.0 * f.values), ps)
        plain = every_theorem_report(f, ps)
        for got, want in zip(doubled, plain):
            case = (got.claim, got.alpha, got.p, got.k, got.n)
            assert (got.lhs, got.rhs) == (2.0 * want.lhs, 2.0 * want.rhs), case
            assert got.ratio == want.ratio, case

    def test_lift_keeps_the_small_group_rows(self):
        # g tiles f from 2,4,2 to 2,4,2,2,4,2, so every coefficient of g sits
        # below M_3 = 16: sigma_n commutes with the lift for n <= 16, the
        # moduli at levels r < 3 are f's and those at r >= 3 vanish
        small, big = GroupContext((2, 4, 2)), GroupContext((2, 4, 2, 2, 4, 2))
        f = random_grid_2d(small, 98)
        g = SampledFunction2D(big, np.tile(f.values, (16, 16)))
        alphas, ps, levels, orders = (0.1, 0.5, 0.9), (1.0, 2.0, math.inf), (1, 2), range(4, 16)
        got = theorem_reports(g, alphas, ps, levels, orders)
        want = theorem_reports(f, alphas, ps, levels, orders)
        assert len(got) == len(want) == 126
        for a, b in zip(got, want):
            case = (a.claim, a.alpha, a.p, a.k, a.n)
            assert case == (b.claim, b.alpha, b.p, b.k, b.n)
            assert a.lhs == pytest.approx(b.lhs, rel=1e-15, abs=0.0), case
            assert a.rhs == pytest.approx(b.rhs, rel=1e-15, abs=0.0), case
        for kind in MODULUS_KINDS:
            for p in ps:
                for level in range(3, 7):
                    assert modulus(g, kind, level, p).value == 0.0, (kind, p, level)
                # p = 1 of the double shifts takes seconds on the 256^2 grid
                if p == 1.0 and kind in ("omega12", "total"):
                    continue
                for level in range(3):
                    assert modulus(g, kind, level, p).value == pytest.approx(
                        modulus(f, kind, level, p).value, rel=1e-15, abs=0.0), (kind, p, level)

    @pytest.mark.parametrize("name", ["one_sign_1e305", "at_safe_peak", "below_safe_peak"])
    def test_near_overflow_scales_exactly(self, name):
        # both sides are homogeneous of degree 1, and f * 2**-k overflows no sum
        f = near_overflow_grids()[name]
        k, scaled = scaled_below_safe_peak(f)
        reports = every_theorem_report(f)
        want = every_theorem_report(scaled)
        for got, low in zip(reports, want):
            case = (got.claim, got.alpha, got.p, got.k, got.n)
            assert not any(map(math.isnan, (got.lhs, got.rhs, got.ratio))), case
            if got.p != 3.0:
                assert (got.lhs, got.rhs) == (2.0**k * low.lhs, 2.0**k * low.rhs), case
                assert got.ratio == low.ratio, case


class TestFunctionFamilies:
    def test_parse_roundtrip(self):
        fam = parse_family("random_poly(6,101)")
        assert fam.kind == "random_poly"
        assert fam.params == (6, 101)
        assert fam.label == "random_poly(6,101)"
        assert fam.seed == 101

    def test_seedless_families(self):
        assert parse_family("character(1,2)").seed is None
        assert parse_family("cylinder(1)").seed is None

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_family("character")
        with pytest.raises(ValueError):
            parse_family("mystery(1)")
        with pytest.raises(ValueError):
            parse_family("character(1)")
        with pytest.raises(ValueError):
            parse_family("cylinder(a)")

    def test_character_build(self, ctx232):
        f = FunctionFamily("character", (2, 5)).build(ctx232)
        expected = np.outer(psi_values(ctx232, 2), psi_values(ctx232, 5))
        assert np.array_equal(f.values, expected)

    def test_cylinder_build(self, ctx232):
        f = FunctionFamily("cylinder", (1,)).build(ctx232)
        ids = np.arange(ctx232.size)
        edge = (ids % ctx232.M[1] == 0).astype(complex)
        assert np.array_equal(f.values, np.outer(edge, edge))
        flat = FunctionFamily("cylinder", (0,)).build(ctx232)
        assert np.all(flat.values == 1.0)

    def test_random_families_reproducible(self, ctx232):
        one = FunctionFamily("random_poly", (4, 9)).build(ctx232)
        two = FunctionFamily("random_poly", (4, 9)).build(ctx232)
        assert np.array_equal(one.values, two.values)
        other = FunctionFamily("random_poly", (4, 10)).build(ctx232)
        assert not np.array_equal(one.values, other.values)

    def test_random_poly_spectrum_truncated(self, ctx232):
        from vilenkin import fvt_forward_2d

        f = FunctionFamily("random_poly", (4, 9)).build(ctx232)
        coeffs = fvt_forward_2d(f).values
        assert np.max(np.abs(coeffs[4:, :])) < 1e-12
        assert np.max(np.abs(coeffs[:, 4:])) < 1e-12

    @pytest.mark.parametrize("m", [(2,) * 6, (2, 3, 2, 3)])
    def test_random_poly_band_synthesis_bit_identical(self, m):
        ctx = GroupContext(m)
        for degree in (1, ctx.M[1], ctx.M[2], ctx.size):
            rng = np.random.default_rng(4)
            block = rng.standard_normal((degree, degree)) + 1j * rng.standard_normal(
                (degree, degree)
            )
            f = FunctionFamily("random_poly", (degree, 4)).build(ctx)
            assert f.values.flags.f_contiguous
            assert np.array_equal(f.values, full_grid_synthesis(ctx, block))

    def test_build_validation(self, ctx23):
        with pytest.raises(ResolutionExceededError):
            FunctionFamily("character", (9, 0)).build(ctx23)
        with pytest.raises(ResolutionExceededError):
            FunctionFamily("cylinder", (5,)).build(ctx23)
        with pytest.raises(ResolutionExceededError):
            FunctionFamily("random_poly", (9, 1)).build(ctx23)

    def test_build_capped_before_allocating(self):
        # at M_N = 1600 the Gaussian grids alone would take about 80 MB
        ctx = GroupContext((40, 40))
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionExceededError,
                               match="M_N = 1600 exceeds the resolution cap 1024"):
                FunctionFamily("random_cell", (7,)).build(ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestResolutionStability:
    def test_lemma1_inert_extension(self):
        coarse = GroupContext((2, 3, 2))
        fine = GroupContext((2, 3, 2, 2))
        coeffs = np.array([1.0, -1.0, 0.5, 2.0, -0.25])
        lhs_coarse = lemma1_report(coarse, coeffs)[0].lhs
        lhs_fine = lemma1_report(fine, coeffs)[0].lhs
        assert abs(lhs_coarse - lhs_fine) <= 1e-10

    def test_lemma4_inert_extension(self):
        coarse = GroupContext((2, 3, 2))
        fine = GroupContext((2, 3, 2, 3))
        a = lemma4_values(coarse, 0.5, 2, [7, 8])
        b = lemma4_values(fine, 0.5, 2, [7, 8])
        assert np.max(np.abs(a - b)) <= 1e-10
