import itertools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import lanczos_gamma, loop_compensated_cumsum
from vilenkin import (
    GroupContext,
    ResolutionExceededError,
    add,
    cell_enumerate,
    cesaro_numbers,
    character_table,
    dirichlet,
    dirichlet_table,
    negate,
    psi,
    psi_values,
    rademacher,
)
from vilenkin.kernels import (
    compensated_cumsum,
    eq1_residual,
    eq2_residual,
    eq3_residual,
    eq4_residual,
    lemma2_check,
    paley_check,
    unit_roots,
)

ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)


class TestRademacher:
    def test_zero_digit(self, ctx232):
        assert rademacher(ctx232, 0, ctx232.zero()) == 1.0

    def test_order_two(self, ctx232):
        x = ctx232.element((1, 0, 0))
        assert rademacher(ctx232, 0, x) == pytest.approx(-1.0)

    def test_order_three(self, ctx232):
        x = ctx232.element((0, 1, 0))
        val = rademacher(ctx232, 1, x)
        assert val.real == pytest.approx(-0.5, abs=1e-15)
        assert val.imag == pytest.approx(0.8660254037844386, abs=1e-15)

    def test_coordinate_out_of_range(self, ctx232):
        with pytest.raises(ResolutionExceededError):
            rademacher(ctx232, 3, ctx232.zero())


class TestCharacters:
    def test_psi_zero_is_one(self, ctx2323):
        for x in cell_enumerate(ctx2323)[::5]:
            assert psi(ctx2323, 0, x) == 1.0

    def test_psi_at_zero(self, ctx2323):
        for n in range(0, ctx2323.size, 7):
            assert psi(ctx2323, n, ctx2323.zero()) == 1.0

    def test_walsh_first_character(self):
        ctx = GroupContext((2, 2))
        assert psi(ctx, 1, ctx.element((1, 0))) == pytest.approx(-1.0)

    def test_unit_modulus(self, ctx232):
        for n in range(ctx232.size):
            mags = np.abs(psi_values(ctx232, n))
            assert np.max(np.abs(mags - 1.0)) < 1e-14

    def test_conjugate_at_inverse(self, ctx232):
        for n in range(ctx232.size):
            for x in cell_enumerate(ctx232):
                lhs = psi(ctx232, n, negate(ctx232, x))
                assert lhs == pytest.approx(psi(ctx232, n, x).conjugate(), abs=1e-14)

    def test_multiplicative(self, ctx23):
        cells = cell_enumerate(ctx23)
        for n in range(ctx23.size):
            for x, y in itertools.product(cells, cells):
                lhs = psi(ctx23, n, add(ctx23, x, y))
                rhs = psi(ctx23, n, x) * psi(ctx23, n, y)
                assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_table_matches_pointwise(self, ctx232):
        table = character_table(ctx232)
        cells = cell_enumerate(ctx232)
        for n in range(ctx232.size):
            for j, x in enumerate(cells):
                assert table[n, j] == pytest.approx(psi(ctx232, n, x), abs=1e-14)

    def test_orthonormal(self, ctx2323):
        table = character_table(ctx2323)
        gram = table @ table.conj().T / ctx2323.size
        assert np.max(np.abs(gram - np.eye(ctx2323.size))) < 1e-12

    def test_resolution_error(self, ctx23):
        with pytest.raises(ResolutionExceededError):
            psi(ctx23, 6, ctx23.zero())


class TestDirichlet:
    def test_d1_is_one(self, ctx232):
        for x in cell_enumerate(ctx232):
            assert dirichlet(ctx232, 1, x) == 1.0

    def test_value_at_zero_counts_terms(self, ctx232):
        for n in range(ctx232.size + 1):
            assert dirichlet(ctx232, n, ctx232.zero()) == pytest.approx(n)

    def test_block_formula(self, ctx2323):
        for k in range(ctx2323.level + 1):
            assert eq1_residual(ctx2323, k) < 1e-12

    def test_table_row_matches_pointwise(self, ctx232):
        table = dirichlet_table(ctx232)
        cells = cell_enumerate(ctx232)
        for n in (0, 1, 5, 12):
            for j, x in enumerate(cells):
                assert table[n, j] == pytest.approx(dirichlet(ctx232, n, x), abs=1e-13)

    def test_empty_sum_row(self, ctx232):
        assert np.all(dirichlet_table(ctx232)[0] == 0.0)

    @pytest.mark.parametrize(
        "m", [(2,), (5,), (2, 3, 2, 3), (5, 7, 5), (4,) * 5], ids=["2", "5", "2323", "575", "4^5"]
    )
    def test_table_is_the_cumsum_of_the_character_table(self, m):
        # built one top digit at a time, with the same bits as one cumsum
        ctx = GroupContext(m)
        want = np.zeros((ctx.size + 1, ctx.size), dtype=np.complex128)
        np.cumsum(character_table(ctx), axis=0, out=want[1:])
        assert np.array_equal(dirichlet_table(ctx).view(np.int64), want.view(np.int64))

    def test_dense_tables_capped_before_allocating(self):
        # at M_N = 4099 each table would take about 270 MB; the check comes first
        ctx = GroupContext((4099,))
        tracemalloc.start()
        try:
            for table in (character_table, dirichlet_table):
                with pytest.raises(ResolutionExceededError,
                                   match="M_N = 4099 exceeds the resolution cap 4096"):
                    table(ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_table_keeps_no_root_table_at_1024_cells(self):
        # with one generator the top root table is 1024 x 1024, as large as
        # the 16 MiB table; a cached copy of it held 32.2 MiB in all
        dirichlet_table.cache_clear()
        tracemalloc.start()
        try:
            dirichlet_table(GroupContext((1024,)))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 17 << 20


class TestUnitRoots:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 12])
    def test_conjugate_symmetry(self, m):
        roots = unit_roots(m)
        assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-15
        for j in range(1, m):
            assert roots[m - j] == roots[j].conjugate()

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_exact_cancellation_small_radix(self, m):
        assert unit_roots(m).sum() == 0.0


class TestCesaroNumbers:
    def test_exponent_zero_all_ones(self):
        assert np.all(cesaro_numbers(0.0, 50) == 1.0)

    def test_frozen_values(self):
        assert cesaro_numbers(-0.5, 3)[3] == pytest.approx(0.3125, abs=1e-15)
        assert cesaro_numbers(1.0, 2)[2] == pytest.approx(3.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sign_patterns(self, alpha):
        positive = cesaro_numbers(-alpha, 500)
        assert np.all(positive > 0.0)
        negative = cesaro_numbers(-alpha - 1.0, 500)
        assert negative[0] == 1.0
        assert np.all(negative[1:] < 0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_recurrences(self, alpha):
        for beta in (alpha, -alpha, -alpha - 1.0, -alpha - 2.0):
            assert eq2_residual(beta, 2000) < 1e-12
            assert eq3_residual(beta, 2000) < 1e-12

    @pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9))
    def test_growth_rate_against_gamma_oracle(self, alpha):
        n = 10_000
        value = cesaro_numbers(alpha, n)[n]
        assert abs(value * n ** (-alpha) - 1.0 / lanczos_gamma(alpha + 1.0)) <= 0.01
        assert eq4_residual(alpha, n) <= 0.01

    @pytest.mark.parametrize("n", (0, -3))
    def test_growth_gap_refuses_order_below_one(self, n):
        with pytest.raises(ValueError, match="order must be >= 1"):
            eq4_residual(0.5, n)

    def test_length_cap(self):
        with pytest.raises(ValueError):
            cesaro_numbers(0.5, 10**6 + 1)
        with pytest.raises(ValueError):
            cesaro_numbers(0.5, -1)

    def test_non_finite_exponent_refused(self):
        with pytest.raises(ValueError, match="exponent must be finite, got inf"):
            cesaro_numbers(math.inf, 3)

    def test_read_only(self):
        table = cesaro_numbers(-0.5, 8)
        with pytest.raises(ValueError):
            table[0] = 2.0

    def test_shorter_table_is_exact_prefix(self):
        full = cesaro_numbers(-1.3, 1000)
        for length in (0, 1, 31, 999):
            assert np.array_equal(cesaro_numbers(-1.3, length), full[: length + 1])

    def test_compensated_cumsum_matches_fsum(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(500) * rng.choice([1e-8, 1.0, 1e8], 500)
        out = compensated_cumsum(values)
        for idx in (0, 13, 499):
            assert out[idx] == pytest.approx(math.fsum(values[: idx + 1]), rel=1e-15)

    def test_compensated_cumsum_keeps_the_loops_bits(self):
        rng = np.random.default_rng(6)
        mixed = rng.standard_normal(500) * rng.choice([1e-8, 1.0, 1e8], 500)
        zeros = rng.choice([0.0, -0.0, 1.0, -1.0, 1e-300], 300)
        inputs = [mixed, zeros, -zeros, np.full(7, -0.0), np.array([-0.0, 0.0, -0.0]), np.empty(0)]
        # the prefix sums behind eq2_residual
        inputs += [cesaro_numbers(beta - 1.0, 10_000) for beta in (0.5, -0.5, -1.5, -2.9)]
        for values in inputs:
            got = compensated_cumsum(values).view(np.int64)
            assert np.array_equal(got, loop_compensated_cumsum(values).view(np.int64))


def reflection_residual(ctx, s, n_s, j):
    """Lemma 2's residual at the one offset j, the reference for lemma2_check."""
    kern = dirichlet_table(ctx)
    block = n_s * ctx.M[s]
    rhs = kern[block] - psi_values(ctx, block - 1) * kern[j].conj()
    return float(np.max(np.abs(kern[block - j] - rhs)))


def shift_residual(ctx, level, digit, j, block_form):
    """Paley's residual at the one offset j, the reference for paley_check."""
    kern = dirichlet_table(ctx)
    base = digit * ctx.M[level]
    if block_form:
        geom = np.zeros(ctx.size, dtype=np.complex128)
        for q in range(digit):
            geom += psi_values(ctx, q * ctx.M[level])
        rhs = geom * kern[ctx.M[level]] + psi_values(ctx, base) * kern[j]
    else:
        rhs = kern[base] + psi_values(ctx, base) * kern[j]
    return float(np.max(np.abs(kern[j + base] - rhs)))


IDENTITY_GROUPS = [(2, 3, 2), (2, 2, 2, 2), (3, 3, 2), (5, 7)]


class TestKernelIdentities:
    @pytest.mark.parametrize("m", [(2, 3, 2), (2, 2, 2, 2)])
    def test_reflection_exhaustive(self, m):
        ctx = GroupContext(m)
        for s in range(ctx.level):
            for n_s in range(1, ctx.m[s]):
                residuals = lemma2_check(ctx, s, n_s)
                assert residuals.shape == (n_s * ctx.M[s] + 1,)
                assert np.all(residuals < 1e-10)

    @pytest.mark.parametrize("m", IDENTITY_GROUPS)
    def test_reflection_matches_per_offset_reference(self, m):
        ctx = GroupContext(m)
        for s in range(ctx.level):
            for n_s in range(1, ctx.m[s]):
                residuals = lemma2_check(ctx, s, n_s)
                assert residuals.dtype == np.float64
                reference = [reflection_residual(ctx, s, n_s, j)
                             for j in range(n_s * ctx.M[s] + 1)]
                assert np.array_equal(residuals, reference)

    def test_reflection_examples(self):
        ctx = GroupContext((2, 3, 2))
        residuals = lemma2_check(ctx, 1, 2)
        assert residuals[0] == 0.0
        assert residuals[1] < 1e-12
        walsh = GroupContext((2, 2, 2))
        assert lemma2_check(walsh, 2, 1)[3] < 1e-12

    def test_reflection_preconditions(self, ctx232):
        with pytest.raises(ResolutionExceededError):
            lemma2_check(ctx232, 3, 1)
        with pytest.raises(ValueError):
            lemma2_check(ctx232, 1, 0)
        with pytest.raises(ValueError):
            lemma2_check(ctx232, 1, 3)

    @pytest.mark.parametrize("m", [(2, 3, 2), (2, 2, 2, 2)])
    @pytest.mark.parametrize("block_form", [False, True])
    def test_shift_decomposition_exhaustive(self, m, block_form):
        ctx = GroupContext(m)
        for level in range(ctx.level):
            for digit in range(ctx.m[level]):
                residuals = paley_check(ctx, level, digit)[block_form]
                assert residuals.shape == (ctx.M[level],)
                assert np.all(residuals < 1e-10)

    @pytest.mark.parametrize("m", IDENTITY_GROUPS)
    def test_shift_decomposition_matches_per_offset_reference(self, m):
        ctx = GroupContext(m)
        for level in range(ctx.level):
            for digit in range(ctx.m[level]):
                for block_form, residuals in enumerate(paley_check(ctx, level, digit)):
                    assert residuals.dtype == np.float64
                    reference = [shift_residual(ctx, level, digit, j, block_form)
                                 for j in range(ctx.M[level])]
                    assert np.array_equal(residuals, reference)

    def test_shift_decomposition_examples(self, ctx232):
        assert paley_check(ctx232, 1, 1)[0][0] == 0.0
        assert paley_check(ctx232, 1, 0)[0][1] == 0.0
        assert paley_check(ctx232, 1, 1)[0][1] < 1e-12

    def test_shift_decomposition_preconditions(self, ctx232):
        with pytest.raises(ResolutionExceededError):
            paley_check(ctx232, 3, 0)
        with pytest.raises(ValueError):
            paley_check(ctx232, 1, 3)
