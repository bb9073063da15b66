import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_grid_2d
from oracles import (
    brute_inf_omega12,
    brute_modulus,
    character_modulus,
    direct_cesaro_mean,
    direct_cesaro_weights,
    full_grid_synthesis,
    longdouble_cesaro,
)
from vilenkin import (
    FunctionFamily,
    GroupContext,
    ResolutionExceededError,
    SampledFunction2D,
    SpectralGrid2D,
    cesaro_mean,
    cesaro_weights,
    fvt_forward_2d,
    lp_norm,
    modulus,
    psi_values,
)
from vilenkin import approx, transform
from vilenkin.approx import MODULUS_KINDS, shift_representatives
from vilenkin.group import in_interval, cell_enumerate, cell_id, translate_ids

P_GRID = (1.0, 2.0, math.inf)
BAD_P = (math.nan, -math.inf, 0.5)


def indicator_cell_function(ctx):
    """Indicator of I_1(0) in the first variable, constant in the second."""
    ids = np.arange(ctx.size)
    edge = (ids % ctx.M[1] == 0).astype(complex)
    return SampledFunction2D(ctx, np.outer(edge, np.ones(ctx.size)))


class TestLpNorm:
    def test_constant(self, ctx23):
        f = SampledFunction2D(ctx23, np.full((6, 6), -2.0 + 0j))
        for p in P_GRID:
            assert lp_norm(f, p) == pytest.approx(2.0, abs=1e-14)

    def test_indicator_example(self, ctx23):
        f = indicator_cell_function(ctx23)
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-14)
        assert lp_norm(f, math.inf) == 1.0
        assert lp_norm(f, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_rejects_small_p(self, ctx23):
        f = indicator_cell_function(ctx23)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("p", BAD_P)
    def test_rejects_nan_and_p_below_one(self, ctx23, p):
        f = indicator_cell_function(ctx23)
        with pytest.raises(ValueError, match="p must be >= 1 or inf"):
            lp_norm(f, p)
        assert lp_norm(f, math.inf) == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_p_monotone(self, ctx232, seed):
        f = random_grid_2d(ctx232, seed)
        norms = [lp_norm(f, p) for p in (1.0, 1.5, 2.0, 4.0, math.inf)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("p", [1440.0, 1e6])
    @pytest.mark.parametrize("peak", [0.6, 1.5])
    def test_large_p_matches_decimal(self, ctx23, peak, p):
        # mean(|v|^p) is subnormal for (0.6, 1440), 0 for (0.6, 1e6), a normal
        # float for (1.5, 1440) and inf for (1.5, 1e6)
        vals = np.random.default_rng(5).random((6, 6))
        vals[2, 3] = 1.0
        vals *= peak
        with localcontext() as dec:
            dec.prec = 40
            mean = sum(Decimal(float(v)) ** Decimal(p) for v in vals.ravel()) / 36
            exact = float(mean ** (1 / Decimal(p)))
        f = SampledFunction2D(ctx23, vals.astype(complex))
        assert lp_norm(f, p) == pytest.approx(exact, rel=1e-12)


class TestCesaroWeights:
    def test_example_n4(self):
        w = cesaro_weights(4, 0.5)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(1.2, abs=1e-14)

    def test_direct_sum_example(self):
        direct = direct_cesaro_weights(4, 0.5)
        assert direct[1] == pytest.approx(0.375 / 0.3125, abs=1e-14)

    @pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9))
    @pytest.mark.parametrize("n", (1, 2, 7, 64, 257))
    def test_closed_form_matches_direct_sum(self, n, alpha):
        closed = cesaro_weights(n, alpha)
        direct = direct_cesaro_weights(n, alpha)
        assert np.max(np.abs(closed - direct) / np.abs(closed)) < 1e-12

    def test_limit_toward_one(self):
        for mx in range(5):
            n = 100 * (mx + 1)
            w = cesaro_weights(n, 0.5)
            assert abs(w[mx] - 1.0) <= 0.02

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            cesaro_weights(0, 0.5)
        with pytest.raises(ValueError):
            cesaro_weights(4, 1.0)

    def test_read_only(self):
        w = cesaro_weights(4, 0.5)
        with pytest.raises(ValueError):
            w[0] = 2.0


class TestCesaroMean:
    def test_constant_reproduced(self, ctx2323):
        grid = fvt_forward_2d(SampledFunction2D(ctx2323, np.ones((36, 36))))
        for n in (1, 5, 36):
            out = cesaro_mean(grid, n, 0.5)
            assert np.max(np.abs(out.values - 1.0)) == 0.0

    def test_character_below_order_dies(self, ctx232):
        a, b = 5, 3
        f = SampledFunction2D(
            ctx232, np.outer(psi_values(ctx232, a), psi_values(ctx232, b))
        )
        grid = fvt_forward_2d(f)
        out = cesaro_mean(grid, max(a, b), 0.5)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_surviving_coefficient_weight(self, walsh4):
        f = SampledFunction2D(
            walsh4, np.outer(psi_values(walsh4, 1), psi_values(walsh4, 1))
        )
        out = cesaro_mean(fvt_forward_2d(f), 4, 0.5)
        assert np.max(np.abs(out.values - 1.2 * f.values)) < 1e-12

    @pytest.mark.parametrize("a, b, n, alpha", ((3, 700, 1000, 0.5), (1023, 0, 1023, 0.9)))
    def test_character_scaled_at_the_2d_cap(self, a, b, n, alpha):
        # sigma_n(psi_a (x) psi_b) = w psi_a (x) psi_b with c = max(a, b) and
        # w = A_{n-1-c}^{-alpha} / A_{n-1}^{-alpha} for c < n, else w = 0
        ctx = GroupContext((2,) * 10)
        assert ctx.size == transform.MAX_CELLS_2D
        f = FunctionFamily("character", (a, b)).build(ctx)
        c = max(a, b)
        A = longdouble_cesaro(-alpha, n - 1)
        w = float(A[n - 1 - c] / A[n - 1]) if c < n else 0.0
        out = cesaro_mean(fvt_forward_2d(f), n, alpha)
        assert np.max(np.abs(out.values - w * f.values)) <= 1e-13

    @pytest.mark.parametrize("n", (1, 2, 5, 17, 36))
    @pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9))
    def test_spectral_path_matches_literal_average(self, ctx2323, n, alpha):
        grid = fvt_forward_2d(random_grid_2d(ctx2323, 41))
        fast = cesaro_mean(grid, n, alpha).values
        slow = direct_cesaro_mean(grid, n, alpha)
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_linear(self, ctx232):
        f = random_grid_2d(ctx232, 1)
        g = random_grid_2d(ctx232, 2)
        lhs = cesaro_mean(fvt_forward_2d(f + g), 7, 0.3).values
        rhs = (
            cesaro_mean(fvt_forward_2d(f), 7, 0.3).values
            + cesaro_mean(fvt_forward_2d(g), 7, 0.3).values
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_shift_equivariant(self, ctx232):
        f = random_grid_2d(ctx232, 3)
        pu = translate_ids(ctx232, 5)
        pv = translate_ids(ctx232, 7)
        shifted = SampledFunction2D(ctx232, f.values[np.ix_(pu, pv)])
        lhs = cesaro_mean(fvt_forward_2d(shifted), 9, 0.5).values
        rhs = cesaro_mean(fvt_forward_2d(f), 9, 0.5).values[np.ix_(pu, pv)]
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("m", [(2,) * 6, (2, 3, 2, 3), (5, 7)])
    def test_band_synthesis_bit_identical_to_full_grid(self, m):
        # sigma_n is synthesised on the period grid of M_j >= n and tiled back;
        # the constant spectrum sums roots of unity to exact zeros.
        ctx = GroupContext(m)
        size = ctx.size
        rng = np.random.default_rng(size)
        spectra = (
            rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)),
            np.full((size, size), 1 - 3.7j),
        )
        idx = np.maximum.outer(np.arange(size), np.arange(size))
        for values in spectra:
            grid = SpectralGrid2D(ctx, values)
            for n in range(1, size + 1):
                weights = cesaro_weights(n, 0.3)
                multiplier = np.where(idx < n, weights[np.minimum(idx, n - 1)], 0.0)
                out = cesaro_mean(grid, n, 0.3).values
                assert out.flags.f_contiguous
                assert np.array_equal(out, full_grid_synthesis(ctx, values * multiplier))

    def test_parameter_validation(self, ctx232):
        grid = fvt_forward_2d(random_grid_2d(ctx232, 1))
        with pytest.raises(ValueError):
            cesaro_mean(grid, 0, 0.5)
        with pytest.raises(ResolutionExceededError):
            cesaro_mean(grid, ctx232.size + 1, 0.5)
        with pytest.raises(ValueError):
            cesaro_mean(grid, 4, 0.0)


def near_overflow_grids():
    """Grids at and around the peak from which the library scales f down first."""
    rng = np.random.default_rng(21)
    ctx64, ctx232 = GroupContext((2,) * 6), GroupContext((2, 3, 2))
    # the transform's and centroid sums overflow, the differences do not
    one_sign = rng.uniform(1.0, 1.7, (64, 64)) * 1e305 + 0j
    # the differences overflow
    both_signs = rng.choice([-1.0, 1.0], (12, 12)) * 1.7e308 + 0j
    at_peak = rng.uniform(1.0, 1.7, (64, 64)) * 2.0**959 + 0j
    below_peak = at_peak.copy()
    at_peak[0, 0] = transform._SAFE_PEAK
    below_peak[0, 0] = np.nextafter(transform._SAFE_PEAK, 0.0)
    return {
        "one_sign_1e305": SampledFunction2D(ctx64, one_sign),
        "both_signs_max": SampledFunction2D(ctx232, both_signs),
        "at_safe_peak": SampledFunction2D(ctx64, at_peak),
        "below_safe_peak": SampledFunction2D(ctx64, below_peak),
    }


def scaled_below_safe_peak(f):
    """k and f * 2**-k, with k the least that brings the peak |f| below _SAFE_PEAK."""
    k = 0
    while np.abs(f.values).max() * 2.0**-k >= transform._SAFE_PEAK:
        k += 1
    return k, SampledFunction2D(f.ctx, f.values * 2.0**-k)


class TestModulus:
    def test_constant_function(self):
        # radix 5 has inexact roots of unity, so its transform of a constant
        # leaves rounding noise off the (0, 0) coefficient
        for ctx in (GroupContext((2, 3, 2)), GroupContext((2, 5))):
            for c in (1.0, -3.7 + 2j):
                f = SampledFunction2D(ctx, np.full((ctx.size, ctx.size), c))
                for kind in MODULUS_KINDS:
                    for level in range(ctx.level + 1):
                        for p in P_GRID:
                            assert modulus(f, kind, level, p).value == 0.0

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e305])
    def test_scale_covariant_at_extreme_magnitudes(self, ctx232, scale):
        # |v|^p overflows or underflows at these scales for every finite p > 1;
        # at 1e305 the grid peaks above _SAFE_PEAK and is scaled down first
        f = random_grid_2d(ctx232, 11)
        g = SampledFunction2D(ctx232, f.values * scale)
        for kind in MODULUS_KINDS:
            for p in P_GRID + (3.0,):
                want = modulus(f, kind, 1, p).value * scale
                assert modulus(g, kind, 1, p).value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", list(near_overflow_grids()))
    def test_near_overflow_grids(self, name):
        # no sum overflows on f * 2**-k, and every modulus is homogeneous of
        # degree 1; scaling by a power of two is exact but for pow at p = 3
        f = near_overflow_grids()[name]
        k, scaled = scaled_below_safe_peak(f)
        for kind in MODULUS_KINDS:
            for p in P_GRID + (3.0,):
                got = modulus(f, kind, 0, p).value
                assert not math.isnan(got) and got > 0.0, (kind, p)
                if p != 3.0:
                    assert got == 2.0**k * modulus(scaled, kind, 0, p).value, (kind, p)

    def test_indicator_example(self, ctx23):
        f = indicator_cell_function(ctx23)
        assert modulus(f, "omega1", 0, math.inf).value == 1.0
        assert modulus(f, "omega1", 1, math.inf).value == 0.0

    def test_top_level_is_zero(self, ctx232):
        f = random_grid_2d(ctx232, 4)
        for kind in ("omega1", "omega2", "total"):
            assert modulus(f, kind, ctx232.level, 2.0).value == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_subadditive_mixed(self, ctx232, seed):
        f = random_grid_2d(ctx232, seed)
        for level in range(ctx232.level + 1):
            for p in P_GRID:
                mixed = modulus(f, "omega12", level, p).value
                first = modulus(f, "omega1", level, p).value
                second = modulus(f, "omega2", level, p).value
                assert mixed <= first + second + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_level_monotone(self, ctx232, seed):
        f = random_grid_2d(ctx232, seed)
        for kind in MODULUS_KINDS:
            for p in P_GRID:
                values = [
                    modulus(f, kind, level, p).value
                    for level in range(ctx232.level + 1)
                ]
                assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m", [(2, 3, 2), (2, 3, 2, 3), (2, 2, 2, 2), (3, 3, 2)])
    def test_matches_brute_force(self, m):
        # single shifts, and total at p = inf, keep the oracle's bits; the other
        # double-shift values sum in another order
        ctx = GroupContext(m)
        # row-major cell values, and a column-major synthesis
        poly = FunctionFamily("random_poly", (ctx.size // 2, 9)).build(ctx)
        assert poly.values.flags.f_contiguous and not poly.values.flags.c_contiguous
        for f in (random_grid_2d(ctx, 9), poly):
            for kind in MODULUS_KINDS:
                for level in range(ctx.level + 1):
                    for p in P_GRID + (1.5, 3.0):
                        fast = modulus(f, kind, level, p).value
                        slow = brute_modulus(ctx, f.values, kind, level, p)
                        if kind in ("omega1", "omega2") or (kind, p) == ("total", math.inf):
                            assert fast == slow, (kind, level, p)
                        else:
                            assert abs(fast - slow) <= 1e-12, (kind, level, p)

    @pytest.mark.parametrize("p", P_GRID)
    def test_characters_match_closed_form(self, ctx2323, p):
        # psi_a (x) psi_b at the band edges a, b in {0, M_k - 1}: every kind,
        # level and level pair against the closed form over exact phases.
        # (c, d) pairs two different edges, so that omega12 tells its two
        # levels apart, and (c, c) with c = 35 shifts only the radix-3 digit
        # at level 3, so that psi_c(v) and psi_c(-v) differ there.  The p = 1
        # screens, Plancherel at p = 2 and the p = inf coset search each keep
        # it to 6e-16 relative; a zero modulus is 0.
        ctx = ctx2323
        levels = range(ctx.level + 1)
        calls = [(kind, level, None) for kind in ("omega1", "omega2", "total")
                 for level in levels]
        calls += [("omega12", l1, l2) for l1 in levels for l2 in levels]
        edges = [ctx.M[k] - 1 for k in range(1, ctx.level + 1)]
        for c, d in zip(edges, reversed(edges)):
            for a, b in ((0, c), (c, c), (c, d)):
                f = FunctionFamily("character", (a, b)).build(ctx)
                for kind, level, level2 in calls:
                    got = modulus(f, kind, level, p, level2=level2).value
                    want = character_modulus(ctx.m, a, b, kind, level, level2)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (
                        a, b, kind, level, level2)

    def test_mixed_levels_differ(self, ctx232):
        f = random_grid_2d(ctx232, 10)
        for p in P_GRID:
            report = modulus(f, "omega12", 1, p, level2=2)
            assert report.level == 1 and report.level2 == 2
            slow = brute_modulus(ctx232, f.values, "omega12", 1, p, level2=2)
            assert abs(report.value - slow) <= 1e-12

    def test_validation(self, ctx232):
        f = random_grid_2d(ctx232, 0)
        with pytest.raises(ValueError):
            modulus(f, "omega3", 0, 2.0)
        with pytest.raises(ResolutionExceededError):
            modulus(f, "omega1", 4, 2.0)
        with pytest.raises(ValueError):
            modulus(f, "omega1", 0, 2.0, level2=1)
        with pytest.raises(ValueError):
            modulus(f, "omega1", 0, 0.3)

    @pytest.mark.parametrize("kind", MODULUS_KINDS)
    @pytest.mark.parametrize("p", BAD_P)
    def test_rejects_nan_and_p_below_one(self, ctx232, kind, p):
        f = random_grid_2d(ctx232, 0)
        with pytest.raises(ValueError, match="p must be >= 1 or inf"):
            modulus(f, kind, 1, p)
        assert modulus(f, kind, 1, math.inf).value > 0.0


INF_GROUPS = [(2, 3, 2), (3, 3, 2), (2, 2, 2, 2), (5, 7)]


def adversarial_grids(ctx, seed):
    """Inputs that defeat or strain the farthest-pair pruning of p = inf."""
    rng = np.random.default_rng(seed)
    shape = (ctx.size, ctx.size)
    gauss = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return {
        "constant": np.full(shape, -3.7 + 2j),
        # ties everywhere: most cosets hold two antipodal points
        "roots4": 1j ** rng.integers(0, 4, shape),
        # every point is on the hull, so nothing can be pruned
        "circle": np.exp(2j * np.pi * rng.random(shape)),
        "huge": gauss * 1e200,
        "tiny": gauss * 1e-200,
        # the centroid sums of f overflow, the differences do not
        "near_max_one_sign": rng.uniform(1.0, 1.7, shape) * 1e308 + 0j,
        # the centroid sums of the row differences g overflow
        "row_offsets_near_max": np.linspace(-0.85e308, 0.85e308, ctx.size)[:, None]
        + gauss * 1e300,
        # the differences of f overflow to inf
        "near_max_both_signs": rng.choice([-1.0, 1.0], shape) * 1.7e308
        + 1j * rng.uniform(-1.0, 1.0, shape),
        # the differences of the row differences g overflow, g itself does not
        "half_max_both_signs": rng.choice([-0.45, 0.45], shape) * 1e308 + 0j,
    }


def brute_quietly(ctx, values, kind, level, level2=None):
    with np.errstate(over="ignore", invalid="ignore"):
        return brute_modulus(ctx, values, kind, level, math.inf, level2)


class TestInfDoubleShift:
    """p = inf double-shift moduli as largest distances between coset points."""

    @pytest.mark.parametrize("m", INF_GROUPS)
    def test_total_equals_brute_force(self, m):
        ctx = GroupContext(m)
        f = random_grid_2d(ctx, 12)
        for level in range(ctx.level + 1):
            fast = modulus(f, "total", level, math.inf).value
            assert fast == brute_modulus(ctx, f.values, "total", level, math.inf)

    @pytest.mark.parametrize("m", INF_GROUPS)
    def test_omega12_matches_brute_force(self, m):
        ctx = GroupContext(m)
        f = random_grid_2d(ctx, 13)
        for level in range(ctx.level + 1):
            for level2 in range(ctx.level + 1):
                fast = modulus(f, "omega12", level, math.inf, level2=level2).value
                slow = brute_modulus(ctx, f.values, "omega12", level, math.inf, level2)
                assert abs(fast - slow) <= 1e-12

    @pytest.mark.parametrize("m", INF_GROUPS)
    def test_omega12_equals_its_expression(self, m):
        # row-major cell values, and a column-major synthesis
        ctx = GroupContext(m)
        poly = FunctionFamily("random_poly", (ctx.size // 2, 11)).build(ctx)
        assert poly.values.flags.f_contiguous and not poly.values.flags.c_contiguous
        for f in (random_grid_2d(ctx, 19), poly):
            for level in range(ctx.level + 1):
                for level2 in range(ctx.level + 1):
                    fast = modulus(f, "omega12", level, math.inf, level2=level2).value
                    assert fast == brute_inf_omega12(ctx, f.values, level, level2), (level, level2)

    @pytest.mark.parametrize("m", [(2, 3, 2), (5, 7)])
    def test_total_adversarial_inputs(self, m):
        ctx = GroupContext(m)
        for name, values in adversarial_grids(ctx, 14).items():
            f = SampledFunction2D(ctx, values)
            for level in range(ctx.level + 1):
                fast = modulus(f, "total", level, math.inf).value
                assert fast == brute_quietly(ctx, values, "total", level), (name, level)
            if name.startswith("near_max_both"):
                assert modulus(f, "total", 0, math.inf).value == math.inf

    @pytest.mark.parametrize("m", [(2, 3, 2), (5, 7)])
    def test_omega12_adversarial_inputs(self, m):
        ctx = GroupContext(m)
        for name, values in adversarial_grids(ctx, 15).items():
            if name.startswith("near_max"):
                # the oracle's partial sums overflow (see the next test)
                continue
            f = SampledFunction2D(ctx, values)
            # the oracle's four-term sum rounds at the scale of the values
            tol = 1e-12 * np.abs(values).max()
            for level in range(ctx.level + 1):
                for level2 in (0, level):
                    fast = modulus(f, "omega12", level, math.inf, level2=level2).value
                    slow = brute_quietly(ctx, values, "omega12", level, level2)
                    assert fast == pytest.approx(slow, rel=1e-12, abs=tol), (name, level)
            if name == "half_max_both_signs":
                assert modulus(f, "omega12", 0, math.inf).value == math.inf

    def test_omega12_overflowed_row_difference_is_inf(self, ctx232):
        # the row differences of f overflow, those of f * 2**-k do not
        f = SampledFunction2D(ctx232, adversarial_grids(ctx232, 16)["near_max_both_signs"])
        k, scaled = scaled_below_safe_peak(f)
        got = modulus(f, "omega12", 0, math.inf).value
        assert got == 2.0**k * modulus(scaled, "omega12", 0, math.inf).value == math.inf
        assert modulus(f, "omega12", ctx232.level, math.inf).value == 0.0

    @pytest.mark.parametrize("name", ["circle", "roots4", "near_max_one_sign"])
    def test_small_blocks_keep_the_value(self, monkeypatch, name):
        # blocks smaller than one set's pairs, or than one point against its
        # set; at finite p one shift per block against all shifts in one,
        # and at 2**9 a few row shifts per block; radix 4 halves the points
        # by a digit with m_k / 2 = 2, and level2 != level gathers columns
        # from another shift set than rows
        fs = []
        for m in ((2, 3, 2), (4, 2, 3)):
            ctx = GroupContext(m)
            fs.append(SampledFunction2D(ctx, adversarial_grids(ctx, 17)[name]))
        # both groups have levels 0..3
        calls = [(kind, level, None) for kind in ("omega12", "total") for level in range(4)]
        calls.append(("omega12", 1, 0))

        def values():
            return [
                modulus(f, kind, level, p, level2=level2).value
                for f in fs
                for p in (math.inf, 1.0, 3.0)
                for kind, level, level2 in calls
            ]

        want = values()
        for entries in (1, 5, 40, 2**9):
            monkeypatch.setattr(approx, "_BLOCK_ENTRIES", entries)
            assert values() == want

    def test_pruned_search_at_216(self):
        """Typical data at M = 216 must not fall back to all pairs.

        Enumerating every shifted difference would form 216**4 (about 2.2e9)
        of them for level-0 `total`.  On a 2-core Xeon these 14 calls took
        0.16-0.18 s, and 13.8 s with every point kept (`_PRUNE_SLACK =
        inf`): a fallback to all pairs costs tier-1 about 14 s.
        """
        ctx = GroupContext((2, 3, 2, 3, 2, 3))
        f = random_grid_2d(ctx, 0)
        for kind in ("omega12", "total"):
            values = [modulus(f, kind, level, math.inf).value for level in range(ctx.level + 1)]
            assert all(math.isfinite(v) for v in values[:-1]) and values[-1] == 0.0, kind

    @pytest.mark.parametrize("points", [1, 2])
    def test_small_sets_equal_all_pairs(self, points):
        rng = np.random.default_rng(18)
        sets = rng.standard_normal((200, points)) + 1j * rng.standard_normal((200, points))
        sets *= 10.0 ** rng.integers(-3, 4, (200, 1))
        sets[:5] = sets[:5, :1]  # coincident points
        every_pair = float(np.abs(sets[:, :, None] - sets[:, None, :]).max())
        assert approx._max_pair_distance(sets) == every_pair
        assert approx._max_pair_distance(sets[:5]) == 0.0
        for floor in (0.0, every_pair / 2, 2 * every_pair):
            assert approx._max_pair_distance(sets, floor) == max(floor, every_pair)


SCREEN_GROUPS = [(2, 3, 2), (2, 2, 2, 2), (3, 3, 2), (5, 7), (2, 3, 2, 3)]


def screen_grids(ctx, seed):
    """Inputs that stress the single-precision screen of finite-p double shifts."""
    rng = np.random.default_rng(seed)
    shape = (ctx.size, ctx.size)
    gauss = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    character = np.outer(psi_values(ctx, 1), psi_values(ctx, ctx.size - 1))
    return {
        "gauss": gauss,
        # many shifts tie exactly
        "character": character,
        "constant": np.full(shape, -3.7 + 2j),
        "integers": rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape),
        # ties broken below single-precision resolution
        "character_noise": character + 1e-9 * gauss,
        "huge": gauss * 1e200,
        "tiny": gauss * 1e-200,
    }


class TestScreenedDoubleShift:
    """Finite-p double-shift moduli: a single-precision screen, then double precision."""

    @pytest.mark.parametrize("m", SCREEN_GROUPS)
    def test_screen_keeps_the_value(self, monkeypatch, m):
        ctx = GroupContext(m)
        calls = [
            (kind, level, None) for kind in ("omega12", "total") for level in range(ctx.level + 1)
        ]
        calls.append(("omega12", 1, 2))
        for name, values in screen_grids(ctx, 18).items():
            f = SampledFunction2D(ctx, values)
            # the two grids of about 36 x 36 cells take p = 1.5 and 3 on one input only
            ps = (1.0, 1.5, 3.0) if ctx.size < 30 or name == "character_noise" else (1.0,)
            for p in ps:
                got = [modulus(f, kind, lvl, p, level2=lvl2).value for kind, lvl, lvl2 in calls]
                # an infinite slack keeps every shift: the unscreened computation
                monkeypatch.setattr(approx, "_SCREEN_SLACK", math.inf)
                want = [modulus(f, kind, lvl, p, level2=lvl2).value for kind, lvl, lvl2 in calls]
                monkeypatch.undo()
                assert got == want, (name, p)

    def test_screen_and_blocks_keep_the_value_at_scale(self, monkeypatch):
        # an odd-radix size, and a radix-4 group whose order-2 shifts take the
        # points with digit k below m_k / 2 = 2; blocks of 2**8 complex
        # entries split the gathers at many more edges
        rng = np.random.default_rng(0)
        cases = []
        for m, levels in (((2, 3, 2, 3, 2, 3), range(2, 7)), ((4, 4, 4), range(4))):
            ctx = GroupContext(m)
            shape = (ctx.size, ctx.size)
            values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            cases.append((SampledFunction2D(ctx, values), levels))

        def values():
            return [
                modulus(f, kind, level, p).value
                for f, levels in cases
                for p in (1.0, 3.0)
                for kind in ("omega12", "total")
                for level in levels
            ]

        screened = values()
        # an infinite slack keeps every shift: the unscreened computation
        monkeypatch.setattr(approx, "_SCREEN_SLACK", math.inf)
        assert values() == screened
        monkeypatch.undo()
        monkeypatch.setattr(approx, "_BLOCK_ENTRIES", 2**8)
        assert values() == screened

    def test_complex64_abs_error(self):
        # the screen's slack assumes far fewer than 2**10 float32 ulps from
        # abs; the cast and each subtraction add at most one more
        rng = np.random.default_rng(19)
        size = 1 << 16
        exponents = rng.uniform(-149.0, 4.0, (2, size))
        parts = rng.choice([-1.0, 1.0], (2, size)) * 2.0**exponents
        z = (parts[0] + 1j * parts[1]).astype(np.complex64)
        got = np.abs(z).astype(float)
        ref = np.abs(z.astype(np.complex128))
        normal = ref >= np.finfo(np.float32).tiny
        assert np.all(np.abs(got - ref)[normal] <= 4 * 2.0**-24 * ref[normal])
        assert np.all(np.abs(got - ref)[~normal] <= 2 * 2.0**-149)

    @pytest.mark.parametrize("amplitude", [1.7e308, 1e308])
    def test_overflowed_differences_scale_back(self, ctx232, amplitude):
        # the differences overflow: each such shift is computed on f * 2**-k
        rng = np.random.default_rng(20)
        shape = (ctx232.size, ctx232.size)
        values = rng.choice([-1.0, 1.0], shape) * amplitude + 1j * rng.uniform(-1.0, 1.0, shape)
        f = SampledFunction2D(ctx232, values)
        g = SampledFunction2D(ctx232, values * 2.0**-1000)
        for kind in ("omega12", "total"):
            for p in (1.0, 3.0):
                for level in range(ctx232.level + 1):
                    got = modulus(f, kind, level, p).value
                    want = modulus(g, kind, level, p).value * 2.0**1000
                    assert got == pytest.approx(want, rel=1e-12), (kind, p, level)
                assert modulus(f, kind, 0, p).value > 0.0
        if amplitude == 1e308:
            assert math.isfinite(modulus(f, "total", 0, 1.0).value)
        else:
            assert modulus(f, "total", 0, 1.0).value == math.inf


RADIX4_GROUPS = [(4, 4), (4, 2, 3)]


def screen_tables(f, kind, level, level2, p):
    """Reduced and fully enumerated single-precision screen tables, and their slack."""
    ctx = f.ctx
    peak = float(np.abs(f.values).max())
    scale = math.ldexp(1.0, math.frexp(peak)[1])
    screen = (f.values / scale).astype(np.complex64)
    rows = translate_ids(ctx, shift_representatives(ctx, level))
    cols = translate_ids(ctx, shift_representatives(ctx, level2))
    # every (u, v) over every point, without symmetry or blocks
    full = np.empty((len(rows), len(cols)))
    for i, u in enumerate(rows):
        for j, v in enumerate(cols):
            if kind == "total":
                diff = screen[np.ix_(u, v)] - screen
            else:
                row_diff = screen[u] - screen
                diff = row_diff[:, v] - row_diff
            full[i, j] = np.mean(np.abs(diff).astype(float) ** p) ** (1.0 / p)
    screen_t = np.ascontiguousarray(screen.T)
    shift_sets = [approx._shift_set(ctx, lvl) for lvl in (level, level2)]
    reduced = approx._screen_norms(screen_t, kind, p, ctx, *shift_sets)
    terms = 4 if kind == "omega12" else 2
    return reduced, full, approx._SCREEN_SLACK * terms * peak / scale


class TestScreenOrbits:
    """The screen evaluates one shift per symmetry orbit, and halves order-2 shifts' points."""

    @pytest.mark.parametrize("m", [(2, 2, 2, 2), (4, 2, 3), (4, 4), (5, 7), (2, 3, 2, 3)])
    def test_reduced_table_within_slack_of_full_enumeration(self, m):
        # radix 4 halves by a digit with m_k / 2 = 2; (5, 7) has no element
        # of order 2, so only pairing applies there
        ctx = GroupContext(m)
        grids = screen_grids(ctx, 21)
        pairs = [(level, level) for level in range(ctx.level + 1)] + [(1, 0)]
        for name in ("gauss", "integers", "character"):
            f = SampledFunction2D(ctx, grids[name])
            for kind in ("omega12", "total"):
                for level, level2 in pairs:
                    if kind == "total" and level2 != level:
                        continue
                    for p in (1.0, 3.0):
                        reduced, full, slack = screen_tables(f, kind, level, level2, p)
                        assert reduced.shape == full.shape
                        assert np.all(np.abs(reduced - full) <= slack), (name, kind, level, p)

    @pytest.mark.parametrize("m", RADIX4_GROUPS)
    def test_screen_keeps_the_value_at_radix_four(self, monkeypatch, m):
        ctx = GroupContext(m)
        calls = [
            (kind, level, None) for kind in ("omega12", "total") for level in range(ctx.level + 1)
        ]
        calls.append(("omega12", 1, 0))
        for name, values in screen_grids(ctx, 22).items():
            f = SampledFunction2D(ctx, values)
            for p in (1.0, 1.5, 3.0):
                got = [modulus(f, kind, lvl, p, level2=lvl2).value for kind, lvl, lvl2 in calls]
                # an infinite slack keeps every shift: the unscreened computation
                monkeypatch.setattr(approx, "_SCREEN_SLACK", math.inf)
                want = [modulus(f, kind, lvl, p, level2=lvl2).value for kind, lvl, lvl2 in calls]
                monkeypatch.undo()
                assert got == want, (name, p)


def digit_sum_ids(m, ids, a):
    """Cell ids of x + a for each cell id x in ``ids``: digits added mod m_k."""
    out = np.zeros_like(ids)
    scale = 1
    for mk in m:
        out += (ids // scale + a // scale) % mk * scale
        scale *= mk
    return out


@st.composite
def translated_grids(draw):
    m = draw(
        st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(lambda m: math.prod(m) <= 40)
    )
    size = math.prod(m)
    a, b = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    ids = np.arange(size)
    shifted = values[np.ix_(digit_sum_ids(m, ids, a), digit_sum_ids(m, ids, b))]
    return GroupContext(tuple(m)), values, shifted


# Translated and plain moduli were measured to differ by at most 2.4 eps
# (5.2e-16) relative; this leaves a factor of about 2000.
TRANSLATION_REL = 1e-12


@given(translated_grids())
@settings(max_examples=25, deadline=5000, derandomize=True)
def test_moduli_are_translation_invariant(case):
    # the cell measure is translation invariant and the group abelian, so
    # ||tau_u tau_a f - tau_a f||_p = ||tau_u f - f||_p for every shift u
    ctx, values, shifted = case
    f, g = SampledFunction2D(ctx, values), SampledFunction2D(ctx, shifted)
    for kind in MODULUS_KINDS:
        for p in (1.0, 2.0, 3.0, math.inf):
            for level in range(ctx.level + 1):
                want = modulus(f, kind, level, p).value
                got = modulus(g, kind, level, p).value
                assert got == pytest.approx(want, rel=TRANSLATION_REL, abs=0.0), (kind, p, level)


@given(translated_grids())
@settings(max_examples=25, deadline=5000, derandomize=True)
def test_moduli_swap_with_the_variables(case):
    # for g(x, y) = f(y, x) a shift of one variable of g is a shift of the
    # other variable of f, and the mixed double difference is symmetric; the
    # order of rounding differs, as it does under translation
    ctx, values, _ = case
    f, g = SampledFunction2D(ctx, values), SampledFunction2D(ctx, values.T)
    levels = range(ctx.level + 1)
    calls = [
        ((kind_g, level, None), (kind_f, level, None))
        for kind_g, kind_f in (("omega1", "omega2"), ("omega2", "omega1"), ("total", "total"))
        for level in levels
    ]
    calls += [(("omega12", l1, l2), ("omega12", l2, l1)) for l1 in levels for l2 in levels]
    for p in (1.0, 2.0, 3.0, math.inf):
        for (kind_g, lg, lg2), (kind_f, lf, lf2) in calls:
            got = modulus(g, kind_g, lg, p, level2=lg2).value
            want = modulus(f, kind_f, lf, p, level2=lf2).value
            assert got == pytest.approx(want, rel=TRANSLATION_REL, abs=0.0), (kind_g, p, lg, lg2)


@pytest.mark.parametrize("m", SCREEN_GROUPS + RADIX4_GROUPS)
def test_moduli_scale_exactly_with_the_function(m):
    # doubling is exact, and at these p so is every step after it: the
    # differences, magnitudes, sums, means and maxima double, and the
    # power-of-two scales of the screen and of Plancherel double.  p = 3 is
    # left out: there pow rounds (8 s)**(1/3) and 2 s**(1/3) apart.
    ctx = GroupContext(m)
    levels = range(ctx.level + 1)
    calls = [(kind, level, None) for kind in MODULUS_KINDS for level in levels]
    calls += [("omega12", l1, l2) for l1 in levels for l2 in levels if l1 != l2]
    for seed in (23, 24, 25):
        f = random_grid_2d(ctx, seed)
        g = SampledFunction2D(ctx, 2.0 * f.values)
        for p in (1.0, 2.0, math.inf):
            for kind, level, level2 in calls:
                got = modulus(g, kind, level, p, level2=level2).value
                want = 2.0 * modulus(f, kind, level, p, level2=level2).value
                assert got == want, (seed, kind, p, level, level2)


def test_shift_representatives_match_interval_filter(ctx2323):
    cells = cell_enumerate(ctx2323)
    for level in range(ctx2323.level + 1):
        reps = shift_representatives(ctx2323, level).tolist()
        filtered = [
            cell_id(ctx2323, x) for x in cells if in_interval(ctx2323, x, level)
        ]
        assert reps == filtered
