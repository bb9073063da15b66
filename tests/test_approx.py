import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import random_grid_2d
from oracles import brute_modulus, direct_cesaro_mean, direct_cesaro_weights
from vilenkin import (
    GroupContext,
    ResolutionExceededError,
    SampledFunction2D,
    cesaro_mean,
    cesaro_weights,
    fvt_forward_2d,
    lp_norm,
    modulus,
    psi_values,
)
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

    def test_parameter_validation(self, ctx232):
        grid = fvt_forward_2d(random_grid_2d(ctx232, 1))
        with pytest.raises(ValueError):
            cesaro_mean(grid, 0, 0.5)
        with pytest.raises(ResolutionExceededError):
            cesaro_mean(grid, ctx232.size + 1, 0.5)
        with pytest.raises(ValueError):
            cesaro_mean(grid, 4, 0.0)


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

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_scale_covariant_at_extreme_magnitudes(self, ctx232, scale):
        # |v|^p overflows or underflows at these scales for every finite p > 1
        f = random_grid_2d(ctx232, 11)
        g = SampledFunction2D(ctx232, f.values * scale)
        for kind in MODULUS_KINDS:
            for p in P_GRID + (3.0,):
                want = modulus(f, kind, 1, p).value * scale
                assert modulus(g, kind, 1, p).value == pytest.approx(want, rel=1e-12)

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
        ctx = GroupContext(m)
        f = random_grid_2d(ctx, 9)
        for kind in MODULUS_KINDS:
            for level in range(ctx.level + 1):
                for p in P_GRID + (1.5, 3.0):
                    fast = modulus(f, kind, level, p).value
                    slow = brute_modulus(ctx, f.values, kind, level, p)
                    assert abs(fast - slow) <= 1e-12

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


def test_shift_representatives_match_interval_filter(ctx2323):
    cells = cell_enumerate(ctx2323)
    for level in range(ctx2323.level + 1):
        reps = shift_representatives(ctx2323, level).tolist()
        filtered = [
            cell_id(ctx2323, x) for x in cells if in_interval(ctx2323, x, level)
        ]
        assert reps == filtered
