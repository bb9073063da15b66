import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_grid_2d
from oracles import pointwise_lemma4_values
from vilenkin import (
    GroupContext,
    ResolutionExceededError,
    eq23_report,
    lemma1_report,
    lemma4_report,
    lemma5_report,
    modulus,
    psi_values,
    tail_decompose,
    theorem_reports,
)
from vilenkin.verify import (
    FunctionFamily,
    _modulus_rhs,
    eq23_profile,
    lemma4_values,
    log_factor,
    parse_family,
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
