import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from conftest import random_grid_2d, random_vector
from oracles import block_average, full_grid_synthesis, naive_forward_1d, naive_forward_2d
from vilenkin import (
    GroupContext,
    ResolutionExceededError,
    SampledFunction1D,
    SampledFunction2D,
    SpectralGrid1D,
    SpectralGrid2D,
    fvt_forward,
    fvt_forward_2d,
    fvt_inverse,
    fvt_inverse_2d,
    marginal_partial_sum,
    partial_sum_rect,
    psi_values,
)
from vilenkin.kernels import _root_table
from vilenkin.transform import _decimate, _decimate_2d

GROUPS = [(2,) * 6, (3,) * 5, (2, 3, 2, 3, 2, 3)]
GRID_TYPES = [(SampledFunction1D, 1), (SpectralGrid1D, 1),
              (SampledFunction2D, 2), (SpectralGrid2D, 2)]


@pytest.mark.parametrize("m", GROUPS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roundtrip_1d(m, seed):
    ctx = GroupContext(m)
    f = SampledFunction1D(ctx, random_vector(ctx, seed))
    back = fvt_inverse(fvt_forward(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-10


@pytest.mark.parametrize("m", GROUPS)
def test_roundtrip_2d(m):
    ctx = GroupContext(m)
    f = random_grid_2d(ctx, 3)
    back = fvt_inverse_2d(fvt_forward_2d(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-10


@pytest.mark.parametrize("m", GROUPS)
def test_matches_naive_1d(m):
    ctx = GroupContext(m)
    f = SampledFunction1D(ctx, random_vector(ctx, 7))
    fast = fvt_forward(f).values
    assert np.max(np.abs(fast - naive_forward_1d(ctx, f.values))) < 1e-10


def test_matches_naive_2d(ctx2323):
    f = random_grid_2d(ctx2323, 11)
    fast = fvt_forward_2d(f).values
    assert np.max(np.abs(fast - naive_forward_2d(ctx2323, f.values))) < 1e-10


def test_constant_gives_exact_delta(ctx2323):
    f = SampledFunction1D(ctx2323, np.ones(ctx2323.size))
    coeffs = fvt_forward(f).values
    assert coeffs[0] == 1.0
    assert np.all(coeffs[1:] == 0.0)


# The sums of these grids overflow, and |1e308 + 1e308j| does too, yet each
# part is finite; f / 2^k sums exactly.
@pytest.mark.parametrize("value", [1e307, 1e308 + 1e308j])
def test_forward_2d_of_near_overflow_constant_is_exact(value):
    ctx = GroupContext((2,) * 6)
    coeffs = fvt_forward_2d(SampledFunction2D(ctx, np.full((64, 64), value))).values
    assert coeffs[0, 0] == value
    assert np.count_nonzero(coeffs) == 1


def test_forward_1d_of_near_overflow_constant_is_exact():
    ctx = GroupContext((2,) * 6)
    coeffs = fvt_forward(SampledFunction1D(ctx, np.full(64, 1.7e308))).values
    assert coeffs[0] == 1.7e308
    assert np.count_nonzero(coeffs) == 1


def test_synthesis_beyond_float_range_raises():
    # a synthesis is not scaled: its values can exceed the float range
    ctx = GroupContext((2,) * 6)
    grid = SpectralGrid2D(ctx, np.full((64, 64), 1e305))
    with pytest.raises(ValueError, match="finite"):
        partial_sum_rect(grid, 64, 64)


def test_character_gives_unit_coefficient(ctx232):
    for a in (0, 1, 5, 11):
        f = SampledFunction1D(ctx232, psi_values(ctx232, a))
        coeffs = fvt_forward(f).values
        expected = np.zeros(ctx232.size)
        expected[a] = 1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-14


def test_linearity(ctx232):
    f = SampledFunction1D(ctx232, random_vector(ctx232, 1))
    g = SampledFunction1D(ctx232, random_vector(ctx232, 2))
    combined = fvt_forward(
        SampledFunction1D(ctx232, 2.0 * f.values - 1.5j * g.values)
    ).values
    separate = 2.0 * fvt_forward(f).values - 1.5j * fvt_forward(g).values
    assert np.max(np.abs(combined - separate)) < 1e-12


@pytest.mark.parametrize("m", GROUPS)
def test_parseval_1d(m):
    ctx = GroupContext(m)
    f = SampledFunction1D(ctx, random_vector(ctx, 13))
    energy_cells = np.mean(np.abs(f.values) ** 2)
    energy_coeffs = np.sum(np.abs(fvt_forward(f).values) ** 2)
    assert energy_cells == pytest.approx(energy_coeffs, rel=1e-10)


def test_parseval_2d(ctx2323):
    f = random_grid_2d(ctx2323, 17)
    energy_cells = np.mean(np.abs(f.values) ** 2)
    energy_coeffs = np.sum(np.abs(fvt_forward_2d(f).values) ** 2)
    assert energy_cells == pytest.approx(energy_coeffs, rel=1e-10)


def _last_axis_reference(ctx, values, sign):
    """The butterfly stages as a contraction of the last axis, stage by stage."""
    out = np.asarray(values, dtype=np.complex128)
    lead = out.shape[:-1]
    size = ctx.size
    for mt, Mt in zip(ctx.m, ctx.M):
        view = out.reshape(*lead, size // (mt * Mt), mt, Mt)
        out = np.einsum("...qjr,jk->...qkr", view, _root_table(mt, sign))
        out = out.reshape(*lead, size)
    return out


class TestLayout:
    """Leading-axis stages give the bits of last-axis stages, in the same order."""

    GROUPS = [(2,) * 6, (2, 3, 2, 3), (3, 3, 2), (5, 7), (4, 4, 4), (6, 4, 3)]

    @staticmethod
    def _inputs(ctx, shape):
        rng = np.random.default_rng(ctx.size)
        yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        yield np.full(shape, 1 - 3.7j)

    @pytest.mark.parametrize("m", GROUPS)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bit_identical_to_last_axis_stages(self, m, sign):
        ctx = GroupContext(m)
        size = ctx.size
        for x in self._inputs(ctx, (size,)):
            last = _last_axis_reference(ctx, x, sign)
            assert np.array_equal(_decimate(ctx, x, sign), last)
        for x in self._inputs(ctx, (size, size)):
            rows = _last_axis_reference(ctx, x, sign)
            both = _last_axis_reference(ctx, rows.T, sign).T
            assert np.array_equal(_decimate_2d(ctx, x, sign), both)
        for x in self._inputs(ctx, (3, size, size)):
            last = _last_axis_reference(ctx, x, sign)
            assert np.array_equal(_decimate(ctx, x, sign), last)
            middle = np.swapaxes(_last_axis_reference(ctx, np.swapaxes(x, 1, 2), sign), 1, 2)
            assert np.array_equal(_decimate(ctx, x, sign, axis=1), middle)

    def test_transform_keeps_no_root_table(self):
        # at one generator a stage contracts with a 1024 x 1024 root table,
        # 16 MiB, as large as a 2D grid; cached, the forward and inverse
        # tables kept 32 MiB after the transforms returned
        ctx = GroupContext((1024,))
        f = SampledFunction1D(ctx, random_vector(ctx, 3))
        tracemalloc.start()
        try:
            back = fvt_inverse(fvt_forward(f))
            del back
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 1 << 20

    def test_2d_results_are_column_major(self, ctx2323):
        # lp_norm reduces in memory order, so the last bits of every norm, and
        # with them the report bytes, depend on this layout.
        f = random_grid_2d(ctx2323, 41)
        g = fvt_forward_2d(f)
        assert g.values.flags.f_contiguous
        assert fvt_inverse_2d(g).values.flags.f_contiguous


class TestPartialSums:
    def test_full_spectrum_reproduces(self, ctx2323):
        f = random_grid_2d(ctx2323, 19)
        grid = fvt_forward_2d(f)
        full = partial_sum_rect(grid, ctx2323.size, ctx2323.size)
        assert np.max(np.abs(full.values - f.values)) < 1e-10

    def test_single_coefficient(self, ctx232):
        a, b = 3, 5
        f = SampledFunction2D(
            ctx232, np.outer(psi_values(ctx232, a), psi_values(ctx232, b))
        )
        grid = fvt_forward_2d(f)
        kept = partial_sum_rect(grid, a + 1, b + 1)
        assert np.max(np.abs(kept.values - f.values)) < 1e-12
        dropped = partial_sum_rect(grid, a, b + 1)
        assert np.max(np.abs(dropped.values)) < 1e-12

    def test_scale_truncation_is_block_average(self, ctx2323):
        f = random_grid_2d(ctx2323, 23)
        grid = fvt_forward_2d(f)
        for k in range(ctx2323.level + 1):
            Mk = ctx2323.M[k]
            projected = partial_sum_rect(grid, Mk, Mk)
            expected = block_average(ctx2323, f.values, k)
            assert np.max(np.abs(projected.values - expected)) < 1e-10

    def test_band_synthesis_bit_identical_to_full_grid(self, ctx2323):
        # The period comes from max(n1, n2); n1 = 0 or n2 = 0 gives exact zeros.
        size = ctx2323.size
        grid = fvt_forward_2d(random_grid_2d(ctx2323, 7))
        for n1 in range(size + 1):
            for n2 in range(size + 1):
                out = partial_sum_rect(grid, n1, n2).values
                expected = full_grid_synthesis(ctx2323, grid.values[:n1, :n2])
                assert out.flags.f_contiguous
                assert np.array_equal(out, expected)

    def test_truncation_bounds(self, ctx232):
        grid = fvt_forward_2d(random_grid_2d(ctx232, 1))
        with pytest.raises(ResolutionExceededError):
            partial_sum_rect(grid, ctx232.size + 1, 1)


class TestMarginalSums:
    def test_full_is_identity(self, ctx232):
        f = random_grid_2d(ctx232, 29)
        grid = fvt_forward_2d(f)
        for axis in (1, 2):
            out = marginal_partial_sum(grid, axis, ctx232.size)
            assert np.max(np.abs(out.values - f.values)) < 1e-10

    def test_character_below_truncation(self, ctx232):
        a, b = 4, 2
        f = SampledFunction2D(
            ctx232, np.outer(psi_values(ctx232, a), psi_values(ctx232, b))
        )
        grid = fvt_forward_2d(f)
        gone = marginal_partial_sum(grid, 1, a)
        assert np.max(np.abs(gone.values)) < 1e-12

    def test_matches_literal_coefficient_formula(self, ctx232):
        from vilenkin import character_table

        f = random_grid_2d(ctx232, 37)
        grid = fvt_forward_2d(f)
        n = 5
        chars = character_table(ctx232)
        # sum_{l<n} [ (1/M) sum_x' f(x',y) conj(psi_l(x')) ] psi_l(x)
        row_coeffs = chars[:n].conj() @ f.values / ctx232.size
        literal = chars[:n].T @ row_coeffs
        out = marginal_partial_sum(grid, 1, n)
        assert np.max(np.abs(out.values - literal)) < 1e-12

    def test_composition_equals_rectangle(self, ctx232):
        f = random_grid_2d(ctx232, 31)
        grid = fvt_forward_2d(f)
        n1, n2 = 5, 9
        step1 = marginal_partial_sum(grid, 1, n1)
        composed = marginal_partial_sum(fvt_forward_2d(step1), 2, n2)
        rectangle = partial_sum_rect(grid, n1, n2)
        assert np.max(np.abs(composed.values - rectangle.values)) < 1e-12

    def test_bad_axis(self, ctx232):
        grid = fvt_forward_2d(random_grid_2d(ctx232, 1))
        with pytest.raises(ValueError):
            marginal_partial_sum(grid, 0, 1)


class TestGridTypes:
    def test_resolution_caps(self):
        big = GroupContext((2,) * 11)
        SampledFunction1D(big, np.ones(big.size))
        with pytest.raises(ResolutionExceededError):
            SampledFunction2D(big, np.ones((big.size, big.size)))

    def test_subtraction_requires_same_context(self, ctx23, ctx232):
        f = SampledFunction1D(ctx23, np.ones(ctx23.size))
        g = SampledFunction1D(ctx232, np.ones(ctx232.size))
        with pytest.raises(ValueError):
            _ = f - g

    @pytest.mark.parametrize("cls, ndim", GRID_TYPES)
    def test_wrong_shape_rejected(self, ctx232, cls, ndim):
        size = ctx232.size
        for shape in ((size + 1,) * ndim, (size,) * (3 - ndim)):
            with pytest.raises(ValueError, match="shape"):
                cls(ctx232, np.ones(shape))

    @pytest.mark.parametrize("cls, ndim", GRID_TYPES)
    def test_nan_rejected(self, ctx232, cls, ndim):
        values = np.ones((ctx232.size,) * ndim, dtype=complex)
        values.flat[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            cls(ctx232, values)

    @pytest.mark.parametrize("cls, ndim", GRID_TYPES)
    def test_cap_exceeded(self, cls, ndim):
        big = GroupContext((2,) * (13 if ndim == 1 else 11))
        values = np.broadcast_to(np.complex128(1.0), (big.size,) * ndim)
        with pytest.raises(ResolutionExceededError, match="resolution cap"):
            cls(big, values)

    @pytest.mark.parametrize("cls, ndim", GRID_TYPES)
    def test_copied_read_only_and_frozen(self, ctx232, cls, ndim):
        source = np.ones((ctx232.size,) * ndim, dtype=complex)
        grid = cls(ctx232, source)
        source.flat[0] = 5.0
        assert grid.values.flat[0] == 1.0
        assert not grid.values.flags.writeable
        with pytest.raises(ValueError):
            grid.values.flat[0] = 2.0
        with pytest.raises(FrozenInstanceError):
            grid.values = source

    @pytest.mark.parametrize("left, right", [(SampledFunction2D, SpectralGrid2D),
                                             (SampledFunction1D, SampledFunction2D)])
    def test_mixed_types_do_not_combine(self, ctx232, left, right):
        ndim = dict(GRID_TYPES)
        a = left(ctx232, np.ones((ctx232.size,) * ndim[left]))
        b = right(ctx232, np.ones((ctx232.size,) * ndim[right]))
        with pytest.raises(TypeError):
            _ = a - b

    @pytest.mark.parametrize("cls", [SampledFunction2D, SpectralGrid2D])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_2d_keeps_memory_order(self, ctx232, cls, order):
        # lp_norm reduces in memory order, so a reordered copy moves report bits.
        size = ctx232.size
        values = np.arange(size * size, dtype=complex).reshape(size, size)
        grid = cls(ctx232, np.array(values, order=order))
        flag = "c_contiguous" if order == "C" else "f_contiguous"
        assert getattr(grid.values.flags, flag)
        assert np.array_equal(grid.values, values)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_marginal_sum_is_bit_identical_to_rectangle(self, ctx232, axis):
        grid = fvt_forward_2d(random_grid_2d(ctx232, 43))
        size = ctx232.size
        for n in (0, 1, 5, 7, size):
            rect = (n, size) if axis == 1 else (size, n)
            expected = partial_sum_rect(grid, *rect).values
            assert np.array_equal(marginal_partial_sum(grid, axis, n).values, expected)
