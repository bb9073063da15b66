import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import (
    GroupContext,
    GroupElement,
    InvalidElementError,
    ResolutionExceededError,
    add,
    cell_enumerate,
    cell_id,
    in_interval,
    index_compose,
    index_expand,
    negate,
    norm_map,
    sub,
)
from vilenkin.group import _band_level, _check_element, _negate_ids, digit_table, translate_ids


class TestContext:
    def test_scale_table(self):
        ctx = GroupContext((2, 3, 2))
        assert ctx.M == (1, 2, 6, 12)
        assert ctx.size == 12
        assert ctx.level == 3

    def test_scale_table_strictly_increasing(self):
        ctx = GroupContext((2, 3, 2, 3, 2, 3))
        assert all(a < b for a, b in zip(ctx.M, ctx.M[1:]))
        assert all(ctx.M[k + 1] == ctx.m[k] * ctx.M[k] for k in range(ctx.level))

    @pytest.mark.parametrize("bad", [(), (1,), (2, 0), (2, -3)])
    def test_rejects_bad_generators(self, bad):
        with pytest.raises(ValueError):
            GroupContext(bad)

    def test_truncate(self):
        ctx = GroupContext((2, 3, 2, 3))
        assert ctx.truncate(2).m == (2, 3)
        with pytest.raises(ValueError):
            ctx.truncate(0)
        with pytest.raises(ValueError):
            ctx.truncate(5)

    def test_unit_element(self):
        ctx = GroupContext((2, 3, 2))
        assert ctx.unit(1).digits == (0, 1, 0)
        with pytest.raises(ResolutionExceededError):
            ctx.unit(3)

    @pytest.mark.parametrize("m", [(2,) * 6, (2, 3, 2, 3), (5, 7)])
    def test_band_level_is_smallest_covering_scale(self, m):
        ctx = GroupContext(m)
        for n in range(ctx.size + 1):
            j = _band_level(ctx, n)
            assert ctx.M[j] >= n
            assert j == 0 or ctx.M[j - 1] < n
        with pytest.raises(ResolutionExceededError):
            _band_level(ctx, ctx.size + 1)


class TestArithmetic:
    def test_add_example(self, ctx23):
        x = ctx23.element((1, 2))
        y = ctx23.element((1, 1))
        assert add(ctx23, x, y).digits == (0, 0)

    def test_add_identity(self, ctx2323):
        zero = ctx2323.zero()
        for i in range(0, ctx2323.size, 7):
            x = GroupElement(index_expand(ctx2323, i).digits)
            assert add(ctx2323, x, zero) == x

    def test_walsh_self_inverse(self):
        ctx = GroupContext((2, 2))
        x = ctx.element((1, 0))
        assert add(ctx, x, x).digits == (0, 0)
        for digits in itertools.product(range(2), repeat=2):
            x = ctx.element(digits)
            assert negate(ctx, x) == x

    def test_negate_example(self, ctx23):
        assert negate(ctx23, ctx23.element((1, 2))).digits == (1, 1)
        assert negate(ctx23, ctx23.zero()) == ctx23.zero()

    def test_group_axioms_exhaustive(self, ctx23):
        cells = cell_enumerate(ctx23)
        assert len(cells) == 6
        zero = ctx23.zero()
        for x in cells:
            assert add(ctx23, x, negate(ctx23, x)) == zero
            assert add(ctx23, x, zero) == x
            for y in cells:
                assert add(ctx23, x, y) == add(ctx23, y, x)
                assert sub(ctx23, add(ctx23, x, y), y) == x
                for z in cells:
                    assert add(ctx23, add(ctx23, x, y), z) == add(
                        ctx23, x, add(ctx23, y, z)
                    )

    def test_invalid_digits_rejected(self, ctx23):
        with pytest.raises(InvalidElementError):
            add(ctx23, GroupElement((1, 3)), ctx23.zero())
        with pytest.raises(InvalidElementError):
            add(ctx23, GroupElement((1,)), ctx23.zero())
        with pytest.raises(InvalidElementError):
            ctx23.element((0, -1))

    def test_element_digits_are_not_truncated(self, ctx23):
        with pytest.raises(InvalidElementError, match="not an integer"):
            ctx23.element((1.5, 2.9))
        assert ctx23.element((np.int64(1), 2.0)).digits == (1, 2)

    def test_non_integral_digit_rejected_before_use(self, ctx23):
        # norm_map would read 1.5 as is while translate_ids truncated it to 1
        x = GroupElement((1.5, 0))
        with pytest.raises(InvalidElementError):
            _check_element(ctx23, x)
        with pytest.raises(InvalidElementError):
            norm_map(ctx23, x)
        with pytest.raises(InvalidElementError):
            translate_ids(ctx23, x)


class TestIndexExpansion:
    def test_example(self):
        ctx = GroupContext((2, 3, 2))
        exp = index_expand(ctx, 7)
        assert exp.digits == (1, 0, 1)
        assert exp.order == 2

    def test_zero_has_no_order(self, ctx2323):
        exp = index_expand(ctx2323, 0)
        assert exp.digits == (0, 0, 0, 0)
        assert exp.order is None

    def test_scale_points(self, ctx2323):
        for k in range(ctx2323.level):
            exp = index_expand(ctx2323, ctx2323.M[k])
            assert exp.order == k
            assert sum(exp.digits) == 1 and exp.digits[k] == 1

    def test_order_brackets_index(self, ctx2323):
        for n in range(1, ctx2323.size):
            k = index_expand(ctx2323, n).order
            assert ctx2323.M[k] <= n < ctx2323.M[k + 1]

    @pytest.mark.parametrize("m", [(2, 3, 2, 3, 2, 3), (2,) * 12])
    def test_roundtrip_exhaustive(self, m):
        ctx = GroupContext(m)
        for n in range(ctx.size):
            assert index_compose(ctx, index_expand(ctx, n).digits) == n

    def test_compose_checks_each_digit(self, ctx23):
        with pytest.raises(InvalidElementError, match="not an integer"):
            index_compose(ctx23, (1.7, True))
        with pytest.raises(InvalidElementError, match="not an integer"):
            index_compose(ctx23, (1, True))
        with pytest.raises(InvalidElementError, match="outside"):
            index_compose(ctx23, (5, 7))
        with pytest.raises(InvalidElementError, match="outside"):
            index_compose(ctx23, (1, 3))
        assert index_compose(ctx23, (1, 2)) == 5

    def test_resolution_error(self, ctx23):
        with pytest.raises(ResolutionExceededError):
            index_expand(ctx23, 6)
        with pytest.raises(ValueError):
            index_expand(ctx23, -1)


class TestNormMap:
    def test_zero(self, ctx2323):
        assert norm_map(ctx2323, ctx2323.zero()) == 0.0

    def test_unit_example(self, ctx23):
        assert norm_map(ctx23, ctx23.unit(1)) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_walsh_example(self):
        ctx = GroupContext((2, 2))
        assert norm_map(ctx, ctx.element((1, 1))) == 0.75

    def test_injective_onto_grid(self, ctx232):
        norms = sorted(norm_map(ctx232, x) for x in cell_enumerate(ctx232))
        expected = [j / ctx232.size for j in range(ctx232.size)]
        assert norms == expected


class TestIntervals:
    def test_level_zero_is_whole_group(self, ctx23):
        for x in cell_enumerate(ctx23):
            assert in_interval(ctx23, x, 0)

    def test_center_always_inside(self, ctx232):
        center = ctx232.element((1, 2, 0))
        for n in range(ctx232.level + 1):
            assert in_interval(ctx232, center, n, center)

    def test_example(self, ctx23):
        x = ctx23.element((1, 0))
        center = ctx23.element((1, 2))
        assert in_interval(ctx23, x, 1, center)
        assert not in_interval(ctx23, x, 2, center)

    def test_measure_by_counting(self, ctx2323):
        cells = cell_enumerate(ctx2323)
        for n in range(ctx2323.level + 1):
            inside = sum(in_interval(ctx2323, x, n) for x in cells)
            assert inside == ctx2323.size // ctx2323.M[n]

    def test_resolution_error(self, ctx23):
        with pytest.raises(ResolutionExceededError):
            in_interval(ctx23, ctx23.zero(), 3)


class TestCells:
    def test_first_cell_is_zero(self, ctx2323):
        assert cell_enumerate(ctx2323)[0] == ctx2323.zero()

    def test_example(self, ctx23):
        assert cell_enumerate(ctx23)[3].digits == (1, 1)

    def test_last_cell_maximal(self, ctx232):
        last = cell_enumerate(ctx232)[-1]
        assert last.digits == tuple(mk - 1 for mk in ctx232.m)

    def test_bijection(self, ctx2323):
        cells = cell_enumerate(ctx2323)
        assert len(set(cells)) == ctx2323.size
        assert all(cell_id(ctx2323, x) == i for i, x in enumerate(cells))

    def test_digit_table_matches_cells(self, ctx232):
        table = digit_table(ctx232)
        for i, x in enumerate(cell_enumerate(ctx232)):
            assert tuple(table[:, i]) == x.digits

    def test_translate_matches_elementwise_add(self, ctx232):
        cells = cell_enumerate(ctx232)
        for u in (0, 1, 5, 11):
            perm = translate_ids(ctx232, u)
            shift = cells[u]
            expected = [cell_id(ctx232, add(ctx232, x, shift)) for x in cells]
            assert perm.tolist() == expected
        by_element = translate_ids(ctx232, ctx232.element((1, 2, 0)))
        assert by_element.tolist() == translate_ids(ctx232, 5).tolist()

    def test_translate_rows_per_shift(self, ctx232):
        shifts = np.array([0, 1, 5, 11])
        rows = translate_ids(ctx232, shifts)
        assert rows.shape == (4, ctx232.size)
        for row, u in zip(rows, shifts):
            assert row.tolist() == translate_ids(ctx232, int(u)).tolist()

    def test_translate_rejects_out_of_range_ids(self, ctx232):
        with pytest.raises(ResolutionExceededError):
            translate_ids(ctx232, np.array([0, ctx232.size]))

    def test_negate_ids_matches_negate(self, ctx232):
        cells = cell_enumerate(ctx232)
        expected = [cell_id(ctx232, negate(ctx232, x)) for x in cells]
        assert _negate_ids(ctx232, np.arange(ctx232.size)).tolist() == expected

    @pytest.mark.parametrize(
        "m", [(4,) * 5, (2, 3, 2, 3, 2), (5, 7, 5)], ids=["4^5", "23232", "575"]
    )
    def test_negate_ids_is_an_involution_of_each_period(self, m):
        # negation is digitwise, without carries, so it keeps every period
        # [0, M_k); -u = u when each digit is 0 or m_k / 2
        ctx = GroupContext(m)
        for level, period in enumerate(ctx.M):
            ids = np.arange(period)
            neg = _negate_ids(ctx, ids)
            assert sorted(neg.tolist()) == ids.tolist()
            assert np.array_equal(neg[neg], ids)
            fixed = np.prod([2 - mk % 2 for mk in ctx.m[:level]], dtype=int)
            assert np.count_nonzero(neg == ids) == fixed, period


small_groups = st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4)


@st.composite
def group_and_elements(draw, count=2):
    m = tuple(draw(small_groups))
    ctx = GroupContext(m)
    elems = tuple(
        ctx.element([draw(st.integers(0, mk - 1)) for mk in m]) for _ in range(count)
    )
    return ctx, elems


@given(group_and_elements(count=2))
@settings(max_examples=60, deadline=None)
def test_add_commutes(case):
    ctx, (x, y) = case
    assert add(ctx, x, y) == add(ctx, y, x)


@given(group_and_elements(count=3))
@settings(max_examples=60, deadline=None)
def test_add_associates(case):
    ctx, (x, y, z) = case
    assert add(ctx, add(ctx, x, y), z) == add(ctx, x, add(ctx, y, z))


@given(group_and_elements(count=1))
@settings(max_examples=60, deadline=None)
def test_negate_inverts(case):
    ctx, (x,) = case
    assert add(ctx, x, negate(ctx, x)) == ctx.zero()
    assert 0.0 <= norm_map(ctx, x) < 1.0


@given(group_and_elements(count=1))
@settings(max_examples=60, deadline=None)
def test_cell_id_roundtrip(case):
    ctx, (x,) = case
    assert GroupElement(index_expand(ctx, cell_id(ctx, x)).digits) == x
