"""The public surface: every exported name resolves, and the README example runs."""

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from vilenkin import GroupContext, ResolutionExceededError
from vilenkin import approx, group, kernels, transform, verify

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", ["group", "kernels", "transform", "approx", "verify", "cli"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"vilenkin.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


# One index rule, checked at every public entry point that takes a level,
# order, index, digit, degree or length.  Each row is (call, below, above,
# valid): ``call`` takes the index, ``below`` and ``above`` lie just outside
# its range and ``valid`` inside it.  On m = (2, 3), M = (1, 2, 6).
def _index_cases():
    ctx = GroupContext((2, 3))
    x = ctx.element((1, 2))
    f = verify.FunctionFamily("random_cell", (7,)).build(ctx)
    grid = transform.fvt_forward_2d(f)
    past_table = kernels.MAX_TABLE_LENGTH + 2
    return {
        "truncate": (ctx.truncate, 0, 3, 1),
        "unit": (ctx.unit, -1, 2, 1),
        "index_expand": (lambda v: group.index_expand(ctx, v), -1, 6, 1),
        "in_interval": (lambda v: group.in_interval(ctx, x, v), -1, 3, 1),
        "psi": (lambda v: kernels.psi(ctx, v, x), -1, 6, 1),
        "psi_values": (lambda v: kernels.psi_values(ctx, v), -1, 6, 1),
        "rademacher": (lambda v: kernels.rademacher(ctx, v, x), -1, 2, 1),
        "dirichlet": (lambda v: kernels.dirichlet(ctx, v, x), -1, 7, 1),
        "cesaro_numbers": (lambda v: kernels.cesaro_numbers(0.5, v), -1, past_table, 1),
        "lemma2_check.s": (lambda v: kernels.lemma2_check(ctx, v, 1), -1, 2, 1),
        "lemma2_check.n_s": (lambda v: kernels.lemma2_check(ctx, 1, v), 0, 3, 1),
        "paley_check.level": (lambda v: kernels.paley_check(ctx, v, 1), -1, 2, 1),
        "paley_check.digit": (lambda v: kernels.paley_check(ctx, 1, v), -1, 3, 1),
        "eq1_residual": (lambda v: kernels.eq1_residual(ctx, v), -1, 3, 1),
        "eq4_residual": (lambda v: kernels.eq4_residual(0.5, v), 0, past_table, 1),
        "partial_sum_rect.n1": (lambda v: transform.partial_sum_rect(grid, v, 6), -1, 7, 1),
        "partial_sum_rect.n2": (lambda v: transform.partial_sum_rect(grid, 6, v), -1, 7, 1),
        "cesaro_weights": (lambda v: approx.cesaro_weights(v, 0.5), 0, past_table, 1),
        "cesaro_mean": (lambda v: approx.cesaro_mean(grid, v, 0.5), 0, 7, 1),
        "shift_representatives": (lambda v: approx.shift_representatives(ctx, v), -1, 3, 1),
        "modulus.level": (lambda v: approx.modulus(f, "omega1", v, 2.0), -1, 3, 1),
        "modulus.level2": (lambda v: approx.modulus(f, "omega12", 1, 2.0, level2=v), -1, 3, 1),
        "tail_decompose": (lambda v: verify.tail_decompose(ctx, v), 0, 6, 1),
        "cylinder": (lambda v: verify.FunctionFamily("cylinder", (v,)).build(ctx), -1, 3, 1),
        "random_poly": (lambda v: verify.FunctionFamily("random_poly", (v, 3)).build(ctx),
                        0, 7, 1),
        "lemma4_values.k": (lambda v: verify.lemma4_values(ctx, 0.5, v, [6]), -1, 3, 1),
        "lemma4_values.p": (lambda v: verify.lemma4_values(ctx, 0.5, 1, [v]),
                            1, past_table, 2),
        "lemma5_report": (lambda v: verify.lemma5_report(ctx, 0.5, v), 0, 6, 1),
        "eq23_report": (lambda v: verify.eq23_report(ctx, 0.5, v), 0, 6, 1),
        "theorem_reports.levels": (lambda v: verify.theorem_reports(f, [0.5], [2.0], levels=[v]),
                                   0, 3, 1),
        "theorem_reports.orders": (lambda v: verify.theorem_reports(f, [0.5], [2.0], orders=[v]),
                                   1, 6, 2),
    }


_INDEX_CASES = list(_index_cases())


def _same(a, b) -> bool:
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if hasattr(a, "values"):  # the grid types define no ==; compare their values
        a, b = a.values, b.values
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("name", _INDEX_CASES)
def test_one_index_rule(name):
    call, below, above, valid = _index_cases()[name]
    for bad in (valid + 0.5, True):
        with pytest.raises(ValueError, match="is not an integer"):
            call(bad)
    for outside in (below, above):
        with pytest.raises(ResolutionExceededError):
            call(outside)
    expected = call(valid)
    assert _same(call(float(valid)), expected)
    assert _same(call(np.int64(valid)), expected)


def test_generators_follow_the_index_rule():
    for gens in ((2.5, 3), (True, 3)):
        with pytest.raises(ValueError, match="generator = .* is not an integer"):
            GroupContext(gens)
    with pytest.raises(ResolutionExceededError, match="generator must be >= 2, got 1"):
        GroupContext((1, 3))
    ctx = GroupContext((2.0, np.int64(3)))
    assert ctx.m == (2, 3) and all(type(v) is int for v in ctx.m)


# One rule for every p, alpha and beta argument: a bool or a string is a
# ValueError, though float() reads both; numbers, numpy scalars and inf pass.
# Each row is (call, valid).
def _real_cases():
    ctx = GroupContext((2, 3))
    f = verify.FunctionFamily("random_cell", (7,)).build(ctx)
    grid = transform.fvt_forward_2d(f)
    return {
        "modulus.p": (lambda v: approx.modulus(f, "omega1", 0, v), 2.0),
        "lp_norm.p": (lambda v: approx.lp_norm(f, v), 2.0),
        "theorem_reports.ps": (lambda v: verify.theorem_reports(f, [0.5], [v], levels=[1]), 2.0),
        "cesaro_mean.alpha": (lambda v: approx.cesaro_mean(grid, 3, v), 0.5),
        "theorem_reports.alphas": (
            lambda v: verify.theorem_reports(f, [v], [2.0], levels=[1]), 0.5),
        "lemma4_report.alpha": (lambda v: verify.lemma4_report(ctx, v, 1, [2, 3]), 0.5),
        "lemma5_report.alpha": (lambda v: verify.lemma5_report(ctx, v, 4), 0.5),
        "eq23_report.alpha": (lambda v: verify.eq23_report(ctx, v, 4), 0.5),
        "cesaro_numbers.beta": (lambda v: kernels.cesaro_numbers(v, 3), 0.5),
        "eq2_residual.beta": (lambda v: kernels.eq2_residual(v, 10), 0.5),
        "eq3_residual.beta": (lambda v: kernels.eq3_residual(v, 10), 0.5),
        "eq4_residual.alpha": (lambda v: kernels.eq4_residual(v, 10), 0.5),
    }


@pytest.mark.parametrize("name", list(_real_cases()))
def test_p_and_alpha_refuse_bools_and_strings(name):
    call, valid = _real_cases()[name]
    for bad in (True, np.True_, str(valid)):
        with pytest.raises(ValueError, match="must be a number"):
            call(bad)
    expected = call(valid)
    for same in (np.float64(valid), np.float32(valid)):
        assert _same(call(same), expected)
    if valid == 2.0:  # a p: an int and inf pass too
        assert _same(call(2), expected)
        call(math.inf)
