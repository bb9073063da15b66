import csv
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

from vilenkin import GroupContext, cli, verify
from vilenkin.verify import parse_family, theorem_stack
from vilenkin.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
)

DATA = Path(__file__).parent / "data"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestConfig:
    def test_defaults_valid(self):
        assert load_config(None, {}) == RunConfig()

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            load_config(None, {"alpha": "1.0"})

    def test_empty_m(self):
        with pytest.raises(ConfigError, match="'m'"):
            load_config(None, {"m": ""})

    def test_unknown_claim(self):
        with pytest.raises(ConfigError, match="claims"):
            load_config(None, {"claims": "theorem9"})

    def test_bad_family(self):
        with pytest.raises(ConfigError, match="families"):
            load_config(None, {"families": "blob(1)"})

    def test_p_tokens(self):
        cfg = load_config(None, {"p": "1,2,inf"})
        assert cfg.p == (1.0, 2.0, math.inf)
        with pytest.raises(ConfigError, match="'p'"):
            load_config(None, {"p": "0.5"})

    @pytest.mark.parametrize("token", ("nan", "-inf"))
    def test_non_finite_p_rejected(self, token, tmp_path):
        with pytest.raises(ConfigError, match="'p'"):
            load_config(None, {"p": token})
        assert main(["verify", "--m", "2,3", "--claims", "theorem1",
                     f"--p={token}", "--out", str(tmp_path / "r.csv")]) == 2
        assert not (tmp_path / "r.csv").exists()

    def test_negative_family_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="families"):
            load_config(None, {"families": "random_cell(-1)"})
        assert main(["verify", "--m", "2,3", "--claims", "theorem1",
                     "--families", "random_cell(-1)",
                     "--out", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize("spec", ("character(-1,0)", "cylinder(-1)"))
    def test_negative_family_parameter_rejected(self, spec, tmp_path, capsys):
        with pytest.raises(ConfigError, match="families"):
            load_config(None, {"families": spec})
        out = tmp_path / "r.csv"
        assert main(["verify", "--m", "2,3", "--claims", "theorem1", "--alpha", "0.5",
                     "--p", "2", "--families", spec, "--out", str(out)]) == 2
        assert "configuration error: field 'families': " in capsys.readouterr().err
        assert not out.exists()

    def test_family_beyond_the_group_gives_error_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["verify", "--m", "2,3", "--claims", "theorem1", "--alpha", "0.5",
                     "--p", "2", "--families", "cylinder(3)", "--out", str(out)]) == 0
        assert [r["error"] for r in read_rows(out)] == ["cylinder level 3 outside 0..2"]

    @pytest.mark.parametrize("gens", ("[2.7, 3]", "[true, 3]"))
    def test_non_integer_generator_rejected(self, tmp_path, gens):
        doc = tmp_path / "cfg.json"
        doc.write_text(f'{{"m": {gens}}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="'m': expected an integer"):
            load_config(str(doc), {})

    def test_boolean_p_rejected(self, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text('{"p": [true]}', encoding="utf-8")
        with pytest.raises(ConfigError, match="'p': bad value True"):
            load_config(str(doc), {})

    @pytest.mark.parametrize("command, default", (
        ("check-identities", "vilenkin-identities.csv"),
        ("verify", "vilenkin-report.csv"),
        ("sweep", "vilenkin-sweep.csv"),
    ))
    def test_config_without_out_uses_command_default(self, tmp_path, monkeypatch,
                                                      command, default):
        monkeypatch.chdir(tmp_path)
        doc = tmp_path / "cfg.json"
        doc.write_text('{"m": [2, 3], "alpha": [0.5], "p": [2], "claims": ["lemma5"]}',
                       encoding="utf-8")
        assert load_config(str(doc), {}).out == RunConfig().out
        assert main([command, "--config", str(doc)]) == 0
        written = {p.name for p in tmp_path.glob("*.csv")}
        assert written == {default}

    @pytest.mark.parametrize("level", ("true", "2.5"))
    def test_non_integer_level_rejected(self, tmp_path, capsys, level):
        # level is no setting, so any value of it is an unknown field
        doc = tmp_path / "cfg.json"
        doc.write_text(f'{{"m": [2, 3, 2], "level": {level}}}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"unknown field 'level'$"):
            load_config(str(doc), {})
        assert main(["check-identities", "--config", str(doc)]) == 2
        assert "unknown field 'level'" in capsys.readouterr().err

    def test_level_is_not_a_setting(self, tmp_path, capsys):
        # m alone names the group; its first N generators give level N
        doc = tmp_path / "cfg.json"
        doc.write_text('{"m": [2, 3, 2], "level": 2}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"unknown field 'level'$"):
            load_config(str(doc), {})
        assert main(["check-identities", "--config", str(doc)]) == 2
        assert "unknown field 'level'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["check-identities", "--m", "2,3", "--level", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --level 1" in capsys.readouterr().err

    def test_json_document(self):
        cfg = load_config(str(DATA / "config_small.json"), {})
        assert cfg.m == (2, 3, 2)
        assert cfg.claims == ("theorem1", "lemma5")

    def test_flags_override_document(self, tmp_path, monkeypatch):
        cfg = load_config(str(DATA / "config_small.json"), {"alpha": "0.25"})
        assert cfg.alpha == (0.25,)
        assert cfg.m == (2, 3, 2)

        # every field, once from a document and once from a flag over it
        doc = {
            "m": [2, 3, 2], "alpha": [0.25], "p": [1, "inf"],
            "claims": ["lemma4"], "families": ["random_cell(3)"], "out": "doc.csv",
            "jobs": 2, "cap_file": "doc-caps.json",
        }
        from_doc = RunConfig(
            m=(2, 3, 2), alpha=(0.25,), p=(1.0, math.inf), claims=("lemma4",),
            families=("random_cell(3)",), out="doc.csv", jobs=2, cap_file="doc-caps.json",
        )
        flags = [
            "--m", "3,3", "--alpha", "0.75", "--p", "2",
            "--claims", "eq23", "--families", "character(1,1)", "--out", "flag.csv",
            "--jobs", "3", "--cap-file", "flag-caps.json",
        ]
        from_flags = RunConfig(
            m=(3, 3), alpha=(0.75,), p=(2.0,), claims=("eq23",),
            families=("character(1,1)",), out="flag.csv", jobs=3, cap_file="flag-caps.json",
        )
        names = [f.name for f in fields(RunConfig)]
        assert sorted(doc) == sorted(names)
        for name in names:
            values = {getattr(cfg, name) for cfg in (RunConfig(), from_doc, from_flags)}
            assert len(values) == 3, name  # each source changes every field
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_config(str(path), {}) == from_doc

        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda cfg: seen.append(cfg) or 0)
        assert main(["verify", "--config", str(path)] + flags) == 0
        assert main(["verify"] + flags) == 0
        assert seen == [from_flags, from_flags]

    def test_null_fields_keep_defaults(self, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({f.name: None for f in fields(RunConfig)}),
                       encoding="utf-8")
        assert load_config(str(doc), {}) == RunConfig()

    def test_json_error_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": [2,\n 3,]}', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(bad), {})

    def test_non_utf8_documents_rejected(self, tmp_path, capsys):
        doc = tmp_path / "cfg.json"
        doc.write_bytes(b'{"m": [2, 3], "out": "\xff"}')
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(doc), {})
        out = tmp_path / "r.csv"
        assert main(["verify", "--m", "2,3", "--claims", "lemma5", "--alpha", "0.5",
                     "--cap-file", str(doc), "--out", str(out)]) == 2
        assert "cannot read cap file" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_field_rejected(self, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text('{"mystery": 1}', encoding="utf-8")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(str(doc), {})

    # a list field is converted, checked and stripped of repeats (the first
    # kept), and must keep one value; paths must be strings
    @pytest.mark.parametrize("command, doc, flags, error, stored", (
        ("verify", {"alpha": []}, [], "field 'alpha': empty list", None),
        ("verify", {"p": []}, [], "field 'p': empty list", None),
        ("verify", {"claims": []}, [], "field 'claims': empty list", None),
        ("verify", {"families": []}, [], "field 'families': empty list", None),
        ("verify", {}, ["--families", ","], "field 'families': empty list", None),
        ("verify", {}, ["--alpha", " , "], "field 'alpha': empty list", None),
        ("check-identities", {"out": ["a.csv"]}, [],
         "field 'out': expected a string, got ['a.csv']", None),
        ("verify", {"cap_file": 3}, [], "field 'cap_file': expected a string, got 3", None),
        ("verify", {}, ["--m", "2,1"], "field 'm': generator must be >= 2, got 1", None),
        ("verify", {}, ["--jobs", "x"], "field 'jobs': expected an integer, got 'x'", None),
        ("verify", {"alpha": [0.5, 0.25, 0.5]}, [], None, ("alpha", (0.5, 0.25))),
        ("verify", {}, ["--p", "2,inf,2.0,infinity"], None, ("p", (2.0, math.inf))),
        ("verify", {}, ["--claims", "lemma5,eq23,lemma5"], None,
         ("claims", ("lemma5", "eq23"))),
        ("verify", {"families": ["character(1, 1)", "character(1,1)"]}, [], None,
         ("families", ("character(1,1)",))),
        ("verify", {}, ["--families", "character(1, 1)"], None,
         ("families", ("character(1,1)",))),
        ("verify", {"alpha": 0.5}, [], "field 'alpha': expected a list, got 0.5", None),
        ("verify", {}, ["--p", "abc"], "field 'p': bad value 'abc'", None),
        ("verify", {}, ["--m", "2,x"], "field 'm': expected an integer, got 'x'", None),
        ("verify", {"m": []}, [], "field 'm': generator sequence must be nonempty", None),
    ))
    def test_list_and_path_rule(self, tmp_path, monkeypatch, capsys,
                                command, doc, flags, error, stored):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m": [2, 3], "alpha": [0.5], "p": [2],
                                    "claims": ["lemma5"], **doc}), encoding="utf-8")
        if error is not None:
            assert main([command, "--config", str(path), *flags]) == 2
            assert f"configuration error: {error}" in capsys.readouterr().err
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
            return
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda cfg: seen.append(cfg) or 0)
        assert main([command, "--config", str(path), *flags]) == 0
        name, value = stored
        assert getattr(seen[0], name) == value


class TestCheckIdentities:
    def test_default_group_passes(self, tmp_path, capsys):
        out = tmp_path / "ids.csv"
        code = main(["check-identities", "--m", "2,3,2,3", "--alpha", "0.5",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert all(row["status"] == "pass" for row in rows)
        names = {row["check"] for row in rows}
        assert {"eq1", "eq2", "eq3", "eq4", "lemma2", "eq20", "eq20b"} <= names
        assert "0 failures" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["check-identities", "--alpha", "1.0"]) == 2
        assert main(["check-identities", "--m", ""]) == 2
        assert main(["check-identities", "--m", "2,3",
                     "--out", str(tmp_path / "missing" / "ids.csv")]) == 2
        assert "configuration error: cannot write output: " in capsys.readouterr().err

    def test_nan_residual_shows_in_printed_max(self, tmp_path, monkeypatch, capsys):
        exact = cli.eq1_residual
        monkeypatch.setattr(cli, "eq1_residual",
                            lambda ctx, k: math.nan if k == 1 else exact(ctx, k))
        out = tmp_path / "ids.csv"
        assert main(["check-identities", "--m", "2,3", "--alpha", "0.5",
                     "--out", str(out)]) == 1
        eq1 = {r["params"]: (r["residual"], r["status"])
               for r in read_rows(out) if r["check"] == "eq1"}
        assert eq1["k=1"] == ("nan", "FAIL")
        assert "eq1: max residual nan\n" in capsys.readouterr().out


class TestVerify:
    def test_single_theorem1_row(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main([
            "verify", "--m", "2,2,2,2", "--alpha", "0.5", "--p", "2",
            "--claims", "theorem1", "--families", "character(1,1)",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == len(set(r["k"] for r in rows))  # one row per k
        k2 = [r for r in rows if r["k"] == "2"]
        assert len(k2) == 1
        assert float(k2[0]["lhs"]) > 0.0
        assert float(k2[0]["rhs"]) > 0.0
        assert k2[0]["error"] == ""

    def test_resolution_error_becomes_row(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main([
            "verify", "--m", "2,3", "--alpha", "0.1,0.5", "--p", "2,inf",
            "--claims", "theorem1,theorem2",
            "--families", "character(1,1),character(50,0)",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        errored = [r for r in rows if r["error"]]
        clean = [r for r in rows if not r["error"]]
        assert errored and clean
        assert all(r["ratio"] == "" for r in errored)
        assert {r["family"] for r in errored} == {"character(50,0)"}
        assert {r["error"] for r in errored} == {"index 50 >= M_N = 6"}
        # one error row per (claim, alpha, p, order): k for theorem1, n for theorem2
        cases = [("theorem1", "1", "")] + [("theorem2", "", n) for n in ("2", "4", "5")]
        expected = sorted(
            (claim, f"{alpha:.17g}", p, k, n)
            for claim, k, n in cases for alpha in (0.1, 0.5) for p in ("2", "inf")
        )
        got = sorted((r["claim"], r["alpha"], r["p"], r["k"], r["n"]) for r in errored)
        assert got == expected

    def test_large_finite_p_is_finite(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main([
            "verify", "--m", "2,3", "--alpha", "0.5", "--p", "2,1e6",
            "--claims", "theorem1", "--families", "random_cell(7)",
            "--out", str(out),
        ])
        assert code == 0
        rows = [r for r in read_rows(out) if float(r["p"]) == 1e6]
        assert rows
        for row in rows:
            values = [float(row[key]) for key in ("lhs", "rhs", "ratio")]
            assert all(math.isfinite(v) and v > 0.0 for v in values), row

    def test_duplicate_config_entries_dropped(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main([
            "verify", "--m", "2,3", "--alpha", "0.5,0.5", "--p", "2,2.0",
            "--claims", "theorem1", "--families", "character(1,1),character(1, 1)",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert rows[0]["family"] == "character(1,1)"

    @pytest.mark.parametrize("command", (
        ["verify", "--claims", "lemma1"],
        ["verify", "--claims", "lemma4"],
        ["verify", "--claims", "eq23"],
        ["check-identities"],
    ))
    def test_oversized_dense_table_exits_2(self, tmp_path, capsys, command):
        # M_N = 4099 is past the dense-table cap; nothing large is allocated
        out = tmp_path / "r.csv"
        tracemalloc.start()
        try:
            code = main(command + ["--m", "4099", "--alpha", "0.5", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: M_N = 4099 exceeds the resolution cap 4096" in err
        assert not out.exists()
        assert peak < 16 << 20

    def test_constant_family_zero_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        main([
            "verify", "--m", "2,3,2", "--alpha", "0.5", "--p", "1,2,inf",
            "--claims", "theorem1", "--families", "character(0,0),cylinder(0)",
            "--out", str(out),
        ])
        rows = read_rows(out)
        assert rows
        assert all(float(r["lhs"]) == 0.0 and float(r["ratio"]) == 0.0 for r in rows)


class TestOrderGrids:
    # a low, low + 1, middle and high order inside each block [M_k, M_{k+1})
    @pytest.mark.parametrize("m, orders", (
        ((4,) * 5, (4, 5, 10, 15, 16, 17, 40, 63, 64, 65, 160, 255, 256, 257, 640, 1023)),
        ((2, 3, 2, 3, 2), (2, 3, 4, 5, 6, 7, 9, 11, 12, 13, 24, 35, 36, 37, 54, 71)),
    ))
    def test_lemma5_orders_sample_each_block_of_a_large_group(self, m, orders):
        assert cli.lemma5_orders(GroupContext(m)) == orders


class TestTheoremStacks:
    def test_stacks_keep_to_the_cell_budget(self):
        dyadic = GroupContext((2,) * 6)
        labels = cli.default_families(dyadic)
        stacks = cli._stacks(dyadic, labels)
        assert [label for stack in stacks for label in stack] == list(labels)
        assert all(len(stack) * dyadic.size**2 <= cli._STACK_CELLS for stack in stacks)
        assert [len(stack) for stack in stacks] == [3, 3, 3, 4]
        big = GroupContext((2, 3, 2, 3, 2, 3))
        assert [len(stack) for stack in cli._stacks(big, cli.default_families(big))] == [1] * 13

    def test_one_stack_peak_at_2_6(self):
        # At its peak, the band synthesis of a top-order mean, the pass holds
        # per function of the stack: its grid and its spectrum (2 complex grids
        # of M_N^2 cells), the band and the padded band (2), the first butterfly
        # pass's result, the second pass's copy and two stage buffers (4), and
        # the tile (1).  That is 9 grids, 9.8 measured with numpy's
        # temporaries; 12 per function bounds it with 20% to spare.  All 13
        # default families in one stack peak near 2.3 times the bound.
        ctx = GroupContext((2,) * 6)
        labels = cli.default_families(ctx)
        largest = max(cli._stacks(ctx, labels), key=len)
        bound = 12 * 16 * ctx.size**2 * len(largest)
        levels, orders = range(1, ctx.level), cli.theorem2_orders(ctx)

        def peak(functions):
            tracemalloc.start()
            try:
                theorem_stack(functions, (0.1, 0.5, 0.9), (1.0, 2.0, math.inf), levels, orders)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return top

        functions = [parse_family(label).build(ctx) for label in labels]
        by_label = dict(zip(labels, functions))
        peak(functions[:1])  # the group's cached tables come first
        assert peak([by_label[label] for label in largest]) <= bound
        assert peak(functions) > bound


class TestSweep:
    def test_summary_structure(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--config", str(DATA / "config_small.json"),
            "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "s.summary.json").read_text())
        assert summary["system"] == "vilenkin"
        assert set(summary) >= {"theorem1", "lemma5", "system"}
        alpha_key = f"{0.5:.17g}"
        assert alpha_key in summary["theorem1"]
        assert summary["lemma5"][alpha_key] > 0.0

    def test_dyadic_label(self, tmp_path):
        out = tmp_path / "d.csv"
        main([
            "sweep", "--m", "2,2,2", "--alpha", "0.5", "--p", "2",
            "--claims", "lemma5", "--out", str(out),
        ])
        summary = json.loads((tmp_path / "d.summary.json").read_text())
        assert summary["system"] == "dyadic"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--config", str(DATA / "config_small.json")]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(out_b), "--jobs", "3"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.summary.json").read_bytes() == (
            tmp_path / "b.summary.json"
        ).read_bytes()
        # the default 2^6 families run in several theorem stacks, at --jobs 3 in threads
        dyadic = ["sweep", "--m", "2,2,2,2,2,2"]
        assert main(dyadic + ["--out", str(tmp_path / "c.csv"), "--jobs", "1"]) == 0
        assert main(dyadic + ["--out", str(tmp_path / "d.csv"), "--jobs", "3"]) == 0
        assert sha256(tmp_path / "c.csv") == sha256(tmp_path / "d.csv")
        assert sha256(tmp_path / "c.summary.json") == sha256(tmp_path / "d.summary.json")

    def test_mixed_radix_theorem_sweep(self, tmp_path, capsys):
        # no benchmark workload reaches an odd-radix theorem path; this runs
        # the mixed-radix band synthesis end to end at M = 216
        out = tmp_path / "t216.csv"
        assert main(["sweep", "--m", "2,3,2,3,2,3", "--claims", "theorem1,theorem2",
                     "--out", str(out)]) == 0
        assert f"2340 rows (0 errored) -> {out}" in capsys.readouterr().out
        assert len(read_rows(out)) == 2340
        assert sha256(out) == (
            "51beba43b0ed4d374a4bec5b0b4e4788e151d7b8e2a783a28f217daff73b6581")
        assert sha256(tmp_path / "t216.summary.json") == (
            "5087e37d5bcbe1b83039ae5dcb25341e399290a8a86ba85ffb991dbed6faf83d")

    def test_dyadic_theorem_sweep_bytes(self, tmp_path):
        # the theorem rows of the sweep-dyadic benchmark workload; its pinned
        # digests cover every claim
        out = tmp_path / "t64.csv"
        assert main(["sweep", "--m", "2,2,2,2,2,2", "--claims", "theorem1,theorem2",
                     "--out", str(out)]) == 0
        assert sha256(out) == (
            "12c6ce7514ecfd225ae7eceed5dd7b4b09aee543df3a2a349f581c71b2a422cd")
        assert sha256(tmp_path / "t64.summary.json") == (
            "210cd2ca0b63a30fbe9c92ed80dff9ee3a7e4229860d973f60096ed31604bf3d")

    def test_cap_file_controls_exit(self, tmp_path):
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps({"lemma5": 1e6}), encoding="utf-8")
        tight = tmp_path / "tight.json"
        tight.write_text(json.dumps({"lemma5": 1e-6}), encoding="utf-8")
        base = [
            "sweep", "--m", "2,3,2", "--alpha", "0.5", "--p", "2",
            "--claims", "lemma5",
        ]
        assert main(base + ["--out", str(tmp_path / "l.csv"),
                            "--cap-file", str(loose)]) == 0
        assert main(base + ["--out", str(tmp_path / "t.csv"),
                            "--cap-file", str(tight)]) == 1

    def test_caps_on_claims_and_alphas_not_run_are_skipped(self, tmp_path):
        caps = tmp_path / "caps.json"
        caps.write_text(json.dumps({"lemma5": 1.0, "lemma4": {"0.5": 100}}),
                        encoding="utf-8")
        code = main([
            "verify", "--m", "2,3", "--claims", "lemma4", "--alpha", "0.5,0.9",
            "--out", str(tmp_path / "r.csv"), "--cap-file", str(caps),
        ])
        assert code == 0

    def test_cap_key_matches_alpha_by_value(self, tmp_path):
        # the summary key for 0.1 is "0.10000000000000001"; "0.1" must still apply
        caps = tmp_path / "caps.json"
        caps.write_text(json.dumps({"lemma5": {"0.1": 0.0}}), encoding="utf-8")
        code = main([
            "sweep", "--m", "2,3,2", "--alpha", "0.1", "--p", "2",
            "--claims", "lemma5", "--out", str(tmp_path / "s.csv"),
            "--cap-file", str(caps),
        ])
        assert code == 1

    def test_capped_claim_without_successful_rows_breaches(self, tmp_path, capsys):
        caps = tmp_path / "caps.json"
        caps.write_text(json.dumps({"theorem1": 1e6}), encoding="utf-8")
        code = main([
            "verify", "--m", "40,40", "--alpha", "0.5", "--p", "2",
            "--claims", "theorem1", "--families", "character(0,0)",
            "--out", str(tmp_path / "r.csv"), "--cap-file", str(caps),
        ])
        rows = read_rows(tmp_path / "r.csv")
        assert rows and all(r["error"] for r in rows)
        assert code == 1
        assert "theorem1" in capsys.readouterr().err

    def test_closed_stdout_keeps_cap_exit(self, tmp_path, monkeypatch, capsys):
        class ClosedPipe(io.TextIOBase):
            """A stdout whose reader has gone: every write fails with EPIPE."""

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return sink.fileno()

        caps = tmp_path / "caps.json"
        caps.write_text(json.dumps({"theorem1": 0.0}), encoding="utf-8")
        with open(tmp_path / "stdout", "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main([
                "sweep", "--m", "2,3", "--claims", "theorem1",
                "--out", str(tmp_path / "s.csv"), "--cap-file", str(caps),
            ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("cap exceeded: theorem1") == 3
        assert "configuration error" not in err

    def test_closed_pipe_in_a_real_process(self, tmp_path):
        caps = tmp_path / "caps.json"
        caps.write_text(json.dumps({"theorem1": 0.0}), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "vilenkin", "sweep", "--m", "2,3", "--alpha", "0.5",
                 "--claims", "theorem1", "--out", str(tmp_path / "s.csv"),
                 "--cap-file", str(caps)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr.decode().startswith("cap exceeded: theorem1 alpha=0.5")

    def test_nan_ratio_breaches_cap(self, tmp_path, monkeypatch):
        # a NaN lhs on the p = 1e6 rows gives NaN ratios after finite p = 2
        # ratios; the max over the claim must not drop them
        exact = verify._stack_norms

        def nan_at_1e6(mags, ps):
            table = exact(mags, ps)
            table[[i for i, p in enumerate(ps) if p == 1e6]] = math.nan
            return table

        monkeypatch.setattr(verify, "_stack_norms", nan_at_1e6)
        caps = tmp_path / "caps.json"
        caps.write_text(json.dumps({"theorem1": 1.0}), encoding="utf-8")
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--m", "2,3", "--alpha", "0.5", "--p", "2,1e6",
            "--claims", "theorem1", "--families", "random_cell(7)",
            "--out", str(out), "--cap-file", str(caps),
        ])
        assert "nan" in {r["ratio"] for r in read_rows(out)}
        assert code == 1
        summary = json.loads((tmp_path / "s.summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert summary["theorem1"][f"{0.5:.17g}"] == "nan"

    def test_infinite_ratio_written_as_string(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "_modulus_rhs", lambda *args: 0.0)
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--m", "2,3", "--alpha", "0.5", "--p", "2",
            "--claims", "theorem1", "--families", "random_cell(7)", "--out", str(out),
        ])
        assert code == 0
        assert {r["ratio"] for r in read_rows(out)} == {"inf"}
        summary = json.loads((tmp_path / "s.summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert summary["theorem1"][f"{0.5:.17g}"] == "inf"

    def test_verify_and_sweep_write_same_csv(self, tmp_path):
        args = ["--config", str(DATA / "config_small.json"),
                "--claims", ",".join(cli.CLAIMS)]
        assert main(["verify", *args, "--out", str(tmp_path / "v.csv")]) == 0
        assert main(["sweep", *args, "--out", str(tmp_path / "s.csv")]) == 0
        assert (tmp_path / "v.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()
        claims = {r["claim"] for r in read_rows(tmp_path / "v.csv")}
        assert claims == set(cli.CLAIMS) | {"lemma0"}
        assert not (tmp_path / "v.summary.json").exists()
        assert (tmp_path / "s.summary.json").exists()

    @pytest.mark.parametrize("doc", (
        "[1, 2]",
        '{"lemma5": "abc"}',
        '{"lemma5": {"0.5": "abc"}}',
        '{"lemma5": {"half": 1.0}}',
        '{"lemma5": true}',
        '{"theorem3": 1.0}',
    ))
    def test_malformed_cap_file_exits_2(self, tmp_path, doc):
        caps = tmp_path / "caps.json"
        caps.write_text(doc, encoding="utf-8")
        code = main([
            "sweep", "--m", "2,3,2", "--alpha", "0.5", "--p", "2",
            "--claims", "lemma5", "--out", str(tmp_path / "s.csv"),
            "--cap-file", str(caps),
        ])
        assert code == 2

    def test_single_tuple_summary_equals_row(self, tmp_path):
        out = tmp_path / "one.csv"
        main([
            "sweep", "--m", "2,3", "--alpha", "0.5", "--p", "2",
            "--claims", "theorem1", "--families", "random_poly(2,5)",
            "--out", str(out),
        ])
        rows = read_rows(out)
        assert len(rows) == 1
        summary = json.loads((tmp_path / "one.summary.json").read_text())
        assert summary["theorem1"][f"{0.5:.17g}"] == float(rows[0]["ratio"])

    def test_lemma1_rows_include_one_dimensional_branch(self, tmp_path):
        out = tmp_path / "l1.csv"
        main([
            "sweep", "--m", "2,3", "--alpha", "0.5", "--p", "2",
            "--claims", "lemma1", "--out", str(out),
        ])
        rows = read_rows(out)
        claims = {r["claim"] for r in rows}
        assert claims == {"lemma0", "lemma1"}
        seeded = [r for r in rows if r["family"] == "pm1"]
        assert seeded and all(r["seed"] for r in seeded)
