"""Command-line front end: identity checks, ratio reports, and sweeps.

Configuration is a single JSON document; command-line flags override its
fields.  Report rows are sorted on the full parameter tuple before writing
and floats are rendered with 17 significant digits, so identical
configurations (seeds and parallelism included) produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .approx import _check_alpha, _check_p
from .errors import ResolutionExceededError
from .group import GroupContext, _check_index
from .kernels import (
    eq1_residual,
    eq2_residual,
    eq3_residual,
    eq4_residual,
    lemma2_check,
    paley_check,
)
from .transform import SampledFunction2D
from .verify import (
    FunctionFamily,
    RatioReport,
    eq23_report,
    lemma1_report,
    lemma4_report,
    lemma5_report,
    parse_family,
    theorem_stack,
)

__all__ = [
    "CLAIMS",
    "ConfigError",
    "RunConfig",
    "cmd_check_identities",
    "cmd_verify",
    "cmd_sweep",
    "main",
]

CLAIMS = ("theorem1", "theorem2", "lemma1", "lemma4", "lemma5", "eq23")

IDENTITY_TOLERANCE = 1e-10
ASYMPTOTIC_TOLERANCE = 1e-2
RECURRENCE_LENGTH = 10_000
LEMMA4_SPAN = 30
# Grid cells per stack of theorem families: four grids at M_N = 64, where a
# theorem pass is mostly per-call overhead, and one alone from M_N = 91 on.
# Stacks of eight ran faster, but raised the peak RSS of a 2^6 sweep by 4%.
_STACK_CELLS = 1 << 14

CSV_COLUMNS = tuple(f.name for f in fields(RatioReport))


class ConfigError(ValueError):
    """A configuration document or flag set failed validation."""


def _parse_int(value) -> int:
    """An integer, an integral float or a decimal string, as an int."""
    if not isinstance(value, bool) and (not isinstance(value, float) or value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"expected an integer, got {value!r}")


def _split_outside_parens(text: str) -> list[str]:
    """Split on commas not enclosed in parentheses (family specs carry both)."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _items(value) -> Sequence:
    """A JSON list as given, or a flag string split on commas."""
    if isinstance(value, str):
        return _split_outside_parens(value)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return value


def _unique(values, key: Callable) -> tuple:
    """``key(v)`` for each item v of the list, a repeat dropped and the first kept.

    A repeated value would only repeat its rows.  An empty result is refused.
    """
    kept = tuple(dict.fromkeys(key(v) for v in _items(values)))
    if not kept:
        raise ValueError("empty list")
    return kept


def _float(token) -> float:
    if isinstance(token, bool):
        raise ValueError(f"bad value {token!r}")
    try:
        return float(token)  # also reads "inf" and "infinity"
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value {token!r}") from exc


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _claim(name) -> str:
    if name not in CLAIMS:
        raise ValueError(f"unknown claim {name!r}")
    return name


def _setting(default, parse: Callable, help: str):
    """A RunConfig field; ``parse`` turns a JSON value or flag string into it."""
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass
class RunConfig:
    """One run's settings; each field is also the flag and JSON field of its name."""

    m: tuple[int, ...] = _setting(
        (2, 3, 2, 3), lambda v: GroupContext(tuple(_parse_int(g) for g in _items(v))).m,
        "comma-separated generator sequence, e.g. 2,3,2,3")
    alpha: tuple[float, ...] = _setting(
        (0.1, 0.5, 0.9), lambda v: _unique(v, lambda x: _check_alpha(_float(x))),
        "comma-separated alpha list in (0,1)")
    p: tuple[float, ...] = _setting(
        (1.0, 2.0, math.inf), lambda v: _unique(v, lambda x: _check_p(_float(x))),
        "comma-separated p list; tokens 1, 2, inf")
    claims: tuple[str, ...] = _setting(
        CLAIMS, lambda v: _unique(v, _claim), "comma-separated claim list")
    families: tuple[str, ...] | None = _setting(
        None, lambda v: _unique(v, lambda spec: parse_family(_string(spec)).label),
        "comma-separated family specs")
    out: str = _setting("vilenkin-report.csv", _string, "output path")
    jobs: int = _setting(1, lambda v: _check_index(_parse_int(v), 1, None, "jobs"),
                         "parallel workers")
    cap_file: str | None = _setting(None, _string, "JSON ratio caps per claim/alpha")


def _read_object(path: str, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names it in errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path}: expected a JSON object")
    return doc


def load_config(config_path: str | None, overrides: dict, *,
                default_out: str = RunConfig.out) -> RunConfig:
    """A checked RunConfig: defaults, then the JSON document, then the flags.

    A value of None (a flag not given, or a JSON null) keeps what is below it.
    ``default_out`` is the output path when neither the document nor the
    flags give one.
    """
    doc = {} if config_path is None else _read_object(config_path, "config")
    settings = {f.name: f for f in fields(RunConfig)}
    for key in doc:
        if key not in settings:
            raise ConfigError(f"config {config_path}: unknown field {key!r}")
    given = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    values = {"out": default_out}
    for name, value in given.items():
        if value is None:
            continue
        try:
            values[name] = settings[name].metadata["parse"](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field {name!r}: {exc}") from exc
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# formatting


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _sort_key(row: RatioReport) -> tuple:
    """The columns claim to n, with an empty one sorting first."""
    return tuple(-1 if v is None else v
                 for v in (row.claim, row.family, row.seed, row.alpha, row.p, row.k, row.n))


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        # a float, the most common value, takes ``_fmt``'s last branch directly
        writer.writerows(["%.17g" % value if type(value) is float else _fmt(value)
                          for value in row] for row in rows)


def _say(line: str) -> None:
    """Print ``line`` to stdout; once its reader has gone, drop the rest.

    A closed stdout (``| head -c 1``) ends no command: the exit code stays
    the one its checks or cap gate decide.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # later lines, and the flush at exit, go to the null device
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _max_keeping_nan(values: Sequence[float]) -> float:
    """The max of ``values``, or NaN if one is NaN (max() drops a NaN not first)."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


# ---------------------------------------------------------------------------
# sweep grids


@lru_cache(maxsize=64)
def _built_function(ctx: GroupContext, family: FunctionFamily) -> SampledFunction2D:
    return family.build(ctx)


def default_families(ctx: GroupContext) -> tuple[str, ...]:
    """Deterministic test corpus sized to the context resolution."""
    size = ctx.size
    chars = [(0, 0), (1, 1), (2, 3), (ctx.M[1], ctx.M[1] + 1)]
    labels = []
    for a, b in chars:
        if a < size and b < size:
            label = f"character({a},{b})"
            if label not in labels:
                labels.append(label)
    for level in range(min(2, ctx.level) + 1):
        labels.append(f"cylinder({level})")
    degree = ctx.M[min(2, ctx.level)]
    for seed in range(101, 106):
        labels.append(f"random_poly({degree},{seed})")
    for seed in (7, 8):
        labels.append(f"random_cell({seed})")
    return tuple(labels)


def theorem2_orders(ctx: GroupContext) -> tuple[int, ...]:
    """A low, middle, and high order inside each scale block [M_k, M_{k+1})."""
    orders = set()
    for k in range(1, ctx.level):
        lo, hi = ctx.M[k], ctx.M[k + 1]
        orders.update((lo, (lo + hi) // 2, hi - 1))
    return tuple(sorted(orders))


def lemma5_orders(ctx: GroupContext) -> tuple[int, ...]:
    """All admissible orders on small grids, block samples on large ones."""
    if ctx.size <= 64:
        return tuple(range(2, ctx.size))
    orders = set()
    for k in range(1, ctx.level):
        lo, hi = ctx.M[k], ctx.M[k + 1]
        orders.update((lo, lo + 1, (lo + hi) // 2, hi - 1))
    return tuple(sorted(orders))


def eq23_orders(ctx: GroupContext) -> tuple[int, ...]:
    orders = {ctx.M[k] for k in range(1, ctx.level)}
    orders.add(ctx.size - 1)
    return tuple(sorted(orders))


def lemma1_coefficient_sets(ctx: GroupContext) -> list[tuple[str, int | None, np.ndarray]]:
    """(label, seed, coefficients) triples for the quadratic-form report."""
    size = ctx.size
    sets: list[tuple[str, int | None, np.ndarray]] = [
        ("ones", None, np.ones(size))
    ]
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        sets.append(("pm1", seed, rng.integers(0, 2, size) * 2.0 - 1.0))
    for j in range(ctx.level):
        coeffs = np.zeros(ctx.M[j])
        coeffs[ctx.M[j] - 1] = 1.0
        sets.append((f"unit(M_{j})", None, coeffs))
    return sets


def _theorem_rows(cfg: RunConfig, ctx: GroupContext, families: Sequence[FunctionFamily],
                  levels: Sequence[int], orders: Sequence[int]) -> list[RatioReport]:
    """Theorem 1 and 2 rows of a stack of families; an error row per case of one that fails."""
    rows, built = [], []
    for family in families:
        try:
            built.append((family, _built_function(ctx, family)))
        except ResolutionExceededError as exc:
            cases = [("theorem1", k, None) for k in levels]
            cases += [("theorem2", None, n) for n in orders]
            rows += [
                RatioReport(claim=claim, family=family.label, seed=family.seed,
                            alpha=alpha, p=p, k=k, n=n, error=str(exc))
                for claim, k, n in cases for alpha in cfg.alpha for p in cfg.p
            ]
    stacked = theorem_stack([f for _, f in built], cfg.alpha, cfg.p, levels, orders,
                            labels=[(family.label, family.seed) for family, _ in built])
    for reports in stacked:
        rows += reports
    return rows


def _stacks(ctx: GroupContext, labels: Sequence[str]) -> list[Sequence[str]]:
    """The families in near-equal stacks of at most ``_STACK_CELLS`` grid cells, in order.

    A grid larger than the budget stands alone.
    """
    per = max(1, _STACK_CELLS // ctx.size**2)
    count = -(-len(labels) // per)
    return [labels[i * len(labels) // count : (i + 1) * len(labels) // count]
            for i in range(count)]


def _lemma1_rows(ctx: GroupContext) -> list[RatioReport]:
    return [
        replace(report, family=label, seed=seed)
        for label, seed, coeffs in lemma1_coefficient_sets(ctx)
        for report in lemma1_report(ctx, coeffs)
    ]


def _claim_tasks(cfg: RunConfig, ctx: GroupContext) -> list[Callable[[], object]]:
    """One task per stack of theorem families, one for lemma1, one per lemma (alpha, k or n)."""
    tasks: list[Callable[[], object]] = []
    levels = range(1, ctx.level) if "theorem1" in cfg.claims else ()
    orders = theorem2_orders(ctx) if "theorem2" in cfg.claims else ()
    if levels or orders:
        labels = cfg.families if cfg.families is not None else default_families(ctx)
        tasks += [partial(_theorem_rows, cfg, ctx, [parse_family(label) for label in stack],
                          levels, orders)
                  for stack in _stacks(ctx, labels)]
    if "lemma1" in cfg.claims:
        tasks.append(partial(_lemma1_rows, ctx))
    for alpha in cfg.alpha:
        if "lemma4" in cfg.claims:
            tasks += [partial(lemma4_report, ctx, alpha, k,
                              range(ctx.M[k], ctx.M[k] + LEMMA4_SPAN + 1))
                      for k in range(ctx.level)]
        if "lemma5" in cfg.claims:
            tasks += [partial(lemma5_report, ctx, alpha, n) for n in lemma5_orders(ctx)]
        if "eq23" in cfg.claims:
            tasks += [partial(eq23_report, ctx, alpha, n) for n in eq23_orders(ctx)]
    return tasks


def _reports(result) -> list[RatioReport]:
    """A task's result, one report or a list of them, as a list."""
    return result if isinstance(result, list) else [result]


def compute_rows(cfg: RunConfig) -> list[RatioReport]:
    """All report rows for a configuration, canonically sorted."""
    ctx = GroupContext(cfg.m)
    tasks = _claim_tasks(cfg, ctx)
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            chunks = list(pool.map(lambda task: _reports(task()), tasks))
    else:
        chunks = [_reports(task()) for task in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=_sort_key)
    return rows


def summarize(cfg: RunConfig, rows: Sequence[RatioReport]) -> dict:
    """Per-claim, per-alpha max ratios; alpha-free claims repeat their max."""
    summary: dict = {}
    claims = set(cfg.claims)
    if "lemma1" in claims:
        claims.add("lemma0")
    for claim in sorted(claims):
        ratios = [r for r in rows if r.claim == claim and not r.error]
        per_alpha = {}
        for alpha in cfg.alpha:
            matching = [
                r.ratio for r in ratios
                if r.ratio is not None and (r.alpha is None or r.alpha == alpha)
            ]
            if matching:
                per_alpha[_fmt(alpha)] = _max_keeping_nan(matching)
        summary[claim] = per_alpha
    summary["system"] = "dyadic" if all(v == 2 for v in cfg.m) else "vilenkin"
    return summary


def _write_summary(out: str, summary: dict) -> str:
    """Write the summary beside the CSV as strict JSON; return its path.

    A non-finite max is written as the CSV writes it, "nan" or "inf".
    """
    strict = {
        claim: {a: v if math.isfinite(v) else _fmt(v) for a, v in entry.items()}
        if isinstance(entry, dict) else entry
        for claim, entry in summary.items()
    }
    path = str(Path(out).with_suffix(".summary.json"))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(strict, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return path


def _cap_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"cap {value!r} is not a number")
    return float(value)


def _load_caps(path: str | None) -> dict[str, float | dict[float, float]]:
    """A cap file as {claim: cap} or {claim: {alpha: cap}}, alphas as floats."""
    if path is None:
        return {}
    doc = _read_object(path, "cap file")
    caps: dict[str, float | dict[float, float]] = {}
    for claim, entry in doc.items():
        if claim not in CLAIMS + ("lemma0",):
            raise ConfigError(f"cap file {path}: unknown claim {claim!r}")
        try:
            if isinstance(entry, dict):
                caps[claim] = {float(a): _cap_number(c) for a, c in entry.items()}
            else:
                caps[claim] = _cap_number(entry)
        except ValueError as exc:
            raise ConfigError(f"cap file {path}: claim {claim!r}: {exc}") from exc
    return caps


def _check_caps(cfg: RunConfig, caps: dict, summary: dict) -> list[str]:
    """Breaches of the caps on the claims this run computed.

    Alphas match by value.  A capped claim/alpha with no successful row
    (every row errored, or none was made) is a breach, as is a NaN ratio.
    """
    breaches = []
    for claim, entry in caps.items():
        observed = summary.get(claim)
        if observed is None:
            continue
        for alpha in cfg.alpha:
            cap = entry.get(alpha) if isinstance(entry, dict) else entry
            if cap is None:
                continue
            key = _fmt(alpha)
            value = observed.get(key)
            if value is None:
                breaches.append(f"{claim} alpha={key}: no successful row to hold to cap {cap}")
            elif not value <= cap:
                breaches.append(f"{claim} alpha={key}: ratio {value:.6g} exceeds cap {cap}")
    return breaches


# ---------------------------------------------------------------------------
# commands


def identity_checks(cfg: RunConfig, ctx: GroupContext) -> list[tuple[str, str, float, float]]:
    checks: list[tuple[str, str, float, float]] = []
    for k in range(ctx.level + 1):
        checks.append(("eq1", f"k={k}", eq1_residual(ctx, k), IDENTITY_TOLERANCE))
    betas = sorted({round(b, 12) for a in cfg.alpha for b in (a, -a, -a - 1.0, -a - 2.0)})
    for beta in betas:
        checks.append((
            "eq2", f"beta={beta:g},L={RECURRENCE_LENGTH}",
            eq2_residual(beta, RECURRENCE_LENGTH), IDENTITY_TOLERANCE,
        ))
        checks.append((
            "eq3", f"beta={beta:g},L={RECURRENCE_LENGTH}",
            eq3_residual(beta, RECURRENCE_LENGTH), IDENTITY_TOLERANCE,
        ))
    for alpha in cfg.alpha:
        checks.append((
            "eq4", f"alpha={alpha:g},n={RECURRENCE_LENGTH}",
            eq4_residual(alpha, RECURRENCE_LENGTH), ASYMPTOTIC_TOLERANCE,
        ))
    for s in range(ctx.level):
        for n_s in range(1, ctx.m[s]):
            for j, residual in enumerate(lemma2_check(ctx, s, n_s)):
                checks.append((
                    "lemma2", f"s={s},n_s={n_s},j={j}", residual, IDENTITY_TOLERANCE,
                ))
    for level in range(ctx.level):
        for digit in range(ctx.m[level]):
            direct, block = paley_check(ctx, level, digit)
            for j in range(ctx.M[level]):
                checks.append((
                    "eq20", f"A={level},n_A={digit},j={j}", direct[j], IDENTITY_TOLERANCE,
                ))
                checks.append((
                    "eq20b", f"A={level},r={digit},j={j}", block[j], IDENTITY_TOLERANCE,
                ))
    return checks


def cmd_check_identities(cfg: RunConfig) -> int:
    ctx = GroupContext(cfg.m)
    checks = identity_checks(cfg, ctx)
    rows = [(name, params, residual, tol, "pass" if residual <= tol else "FAIL")
            for name, params, residual, tol in checks]
    _write_csv(cfg.out, ("check", "params", "residual", "tolerance", "status"), rows)
    failures = sum(row[-1] == "FAIL" for row in rows)
    for name in sorted({check[0] for check in checks}):
        worst = _max_keeping_nan([check[2] for check in checks if check[0] == name])
        _say(f"{name}: max residual {worst:.3e}")
    _say(f"{len(checks)} checks, {failures} failures -> {cfg.out}")
    return 0 if failures == 0 else 1


def cmd_verify(cfg: RunConfig, write_summary: bool = False) -> int:
    """Write the report rows, and with ``write_summary`` their summary; gate caps."""
    caps = _load_caps(cfg.cap_file)
    rows = compute_rows(cfg)
    _write_csv(cfg.out, CSV_COLUMNS, ([getattr(r, col) for col in CSV_COLUMNS] for r in rows))
    errored = sum(1 for r in rows if r.error)
    _say(f"{len(rows)} rows ({errored} errored) -> {cfg.out}")
    summary = summarize(cfg, rows)
    if write_summary:
        _say(f"summary -> {_write_summary(cfg.out, summary)}")
    breaches = _check_caps(cfg, caps, summary)
    for line in breaches:
        print(f"cap exceeded: {line}", file=sys.stderr)
    return 1 if breaches else 0


def cmd_sweep(cfg: RunConfig) -> int:
    return cmd_verify(cfg, write_summary=True)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    for setting in fields(RunConfig):
        parser.add_argument("--" + setting.name.replace("_", "-"), dest=setting.name,
                            help=setting.metadata["help"])


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vilenkin",
        description="Numerical checks for harmonic analysis on bounded Vilenkin groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, default_out, blurb in (
        ("check-identities", cmd_check_identities, "vilenkin-identities.csv",
         "run the exact-identity residual suite"),
        ("verify", cmd_verify, "vilenkin-report.csv",
         "write ratio-report rows for the selected claims"),
        ("sweep", cmd_sweep, "vilenkin-sweep.csv",
         "full cartesian sweep plus a per-claim max-ratio summary"),
    ):
        cmd = sub.add_parser(name, help=blurb, description=blurb)
        _add_common_flags(cmd)
        cmd.set_defaults(run=run, default_out=default_out)

    args = parser.parse_args(argv)
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    try:
        cfg = load_config(args.config, overrides, default_out=args.default_out)
        return args.run(cfg)
    except (ConfigError, ResolutionExceededError) as exc:
        # a ResolutionExceededError here is one that no task turned into rows
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"configuration error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
