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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .approx import _check_alpha, _check_p
from .errors import ResolutionExceededError
from .group import GroupContext
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
    theorem_reports,
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

CSV_COLUMNS = tuple(f.name for f in fields(RatioReport))


class ConfigError(ValueError):
    """A configuration document or flag set failed validation."""


@dataclass
class RunConfig:
    m: tuple[int, ...] = (2, 3, 2, 3)
    level: int | None = None
    alpha: tuple[float, ...] = (0.1, 0.5, 0.9)
    p: tuple[float, ...] = (1.0, 2.0, math.inf)
    claims: tuple[str, ...] = CLAIMS
    families: tuple[str, ...] | None = None
    out: str = "vilenkin-report.csv"
    jobs: int = 1
    cap_file: str | None = None

    def context(self) -> GroupContext:
        try:
            ctx = GroupContext(self.m)
        except ValueError as exc:
            raise ConfigError(f"field 'm': {exc}") from exc
        if self.level is None:
            return ctx
        try:
            return ctx.truncate(self.level)
        except ValueError as exc:
            raise ConfigError(f"field 'level': {exc}") from exc

    def validate(self) -> None:
        self.context()
        for name, check in (("alpha", _check_alpha), ("p", _check_p)):
            values = getattr(self, name)
            try:
                for value in values:
                    check(value)
            except ValueError as exc:
                raise ConfigError(f"field {name!r}: {exc}") from exc
            if not values:
                raise ConfigError(f"field {name!r}: empty list")
        for claim in self.claims:
            if claim not in CLAIMS:
                raise ConfigError(f"field 'claims': unknown claim {claim!r}")
        if not self.claims:
            raise ConfigError("field 'claims': empty list")
        if self.families is not None:
            for spec in self.families:
                try:
                    parse_family(spec)
                except ValueError as exc:
                    raise ConfigError(f"field 'families': {exc}") from exc
        if self.jobs < 1:
            raise ConfigError(f"field 'jobs': must be >= 1, got {self.jobs}")


def _parse_m(value) -> tuple[int, ...]:
    if isinstance(value, str):
        return GroupContext.from_string(value).m
    gens = tuple(_parse_int(v) for v in value)
    if not gens:
        raise ValueError("empty generator sequence")
    return gens


def _parse_int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _parse_floats(value) -> tuple[float, ...]:
    if isinstance(value, str):
        value = [tok.strip() for tok in value.split(",") if tok.strip()]
    out = []
    for tok in value:
        if isinstance(tok, bool):
            raise ValueError(f"bad value {tok!r}")
        try:
            out.append(float(tok))  # also reads "inf" and "infinity"
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value {tok!r}") from exc
    return tuple(out)


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


def _parse_strings(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(_split_outside_parens(value))
    try:
        return tuple(str(tok) for tok in value)
    except TypeError as exc:
        raise ValueError("expected a list") from exc


# one parser per RunConfig field
_PARSERS: dict[str, Callable] = {
    "m": _parse_m,
    "level": _parse_int,
    "alpha": _parse_floats,
    "p": _parse_floats,
    "claims": _parse_strings,
    "families": _parse_strings,
    "out": str,
    "jobs": _parse_int,
    "cap_file": str,
}


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
    """A validated RunConfig: defaults, then the JSON document, then the flags.

    A value of None (a flag not given, or a JSON null) keeps what is below it.
    ``default_out`` is the output path when neither the document nor the
    flags give one.
    """
    doc = {} if config_path is None else _read_object(config_path, "config")
    for key in doc:
        if key not in _PARSERS:
            raise ConfigError(f"config {config_path}: unknown field {key!r}")
    given = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    cfg = RunConfig(out=default_out)
    for name, value in given.items():
        if value is None:
            continue
        try:
            setattr(cfg, name, _PARSERS[name](value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field {name!r}: {exc}") from exc
    cfg.validate()
    # a repeated value would only repeat its rows; keep the first occurrence
    cfg.alpha = tuple(dict.fromkeys(cfg.alpha))
    cfg.p = tuple(dict.fromkeys(cfg.p))
    if cfg.families is not None:
        first: dict[str, str] = {}
        for spec in cfg.families:
            first.setdefault(parse_family(spec).label, spec)
        cfg.families = tuple(first.values())
    return cfg


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


def _write_rows(path: str, rows: Sequence[RatioReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in CSV_COLUMNS])


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
        for n in (lo, (lo + hi) // 2, hi - 1):
            if n >= 2 and n >= ctx.M[1]:
                orders.add(n)
    return tuple(sorted(orders))


def lemma5_orders(ctx: GroupContext) -> tuple[int, ...]:
    """All admissible orders on small grids, block samples on large ones."""
    if ctx.size <= 64:
        return tuple(range(2, ctx.size))
    orders = set()
    for k in range(1, ctx.level):
        lo, hi = ctx.M[k], min(ctx.M[k + 1], ctx.size)
        for n in (lo, lo + 1, (lo + hi) // 2, hi - 1):
            if 2 <= n < ctx.size:
                orders.add(n)
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


def _theorem_rows(cfg: RunConfig, ctx: GroupContext, family: FunctionFamily,
                  levels: Sequence[int], orders: Sequence[int]) -> list[RatioReport]:
    """Theorem 1 and 2 rows of one family; an error row per case if it fails."""
    try:
        reports = theorem_reports(_built_function(ctx, family), cfg.alpha, cfg.p,
                                  levels, orders)
    except ResolutionExceededError as exc:
        cases = [("theorem1", k, None) for k in levels]
        cases += [("theorem2", None, n) for n in orders]
        return [
            RatioReport(claim=claim, family=family.label, seed=family.seed,
                        alpha=alpha, p=p, k=k, n=n, error=str(exc))
            for claim, k, n in cases for alpha in cfg.alpha for p in cfg.p
        ]
    return [replace(r, family=family.label, seed=family.seed) for r in reports]


def _lemma1_rows(ctx: GroupContext) -> list[RatioReport]:
    return [
        replace(report, family=label, seed=seed)
        for label, seed, coeffs in lemma1_coefficient_sets(ctx)
        for report in lemma1_report(ctx, coeffs)
    ]


def _claim_tasks(cfg: RunConfig, ctx: GroupContext) -> list[Callable[[], object]]:
    """One task per theorem family, one for lemma1, one per lemma (alpha, k or n)."""
    tasks: list[Callable[[], object]] = []
    levels = range(1, ctx.level) if "theorem1" in cfg.claims else ()
    orders = theorem2_orders(ctx) if "theorem2" in cfg.claims else ()
    if levels or orders:
        labels = cfg.families if cfg.families is not None else default_families(ctx)
        tasks += [partial(_theorem_rows, cfg, ctx, parse_family(label), levels, orders)
                  for label in labels]
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
    ctx = cfg.context()
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
                # max() drops a NaN that is not first; keep it so the cap gate sees it
                nan = any(math.isnan(v) for v in matching)
                per_alpha[_fmt(alpha)] = math.nan if nan else max(matching)
        summary[claim] = per_alpha
    summary["system"] = "dyadic" if all(v == 2 for v in cfg.context().m) else "vilenkin"
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
    ctx = cfg.context()
    checks = identity_checks(cfg, ctx)
    failures = 0
    with open(cfg.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("check", "params", "residual", "tolerance", "status"))
        for name, params, residual, tol in checks:
            ok = residual <= tol
            failures += 0 if ok else 1
            writer.writerow((name, params, _fmt(residual), _fmt(tol),
                             "pass" if ok else "FAIL"))
    worst: dict[str, float] = {}
    for name, _, residual, _ in checks:
        worst[name] = max(worst.get(name, 0.0), residual)
    for name in sorted(worst):
        print(f"{name}: max residual {worst[name]:.3e}")
    print(f"{len(checks)} checks, {failures} failures -> {cfg.out}")
    return 0 if failures == 0 else 1


def cmd_verify(cfg: RunConfig, write_summary: bool = False) -> int:
    """Write the report rows, and with ``write_summary`` their summary; gate caps."""
    caps = _load_caps(cfg.cap_file)
    rows = compute_rows(cfg)
    _write_rows(cfg.out, rows)
    errored = sum(1 for r in rows if r.error)
    print(f"{len(rows)} rows ({errored} errored) -> {cfg.out}")
    summary = summarize(cfg, rows)
    if write_summary:
        print(f"summary -> {_write_summary(cfg.out, summary)}")
    breaches = _check_caps(cfg, caps, summary)
    for line in breaches:
        print(f"cap exceeded: {line}", file=sys.stderr)
    return 1 if breaches else 0


def cmd_sweep(cfg: RunConfig) -> int:
    return cmd_verify(cfg, write_summary=True)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--m", help="comma-separated generator sequence, e.g. 2,3,2,3")
    parser.add_argument("--level", type=int, help="truncation level (defaults to len(m))")
    parser.add_argument("--alpha", help="comma-separated alpha list in (0,1)")
    parser.add_argument("--p", help="comma-separated p list; tokens 1, 2, inf")
    parser.add_argument("--claims", help="comma-separated claim list")
    parser.add_argument("--families", help="comma-separated family specs")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--jobs", type=int, help="parallel workers")
    parser.add_argument("--cap-file", dest="cap_file", help="JSON ratio caps per claim/alpha")


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
