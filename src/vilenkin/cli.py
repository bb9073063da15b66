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
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

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

CSV_COLUMNS = ("claim", "family", "seed", "alpha", "p", "k", "n",
               "lhs", "rhs", "ratio", "error")


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
        if self.level is not None:
            if not 1 <= self.level <= ctx.level:
                raise ConfigError(
                    f"field 'level': must be in 1..{ctx.level}, got {self.level}"
                )
            ctx = ctx.truncate(self.level)
        return ctx

    def validate(self) -> None:
        self.context()
        for a in self.alpha:
            if not 0.0 < a < 1.0:
                raise ConfigError(f"field 'alpha': value {a} outside (0, 1)")
        if not self.alpha:
            raise ConfigError("field 'alpha': empty list")
        for q in self.p:
            if not q >= 1.0:
                raise ConfigError(f"field 'p': value {q} is not >= 1 or inf")
        if not self.p:
            raise ConfigError("field 'p': empty list")
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
        parts = [p.strip() for p in value.split(",") if p.strip()]
        if not parts:
            raise ConfigError("field 'm': empty generator sequence")
        try:
            return tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"field 'm': {exc}") from exc
    try:
        gens = tuple(int(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'm': {exc}") from exc
    if not gens:
        raise ConfigError("field 'm': empty generator sequence")
    return gens


def _parse_int(value, field_name: str) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"field {field_name!r}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {field_name!r}: {exc}") from exc


def _parse_floats(value, field_name: str) -> tuple[float, ...]:
    if isinstance(value, str):
        value = [tok.strip() for tok in value.split(",") if tok.strip()]
    out = []
    for tok in value:
        if isinstance(tok, str) and tok.lower() in ("inf", "infinity"):
            out.append(math.inf)
            continue
        try:
            out.append(float(tok))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field {field_name!r}: bad value {tok!r}") from exc
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


def _parse_strings(value, field_name: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(_split_outside_parens(value))
    try:
        return tuple(str(tok) for tok in value)
    except TypeError as exc:
        raise ConfigError(f"field {field_name!r}: expected a list") from exc


def load_config(config_path: str | None, overrides: dict) -> RunConfig:
    cfg = RunConfig()
    if config_path is not None:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {config_path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {config_path}: expected a JSON object")
        known = {f.name for f in fields(RunConfig)}
        for key in doc:
            if key not in known:
                raise ConfigError(f"config {config_path}: unknown field {key!r}")
        overrides = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    else:
        overrides = {k: v for k, v in overrides.items() if v is not None}

    if "m" in overrides:
        cfg.m = _parse_m(overrides["m"])
    if "level" in overrides and overrides["level"] is not None:
        cfg.level = _parse_int(overrides["level"], "level")
    if "alpha" in overrides:
        cfg.alpha = _parse_floats(overrides["alpha"], "alpha")
    if "p" in overrides:
        cfg.p = _parse_floats(overrides["p"], "p")
    if "claims" in overrides:
        cfg.claims = _parse_strings(overrides["claims"], "claims")
    if "families" in overrides:
        cfg.families = _parse_strings(overrides["families"], "families")
    if "out" in overrides:
        cfg.out = str(overrides["out"])
    if "jobs" in overrides:
        cfg.jobs = _parse_int(overrides["jobs"], "jobs")
    if "cap_file" in overrides and overrides["cap_file"] is not None:
        cfg.cap_file = str(overrides["cap_file"])
    cfg.validate()
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
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.17g}"


@dataclass(frozen=True)
class ReportRow:
    claim: str
    family: str = ""
    seed: int | None = None
    alpha: float | None = None
    p: float | None = None
    k: int | None = None
    n: int | None = None
    lhs: float | None = None
    rhs: float | None = None
    ratio: float | None = None
    error: str = ""

    @classmethod
    def from_report(cls, report: RatioReport) -> "ReportRow":
        return cls(
            claim=report.claim, family=report.family, seed=report.seed,
            alpha=report.alpha, p=report.p, k=report.k, n=report.n,
            lhs=report.lhs, rhs=report.rhs, ratio=report.ratio,
        )

    def sort_key(self):
        return (
            self.claim,
            self.family,
            -1 if self.seed is None else self.seed,
            -1.0 if self.alpha is None else self.alpha,
            -1.0 if self.p is None else self.p,
            -1 if self.k is None else self.k,
            -1 if self.n is None else self.n,
        )

    def csv_values(self) -> list[str]:
        return [_fmt(getattr(self, col)) for col in CSV_COLUMNS]


def _write_rows(path: str, rows: Sequence[ReportRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())


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


def _claim_tasks(cfg: RunConfig, ctx: GroupContext) -> list[Callable[[], list[ReportRow]]]:
    tasks: list[Callable[[], list[ReportRow]]] = []
    family_labels = cfg.families if cfg.families is not None else default_families(ctx)
    families = [parse_family(label) for label in family_labels]

    levels = range(1, ctx.level) if "theorem1" in cfg.claims else ()
    orders = theorem2_orders(ctx) if "theorem2" in cfg.claims else ()
    for family in families if levels or orders else ():
        def theorem_task(family=family) -> list[ReportRow]:
            try:
                fun = _built_function(ctx, family)
                reports = theorem_reports(fun, cfg.alpha, cfg.p, levels, orders)
            except ResolutionExceededError as exc:
                cases = [("theorem1", k, None) for k in levels]
                cases += [("theorem2", None, n) for n in orders]
                return [
                    ReportRow(claim=claim, family=family.label, seed=family.seed,
                              alpha=alpha, p=p, k=k, n=n, error=str(exc))
                    for claim, k, n in cases for alpha in cfg.alpha for p in cfg.p
                ]
            return [ReportRow.from_report(report.with_family(family.label, family.seed))
                    for report in reports]

        tasks.append(theorem_task)
    if "lemma1" in cfg.claims:
        def lemma1_task() -> list[ReportRow]:
            rows = []
            for label, seed, coeffs in lemma1_coefficient_sets(ctx):
                two_d, one_d = lemma1_report(ctx, coeffs)
                rows.append(ReportRow.from_report(two_d.with_family(label, seed)))
                rows.append(ReportRow.from_report(one_d.with_family(label, seed)))
            return rows

        tasks.append(lemma1_task)
    if "lemma4" in cfg.claims:
        for alpha in cfg.alpha:
            for k in range(ctx.level):
                def lemma4_task(alpha=alpha, k=k) -> list[ReportRow]:
                    p_range = range(ctx.M[k], ctx.M[k] + LEMMA4_SPAN + 1)
                    return [ReportRow.from_report(lemma4_report(ctx, alpha, k, p_range))]

                tasks.append(lemma4_task)
    if "lemma5" in cfg.claims:
        for alpha in cfg.alpha:
            for n in lemma5_orders(ctx):
                def lemma5_task(alpha=alpha, n=n) -> list[ReportRow]:
                    report, _ = lemma5_report(ctx, alpha, n)
                    return [ReportRow.from_report(report)]

                tasks.append(lemma5_task)
    if "eq23" in cfg.claims:
        for alpha in cfg.alpha:
            for n in eq23_orders(ctx):
                def eq23_task(alpha=alpha, n=n) -> list[ReportRow]:
                    return [ReportRow.from_report(eq23_report(ctx, alpha, n))]

                tasks.append(eq23_task)
    return tasks


def compute_rows(cfg: RunConfig) -> list[ReportRow]:
    """All report rows for a configuration, canonically sorted."""
    ctx = cfg.context()
    tasks = _claim_tasks(cfg, ctx)
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            chunks = list(pool.map(lambda task: task(), tasks))
    else:
        chunks = [task() for task in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=ReportRow.sort_key)
    return rows


def summarize(cfg: RunConfig, rows: Sequence[ReportRow]) -> dict:
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
    summary["system"] = "dyadic" if all(v == 2 for v in cfg.m) else "vilenkin"
    return summary


def _summary_path(out: str) -> str:
    path = Path(out)
    return str(path.with_suffix(".summary.json"))


def _cap_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"cap {value!r} is not a number")
    return float(value)


def _load_caps(path: str | None) -> dict[str, float | dict[float, float]]:
    """A cap file as {claim: cap} or {claim: {alpha: cap}}, alphas as floats."""
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read cap file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"cap file {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"cap file {path}: expected a JSON object")
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
            for j in range(n_s * ctx.M[s] + 1):
                checks.append((
                    "lemma2", f"s={s},n_s={n_s},j={j}",
                    lemma2_check(ctx, s, n_s, j), IDENTITY_TOLERANCE,
                ))
    for level in range(ctx.level):
        for digit in range(ctx.m[level]):
            for j in range(ctx.M[level]):
                checks.append((
                    "eq20", f"A={level},n_A={digit},j={j}",
                    paley_check(ctx, level, digit, j), IDENTITY_TOLERANCE,
                ))
                checks.append((
                    "eq20b", f"A={level},r={digit},j={j}",
                    paley_check(ctx, level, digit, j, block_form=True),
                    IDENTITY_TOLERANCE,
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


def cmd_verify(cfg: RunConfig) -> int:
    caps = _load_caps(cfg.cap_file)
    rows = compute_rows(cfg)
    _write_rows(cfg.out, rows)
    errored = sum(1 for r in rows if r.error)
    print(f"{len(rows)} rows ({errored} errored) -> {cfg.out}")
    breaches = _check_caps(cfg, caps, summarize(cfg, rows))
    for line in breaches:
        print(f"cap exceeded: {line}", file=sys.stderr)
    return 1 if breaches else 0


def cmd_sweep(cfg: RunConfig) -> int:
    caps = _load_caps(cfg.cap_file)
    rows = compute_rows(cfg)
    _write_rows(cfg.out, rows)
    summary = summarize(cfg, rows)
    summary_path = _summary_path(cfg.out)
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    errored = sum(1 for r in rows if r.error)
    print(f"{len(rows)} rows ({errored} errored) -> {cfg.out}")
    print(f"summary -> {summary_path}")
    breaches = _check_caps(cfg, caps, summary)
    for line in breaches:
        print(f"cap exceeded: {line}", file=sys.stderr)
    return 1 if breaches else 0


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
    for name, default_out, blurb in (
        ("check-identities", "vilenkin-identities.csv",
         "run the exact-identity residual suite"),
        ("verify", "vilenkin-report.csv",
         "write ratio-report rows for the selected claims"),
        ("sweep", "vilenkin-sweep.csv",
         "full cartesian sweep plus a per-claim max-ratio summary"),
    ):
        cmd = sub.add_parser(name, help=blurb, description=blurb)
        _add_common_flags(cmd)
        cmd.set_defaults(default_out=default_out)

    args = parser.parse_args(argv)
    overrides = {
        "m": args.m, "level": args.level, "alpha": args.alpha, "p": args.p,
        "claims": args.claims, "families": args.families, "out": args.out,
        "jobs": args.jobs, "cap_file": args.cap_file,
    }
    try:
        cfg = load_config(args.config, overrides)
        if args.out is None and args.config is None:
            cfg.out = args.default_out
        if args.command == "check-identities":
            return cmd_check_identities(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_sweep(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"configuration error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
