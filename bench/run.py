"""Benchmark runner for `vilenkin`: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, in turn

Every pass of a workload runs in fresh Python processes started from this
one runner process (a closed loop: the next pass starts when the last one
has ended).  A fresh process matters because ``cli._built_function``,
``cli._cached_omega``, ``kernels.dirichlet_table``,
``kernels.character_table`` and ``group.digit_table`` are module-level
caches that a CLI user never finds warm.  Passes repeat (at least two)
until the run is within half a typical pass of ``--seconds``.  ``wall_s``
is the mean over the run's passes and ``work_per_s`` the run's completed
operations over its busy seconds (see ``run_workload`` for why); the other
metrics are medians over the passes of the run.

Workloads, why each exists, and what each predicts:

- ``sweep-dyadic``: ``vilenkin sweep --m 2,2,2,2,2,2`` (M_N = 64), all six
  claims, families from the seed.  Every butterfly stage is radix 2, and
  the forward and inverse 2D transforms dominate, so a radix-2 stage or a
  transform-once theorem path shows here.
- ``kernels``: ``vilenkin verify --claims lemma1,lemma4,lemma5,eq23``, then
  ``vilenkin check-identities``, both at ``--m 4,4,4,4,4`` (M_N = 1024), as
  two processes.  No transform runs: this is the dense Dirichlet-table and
  BLAS path, and a table-size budget moves its memory.  A transform change
  predicts no change here.
- ``moduli``: library calls ``modulus(f, kind, level, p)`` for every kind,
  p in {1, 2, inf} and level, on two seeded random functions at
  m = 2,2,2,2,2,2.  It is the only workload reaching ``omega12`` and
  ``total``, whose O(M^4) shift loops dominate it; a modulus change
  (level profiles, Plancherel at p = 2) shows here, and a transform change
  predicts no change.

End-to-end metrics (``--trace 0``): ``wall_s`` (spawn to exit of a pass),
``setup_s`` (spawn until ``vilenkin`` is imported and the inputs are
generated, per process, with extra set-up-only probes), ``work_per_s``
(operations completed per second of wall time minus set-up), and
``peak_rss_mb`` (the largest child peak resident set, VmHWM, which unlike
``os.wait4``'s max-RSS does not include the runner's own peak).  An operation is
a report row, an identity check or a ``modulus`` call.  A failed operation
is an ``error`` row, a ``FAIL`` check, a non-zero exit or missing result
(which fails every operation of the pass), or an output check mismatch; the
failures are the result line's ``failed`` out of ``attempted``.

Per-layer metrics (``--trace 1``) come from traced passes that alternate
with untraced ones; ``tracing.py`` wraps the public functions of the
layers from outside the package.  ``trace.overhead_s`` is the traced minus
the untraced mean wall time.

Output checks on every pass: a sample of theorem rows and of ``modulus``
calls is recomputed by ``oracle.py``, which does not use ``vilenkin``.  For
seed 0 (and for ``kernels`` at any seed, whose inputs do not depend on it)
the sha256 of every report must equal ``digests.json``.  The digests were
recorded from plain ``vilenkin`` commands without ``--families``; they hold
for the BLAS thread count recorded beside them, because BLAS sums in a
thread-dependent order, and the check is skipped under another count.

No workload passes ``--jobs``, and the child environment sets the BLAS
threads to nproc, so one pass uses at most nproc threads.  Each run
writes a record (versions, nproc, thread settings, git SHA, every pass) to
``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
PROBES_PER_PASS = 1
SAMPLED_ROWS = 4
PROCESS_TIMEOUT_S = 60
# How a run reduces its samples to the reported value, where not a median.
AGGREGATE = {"wall_s": "mean", "work_per_s": "run total", "trace.overhead_s": "difference of means"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def spawn(w, seed: int, step: str, trace: int, out_dir: Path, tag: str,
          cli_args: list[str] = ()) -> dict:
    """Run one worker process; return its wall time, set-up time, RSS and result."""
    result_path = out_dir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(result_path), w.name,
           str(seed), step, str(trace), *cli_args]
    with open(out_dir / f"{tag}.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"wall_s": end - start, "rss_mb": usage.ru_maxrss / 1024.0,
              "exit": proc.returncode, "result": None, "setup_s": None}
    if proc.returncode == 0 and result_path.exists():
        record["result"] = json.loads(result_path.read_text(encoding="utf-8"))
        record["setup_s"] = record["result"]["ready"] - start
        record["rss_mb"] = record["result"]["peak_rss_kb"] / 1024.0
    return record


def run_pass(w, seed: int, trace: int, out_dir: Path) -> list[dict]:
    """One workload pass in a clean directory: its processes, in order."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if w.kind == "moduli":
        return [spawn(w, seed, "moduli", trace, out_dir, "moduli")]
    return [
        spawn(w, seed, "cli", trace, out_dir, argv[0], argv)
        for argv in workloads.cli_steps(w, seed, str(out_dir.relative_to(ROOT)))
    ]


# ---------------------------------------------------------------------------
# output checks


def load_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def digest_mismatches(w, seed: int, out_dir: Path, digests: dict) -> list[str] | None:
    """Files whose sha256 differs from the record, or None if not applicable."""
    entry = digests.get(w.name)
    if entry is None or (seed != workloads.DEFAULT_SEED and w.kind != "kernels"):
        return None
    if entry["blas_threads"] != nproc():
        return None
    return [name for name, digest in entry["sha256"].items()
            if not (out_dir / name).is_file() or sha256(out_dir / name) != digest]


def check_theorem_rows(w, rows: list[dict], rng) -> list[str]:
    """Recompute a sample of theorem-row lhs values with the naive transform."""
    theorem = [r for r in rows if r["claim"] in ("theorem1", "theorem2")]
    problems = []
    grids: dict[str, np.ndarray] = {}
    for idx in rng.choice(len(theorem), size=min(SAMPLED_ROWS, len(theorem)), replace=False):
        row = theorem[idx]
        label, alpha, p = row["family"], float(row["alpha"]), float(row["p"])
        n = w.scales[int(row["k"])] if row["claim"] == "theorem1" else int(row["n"])
        if label not in grids:
            grids[label] = oracle.build_family(w.m, label)
        f = grids[label]
        expected = oracle.theorem_lhs(w.m, f, n, alpha, p)
        if not oracle.agrees(float(row["lhs"]), expected, oracle.lp(f, p)):
            problems.append(f"{row['claim']} {label} alpha={alpha} p={p} n={n}: "
                            f"lhs {row['lhs']} != naive {expected!r}")
    return problems


def check_moduli(w, seed: int, values: list[float], rng) -> list[str]:
    """Recompute a sample of modulus calls by literal shift enumeration."""
    calls = workloads.modulus_calls(w)
    functions = workloads.modulus_functions(w, seed)
    problems = []
    for idx in rng.choice(len(calls), size=SAMPLED_ROWS, replace=False):
        i, kind, level, p = calls[idx]
        expected = oracle.modulus(w.m, functions[i], kind, level, p)
        if not oracle.agrees(values[idx], expected, oracle.lp(functions[i], p)):
            problems.append(f"modulus f{i} {kind} level={level} p={p}: "
                            f"{values[idx]!r} != literal {expected!r}")
    return problems


def check_pass(w, seed: int, pass_no: int, procs: list[dict], out_dir: Path,
               digests: dict) -> tuple[int, list[str]]:
    """Failed operations of one pass (out of ``w.ops``) and what went wrong."""
    for proc in procs:
        if proc["result"] is None:
            return w.ops, [f"worker exit {proc['exit']} without a result, see {out_dir}"]
        if proc["result"]["exit"] != 0:
            return w.ops, [f"vilenkin exit {proc['result']['exit']}, see {out_dir}"]
    rng = np.random.default_rng([seed, pass_no])
    if w.kind == "moduli":
        values = procs[0]["result"]["values"]
        if len(values) != w.ops:
            return w.ops, [f"{len(values)} modulus values, expected {w.ops}"]
        bad = [f"non-finite modulus value {v!r}" for v in values if not math.isfinite(v)]
        problems = bad + check_moduli(w, seed, values, rng)
        return min(w.ops, len(problems)), problems

    outputs = ["sweep.csv"] if w.kind == "sweep" else ["verify.csv", "identities.csv"]
    try:
        rows = [row for name in outputs for row in read_rows(out_dir / name)]
    except OSError as exc:
        return w.ops, [f"missing report: {exc}"]
    if len(rows) != w.ops:
        return w.ops, [f"{len(rows)} report rows, expected {w.ops}"]
    mismatched = digest_mismatches(w, seed, out_dir, digests)
    if mismatched:
        return w.ops, [f"sha256 differs from digests.json: {', '.join(mismatched)}"]
    problems = [f"error row: {r}" for r in rows if r.get("error")]
    problems += [f"FAIL check: {r}" for r in rows if r.get("status") == "FAIL"]
    if w.kind == "sweep":
        problems += check_theorem_rows(w, rows, rng)
    return min(w.ops, len(problems)), problems


# ---------------------------------------------------------------------------
# metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pass_metrics(w, procs: list[dict], failed: int) -> dict:
    wall = sum(p["wall_s"] for p in procs)
    setup = sum(p["setup_s"] or 0.0 for p in procs)
    return {
        "wall_s": wall,
        "work_per_s": (w.ops - failed) / (wall - setup),
        "peak_rss_mb": max(p["rss_mb"] for p in procs),
        "done": w.ops - failed,
        "busy_s": wall - setup,
    }


def merge_traces(procs: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for proc in procs:
        trace = (proc["result"] or {}).get("trace", {"spans": {}, "counters": {}})
        for name, entry in trace["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def layer_metric(name: str, trace: dict) -> float:
    """A per-layer metric by naming convention.

    ``<prefix>.calls`` and ``<prefix>.self_s`` sum over the span named
    prefix and the spans below it (``approx.modulus.omega1`` counts towards
    ``approx.modulus``); ``<prefix>.useful_frac`` is the distinct-input
    counter over the calls (0 without calls); other names are counters.
    """
    prefix, _, field = name.rpartition(".")

    def total(key: str) -> float:
        return sum(entry[key] for span, entry in trace["spans"].items()
                   if span == prefix or span.startswith(prefix + "."))

    if field in ("calls", "self_s"):
        return total(field)
    if field == "useful_frac":
        calls = total("calls")
        return trace["counters"].get(prefix + ".distinct", 0) / calls if calls else 0.0
    return trace["counters"].get(name, 0)


def run_workload(w, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    out_root = ROOT / ".bench_out" / w.name
    out_root.mkdir(parents=True, exist_ok=True)
    digests = load_digests()
    start = time.monotonic()
    probe_dir = out_root / "setup"
    shutil.rmtree(probe_dir, ignore_errors=True)
    probe_dir.mkdir()
    # The first probe also writes the bytecode caches; it is not measured.
    spawn(w, seed, "setup", 0, probe_dir, "warmup")
    probes: list[dict] = []
    passes: list[dict] = []
    while True:
        pass_start = time.monotonic()
        # Set-up probes are spread between the passes, so that their median
        # samples the same stretch of time as the passes do.
        for _ in range(PROBES_PER_PASS):
            probes.append(spawn(w, seed, "setup", 0, probe_dir, f"probe-{len(probes)}"))
        traced = trace == 1 and len(passes) % 2 == 1
        out_dir = out_root / f"pass-{len(passes)}"
        procs = run_pass(w, seed, int(traced), out_dir)
        failed, problems = check_pass(w, seed, len(passes), procs, out_dir, digests)
        passes.append({"traced": traced, "failed": failed, "problems": problems,
                       "processes": procs, "metrics": pass_metrics(w, procs, failed),
                       "duration_s": time.monotonic() - pass_start})
        # Stop when another pass would end further from the deadline than now.
        typical = statistics.median(p["duration_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.monotonic() - start + typical / 2 > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    samples: dict[str, list[float]] = {
        name: [p["metrics"][name] for p in plain] for name in ("wall_s", "work_per_s", "peak_rss_mb")
    }
    samples["setup_s"] = [proc["setup_s"] for proc in probes if proc["setup_s"] is not None]
    samples["setup_s"] += [proc["setup_s"] for p in plain for proc in p["processes"]
                           if proc["setup_s"] is not None]
    traces = []
    if trace:
        traces = [merge_traces(p["processes"]) for p in passes if p["traced"]]
        traced_wall = statistics.fmean(p["metrics"]["wall_s"] for p in passes if p["traced"])
        overhead = traced_wall - statistics.fmean(samples["wall_s"])
        for entry in spec["per_layer"]:
            name = entry["name"]
            samples[name] = ([overhead] if name == "trace.overhead_s"
                             else [layer_metric(name, t) for t in traces])
    values = {name: statistics.median(v) for name, v in samples.items()}
    # Wall time and throughput average over the whole run instead.  A shared
    # host can switch between two speeds for 5 to 20 s at a time (on a 2-vCPU
    # virtual machine the slow one was about 1.45 times slower for this
    # pure-Python work); the median of a few passes jumps from one speed to
    # the other as the slow share of a run crosses a half, while the mean
    # moves only with that share.
    values["wall_s"] = statistics.fmean(samples["wall_s"])
    values["work_per_s"] = (sum(p["metrics"]["done"] for p in plain)
                            / sum(p["metrics"]["busy_s"] for p in plain))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    attempted = w.ops * len(passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "workload": w.name, "seed": seed, "trace": trace, "passes": passes,
        "probes": probes, "spans": traces[0] if traces else None,
        "attempted": attempted, "failed": failed,
        "samples": {e["name"]: samples[e["name"]] for e in wanted},
        "values": {e["name"]: values[e["name"]] for e in wanted},
        "units": {e["name"]: e["unit"] for e in wanted},
        "measured_s": time.monotonic() - start,
    }


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # a checkout without git metadata
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": nproc(), "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": sha, "src_sha256": source.hexdigest(),
        "threads": {var: nproc() for var in THREAD_VARS},
    }


def report(run: dict, env: dict) -> dict:
    """Print the human-readable block; return the result line's object."""
    plain = sum(1 for p in run["passes"] if not p["traced"])
    print(f"workload {run['workload']} seed {run['seed']} trace {run['trace']}: "
          f"{len(run['passes'])} passes ({plain} untraced) in {run['measured_s']:.1f} s; "
          f"nproc {env['nproc']}, BLAS threads "
          f"{env['threads']['OPENBLAS_NUM_THREADS']}, python {env['python']}, "
          f"numpy {env['numpy']}, git {env['git_sha'] or 'n/a'}")
    metrics = {}
    for name, values in run["samples"].items():
        unit, value = run["units"][name], run["values"][name]
        q1, _, q3 = quartiles(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:34s} {value:14.6g} {unit:6s} ({AGGREGATE.get(name, 'median')} "
              f"of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    frac = run["failed"] / run["attempted"]
    print(f"  {'failed_frac':34s} {frac:14.6g} {'':6s} "
          f"({run['failed']} of {run['attempted']} operations)")
    for p in run["passes"]:
        for problem in p["problems"][:5]:
            print(f"  check failed: {problem}")
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vilenkin" / "__init__.py").is_file():
        print(f"bench: no vilenkin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        w = workloads.WORKLOADS[name]
        env = environment()
        run = run_workload(w, args.seed, seconds, args.trace, spec)
        record_path = ROOT / ".bench_out" / name / f"seed{args.seed}-trace{args.trace}.json"
        record_path.write_text(json.dumps({"environment": env, **run}, indent=1),
                               encoding="utf-8")
        line = report(run, env)
        print(f"record -> {record_path.relative_to(ROOT)}")
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
