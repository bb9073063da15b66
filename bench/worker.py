"""One benchmark child process: one CLI command, or one `moduli` pass.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``):

    python3 bench/worker.py RESULT.json WORKLOAD SEED STEP TRACE [CLI ARGS...]

STEP is ``setup`` (import and generate inputs, then exit), ``cli`` (run
``vilenkin`` with the CLI ARGS) or ``moduli``.  TRACE is 0 or 1.  The worker
writes RESULT.json with the monotonic time at which set-up finished, the
CLI exit code, the `moduli` values, its peak resident set and, when traced,
the per-span table.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """VmHWM, the peak resident set of this process since it started.

    ``ru_maxrss`` from ``wait4`` also counts the parent's peak, which the
    kernel carries into the child at exec, so it would read the runner's
    footprint whenever that is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    result_path, workload, seed, step, trace = argv[:5]
    cli_args = argv[5:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    import vilenkin
    from vilenkin import cli

    w = workloads.WORKLOADS[workload]
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracer.instrument()
    if w.kind == "moduli":
        ctx = vilenkin.GroupContext(w.m)
        grids = [vilenkin.SampledFunction2D(ctx, values)
                 for values in workloads.modulus_functions(w, int(seed))]
    result: dict = {"ready": time.monotonic(), "exit": 0}

    if step == "cli":
        result["exit"] = cli.main(cli_args)
    elif step == "moduli":
        result["values"] = [
            vilenkin.modulus(grids[i], kind, level, p).value
            for i, kind, level, p in workloads.modulus_calls(w)
        ]
    if tracer is not None:
        result["trace"] = tracer.report()
    result["peak_rss_kb"] = peak_rss_kb()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
