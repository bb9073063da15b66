"""Span tracing of the `vilenkin` layers, installed from outside the package.

``Tracer.instrument`` wraps every public function (the names in ``__all__``)
of ``vilenkin.transform``, ``approx``, ``verify``, ``kernels``, ``group`` and
``cli``, plus ``FunctionFamily.build``, and rebinds each wrapper in every
``vilenkin`` module that imported the original.  Each call records a span
(id, parent id, name, start, end) in memory; a span's self time is its
duration minus the part of it that its child spans cover.  The CLI thread
pool is swapped for one that hands the submitting span to the worker thread
as the parent of the task's spans.

Besides spans the tracer counts, at the same boundaries: complex
multiply-adds of the transforms (from the call shapes), distinct forward-2D
input grids, distinct ``cesaro_mean`` (spectrum, n, alpha) triples and the
bytes of the dense kernel tables built.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

ROOT = 0

# Span names that differ from "<module>.<function>".  Every public function
# of `cli` is one span name, "cli".
ALIASES = {
    "transform.fvt_forward": "transform.fwd1d",
    "transform.fvt_inverse": "transform.inv1d",
    "transform.fvt_forward_2d": "transform.fwd2d",
    "transform.fvt_inverse_2d": "transform.inv2d",
    "verify.theorem1_report": "verify.theorem",
    "verify.theorem2_report": "verify.theorem",
    "verify.lemma1_report": "verify.lemma1",
    "verify.lemma4_report": "verify.lemma4",
    "verify.lemma4_values": "verify.lemma4",
    "verify.lemma5_report": "verify.lemma5",
    "verify.eq23_report": "verify.eq23",
    "verify.eq23_profile": "verify.eq23",
    "kernels.lemma2_check": "kernels.identity_checks",
    "kernels.paley_check": "kernels.identity_checks",
    "kernels.eq1_residual": "kernels.identity_checks",
    "kernels.eq2_residual": "kernels.identity_checks",
    "kernels.eq3_residual": "kernels.identity_checks",
    "kernels.eq4_residual": "kernels.identity_checks",
}

TRANSFORMS_1D = ("fvt_forward", "fvt_inverse")
TRANSFORMS_2D = ("fvt_forward_2d", "fvt_inverse_2d")
TABLES = ("character_table", "dirichlet_table")


def _digest(values) -> bytes:
    return hashlib.blake2b(values.tobytes(), digest_size=16).digest()


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(ROOT + 1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.cmacs = 0
        self.fwd2d_inputs: set[bytes] = set()
        self.mean_inputs: set[tuple[bytes, int, float]] = set()
        self.tables: dict[int, object] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [ROOT]
        return stack

    def _wrap(self, fn, name, before=None, after=None):
        signature = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(signature.bind(*args, **kwargs).arguments)
            label = name(args, kwargs) if callable(name) else name
            stack = self._stack()
            parent = stack[-1]
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, label, start, end))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _adopted(self, parent: int, fn, *args, **kwargs):
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    # -- counters --------------------------------------------------------

    def _count_1d(self, arguments) -> None:
        ctx = next(iter(arguments.values())).ctx
        with self._lock:
            self.cmacs += ctx.size * sum(ctx.m)

    def _count_2d(self, arguments) -> None:
        ctx = next(iter(arguments.values())).ctx
        with self._lock:
            self.cmacs += 2 * ctx.size * ctx.size * sum(ctx.m)

    def _count_fwd2d(self, arguments) -> None:
        self._count_2d(arguments)
        self.fwd2d_inputs.add(_digest(arguments["f"].values))

    def _count_mean(self, arguments) -> None:
        key = (_digest(arguments["grid"].values), int(arguments["n"]),
               float(arguments["alpha"]))
        self.mean_inputs.add(key)

    def _count_table(self, table) -> None:
        # lru_cache hands back the same object on a hit; a new one was built.
        self.tables.setdefault(id(table), table)

    # -- installation ------------------------------------------------------

    def instrument(self) -> None:
        """Wrap the public functions of the six layers in every module."""
        from vilenkin import approx, cli, group, kernels, transform, verify

        wrappers: dict[int, object] = {}
        for module in (transform, approx, verify, kernels, group, cli):
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                name = "cli" if layer == "cli" else ALIASES.get(f"{layer}.{attr}",
                                                                f"{layer}.{attr}")
                before = after = None
                if layer == "transform" and attr in TRANSFORMS_1D:
                    before = self._count_1d
                elif layer == "transform" and attr == "fvt_forward_2d":
                    before = self._count_fwd2d
                elif layer == "transform" and attr == "fvt_inverse_2d":
                    before = self._count_2d
                elif layer == "approx" and attr == "cesaro_mean":
                    before = self._count_mean
                elif layer == "approx" and attr == "modulus":
                    name = _modulus_name
                elif layer == "kernels" and attr in TABLES:
                    after = self._count_table
                wrappers[id(fn)] = self._wrap(fn, name, before, after)

        for module_name, module in list(sys.modules.items()):
            if module_name != "vilenkin" and not module_name.startswith("vilenkin."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

        family = verify.FunctionFamily
        family.build = self._wrap(family.build, "verify.family_build")
        cli.ThreadPoolExecutor = self._pool(cli.ThreadPoolExecutor)

    def _pool(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]
                return super().submit(tracer._adopted, parent, fn, *args, **kwargs)

        return TracedPool

    # -- report ----------------------------------------------------------

    def report(self) -> dict:
        """Calls, total and self seconds per span name, plus the counters."""
        spans = list(self.spans)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end in spans:
            children[parent].append((start, end))
        stats: dict[str, dict] = {}
        for sid, _, name, start, end in spans:
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - _covered(children.get(sid, []), start, end)
        return {
            "spans": stats,
            "counters": {
                "transform.cmacs": self.cmacs,
                "transform.fwd2d.distinct": len(self.fwd2d_inputs),
                "approx.cesaro_mean.distinct": len(self.mean_inputs),
                "kernels.table_bytes": sum(t.nbytes for t in self.tables.values()),
            },
        }


def _modulus_name(args, kwargs) -> str:
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return f"approx.modulus.{kind}"
