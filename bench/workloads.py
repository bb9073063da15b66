"""Workload definitions and seeded input generation.

Imported by ``run.py``, which never imports ``vilenkin``, and by the worker
child.  Everything here is a pure function of the workload name and seed, so
one seed always yields the same inputs.  Seed 0 reproduces the inputs of a
plain CLI call: its family list equals ``cli.default_families`` for the
workload's group, so its reports equal those of ``vilenkin sweep`` without
``--families``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

# The `moduli` workload: every kind x p x level on two seeded functions.
MODULUS_KINDS = ("omega1", "omega2", "omega12", "total")
MODULUS_PS = (1.0, 2.0, math.inf)
MODULUS_FUNCTIONS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    m: tuple[int, ...]
    kind: str  # "sweep", "kernels" or "moduli"
    ops: int  # operations per pass: report rows, identity checks or modulus calls

    @property
    def scales(self) -> tuple[int, ...]:
        out = [1]
        for v in self.m:
            out.append(out[-1] * v)
        return tuple(out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-dyadic", (2, 2, 2, 2, 2, 2), "sweep", 2465),
        Workload("kernels", (4, 4, 4, 4, 4), "kernels", 96 + 4822),
        # levels 0..6 of m = (2,) * 6
        Workload("moduli", (2, 2, 2, 2, 2, 2), "moduli",
                 len(MODULUS_KINDS) * len(MODULUS_PS) * 7 * MODULUS_FUNCTIONS),
    )
}


def families(w: Workload, seed: int) -> tuple[str, ...]:
    """Family labels for a sweep workload.

    Seed 0 gives ``cli.default_families``.  Any other seed keeps the same
    number of families of each kind (so every seed does the same work) and
    draws the character indices and the random seeds from the workload seed.
    """
    M = w.scales
    size, level = M[-1], len(w.m)
    chars: list[tuple[int, int]] = []
    for a, b in ((0, 0), (1, 1), (2, 3), (M[1], M[1] + 1)):
        if a < size and b < size and (a, b) not in chars:
            chars.append((a, b))
    poly_seeds: list[int] = list(range(101, 106))
    cell_seeds: list[int] = [7, 8]
    if seed != DEFAULT_SEED:
        rng = np.random.default_rng([seed, 1])
        picked = [(0, 0)]
        while len(picked) < len(chars):
            pair = tuple(int(v) for v in rng.integers(0, size, 2))
            if pair not in picked:
                picked.append(pair)
        chars = picked
        drawn = rng.choice(10**6, size=len(poly_seeds) + len(cell_seeds), replace=False)
        poly_seeds = [int(v) for v in drawn[: len(poly_seeds)]]
        cell_seeds = [int(v) for v in drawn[len(poly_seeds):]]
    labels = [f"character({a},{b})" for a, b in chars]
    labels += [f"cylinder({lvl})" for lvl in range(min(2, level) + 1)]
    degree = M[min(2, level)]
    labels += [f"random_poly({degree},{s})" for s in poly_seeds]
    labels += [f"random_cell({s})" for s in cell_seeds]
    return tuple(labels)


def cli_steps(w: Workload, seed: int, out_dir: str) -> list[list[str]]:
    """The CLI argument lists of one pass; each runs in its own process."""
    m = ",".join(str(v) for v in w.m)
    if w.kind == "sweep":
        argv = ["sweep", "--m", m, "--families", ",".join(families(w, seed)),
                "--out", f"{out_dir}/sweep.csv"]
        return [argv]
    if w.kind == "kernels":
        return [
            ["verify", "--m", m, "--claims", "lemma1,lemma4,lemma5,eq23",
             "--out", f"{out_dir}/verify.csv"],
            ["check-identities", "--m", m, "--out", f"{out_dir}/identities.csv"],
        ]
    raise ValueError(f"workload {w.name} has no CLI steps")


def modulus_functions(w: Workload, seed: int) -> list[np.ndarray]:
    """The seeded complex sample grids of the `moduli` workload."""
    size = w.scales[-1]
    rng = np.random.default_rng([seed, 2])
    return [
        rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        for _ in range(MODULUS_FUNCTIONS)
    ]


def modulus_calls(w: Workload) -> list[tuple[int, str, int, float]]:
    """(function index, kind, level, p) for every call of a `moduli` pass."""
    return [
        (i, kind, level, p)
        for i in range(MODULUS_FUNCTIONS)
        for kind in MODULUS_KINDS
        for p in MODULUS_PS
        for level in range(len(w.m) + 1)
    ]
