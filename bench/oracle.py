"""Independent recomputation of sampled outputs, written without `vilenkin`.

Theorem rows are recomputed with a naive character-matrix transform (an
O(M_N^2) matrix product per axis) and Cesaro numbers from the Gamma-function
closed form; moduli by literal enumeration of the shifts in I_level, built
from digit vectors.  Only numpy is used.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Agreement required between the program and the naive recomputation,
# relative to the scale of the function (the oracle sums in another order).
REL_TOL = 1e-9


def scales(m: tuple[int, ...]) -> list[int]:
    out = [1]
    for v in m:
        out.append(out[-1] * v)
    return out


def digits(m: tuple[int, ...]) -> np.ndarray:
    """(N, M_N) digits of every cell id, least significant first."""
    ids = np.arange(scales(m)[-1])
    return np.array([(ids // M) % mk for mk, M in zip(m, scales(m))])


def character_matrix(m: tuple[int, ...]) -> np.ndarray:
    """C[n, x] = prod_t exp(2 pi i n_t x_t / m_t)."""
    d = digits(m)
    phase = sum(np.outer(d[t], d[t]) / m[t] for t in range(len(m)))
    return np.exp(2j * np.pi * phase)


def build_family(m: tuple[int, ...], label: str) -> np.ndarray:
    """Sample grid of a family label, following the documented family kinds."""
    kind, _, inner = label[:-1].partition("(")
    params = [int(v) for v in inner.split(",")]
    M = scales(m)
    size = M[-1]
    chars = character_matrix(m)
    if kind == "character":
        a, b = params
        return np.outer(chars[a], chars[b])
    if kind == "cylinder":
        edge = (np.arange(size) % M[params[0]] == 0).astype(complex)
        return np.outer(edge, edge)
    if kind == "random_poly":
        degree, seed = params
        rng = np.random.default_rng(seed)
        coeffs = np.zeros((size, size), dtype=complex)
        coeffs[:degree, :degree] = (rng.standard_normal((degree, degree))
                                    + 1j * rng.standard_normal((degree, degree)))
        return chars.T @ coeffs @ chars
    if kind == "random_cell":
        rng = np.random.default_rng(params[0])
        return rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    raise ValueError(f"unknown family {label!r}")


def lp(values: np.ndarray, p: float) -> float:
    mags = np.abs(values)
    if math.isinf(p):
        return float(mags.max())
    return float(np.mean(mags**p) ** (1.0 / p))


def binomial(beta: float, n: np.ndarray) -> np.ndarray:
    """A_n^beta = Gamma(n + beta + 1) / (Gamma(beta + 1) Gamma(n + 1)), beta > -1."""
    lg = np.vectorize(math.lgamma)
    return np.exp(lg(n + beta + 1.0) - math.lgamma(beta + 1.0) - lg(n + 1.0))


def theorem_lhs(m: tuple[int, ...], f: np.ndarray, n: int, alpha: float, p: float) -> float:
    """||sigma_n^{-alpha} f - f||_p through the naive transform."""
    size = scales(m)[-1]
    chars = character_matrix(m)
    spectrum = chars.conj() @ f @ chars.conj().T / size**2
    a = binomial(-alpha, np.arange(n, dtype=float))
    top = np.maximum.outer(np.arange(size), np.arange(size))
    weight = np.zeros((size, size))
    inside = top < n
    weight[inside] = a[n - 1 - top[inside]] / a[n - 1]
    sigma = chars.T @ (spectrum * weight) @ chars
    return lp(sigma - f, p)


def _interval(m: tuple[int, ...], level: int) -> list[np.ndarray]:
    """Digit vectors of I_level: every element whose first `level` digits are 0."""
    ranges = [range(1) if t < level else range(mk) for t, mk in enumerate(m)]
    return [np.array(u) for u in itertools.product(*ranges)]


def _translate(m: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """Cell id of x + u for every cell id x (digit-wise addition mod m_t)."""
    moved = (digits(m) + u[:, None]) % np.array(m)[:, None]
    return np.array(scales(m)[:-1]) @ moved


def modulus(m: tuple[int, ...], f: np.ndarray, kind: str, level: int, p: float) -> float:
    """sup over shifts in I_level of the kind's difference norm, enumerated literally."""
    perms = [_translate(m, u) for u in _interval(m, level)]
    if kind == "omega1":
        return max(lp(f[pu, :] - f, p) for pu in perms)
    if kind == "omega2":
        return max(lp(f[:, pv] - f, p) for pv in perms)
    best = 0.0
    for pu in perms:
        for pv in perms:
            both = f[pu][:, pv]
            if kind == "omega12":
                diff = both - f[pu, :] - f[:, pv] + f
            else:
                diff = both - f
            best = max(best, lp(diff, p))
    return best


def agrees(value: float, reference: float, scale: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(1.0, scale)
