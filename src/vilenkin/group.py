"""Exact digit arithmetic for truncated bounded Vilenkin groups.

A group is described by a finite generating sequence m = (m_0, ..., m_{N-1})
with every m_k >= 2.  Elements are digit vectors added coordinatewise modulo
m_k, and the scale table M_0 = 1, M_{k+1} = m_k * M_k turns digit vectors
into cell ids: cell i is the element whose mixed-radix digits are the digits
of i.  Working at a fixed truncation level N makes every integral in the
library an exact finite sum over the M_N level-N cells.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidElementError, ResolutionExceededError

__all__ = [
    "GroupContext",
    "GroupElement",
    "IndexExpansion",
    "add",
    "negate",
    "sub",
    "index_expand",
    "index_compose",
    "norm_map",
    "in_interval",
    "cell_enumerate",
    "cell_id",
    "digit_table",
    "translate_ids",
]


def _check_index(value, lo: int, hi: int | None, what: str) -> int:
    """``value`` as an int in lo..hi; ``hi=None`` leaves it unbounded above.

    The one rule for every level, order, index and digit argument: a bool or
    a non-integral value is a ValueError, an integer outside the range a
    ResolutionExceededError.  Numpy integers and integral floats are accepted.
    """
    try:
        integral = not isinstance(value, (bool, np.bool_)) and value == int(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{what} = {value} is not an integer")
    n = int(value)
    if n < lo:
        raise ResolutionExceededError(f"{what} must be >= {lo}, got {value}")
    if hi is not None and n > hi:
        raise ResolutionExceededError(f"{what} {value} outside {lo}..{hi}")
    return n


def _real(value, what: str) -> float:
    """``value`` as a float; a bool or a string, which float() would read, is a ValueError."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class GroupContext:
    """Generating sequence m plus the derived mixed-radix scale table M."""

    m: tuple[int, ...]
    M: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        gens = tuple(_check_index(v, 2, None, "generator") for v in self.m)
        if not gens:
            raise ValueError("generator sequence must be nonempty")
        scale = [1]
        for v in gens:
            scale.append(scale[-1] * v)
        object.__setattr__(self, "m", gens)
        object.__setattr__(self, "M", tuple(scale))

    @property
    def level(self) -> int:
        """Truncation level N (number of retained coordinates)."""
        return len(self.m)

    @property
    def size(self) -> int:
        """Number of level-N cells, M_N."""
        return self.M[-1]

    def truncate(self, level: int) -> "GroupContext":
        """Context for the first ``level`` coordinates of this group."""
        return GroupContext(self.m[:_check_index(level, 1, self.level, "level")])

    def zero(self) -> "GroupElement":
        return GroupElement((0,) * self.level)

    def unit(self, n: int) -> "GroupElement":
        """The element e_n with digit 1 at coordinate n and 0 elsewhere."""
        digits = [0] * self.level
        digits[_check_index(n, 0, self.level - 1, "coordinate")] = 1
        return GroupElement(tuple(digits))

    def element(self, digits) -> "GroupElement":
        """Validated element from an iterable of digits."""
        return GroupElement(_check_element(self, GroupElement(tuple(digits))))


def _band_level(ctx: GroupContext, n: int) -> int:
    """The smallest level j with M_j >= n, for a band limit n in 0..M_N.

    Characters psi_k with k < M_j depend on a cell id only mod M_j, because
    cell ids put digit 0 lowest; so anything built from indices below n has
    period M_j and is fixed by its values on the first M_j cells.
    """
    return bisect_left(ctx.M, _check_index(n, 0, ctx.size, "band limit"))


@dataclass(frozen=True)
class GroupElement:
    """A group element as a digit vector truncated to N coordinates."""

    digits: tuple[int, ...]


@dataclass(frozen=True)
class IndexExpansion:
    """Mixed-radix digits of an index n together with its order |n|.

    ``order`` is the largest coordinate with a nonzero digit; it is None for
    n = 0, where the order is undefined.
    """

    n: int
    digits: tuple[int, ...]
    order: int | None


def _check_digit(d, k: int, mk: int) -> int:
    """Digit ``d`` at coordinate k as an int in 0..mk-1.

    A bool, a non-integral or an out-of-range digit is an InvalidElementError.
    """
    try:
        return _check_index(d, 0, mk - 1, "digit")
    except ValueError as exc:
        raise InvalidElementError(f"coordinate {k}: {exc}") from exc


def _check_element(ctx: GroupContext, x: GroupElement) -> tuple[int, ...]:
    """The digits of ``x`` as ints, once each has passed :func:`_check_digit`."""
    if len(x.digits) != ctx.level:
        raise InvalidElementError(
            f"element has {len(x.digits)} digits, expected {ctx.level}"
        )
    return tuple(_check_digit(d, k, mk) for k, (d, mk) in enumerate(zip(x.digits, ctx.m)))


def add(ctx: GroupContext, x: GroupElement, y: GroupElement) -> GroupElement:
    """Coordinatewise sum (x_k + y_k) mod m_k."""
    _check_element(ctx, x)
    _check_element(ctx, y)
    return GroupElement(
        tuple((a + b) % mk for a, b, mk in zip(x.digits, y.digits, ctx.m))
    )


def negate(ctx: GroupContext, x: GroupElement) -> GroupElement:
    """Group inverse: digit k becomes (m_k - x_k) mod m_k."""
    _check_element(ctx, x)
    return GroupElement(tuple((mk - a) % mk for a, mk in zip(x.digits, ctx.m)))


def _negate_ids(ctx: GroupContext, ids: np.ndarray) -> np.ndarray:
    """Cell ids of the group inverses of the cells ``ids``, as :func:`negate` does."""
    digits = digit_table(ctx)[:, _checked_ids(ctx, ids)]
    mvec = np.array(ctx.m, dtype=np.int64)[:, None]
    return np.array(ctx.M[:-1], dtype=np.int64) @ ((mvec - digits) % mvec)


def sub(ctx: GroupContext, x: GroupElement, y: GroupElement) -> GroupElement:
    return add(ctx, x, negate(ctx, y))


def index_expand(ctx: GroupContext, n: int) -> IndexExpansion:
    """Mixed-radix digits of n with respect to the scale table M.

    The digits satisfy n = sum_j digits[j] * M_j exactly, and the order is
    the position of the leading nonzero digit, so M_|n| <= n < M_{|n|+1}.
    """
    n = _check_index(n, 0, None, "index")
    if n >= ctx.size:
        raise ResolutionExceededError(f"index {n} >= M_N = {ctx.size}")
    digits = []
    rem = n
    for mk in ctx.m:
        rem, d = divmod(rem, mk)
        digits.append(d)
    order = max((k for k, d in enumerate(digits) if d), default=None)
    return IndexExpansion(n, tuple(digits), order)


def index_compose(ctx: GroupContext, digits) -> int:
    """Inverse of :func:`index_expand`: sum of digits[j] * M_j.

    The digits are checked as an element's, so each must lie in 0..m_j - 1.
    """
    digits = _check_element(ctx, GroupElement(tuple(digits)))
    return sum(d * Mk for d, Mk in zip(digits, ctx.M))


def norm_map(ctx: GroupContext, x: GroupElement) -> float:
    """The value |x| = sum_j x_j / M_{j+1}, an exact multiple of 1/M_N."""
    _check_element(ctx, x)
    total = ctx.size
    num = sum(d * (total // Mk1) for d, Mk1 in zip(x.digits, ctx.M[1:]))
    return num / total


def in_interval(
    ctx: GroupContext, x: GroupElement, n: int, center: GroupElement | None = None
) -> bool:
    """Whether x lies in the base interval I_n(center).

    I_n(center) is the set of elements agreeing with ``center`` on the first
    n digits; I_0 is the whole group and ``center`` defaults to 0.
    """
    n = _check_index(n, 0, ctx.level, "level")
    _check_element(ctx, x)
    if center is None:
        center = ctx.zero()
    else:
        _check_element(ctx, center)
    return x.digits[:n] == center.digits[:n]


def cell_id(ctx: GroupContext, x: GroupElement) -> int:
    """Canonical id of the level-N cell of x."""
    return index_compose(ctx, x.digits)


def cell_enumerate(ctx: GroupContext) -> list[GroupElement]:
    """All M_N level-N cells in canonical id order."""
    return [GroupElement(index_expand(ctx, i).digits) for i in range(ctx.size)]


@lru_cache(maxsize=32)
def digit_table(ctx: GroupContext) -> np.ndarray:
    """(N, M_N) array whose column j holds the digits of cell id j."""
    ids = np.arange(ctx.size)
    table = np.empty((ctx.level, ctx.size), dtype=np.int64)
    for t, (mk, Mk) in enumerate(zip(ctx.m, ctx.M)):
        table[t] = (ids // Mk) % mk
    table.flags.writeable = False
    return table


def _checked_ids(ctx: GroupContext, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= ctx.size):
        raise ResolutionExceededError(f"cell ids must lie in 0..{ctx.size - 1}")
    return ids


def translate_ids(ctx: GroupContext, shift: GroupElement | int | np.ndarray) -> np.ndarray:
    """Permutation of cell ids induced by adding ``shift`` to every cell.

    ``shift`` is an element, a cell id or an array of cell ids; an array
    gives one permutation row per shift.
    """
    table = digit_table(ctx)
    if isinstance(shift, GroupElement):
        _check_element(ctx, shift)
        sdig = np.array(shift.digits, dtype=np.int64)
    elif np.ndim(shift) == 0:
        sdig = np.array(index_expand(ctx, shift).digits, dtype=np.int64)
    else:
        sdig = table[:, _checked_ids(ctx, shift)]
    perms = np.zeros(sdig.shape[1:] + (ctx.size,), dtype=np.int64)
    for digits, s, mk, Mk in zip(table, sdig, ctx.m, ctx.M):
        perms += (s[..., None] + digits) % mk * Mk
    return perms
