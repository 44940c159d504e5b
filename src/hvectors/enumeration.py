"""Deterministic generators for h-vector families with a fixed socle degree."""

from __future__ import annotations

from itertools import filterfalse, product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .binomials import macaulay_bound
from .sequences import HVector, SequenceFilter, is_differentiable


# EnumerationSpec's fields; its checks need a __new__, which a NamedTuple body may not define
class _Box(NamedTuple):
    socle_degree: int
    codimension: int
    entry_cap: int = 25
    filter: SequenceFilter = SequenceFilter.SI


class EnumerationSpec(_Box):
    """One finite enumeration box: exact socle degree, codimension, entry cap."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> EnumerationSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.socle_degree < 0:
            raise ValueError(f"socle degree must be >= 0, got {self.socle_degree}")
        if self.codimension < 1:
            raise ValueError(f"codimension must be >= 1, got {self.codimension}")
        if self.entry_cap < self.codimension:
            raise ValueError(
                f"entry cap {self.entry_cap} is below codimension {self.codimension}"
            )
        return self


def _grow(
    first: Iterable[int],
    caps: Sequence[int],
    cumulative: bool,
    residual: tuple[Sequence[int], int, int] | None = None,
    on_dead: Callable[[tuple[int, ...], int], None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Sequences (1, h_1, ..., h_n), n = len(caps) - 1 >= 1, grown degree by degree in lex order.

    h_1 runs over `first`.  Each later degree d adds a growth entry g_d,
    which is h_d - h_{d-1} when cumulative and h_d itself otherwise; g_d
    runs up to macaulay_bound(g_{d-1}, d-1), and h_d stays within caps[d].
    A first difference may be 0, so a cumulative h_d starts at h_{d-1}; a
    value h_d starts at 1, as no internal zero is allowed.  One mutable
    path and a stack of the values left at each open degree stand in for
    recursion, so the walk has no depth limit.

    With `residual` = (h, pivot, socle), a child (1, a_1, ..., a_{k-1}) is
    the first half of a subtrahend a = (a_0, ..., a_socle), a_j = a_{socle-j},
    and fixes the residual h - a (a shifted to the pivot) at degrees
    pivot..pivot+k-1 and their mirror images.  A child must keep the front
    step, ending at degree f = pivot+k-1, and then the mirror step, ending
    at pivot+socle-k+2, within growth; one that breaks either goes to
    `on_dead(child, that degree)`, if any, and is dropped with its
    extensions.  The front step's bound depends only on the parent, so it
    is looked up once, as a level opens: a child breaks the step exactly
    when a_{k-1} < h_f - macaulay_bound(h_{f-1} - a_{k-2}, f-1), the
    level's floor.  The children below the floor, which come first in lex
    order, go to `on_dead` at once, and the level's range starts at the
    floor.  `first` must then be a range.  For an odd socle 2m+1, a full
    half must also keep the middle step, ending at pivot+m+1, whose two
    degrees both lose a_m = a_{m+1}: the front step into a child equal to
    a_m.  A half that breaks it goes to `on_dead` as its whole subtrahend,
    mirror(half, socle).  So every residual step ending past the pivot
    holds for each half yielded.
    """
    values, pivot, socle = residual or ((), 0, 0)
    path = [1, 0]
    if residual is not None:  # the first level's floor, as each later level's below
        low, high = first.start, first.stop
        f = pivot + 1
        floor = values[f] - macaulay_bound(values[f - 1] - 1, f - 1)
        if floor > low:
            if on_dead:
                for path[-1] in range(low, min(floor, high)):
                    on_dead(tuple(path), f)
            first = range(floor, high)
    stack = [iter(first)]
    while stack:
        for value in stack[-1]:
            path[-1] = value
            d = len(path)
            if residual is not None:
                # mirror step: residual degrees f-1, f lose value, path[-2]
                f = pivot + socle - d + 2
                if values[f] - path[-2] > macaulay_bound(values[f - 1] - value, f - 1):
                    if on_dead:
                        on_dead(tuple(path), f)
                        continue
                    del stack[-1], path[-1]  # no later sibling passes: its bound never rises
                    break
            if d == len(caps):
                if socle % 2:
                    # middle step of an odd socle: the front step into a child equal to value
                    f = pivot + d
                    if values[f] - value > macaulay_bound(values[f - 1] - value, f - 1):
                        if on_dead:
                            on_dead(mirror(tuple(path), socle), f)
                        continue
                yield tuple(path)
                continue
            if cumulative:
                low, high = value, value + macaulay_bound(value - path[-2], d - 1)
            else:
                low, high = 1, macaulay_bound(value, d - 1)
            high = min(high, caps[d]) + 1
            path.append(0)
            if residual is not None:
                # front step: residual degrees f-1, f lose value and the child
                f = pivot + d
                floor = values[f] - macaulay_bound(values[f - 1] - value, f - 1)
                if floor > low:
                    if on_dead:
                        for path[-1] in range(low, min(floor, high)):
                            on_dead(tuple(path), f)
                    low = floor
            stack.append(iter(range(low, high)))
            break
        else:
            stack.pop()
            path.pop()


def mirror(prefix: tuple[int, ...], socle_degree: int) -> tuple[int, ...]:
    """The symmetric vector of the given socle degree whose first half is the prefix."""
    if socle_degree % 2:
        return prefix + prefix[::-1]
    return prefix + prefix[-2::-1]


def enumerate_hvectors(spec: EnumerationSpec) -> Iterator[HVector]:
    """Every h-vector in the box passing the filter, in lexicographic order.

    O-sequences grow on values.  Every symmetric family is the mirror image
    of its first halves (1, r, h_2, ..., h_{e//2}): SI halves grow on first
    differences, and the other two take every half with entries in 1..cap;
    a symmetric vector is SI exactly when its first half is differentiable,
    so the non-SI family keeps the halves that are not.
    """
    e, r, cap, family = spec
    if not isinstance(family, SequenceFilter):
        raise ValueError(f"unknown filter {family!r}")
    if e == 0 or e == 1 and family is not SequenceFilter.ALL_O_SEQUENCES:
        # the one symmetric vector of socle degree 1, (1, 1), is SI
        if e == 1 and r == 1 and family is not SequenceFilter.SYMMETRIC_NOT_SI:
            yield HVector((1, 1))
        return
    if family is SequenceFilter.ALL_O_SEQUENCES:
        yield from map(HVector, _grow((r,), (cap,) * (e + 1), False))
        return
    length = e // 2 + 1
    if family is SequenceFilter.SI:
        halves = _grow((r,), (cap,) * length, True)
    else:
        halves = ((1, r) + tail for tail in product(range(1, cap + 1), repeat=length - 2))
        if family is SequenceFilter.SYMMETRIC_NOT_SI:
            halves = filterfalse(is_differentiable, halves)
    for half in halves:
        yield HVector(mirror(half, e))


def count_by_degree(
    codimension: int,
    max_socle_degree: int,
    entry_cap: int,
    filter: SequenceFilter,
) -> dict[int, int]:
    """Stream length of each per-degree enumeration up to the maximum degree."""
    if max_socle_degree < 0:
        raise ValueError(f"socle degree must be >= 0, got {max_socle_degree}")
    return {
        e: sum(1 for _ in enumerate_hvectors(EnumerationSpec(e, codimension, entry_cap, filter)))
        for e in range(max_socle_degree + 1)
    }
