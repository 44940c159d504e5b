"""Deterministic generators for h-vector families with a fixed socle degree."""

from __future__ import annotations

from itertools import filterfalse, product
from typing import Iterator, NamedTuple

from .binomials import macaulay_bound
from .sequences import HVector, SequenceFilter, is_differentiable, mirror


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


def _grow(r: int, length: int, cap: int, cumulative: bool) -> Iterator[tuple[int, ...]]:
    """Sequences (1, r, h_2, ..., h_n), n = length - 1 >= 1, grown degree by degree in lex order.

    Each degree d >= 2 adds a growth entry g_d, which is h_d - h_{d-1} when
    cumulative and h_d itself otherwise; g_d runs up to
    macaulay_bound(g_{d-1}, d-1), and h_d stays within cap.  A first
    difference may be 0, so a cumulative h_d starts at h_{d-1}; a value h_d
    starts at 1, as no internal zero is allowed.  One mutable path and a
    stack of the values left at each open degree stand in for recursion,
    so the walk has no depth limit.
    """
    path = [1, 0]
    stack = [iter((r,))]
    while stack:
        for value in stack[-1]:
            path[-1] = value
            d = len(path)
            if d == length:
                yield tuple(path)
                continue
            if cumulative:
                low, high = value, value + macaulay_bound(value - path[-2], d - 1)
            else:
                low, high = 1, macaulay_bound(value, d - 1)
            path.append(0)
            stack.append(iter(range(low, min(high, cap) + 1)))
            break
        else:
            stack.pop()
            path.pop()


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
        yield from map(HVector, _grow(r, e + 1, cap, False))
        return
    length = e // 2 + 1
    if family is SequenceFilter.SI:
        halves = _grow(r, length, cap, True)
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
