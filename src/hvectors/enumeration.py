"""Deterministic generators for h-vector families with a fixed socle degree."""

from __future__ import annotations

from itertools import dropwhile, filterfalse, product, repeat
from typing import Iterator, NamedTuple

from .binomials import macaulay_bound
from .sequences import HVector, SequenceFilter, _normal_hvector, is_differentiable, mirror


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


def _halves(r: int, length: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every first half (1, r, h_2, ..., h_{length-1}) with entries in 1..cap, in lex order."""
    return map((1, r).__add__, product(range(1, cap + 1), repeat=length - 2))


def _not_si_halves(r: int, length: int, cap: int) -> Iterator[tuple[int, ...]]:
    """The first halves that are not differentiable, in lex order.

    The SI walk yields exactly the differentiable halves, and it and the
    product of halves both ascend in lex order, so past the first kept
    half each half costs one comparison with the next SI half.  The first
    kept half comes from the definition, before the walk starts: a
    codimension that HVector refuses then fails there, on the stream's
    first vector, as it does without the walk.
    """
    halves = _halves(r, length, cap)
    first = next(filterfalse(is_differentiable, halves), None)
    if first is None:
        return
    yield first
    for skip in dropwhile(first.__gt__, _grow(r, length, cap, True)):
        for half in halves:
            if half == skip:
                break
            yield half
    yield from halves


def _vectors(entries: Iterator[tuple[int, ...]]) -> Iterator[HVector]:
    """The HVectors of a stream's entries, one HVector check per box.

    The first vector passes HVector's checks, so a bad codimension raises
    there.  Every later one shares its (1, r) prefix and holds only ints
    >= 1 that the walk made, so it is built unchecked.
    """
    for first in entries:  # one pass: the map below drains the entries
        yield HVector(first)
        yield from map(_normal_hvector, entries)


def enumerate_hvectors(spec: EnumerationSpec) -> Iterator[HVector]:
    """Every h-vector in the box passing the filter, in lexicographic order.

    O-sequences grow on values.  Every symmetric family is the mirror image
    of its first halves (1, r, h_2, ..., h_{e//2}): SI halves grow on first
    differences, and the symmetric filter takes every half with entries in
    1..cap.  A symmetric vector is SI exactly when its first half is
    differentiable, so the non-SI family is every half minus the SI walk.
    """
    e, r, cap, family = spec
    if not isinstance(family, SequenceFilter):
        raise ValueError(f"unknown filter {family!r}")
    if e == 0 or e == 1 and family is not SequenceFilter.ALL_O_SEQUENCES:
        # the one symmetric vector of socle degree 1, (1, 1), is SI
        if e == 1 and r == 1 and family is not SequenceFilter.SYMMETRIC_NOT_SI:
            yield HVector((1, 1))
        return
    if isinstance(r, int) and not isinstance(r, bool):
        r = int(r)  # an IntEnum member walks as the plain int HVector keeps
    if family is SequenceFilter.ALL_O_SEQUENCES:
        yield from _vectors(_grow(r, e + 1, cap, False))
        return
    length = e // 2 + 1
    if family is SequenceFilter.SI:
        halves = _grow(r, length, cap, True)
    elif family is SequenceFilter.SYMMETRIC:
        halves = _halves(r, length, cap)
    else:
        halves = _not_si_halves(r, length, cap)
    yield from _vectors(map(mirror, halves, repeat(e)))


def _walk_counts(r: int, length: int, cap: int, cumulative: bool) -> list[int]:
    """How many sequences _grow(r, n, cap, cumulative) yields, for n = 2..length.

    It takes _grow's steps on the number of paths into each state rather
    than on each path.  A step reads the last value and, when cumulative,
    the last first difference, so those make the state.
    """
    # (h_1, h_1 - h_0); when not cumulative the difference is unread, and 0 from degree 2 on
    paths = {(r, r - 1): 1}
    counts = [1]
    for d in range(2, length):
        grown: dict[tuple[int, int], int] = {}
        for (value, step), ways in paths.items():
            if cumulative:
                low, high = value, value + macaulay_bound(step, d - 1)
            else:
                low, high = 1, macaulay_bound(value, d - 1)
            for h in range(low, min(high, cap) + 1):
                state = (h, h - value if cumulative else 0)
                grown[state] = grown.get(state, 0) + ways
        paths = grown
        counts.append(sum(paths.values()))
    return counts


def count_by_degree(
    codimension: int,
    max_socle_degree: int,
    entry_cap: int,
    filter: SequenceFilter,
) -> dict[int, int]:
    """Stream length of each per-degree enumeration up to the maximum degree.

    Degrees 0 and 1 count their streams.  Every larger degree counts its
    box: cap^(e//2 - 1) symmetric vectors, the SI and O-sequence walks
    counted by _walk_counts, and the non-SI vectors as the symmetric ones
    less the SI ones.  From degree 2 on the streams still draw their first
    vectors, degree by degree, until one yields, so a bad box raises as
    its stream does.  Once a vector has passed HVector the codimension is
    an int, and a stream can then fail only on a cap that range() refuses,
    on which _walk_counts, taking the same steps, fails alike.
    """
    if max_socle_degree < 0:
        raise ValueError(f"socle degree must be >= 0, got {max_socle_degree}")
    counts = {}
    drawn = False
    for e in range(max_socle_degree + 1):
        stream = enumerate_hvectors(EnumerationSpec(e, codimension, entry_cap, filter))
        if e < 2:
            counts[e] = sum(1 for _ in stream)
        elif not drawn:
            drawn = next(stream, None) is not None
    r, cap, top = codimension, entry_cap, max_socle_degree
    if filter is SequenceFilter.ALL_O_SEQUENCES:
        walks = _walk_counts(r, top + 1, cap, False)
        counts.update((e, walks[e - 1]) for e in range(2, top + 1))
        return counts
    si = _walk_counts(r, top // 2 + 1, cap, True)
    for e in range(2, top + 1):
        symmetric, si_count = cap ** (e // 2 - 1), si[e // 2 - 1]
        if filter is SequenceFilter.SYMMETRIC:
            counts[e] = symmetric
        elif filter is SequenceFilter.SI:
            counts[e] = si_count
        else:
            counts[e] = symmetric - si_count
    return counts
