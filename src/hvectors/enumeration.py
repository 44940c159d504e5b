"""Deterministic generators for h-vector families with a fixed socle degree."""

from __future__ import annotations

from itertools import filterfalse, product, repeat
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
    """One finite enumeration box: exact socle degree, codimension, entry cap.

    Its three numbers must be ints, not bools, and are kept as plain ints;
    its filter must be a SequenceFilter.  The streams and counts trust it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> EnumerationSpec:
        box = _Box(*args, **kwargs)
        for name, value in zip(("socle degree", "codimension", "entry cap"), box):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        self = super().__new__(cls, *map(int, box[:3]), box.filter)
        if self.socle_degree < 0:
            raise ValueError(f"socle degree must be >= 0, got {self.socle_degree}")
        if self.codimension < 1:
            raise ValueError(f"codimension must be >= 1, got {self.codimension}")
        if self.entry_cap < self.codimension:
            raise ValueError(
                f"entry cap {self.entry_cap} is below codimension {self.codimension}"
            )
        if not isinstance(self.filter, SequenceFilter):
            raise ValueError(f"unknown filter {self.filter!r}")
        return self


def _next_values(value: int, difference: int, d: int, cap: int, cumulative: bool) -> range:
    """The h_d that may follow h_{d-1} = value, where h_{d-1} - h_{d-2} = difference.

    When cumulative the growth entry is the first difference h_d - h_{d-1},
    which may be 0 and runs up to macaulay_bound(difference, d-1); otherwise
    it is h_d itself, which starts at 1, as no internal zero is allowed, and
    runs up to macaulay_bound(value, d-1).  h_d stays within cap.
    """
    if cumulative:
        low, high = value, value + macaulay_bound(difference, d - 1)
    else:
        low, high = 1, macaulay_bound(value, d - 1)
    return range(low, min(high, cap) + 1)


def _grow(r: int, length: int, cap: int, cumulative: bool) -> Iterator[tuple[int, ...]]:
    """Sequences (1, r, h_2, ..., h_n), n = length - 1 >= 1, grown degree by degree in lex order.

    Each degree d >= 2 takes the values _next_values allows after h_{d-1}.
    One mutable path and a stack of the values left at each open degree
    stand in for recursion, so the walk has no depth limit.
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
            stack.append(iter(_next_values(value, value - path[-2], d, cap, cumulative)))
            path.append(0)
            break
        else:
            stack.pop()
            path.pop()


def enumerate_hvectors(spec: EnumerationSpec) -> Iterator[HVector]:
    """Every h-vector in the box passing the filter, in lexicographic order.

    O-sequences grow on values.  Every symmetric family is the mirror image
    of its first halves (1, r, h_2, ..., h_{e//2}): SI halves grow on first
    differences, and the symmetric filter takes every half with entries in
    1..cap.  A symmetric vector is SI exactly when its first half is
    differentiable, so the non-SI family is every half that fails the SI test.
    A _replace'd spec or a plain tuple skips EnumerationSpec's checks, so
    they run here; every vector is then built unchecked.
    """
    e, r, cap, family = EnumerationSpec(*spec)
    if e == 0 or e == 1 and family is not SequenceFilter.ALL_O_SEQUENCES:
        # the one symmetric vector of socle degree 1, (1, 1), is SI
        if e == 1 and r == 1 and family is not SequenceFilter.SYMMETRIC_NOT_SI:
            yield HVector((1, 1))
        return
    if family is SequenceFilter.ALL_O_SEQUENCES:
        yield from map(_normal_hvector, _grow(r, e + 1, cap, False))
        return
    length = e // 2 + 1
    if family is SequenceFilter.SI:
        halves = _grow(r, length, cap, True)
    else:
        halves = map((1, r).__add__, product(range(1, cap + 1), repeat=length - 2))
        if family is SequenceFilter.SYMMETRIC_NOT_SI:
            halves = filterfalse(is_differentiable, halves)
    yield from map(_normal_hvector, map(mirror, halves, repeat(e)))


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
            for h in _next_values(value, step, d, cap, cumulative):
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
    less the SI ones.  The box of the maximum degree is built as an
    EnumerationSpec, so a bad box raises the error its streams would.
    """
    spec = EnumerationSpec(max_socle_degree, codimension, entry_cap, filter)
    top, r, cap, _ = spec
    counts = {
        e: sum(1 for _ in enumerate_hvectors(spec._replace(socle_degree=e)))
        for e in range(min(top, 1) + 1)
    }
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
