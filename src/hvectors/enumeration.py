"""Deterministic generators for h-vector families with a fixed socle degree."""

from __future__ import annotations

from enum import Enum
from itertools import filterfalse, product
from typing import Callable, Iterator, NamedTuple, Sequence

from .binomials import macaulay_bound
from .sequences import HVector, is_differentiable


class SequenceFilter(Enum):
    ALL_O_SEQUENCES = "o-sequence"
    SYMMETRIC = "symmetric"
    SI = "si"
    SYMMETRIC_NOT_SI = "symmetric-not-si"


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


def differentiable_prefixes(
    codimensions: range,
    caps: Sequence[int],
    keep: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Prefixes (1, r, h_2, ...) of length len(caps) whose first difference obeys growth.

    r runs over the given codimensions and every h_k stays within caps[k].
    Extensions are driven by the bound on the difference sequence, so
    everything constructed is differentiable.  `keep` runs on each prefix
    (1, r, ...) before the walk descends into it, in walk order, and a prefix
    it rejects is dropped together with all of its extensions.  Yields in ascending
    entry order, which is lexicographic order of the output.
    """
    if len(caps) == 1:
        yield (1,)
        return
    for codimension in codimensions:
        if codimension > caps[1]:
            return
        root = (1, codimension)
        if keep is None or keep(root):
            yield from _extend(root, codimension - 1, caps, keep) if len(caps) > 2 else (root,)


# Module functions, not closures: a closure that calls itself holds its own cell, and
# that cycle would keep everything the walk references alive until a garbage collection.
def _extend(
    values: tuple[int, ...], delta: int, caps: Sequence[int], keep: Callable[..., bool] | None
) -> Iterator[tuple[int, ...]]:
    """The kept extensions of a kept prefix shorter than caps; a child is tested before its walk."""
    d = len(values)
    last = values[-1]
    full = d + 1 == len(caps)
    for step in range(min(macaulay_bound(delta, d - 1), caps[d] - last) + 1):
        child = values + (last + step,)
        if keep is None or keep(child):
            if full:
                yield child
            else:
                yield from _extend(child, step, caps, keep)


def _free_prefixes(codimension: int, length: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Prefixes (1, r, h_2, ...) with arbitrary positive entries up to the cap."""
    for tail in product(range(1, cap + 1), repeat=length - 2):
        yield (1, codimension) + tail


def mirror(prefix: tuple[int, ...], socle_degree: int) -> tuple[int, ...]:
    """The symmetric vector of the given socle degree whose first half is the prefix."""
    if socle_degree % 2:
        return prefix + prefix[::-1]
    return prefix + prefix[-2::-1]


def _symmetric_stream(spec: EnumerationSpec, prefixes) -> Iterator[HVector]:
    e = spec.socle_degree
    if e == 0:
        return
    if e == 1:
        if spec.codimension == 1:
            yield HVector((1, 1))
        return
    for prefix in prefixes(spec.codimension, e // 2 + 1, spec.entry_cap):
        yield HVector(mirror(prefix, e))


def _non_si_prefixes(codimension: int, length: int, cap: int) -> Iterator[tuple[int, ...]]:
    # a symmetric vector is SI exactly when its first half, the prefix, is differentiable
    return filterfalse(is_differentiable, _free_prefixes(codimension, length, cap))


def _si_prefixes(codimension: int, length: int, cap: int) -> Iterator[tuple[int, ...]]:
    return differentiable_prefixes(range(codimension, codimension + 1), (cap,) * length)


def _o_sequence_stream(spec: EnumerationSpec) -> Iterator[HVector]:
    if spec.socle_degree == 0:
        return
    for values in _o_sequences((1, spec.codimension), spec.socle_degree, spec.entry_cap):
        yield HVector(values)


def _o_sequences(values: tuple[int, ...], socle_degree: int, cap: int) -> Iterator[tuple[int, ...]]:
    d = len(values) - 1
    if d == socle_degree:
        yield values
        return
    limit = min(macaulay_bound(values[-1], d), cap)
    for value in range(1, limit + 1):
        yield from _o_sequences(values + (value,), socle_degree, cap)


def enumerate_hvectors(spec: EnumerationSpec) -> Iterator[HVector]:
    """Every h-vector in the box passing the filter, in lexicographic order."""
    if spec.filter is SequenceFilter.ALL_O_SEQUENCES:
        yield from _o_sequence_stream(spec)
    elif spec.filter is SequenceFilter.SYMMETRIC:
        yield from _symmetric_stream(spec, _free_prefixes)
    elif spec.filter is SequenceFilter.SI:
        yield from _symmetric_stream(spec, _si_prefixes)
    elif spec.filter is SequenceFilter.SYMMETRIC_NOT_SI:
        if spec.socle_degree > 1:  # below that the only symmetric vector, (1, 1), is SI
            yield from _symmetric_stream(spec, _non_si_prefixes)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown filter {spec.filter}")


def count_by_degree(
    codimension: int,
    max_socle_degree: int,
    entry_cap: int,
    filter: SequenceFilter,
) -> dict[int, int]:
    """Stream length of each per-degree enumeration up to the maximum degree."""
    if max_socle_degree < 0:
        raise ValueError(f"socle degree must be >= 0, got {max_socle_degree}")
    counts = {}
    for e in range(max_socle_degree + 1):
        spec = EnumerationSpec(
            socle_degree=e,
            codimension=codimension,
            entry_cap=entry_cap,
            filter=filter,
        )
        counts[e] = sum(1 for _ in enumerate_hvectors(spec))
    return counts
