"""H-vectors and the growth, symmetry and differentiability predicates on them."""

from __future__ import annotations

from enum import Enum
from operator import sub
from typing import Iterator, NamedTuple, Sequence

from .binomials import macaulay_bound


def strip_trailing_zeros(seq: Sequence[int]) -> tuple[int, ...]:
    entries = tuple(seq)
    end = len(entries)
    while end > 0 and entries[end - 1] == 0:
        end -= 1
    return entries[:end]


class HVector:
    """Graded dimension vector (h_0, ..., h_e) with h_0 = 1 and h_e > 0.

    Every entry must be an int (bool is not accepted); an int subclass such
    as an IntEnum member is kept as the plain int.  Trailing zeros are
    stripped on construction so the socle degree e is well defined;
    internal zeros are rejected because no later degree can be positive
    once one vanishes.  Immutable, and equal only to another HVector with
    the same entries, never to a plain tuple.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[int]) -> None:
        entries = tuple(entries)
        # exact positive ints starting with 1 are already normal; anything else is checked in full
        if not (set(map(type, entries)) == _INT_ONLY and entries[0] == 1 and min(entries) > 0):
            for degree, value in enumerate(entries):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"entry {value!r} at degree {degree} is not an integer")
            entries = strip_trailing_zeros(map(int, entries))  # an int subclass becomes an int
            if not entries:
                raise ValueError("h-vector has no positive entry")
            if entries[0] != 1:
                raise ValueError(f"h-vector must start with 1, got {entries[0]}")
            for degree, value in enumerate(entries):
                if value < 0:
                    raise ValueError(f"negative entry {value} at degree {degree}")
                if value == 0:
                    raise ValueError(f"internal zero at degree {degree}")
        _set_entries(self, entries)  # the slot's own setter, past the refusing __setattr__

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"HVector is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # pickle and deepcopy rebuild through __init__, since __setattr__ refuses
        return HVector, (self.entries,)

    def __eq__(self, other) -> bool:
        if other.__class__ is not HVector:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"HVector(entries={self.entries!r})"

    @property
    def socle_degree(self) -> int:
        return len(self.entries) - 1

    @property
    def codimension(self) -> int:
        return self.entries[1] if len(self.entries) > 1 else 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def __str__(self) -> str:
        return ",".join(map(str, self.entries))


_INT_ONLY = {int}
_set_entries = HVector.entries.__set__


def _normal_hvector(entries: tuple[int, ...]) -> HVector:
    """The HVector of entries already in its normal form: plain ints >= 1, the first 1.

    It skips __init__'s checks, so a caller vouches for the entries.  The
    enumeration streams do, as they walk only boxes EnumerationSpec checked;
    so does cli._parse_hvector, which calls it only on text that fully
    matches `1(?:,[1-9][0-9]*)*`, whose int() entries are plain ints >= 1,
    start at 1 and have no zero tail.
    """
    h = object.__new__(HVector)
    _set_entries(h, entries)
    return h


def o_sequence_violation(seq: Sequence[int]) -> int | None:
    """First step d where seq[d+1] exceeds the Macaulay bound of seq[d].

    A step into or within a zero tail never breaks the bound, as that
    needs seq[d+1] > bound >= 0, so the tail is not stripped; an internal
    zero followed by a positive entry violates the bound at the zero's
    degree.  Returns None when every step is legal.
    """
    entries = tuple(seq)
    if not entries or entries[0] != 1:
        raise ValueError("growth check needs a sequence starting with 1")
    if min(entries) < 0:
        raise ValueError("growth check needs non-negative entries")
    return _growth_violation(entries)


def _growth_violation(entries: Sequence[int]) -> int | None:
    """o_sequence_violation of non-negative entries starting with 1, a zero tail left unstripped."""
    for d in range(1, len(entries) - 1):
        if entries[d + 1] > macaulay_bound(entries[d], d):
            return d
    return None


def is_o_sequence(seq: Sequence[int]) -> bool:
    return o_sequence_violation(seq) is None


def first_difference(seq: Sequence[int]) -> tuple[int, ...]:
    """(1, v_1 - v_0, v_2 - v_1, ...); entries may be negative."""
    entries = tuple(seq)
    if not entries or entries[0] != 1:
        raise ValueError("first difference needs a sequence starting with 1")
    return (1,) + tuple(map(sub, entries[1:], entries))


def differentiability_violation(seq: Sequence[int]) -> int | None:
    """Degree at which the first difference stops being a legal growth sequence."""
    entries = tuple(seq)
    if not entries or entries[0] != 1:
        raise ValueError("first difference needs a sequence starting with 1")
    steps = [1]
    for degree in range(1, len(entries)):
        step = entries[degree] - entries[degree - 1]
        if step < 0:
            return degree
        steps.append(step)
    return _growth_violation(steps)


def is_differentiable(seq: Sequence[int]) -> bool:
    return differentiability_violation(seq) is None


def symmetry_violation(seq: Sequence[int]) -> int | None:
    entries = tuple(seq)
    e = len(entries) - 1
    for i in range(e // 2 + 1):
        if entries[i] != entries[e - i]:
            return i
    return None


def is_symmetric(seq: Sequence[int]) -> bool:
    return symmetry_violation(seq) is None


def unimodality_violation(seq: Sequence[int]) -> int | None:
    """Degree of the first strict ascent that follows a strict descent."""
    entries = tuple(seq)
    descended = False
    for i in range(len(entries) - 1):
        if entries[i + 1] < entries[i]:
            descended = True
        elif entries[i + 1] > entries[i] and descended:
            return i + 1
    return None


def is_unimodal(seq: Sequence[int]) -> bool:
    return unimodality_violation(seq) is None


def first_half(seq: Sequence[int]) -> tuple[int, ...]:
    """(h_0, ..., h_floor(e/2))."""
    entries = tuple(seq)
    e = len(entries) - 1
    return entries[: e // 2 + 1]


def mirror(prefix: tuple[int, ...], socle_degree: int) -> tuple[int, ...]:
    """The symmetric vector of the given socle degree whose first half is the prefix."""
    if socle_degree % 2:
        return prefix + prefix[::-1]
    return prefix + prefix[-2::-1]


class Verdict(Enum):
    GORENSTEIN = "Gorenstein"
    NOT_GORENSTEIN = "NotGorenstein"
    UNDECIDED = "Undecided"


class ReasonKind(Enum):
    NOT_SYMMETRIC = "not_symmetric"
    NOT_O_SEQUENCE = "not_o_sequence"
    FIRST_HALF_NOT_DIFFERENTIABLE = "first_half_not_differentiable"
    SI_WITNESS = "si_witness"
    OUT_OF_SCOPE_CODIMENSION = "out_of_scope_codimension"


class Reason(NamedTuple):
    kind: ReasonKind
    degree: int | None = None

    def __str__(self) -> str:
        if self.degree is None:
            return self.kind._value_
        return f"{self.kind._value_}(degree {self.degree})"


class ClassificationReport(NamedTuple):
    verdict: Verdict
    codimension: int
    reasons: tuple[Reason, ...]


_new = tuple.__new__  # builds a Reason or report at C level, past the NamedTuple's Python __new__
_SI_WITNESS = (Reason(ReasonKind.SI_WITNESS),)
_OUT_OF_SCOPE = (Reason(ReasonKind.OUT_OF_SCOPE_CODIMENSION),)


def si_violations(seq: Sequence[int]) -> tuple[Reason, ...]:
    """Reasons an h-vector fails to be an SI-sequence; empty means it is one."""
    reasons: tuple[Reason, ...] = ()
    sym = symmetry_violation(seq)
    if sym is not None:
        reasons = (_new(Reason, (ReasonKind.NOT_SYMMETRIC, sym)),)
    diff = differentiability_violation(first_half(seq))
    if diff is not None:
        reasons += (_new(Reason, (ReasonKind.FIRST_HALF_NOT_DIFFERENTIABLE, diff)),)
    return reasons


def is_si_sequence(seq: Sequence[int]) -> bool:
    """An SI-sequence is one with no si_violations."""
    return not si_violations(seq)


class SequenceFilter(Enum):
    """Which h-vectors an enumeration keeps; the values are `hvec enumerate --filter` choices."""

    ALL_O_SEQUENCES = "o-sequence"
    SYMMETRIC = "symmetric"
    SI = "si"
    SYMMETRIC_NOT_SI = "symmetric-not-si"


def classify_gorenstein(h: HVector) -> ClassificationReport:
    """Three-way Gorenstein verdict with machine-checkable reasons.

    An SI-sequence is a Gorenstein h-vector in every codimension.  In
    codimension <= 3 the converse holds, so any SI failure certifies
    NotGorenstein there.  In higher codimension only symmetry and Macaulay
    growth remain necessary conditions; a symmetric growth-legal non-SI
    vector is genuinely out of this toolkit's reach and stays Undecided.
    """
    codim = h.codimension
    violations = si_violations(h.entries)
    if not violations:
        return _new(ClassificationReport, (Verdict.GORENSTEIN, codim, _SI_WITNESS))
    if codim <= 3:
        return _new(ClassificationReport, (Verdict.NOT_GORENSTEIN, codim, violations))
    if violations[0].kind is ReasonKind.NOT_SYMMETRIC:  # si_violations lists symmetry first
        return _new(ClassificationReport, (Verdict.NOT_GORENSTEIN, codim, violations[:1]))
    growth = o_sequence_violation(h.entries)
    if growth is not None:
        reasons = (_new(Reason, (ReasonKind.NOT_O_SEQUENCE, growth)),)
        return _new(ClassificationReport, (Verdict.NOT_GORENSTEIN, codim, reasons))
    return _new(ClassificationReport, (Verdict.UNDECIDED, codim, _OUT_OF_SCOPE))

