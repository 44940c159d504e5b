"""Pivot decompositions of Gorenstein h-vectors and their growth-trace verification.

A pivot decomposition subtracts a shifted Gorenstein h-vector (itself an
SI-sequence here, which is equivalent in codimension <= 3) from degrees
j, ..., e so that the remainder is again a legal growth sequence.  For
codimension-3 symmetric vectors, existence of such a decomposition with
pivot 1 forces unimodality and the concavity inequalities verified below;
exhaustive absence of one certifies that a symmetric non-SI vector cannot
be Gorenstein.  Both searches hand h to the one growth walker, which
builds the subtrahend's first half in lex order and itself tests the
residual step at either end that each half fixes, dropping a half as soon
as one breaks.  That leaves one residual step to test per candidate, the
middle one of an odd subtrahend socle (_middle_step_violation).  Decompose
returns the lex-first subtrahend whose residual obeys growth; refute
certifies that none does by listing every dropped first half with the
degree of its broken step, and every full candidate whose middle step
breaks.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from operator import sub
from typing import Callable, Iterator, NamedTuple

from .binomials import macaulay_bound
from .enumeration import _grow, mirror
from .errors import (
    InfeasibleSearchError,
    PreconditionViolatedError,
    TraceViolationError,
    UnsupportedCodimensionError,
)
from .sequences import HVector, _growth_violation, is_differentiable


# Entries a refutation certificate may list before the search gives up.
REFUTE_CANDIDATE_BUDGET = 50_000


class PivotDecomposition(NamedTuple):
    """Pivot j, subtrahend (a_j = 1, ..., a_e), and the leftover vector.

    The residual keeps full length e + 1; trailing zeros are only stripped
    inside growth checks and rendering.
    """

    pivot: int
    subtrahend: tuple[int, ...]
    residual: tuple[int, ...]


class TraceCase(Enum):
    SUBTRAHEND_GENERIC = "subtrahend_generic"
    RESIDUAL_STEP_GENERIC = "residual_step_generic"
    RESIDUAL_STEP_SMALL = "residual_step_small"


# the members as plain names, since each TraceCase.X lookup is a descriptor call on Python 3.11
_SUBTRAHEND_GENERIC, _RESIDUAL_STEP_GENERIC, _RESIDUAL_STEP_SMALL = TraceCase


class InequalityCheck(NamedTuple):
    label: str
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


class DegreeTrace(NamedTuple):
    degree: int
    case: TraceCase
    inequalities: tuple[InequalityCheck, ...]


class RefutedCandidate(NamedTuple):
    subtrahend: tuple[int, ...]
    violation_degree: int


class RefutationReport(NamedTuple):
    h: HVector
    refuted: tuple[RefutedCandidate, ...]
    survivors: tuple[tuple[int, ...], ...]

    @property
    def candidate_count(self) -> int:
        return len(self.refuted) + len(self.survivors)


def _subtrahends(
    h: HVector,
    pivot: int,
    on_dead: Callable[[tuple[int, ...], int], None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """SI-sequences (1, a_1, ..., a_{e-pivot}) fitting under h, minus those of dead first halves.

    These are the candidate subtrahends after re-indexing: an SI-sequence
    of small codimension is a Gorenstein h-vector.  The codimension a_1 is
    bounded by the caps alone; for a symmetric codimension-3 h at pivot 1
    it is at most min(h_2, h_{e-1}) = min(h_2, 3), so the family is
    exhaustive in that regime.  A first half never decreases, so each
    a_k is capped by the smallest cap from k on; then every prefix the
    walk builds extends to a candidate.  Candidates come in ascending
    lexicographic order.  The walker tests the residual itself, and
    `on_dead(half, degree)`, when given, hears of each first half it drops,
    with the end degree of the residual step the half breaks.  So every
    residual step ending past the pivot holds for a candidate, except the
    middle step of an odd socle, which no half fixes alone
    (_middle_step_violation tests it); the steps ending at or before the
    pivot are the same for every candidate, and are the caller's.
    """
    values = h.entries
    socle = len(values) - 1 - pivot
    if socle <= 1:  # the only first half is (1,), with no step of its own
        return iter((mirror((1,), socle),))
    # a_k = a_{socle-k} must fit under both h[pivot+k] and h[pivot+socle-k]; k runs socle//2..0
    fronts, mirrors = values[pivot + socle // 2 : pivot - 1 : -1], values[-1 - socle // 2 :]
    caps = []
    cap = fronts[0]
    for front, back in zip(fronts, mirrors):  # a running minimum; min() calls cost more
        if front < cap:
            cap = front
        if back < cap:
            cap = back
        caps.append(cap)
    caps.reverse()
    halves = _grow(range(1, caps[1] + 1), caps, True, (values, pivot, socle), on_dead)
    return map(mirror, halves, repeat(socle))


def _residual(h: HVector, pivot: int, subtrahend: tuple[int, ...]) -> tuple[int, ...]:
    return h.entries[:pivot] + tuple(map(sub, h.entries[pivot:], subtrahend))


def _middle_step_violation(
    values: tuple[int, ...], pivot: int, subtrahend: tuple[int, ...]
) -> int | None:
    """End degree of the residual's middle step when it breaks growth, else None.

    For a candidate from _subtrahends, whose walk has tested every other
    step past the pivot, this is the end degree of the only one that can
    break.  The front steps end at pivot+1..pivot+socle//2 and the mirror
    steps at pivot+socle-socle//2+1..pivot+socle: for an even socle they
    meet, and for an odd socle 2m+1 the step ending at pivot+m+1 is left,
    with both its degrees losing a_m = a_{m+1}.
    """
    if len(subtrahend) % 2:  # an even socle
        return None
    middle = len(subtrahend) // 2  # m + 1
    end = pivot + middle
    a = subtrahend[middle]
    if values[end] - a > macaulay_bound(values[end - 1] - a, end - 1):
        return end
    return None


def find_pivot_decomposition(h: HVector, pivot: int = 1) -> PivotDecomposition | None:
    """Search for a decomposition at the given pivot; None when none exists.

    Candidates are not unique, so the lexicographically smallest valid
    subtrahend is returned as the canonical representative.  Refuses
    codimension >= 4, where the candidate family is not known to exhaust
    the Gorenstein h-vectors.
    """
    if h.codimension > 3:
        raise UnsupportedCodimensionError(
            f"decomposition search supports codimension <= 3, got {h.codimension}"
        )
    if h.socle_degree == 0:
        raise ValueError(f"no pivot exists at socle degree 0, got {pivot}")
    if not 1 <= pivot <= h.socle_degree:
        raise ValueError(f"pivot must lie in 1..{h.socle_degree}, got {pivot}")
    # every residual starts (h_0, ..., h_{pivot-1}, h_pivot - 1), since a_0 = 1; a
    # prefix that already breaks growth leaves no candidate to walk (empty at pivot 1)
    if pivot > 1 and _growth_violation(h.entries[:pivot] + (h.entries[pivot] - 1,)) is not None:
        return None
    # candidates arrive in ascending lexicographic order, so first valid wins
    values = h.entries
    for subtrahend in _subtrahends(h, pivot):
        if _middle_step_violation(values, pivot, subtrahend) is None:
            residual = _residual(h, pivot, subtrahend)
            return tuple.__new__(PivotDecomposition, (pivot, subtrahend, residual))
    return None


def refute_non_si(h: HVector) -> RefutationReport:
    """Certify that no pivot-1 subtrahend leaves a growth-legal residual.

    `refuted` lists, in walk order, each dead first half with the end
    degree of the step it breaks, standing for every candidate that starts
    with it, and each full candidate with the end degree of its residual's
    first illegal step, which is the middle one.
    A surviving candidate would contradict the codimension-3
    classification and is surfaced as a loud implementation-bug signal.
    Raises InfeasibleSearchError past REFUTE_CANDIDATE_BUDGET entries.
    """
    if h.codimension != 3:
        raise PreconditionViolatedError(
            f"refutation needs codimension 3, got {h.codimension}"
        )
    values = h.entries
    if values != values[::-1]:
        raise PreconditionViolatedError("refutation needs a symmetric input")
    if is_differentiable(values[: (len(values) + 1) // 2]):  # the SI test, given symmetry
        raise PreconditionViolatedError("input is an SI-sequence; nothing to refute")
    refuted = []
    survivors = []

    def refute(entry: tuple[int, ...], degree: int) -> None:
        if len(refuted) + len(survivors) >= REFUTE_CANDIDATE_BUDGET:
            raise InfeasibleSearchError(
                f"refutation needs more than {REFUTE_CANDIDATE_BUDGET} candidates"
            )
        # tuple.__new__ builds the entry at C level, past the NamedTuple's Python __new__
        refuted.append(tuple.__new__(RefutedCandidate, (entry, degree)))

    for subtrahend in _subtrahends(h, 1, refute):
        degree = _middle_step_violation(values, 1, subtrahend)
        if degree is None:
            survivors.append(subtrahend)
        else:
            refute(subtrahend, degree)
    return tuple.__new__(RefutationReport, (h, tuple(refuted), tuple(survivors)))


def verify_decomposition_traces(
    h: HVector, decomposition: PivotDecomposition
) -> list[DegreeTrace]:
    """Check the concavity inequalities forced by a pivot-1 decomposition.

    For every first-half degree whose entry is below the generic value,
    one trace records which genericity case applies and the inequalities
    that case requires.  Also confirms the engine behind unimodality: a
    growth-legal residual starting (1, 2, ...) never increases again after
    a sub-generic entry.  Any failure raises TraceViolationError, since no
    valid decomposition of a symmetric codimension-3 vector can produce one.
    """
    _check_decomposition(h, decomposition)
    _, subtrahend, residual = decomposition
    # the first degree whose entry is below its generic value d + 1 (degree 0 holds 1)
    for subgeneric, value in enumerate(residual):
        if value <= subgeneric:
            break
    # the residual obeys growth, so it has no zero before a positive entry to rise from
    for d in range(subgeneric + 1, len(residual)):
        if residual[d] > residual[d - 1]:
            raise TraceViolationError(d, "(residual-monotone)", residual[d], residual[d - 1])

    new = tuple.__new__  # builds each check and trace at C level, past the NamedTuple's __new__
    h = h.entries  # indexing the tuple skips HVector.__getitem__
    a = subtrahend[-1:] + subtrahend  # a[i] = subtrahend[i - 1], for i = 0 too
    traces = []
    for i in range(1, (len(h) + 1) // 2):  # 1..e//2
        if h[i] >= (i + 2) * (i + 1) // 2:  # C(i + 2, 2), the generic value
            continue
        delta_prev = residual[i - 1]
        if a[i] == (i + 1) * i // 2:  # C(i + 1, 2)
            case = _SUBTRAHEND_GENERIC
        elif delta_prev == i:
            case = _RESIDUAL_STEP_GENERIC
        elif delta_prev <= i - 1:
            case = _RESIDUAL_STEP_SMALL
        else:
            raise TraceViolationError(i, "(residual-generic-cap)", delta_prev, i)
        step, before = h[i] - h[i - 1], h[i - 1] - h[i - 2]
        checks = (new(InequalityCheck, ("(1)", step, before)),)
        if case is _RESIDUAL_STEP_SMALL:
            rise = a[i] - a[i - 1]
            checks += (
                new(InequalityCheck, ("(2)", rise, before)),
                new(InequalityCheck, ("(3)", step, rise)),
            )
        for label, lhs, rhs in checks:
            if lhs > rhs:
                raise TraceViolationError(i, label, lhs, rhs)
        traces.append(new(DegreeTrace, (i, case, checks)))
    return traces


def _check_decomposition(h: HVector, decomposition: PivotDecomposition) -> None:
    pivot, subtrahend, residual = decomposition
    if pivot != 1:
        raise PreconditionViolatedError("trace verification needs pivot 1")
    if h.codimension != 3:
        raise PreconditionViolatedError(
            f"trace verification needs codimension 3, got {h.codimension}"
        )
    values = h.entries
    if values != values[::-1]:
        raise PreconditionViolatedError("trace verification needs a symmetric input")
    if len(subtrahend) != len(values) - 1:
        raise PreconditionViolatedError("subtrahend length does not match the input")
    if subtrahend[0] != 1:
        raise PreconditionViolatedError("subtrahend must start with 1")
    # the SI test: symmetric, with a differentiable first half
    if subtrahend != subtrahend[::-1] or not is_differentiable(
        subtrahend[: (len(subtrahend) + 1) // 2]
    ):
        raise PreconditionViolatedError("subtrahend is not an SI-sequence")
    if residual != _residual(h, 1, subtrahend):
        raise PreconditionViolatedError("residual does not match h minus the subtrahend")
    if min(residual) < 0:
        raise PreconditionViolatedError("residual has a negative entry")
    if _growth_violation(residual) is not None:  # residual[0] = h_0 = 1, as it matches
        raise PreconditionViolatedError("residual violates Macaulay growth")
