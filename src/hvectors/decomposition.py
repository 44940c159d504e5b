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
as one breaks.  Decompose returns the lex-first subtrahend whose residual
obeys growth; refute certifies that none does by listing every dropped
first half with the degree of its broken step, and every full candidate
that reached the end of the walk.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from operator import sub
from typing import Callable, Iterator, NamedTuple

from .binomials import binom, macaulay_bound
from .enumeration import _grow, mirror
from .errors import (
    InfeasibleSearchError,
    PreconditionViolatedError,
    TraceViolationError,
    UnsupportedCodimensionError,
)
from .sequences import (
    HVector,
    _growth_violation,
    is_differentiable,
    is_si_sequence,
    is_symmetric,
    o_sequence_violation,
    strip_trailing_zeros,
)


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
    with the end degree of the residual step the half breaks.  The steps
    no half fixes alone (before the pivot, and the middle step of an odd
    socle) are left to the caller's check of each candidate.
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
    for subtrahend in _subtrahends(h, pivot):
        residual = _residual(h, pivot, subtrahend)
        if o_sequence_violation(residual) is None:
            return PivotDecomposition(pivot=pivot, subtrahend=subtrahend, residual=residual)
    return None


def refute_non_si(h: HVector) -> RefutationReport:
    """Certify that no pivot-1 subtrahend leaves a growth-legal residual.

    `refuted` lists, in walk order, each dead first half with the end
    degree of the step it breaks, standing for every candidate that starts
    with it, and each full candidate with its residual's first violation.
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
        step = o_sequence_violation(_residual(h, 1, subtrahend))  # the caps keep it non-negative
        if step is None:
            survivors.append(subtrahend)
        else:
            refute(subtrahend, step + 1)  # the end degree of the residual's first illegal step
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
    e = h.socle_degree
    subtrahend = decomposition.subtrahend
    residual = decomposition.residual

    stripped = strip_trailing_zeros(residual)
    seen_subgeneric: int | None = None
    for d in range(len(stripped)):
        if seen_subgeneric is not None and d > seen_subgeneric:
            if stripped[d] > stripped[d - 1]:
                raise TraceViolationError(
                    d, "(residual-monotone)", stripped[d], stripped[d - 1]
                )
        if seen_subgeneric is None and stripped[d] < d + 1:
            seen_subgeneric = d

    h = h.entries  # indexing the tuple skips HVector.__getitem__
    a = subtrahend[-1:] + subtrahend  # a[i] = subtrahend[i - 1], for i = 0 too
    traces = []
    for i in range(1, e // 2 + 1):
        if h[i] >= binom(i + 2, 2):
            continue
        delta_prev = residual[i - 1]
        if a[i] == binom(i + 1, 2):
            case = TraceCase.SUBTRAHEND_GENERIC
        elif delta_prev == i:
            case = TraceCase.RESIDUAL_STEP_GENERIC
        elif delta_prev <= i - 1:
            case = TraceCase.RESIDUAL_STEP_SMALL
        else:
            raise TraceViolationError(i, "(residual-generic-cap)", delta_prev, i)
        checks = [InequalityCheck("(1)", h[i] - h[i - 1], h[i - 1] - h[i - 2])]
        if case is TraceCase.RESIDUAL_STEP_SMALL:
            checks.append(InequalityCheck("(2)", a[i] - a[i - 1], h[i - 1] - h[i - 2]))
            checks.append(InequalityCheck("(3)", h[i] - h[i - 1], a[i] - a[i - 1]))
        for check in checks:
            if not check.holds:
                raise TraceViolationError(i, check.label, check.lhs, check.rhs)
        traces.append(DegreeTrace(degree=i, case=case, inequalities=tuple(checks)))
    return traces


def _check_decomposition(h: HVector, decomposition: PivotDecomposition) -> None:
    if decomposition.pivot != 1:
        raise PreconditionViolatedError("trace verification needs pivot 1")
    if h.codimension != 3:
        raise PreconditionViolatedError(
            f"trace verification needs codimension 3, got {h.codimension}"
        )
    if not is_symmetric(h.entries):
        raise PreconditionViolatedError("trace verification needs a symmetric input")
    if len(decomposition.subtrahend) != h.socle_degree:
        raise PreconditionViolatedError("subtrahend length does not match the input")
    if decomposition.subtrahend[0] != 1:
        raise PreconditionViolatedError("subtrahend must start with 1")
    if not is_si_sequence(decomposition.subtrahend):
        raise PreconditionViolatedError("subtrahend is not an SI-sequence")
    if decomposition.residual != _residual(h, 1, decomposition.subtrahend):
        raise PreconditionViolatedError("residual does not match h minus the subtrahend")
    if any(x < 0 for x in decomposition.residual):
        raise PreconditionViolatedError("residual has a negative entry")
    if o_sequence_violation(decomposition.residual) is not None:
        raise PreconditionViolatedError("residual violates Macaulay growth")
