"""Pivot decompositions of Gorenstein h-vectors and their growth-trace verification.

A pivot decomposition subtracts a shifted Gorenstein h-vector (itself an
SI-sequence here, which is equivalent in codimension <= 3) from degrees
j, ..., e so that the remainder is again a legal growth sequence.  For
codimension-3 symmetric vectors, existence of such a decomposition with
pivot 1 forces unimodality and the concavity inequalities verified below;
exhaustive absence of one certifies that a symmetric non-SI vector cannot
be Gorenstein.  Both searches walk the candidates with _subtrahends,
which holds the rule for which residual steps a subtrahend must pass:
decompose returns the first one it yields, and refute certifies that it
yields none with the certificate the walk writes of each candidate it drops.
"""

from __future__ import annotations

from enum import Enum
from operator import sub
from typing import Iterator, NamedTuple

from .binomials import macaulay_bound
from .errors import (
    InfeasibleSearchError,
    PreconditionViolatedError,
    TraceViolationError,
    UnsupportedCodimensionError,
)
from .sequences import HVector, _growth_violation, differentiability_violation, is_si_sequence, mirror


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
    certificate: list[RefutedCandidate] | None = None,
) -> Iterator[tuple[int, ...]]:
    """The SI-sequences (1, a_1, ..., a_{e-pivot}) whose shift leaves h a growth-legal residual.

    These are the valid subtrahends after re-indexing (an SI-sequence of
    small codimension is a Gorenstein h-vector), in ascending lex order.
    For a symmetric codimension-3 h at pivot 1, a_1 <= min(h_2, h_{e-1}) =
    min(h_2, 3), so the family is exhaustive in that regime.

    Each residual starts (h_0, ..., h_{pivot-1}, h_pivot - 1), as a_0 = 1,
    so the steps up to the pivot are tested once, on that prefix.  The walk
    grows the first half on first differences, each a_k capped by the
    least h_{pivot+j}, h_{pivot+socle-j} over j >= k, as a half never
    decreases.  A child (1, ..., a_{k-1}) fixes the residual at degrees
    pivot..pivot+k-1 and their mirror images, so it must keep the front
    step, ending at f = pivot+k-1, and the mirror step, ending at
    pivot+socle-k+2, within growth, or it dies with its extensions.  It
    breaks the front step exactly when a_{k-1} is below its level's floor
    h_f - macaulay_bound(h_{f-1} - a_{k-2}, f-1).  When the first level's
    floor passes a_1's cap, every root is dead, and the walk ends before it
    builds the caps or its stack.  For an odd socle 2m+1, a full half must
    also keep the middle step, ending at pivot+m+1: the front step into a
    child equal to a_m = a_{m+1}.  So every residual step holds for each
    subtrahend yielded.  A child that breaks the mirror step ends its
    level: that step's bound cannot rise with the child's last entry.  So
    the walk takes the same steps with or without a `certificate` list, to
    which it appends a RefutedCandidate for each dead half (a level's dead
    front prefix and mirror-step tail at once) and each full subtrahend
    whose middle step breaks, with the end degree of that step; given one,
    it also returns at the opening of a level, once that level's dead fronts
    are listed, if the certificate holds more than REFUTE_CANDIDATE_BUDGET
    entries, which refute_non_si refuses.  At socle <= 1 the one candidate's
    whole residual is tested.  Neither that nor the prefix test writes an
    entry; refute, at pivot 1 and socle >= 3, meets neither.
    """
    values = h.entries
    socle = len(values) - 1 - pivot
    if socle <= 1:  # the only candidate is (1,) or (1, 1), with no half to walk
        a = mirror((1,), socle)
        if _growth_violation(_residual(h, pivot, a)) is None:
            yield a
        return
    # the guard spares every pivot-1 call the check, whose prefix (1, h_1 - 1) has no step
    if pivot > 1 and _growth_violation(values[:pivot] + (values[pivot] - 1,)) is not None:
        return
    new = tuple.__new__  # builds each entry at C level, past the NamedTuple's Python __new__
    low = 1
    f = pivot + 1  # the first level's floor, inline as each later level's below
    floor = values[f] - macaulay_bound(values[f - 1] - 1, f - 1)
    if floor > low:
        # a_1 = a_{socle-1} must fit under h at degrees f..pivot+socle//2 and their mirror images
        high = min(min(values[f : f + socle // 2]), min(values[-1 - socle // 2 : -1])) + 1
        if certificate is not None:
            for a in range(low, min(floor, high)):
                certificate.append(new(RefutedCandidate, ((1, a), f)))
        if floor >= high:  # every root is dead
            return
        low = floor
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
    path = [1, 0]
    stack = [iter(range(low, caps[1] + 1))]
    while stack:
        for value in stack[-1]:
            path[-1] = value
            d = len(path)
            # mirror step: residual degrees f-1, f lose value, path[-2]
            f = pivot + socle - d + 2
            if values[f] - path[-2] > macaulay_bound(values[f - 1] - value, f - 1):
                if certificate is not None:  # no later sibling passes: its bound never rises
                    for path[-1] in (value, *stack[-1]):
                        certificate.append(new(RefutedCandidate, (tuple(path), f)))
                del stack[-1], path[-1]
                break
            if d < len(caps):
                low = value
                high = min(value + macaulay_bound(value - path[-2], d - 1), caps[d]) + 1
                path.append(0)
                # front step: residual degrees f-1, f lose value and the child
                f = pivot + d
                floor = values[f] - macaulay_bound(values[f - 1] - value, f - 1)
                if floor > low:
                    if certificate is not None:
                        for path[-1] in range(low, min(floor, high)):
                            certificate.append(new(RefutedCandidate, (tuple(path), f)))
                    low = floor
                if certificate is not None and len(certificate) > REFUTE_CANDIDATE_BUDGET:
                    return  # refute_non_si raises
                stack.append(iter(range(low, high)))
                break
            # a full half, and at an odd socle its middle step
            f = pivot + d  # the front step into a child equal to value
            if not socle % 2 or values[f] - value <= macaulay_bound(values[f - 1] - value, f - 1):
                yield mirror(tuple(path), socle)
            elif certificate is not None:
                certificate.append(new(RefutedCandidate, (mirror(tuple(path), socle), f)))
        else:
            stack.pop()
            path.pop()


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
    # valid subtrahends arrive in ascending lexicographic order, so the first wins
    subtrahend = next(_subtrahends(h, pivot), None)
    if subtrahend is None:
        return None
    return tuple.__new__(PivotDecomposition, (pivot, subtrahend, _residual(h, pivot, subtrahend)))


def refute_non_si(h: HVector) -> RefutationReport:
    """Certify that no pivot-1 subtrahend leaves a growth-legal residual.

    `refuted` is the certificate _subtrahends writes: what it drops, in walk
    order, each entry with the end degree of its broken step; a first half
    stands for every candidate that starts with it.  A surviving candidate
    would contradict the codimension-3 classification and is surfaced as a
    loud implementation-bug signal.  It alone raises InfeasibleSearchError
    for the budget, past REFUTE_CANDIDATE_BUDGET entries and survivors: both
    only grow and the budget is fixed, so this one check after the walk
    raises exactly when a check after each of them would, and the walk stops
    early only once its entries alone are past the budget.
    """
    values = h.entries
    if len(values) < 2 or values[1] != 3:
        raise PreconditionViolatedError(f"refutation needs codimension 3, got {h.codimension}")
    if values != values[::-1]:
        raise PreconditionViolatedError("refutation needs a symmetric input")
    if differentiability_violation(values[: (len(values) + 1) // 2]) is None:  # SI, by symmetry
        raise PreconditionViolatedError("input is an SI-sequence; nothing to refute")
    certificate = []
    survivors = tuple(_subtrahends(h, 1, certificate))  # the walk fills the certificate
    if len(certificate) + len(survivors) > REFUTE_CANDIDATE_BUDGET:
        raise InfeasibleSearchError(f"refutation needs more than {REFUTE_CANDIDATE_BUDGET} candidates")
    return tuple.__new__(RefutationReport, (h, tuple(certificate), survivors))


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
    if not is_si_sequence(subtrahend):
        raise PreconditionViolatedError("subtrahend is not an SI-sequence")
    if residual != _residual(h, 1, subtrahend):
        raise PreconditionViolatedError("residual does not match h minus the subtrahend")
    if min(residual) < 0:
        raise PreconditionViolatedError("residual has a negative entry")
    if _growth_violation(residual) is not None:  # residual[0] = h_0 = 1, as it matches
        raise PreconditionViolatedError("residual violates Macaulay growth")
