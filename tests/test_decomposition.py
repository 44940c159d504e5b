import gc
import hashlib
import json
import re
import time
from itertools import chain
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bruteforce import (
    full_box_vectors,
    mirrored_symmetric_vectors,
    naive_obeys_growth,
    naive_refutes,
    naive_residual,
    naive_subtrahends,
)
from hvectors import (
    EnumerationSpec,
    HVector,
    InfeasibleSearchError,
    PivotDecomposition,
    PreconditionViolatedError,
    RefutedCandidate,
    SequenceFilter,
    TraceCase,
    UnsupportedCodimensionError,
    enumerate_hvectors,
    find_pivot_decomposition,
    is_o_sequence,
    is_si_sequence,
    is_symmetric,
    macaulay_bound,
    refute_non_si,
    verify_decomposition_traces,
)
from hvectors import decomposition
from hvectors.cli import main
from hvectors.decomposition import _residual, _subtrahends
from hvectors.sequences import mirror


def assert_covers_naive_family(h, report):
    """The certificate's entries split the naive pivot-1 family, each entry killing its part.

    A full-length entry stands for itself; a shorter one for every naive
    candidate that starts with it, of which there is at least one.
    """
    assert report.survivors == (), h
    naive = naive_subtrahends(h, 1, 3)
    covered = []
    for candidate in report.refuted:
        a = candidate.subtrahend
        assert naive_refutes(h, a, candidate.violation_degree), (h, candidate)
        part = [c for c in naive if c[: len(a)] == a]
        assert part and (len(a) < len(h) - 1 or part == [a]), (h, a)
        covered += part
    assert sorted(covered) == naive, h


class TestFind:
    def test_canonical_answer_for_the_ci_vector(self):
        h = HVector((1, 3, 4, 3, 1))
        decomposition = find_pivot_decomposition(h, 1)
        assert decomposition.subtrahend == (1, 1, 1, 1)
        assert decomposition.residual == (1, 2, 3, 2, 0)

    def test_all_valid_subtrahends_for_the_ci_vector(self):
        # three candidates survive; the lexicographically smallest is canonical
        h = HVector((1, 3, 4, 3, 1))
        valid = [
            c
            for c in _subtrahends(h, 1)
            if is_o_sequence(_residual(h, 1, c))
        ]
        assert valid == [(1, 1, 1, 1), (1, 2, 2, 1), (1, 3, 3, 1)]

    def test_constant_vector_subtracts_itself(self):
        decomposition = find_pivot_decomposition(HVector((1, 1, 1)), 1)
        assert decomposition.subtrahend == (1, 1)
        assert decomposition.residual == (1, 0, 0)

    def test_non_si_vector_has_no_decomposition(self):
        assert find_pivot_decomposition(HVector((1, 3, 6, 6, 5, 6, 6, 3, 1)), 1) is None

    def test_codimension_four_is_refused(self):
        with pytest.raises(UnsupportedCodimensionError):
            find_pivot_decomposition(HVector((1, 4, 4, 1)), 1)

    def test_pivot_out_of_range_is_refused(self):
        with pytest.raises(ValueError):
            find_pivot_decomposition(HVector((1, 3, 1)), 0)
        with pytest.raises(ValueError):
            find_pivot_decomposition(HVector((1, 3, 1)), 3)

    @pytest.mark.parametrize("pivot", [1, 2, 3, 4])
    def test_every_pivot_succeeds_on_an_si_vector(self, pivot):
        h = HVector((1, 3, 4, 3, 1))
        decomposition = find_pivot_decomposition(h, pivot)
        assert decomposition is not None
        assert decomposition.subtrahend[0] == 1
        assert is_si_sequence(decomposition.subtrahend)
        assert all(x >= 0 for x in decomposition.residual)
        assert is_o_sequence(decomposition.residual)

    def test_determinism(self):
        h = HVector((1, 3, 5, 5, 3, 1))
        first = find_pivot_decomposition(h, 1)
        second = find_pivot_decomposition(h, 1)
        assert first == second

    def test_subtrahend_mirror_symmetry_at_pivot_one(self):
        # a_i = a_{e+1-i} is forced by the shifted SI requirement
        for entries in [(1, 3, 4, 3, 1), (1, 3, 5, 5, 3, 1), (1, 3, 6, 6, 3, 1)]:
            decomposition = find_pivot_decomposition(HVector(entries), 1)
            a = decomposition.subtrahend
            assert a == tuple(reversed(a))

    def test_search_matches_the_naive_oracle_on_the_box(self):
        # every (1, r, ...) with r <= 3, e <= 6, entries <= 6, and every symmetric
        # (1, 3, ..., 3, 1) with e = 7, 8 and entries <= 8 that is not an O-sequence,
        # at every pivot
        boxes = [full_box_vectors(e, r, 6) for r in (1, 2, 3) for e in range(1, 7)]
        boxes += [
            (h for h in mirrored_symmetric_vectors(e, 3, 8) if not naive_obeys_growth(h))
            for e in (7, 8)
        ]
        not_o_sequences = 0
        for h in chain.from_iterable(boxes):
            not_o_sequences += not naive_obeys_growth(h)
            for pivot in range(1, len(h)):
                expected = next(
                    (
                        a
                        for a in naive_subtrahends(h, pivot, max(h))
                        if naive_obeys_growth(naive_residual(h, pivot, a))
                    ),
                    None,
                )
                found = find_pivot_decomposition(HVector(h), pivot)
                assert (found.subtrahend if found else None) == expected, (h, pivot)
                # a certificate changes nothing that is yielded
                heard = list(_subtrahends(HVector(h), pivot, []))
                assert list(_subtrahends(HVector(h), pivot)) == heard, (h, pivot)
            if h[1] == 3 and is_symmetric(h) and not is_si_sequence(h):
                assert_covers_naive_family(h, refute_non_si(HVector(h)))
        assert not_o_sequences == 27_542

    def test_every_yield_is_valid_and_every_drop_breaks_its_step(self):
        # every pivot on the symmetric e <= 8, cap-25 codimension-3 box, socle <= 1 and inputs
        # that are not O-sequences included: no yielded subtrahend leaves a residual step
        # broken under the naive bound, every entry a listener hears breaks the residual step
        # ending at its degree, and a listener changes nothing that is yielded
        seen = {"odd": 0, "even": 0, "socle <= 1": 0, "not an O-sequence": 0, "heard": 0}
        for e in range(2, 9):
            for h in mirrored_symmetric_vectors(e, 3, 25):
                hv = HVector(h)
                for pivot in range(1, e + 1):
                    socle = e - pivot
                    heard = []
                    yielded = list(_subtrahends(hv, pivot, heard))
                    assert list(_subtrahends(hv, pivot)) == yielded, (h, pivot)
                    for a in yielded:
                        assert naive_obeys_growth(naive_residual(h, pivot, a)), (h, pivot, a)
                    for entry, degree in heard:
                        assert naive_refutes(h, entry, degree, pivot), (h, pivot, entry, degree)
                    seen["odd" if socle % 2 else "even"] += len(yielded)
                    seen["socle <= 1"] += len(yielded) * (socle <= 1)
                    seen["not an O-sequence"] += len(yielded) * (not naive_obeys_growth(h))
                    seen["heard"] += len(heard)
        assert seen == {
            "odd": 1_093, "even": 2_041, "socle <= 1": 157, "not an O-sequence": 1_341,
            "heard": 66_078,
        }

    def test_the_walk_takes_the_same_steps_with_or_without_a_certificate(self, monkeypatch):
        # every pivot on the symmetric e <= 8, cap-25 codimension-3 box: both modes ask
        # macaulay_bound the same things in the same order, so a certificate only adds entries
        calls = []

        def counting_bound(n, d):
            calls.append((n, d))
            return macaulay_bound(n, d)

        def steps(*walk_args):
            calls.clear()
            list(_subtrahends(*walk_args))
            return calls.copy()

        monkeypatch.setattr(decomposition, "macaulay_bound", counting_bound)
        walks = 0
        for e in range(2, 9):
            for h in mirrored_symmetric_vectors(e, 3, 25):
                hv = HVector(h)
                for pivot in range(1, e + 1):
                    assert steps(hv, pivot) == steps(hv, pivot, []), (h, pivot)
                    walks += 1
        assert walks == 133_355

    def test_decompositions_at_every_pivot_keep_their_frozen_values(self):
        # SHA-256 of find_pivot_decomposition(h, p) for p = 1..e on the symmetric e <= 8,
        # cap-25 codimension-3 box, frozen before the residual steps up to the pivot moved
        # into _subtrahends; the frozen-order digest in TestRefute sees pivot 1 only
        digest = hashlib.sha256()
        calls = 0
        for e in range(2, 9):
            for h in mirrored_symmetric_vectors(e, 3, 25):
                hv = HVector(h)
                for pivot in range(1, e + 1):
                    found = find_pivot_decomposition(hv, pivot)
                    digest.update(repr((h, pivot, found)).encode() + b"\n")
                    calls += 1
        assert calls == 133_355
        assert digest.hexdigest() == (
            "2be61e3afec0d9413152b491d8230db44b027ca35658ffc21721c0eb8df42af8"
        )

    def test_listener_events_at_every_pivot_keep_their_frozen_values(self):
        # SHA-256 of what _subtrahends(h, p, certificate) lists and yields for p = 1..e on the
        # symmetric e <= 8, cap-25 codimension-3 box, frozen before the subtrahend walk moved
        # out of enumeration._grow; refute's digests see the certificate at pivot 1 only
        digest = hashlib.sha256()
        events = 0
        for e in range(2, 9):
            for h in mirrored_symmetric_vectors(e, 3, 25):
                hv = HVector(h)
                for pivot in range(1, e + 1):
                    certificate = []
                    yielded = list(_subtrahends(hv, pivot, certificate))
                    heard = [tuple(entry) for entry in certificate]
                    digest.update(repr((h, pivot, heard, yielded)).encode() + b"\n")
                    events += len(heard)
        assert events == 66_078
        assert digest.hexdigest() == (
            "6a1253388d40c8781fb5f91b8719d207bf297bbc8ba40a8ed7193c9093158746"
        )

    def test_a_residual_prefix_past_the_bound_ends_the_search_at_once(self):
        # at pivot 2 every residual starts (1, 1, 199), and growth allows 1 after a 1 in degree 1
        h = HVector((1, 1, *[200] * 17))
        start = time.perf_counter()
        assert find_pivot_decomposition(h, 2) is None
        assert time.perf_counter() - start < 0.05

    def test_generic_vector_at_socle_degree_fifty(self, capsys):
        e = 50
        h = HVector(tuple(comb(min(d, e - d) + 2, 2) for d in range(e + 1)))
        assert h[25] == comb(27, 2)
        assert main(["decompose", str(h), "--json"]) == 0
        certificate = json.loads(capsys.readouterr().out)["certificate"]
        decomposition = PivotDecomposition(
            pivot=certificate["pivot"],
            subtrahend=tuple(certificate["subtrahend"]),
            residual=tuple(certificate["residual"]),
        )
        verify_decomposition_traces(h, decomposition)  # raises on any failure
        assert naive_obeys_growth(decomposition.residual)


class TestTraces:
    def test_generic_residual_step_case(self):
        h = HVector((1, 3, 4, 3, 1))
        traces = verify_decomposition_traces(h, find_pivot_decomposition(h, 1))
        assert len(traces) == 1
        trace = traces[0]
        assert trace.degree == 2
        assert trace.case == TraceCase.RESIDUAL_STEP_GENERIC
        assert [(c.label, c.lhs, c.rhs) for c in trace.inequalities] == [("(1)", 1, 2)]
        assert all(c.holds for c in trace.inequalities)

    def test_generic_vector_has_no_traces(self):
        h = HVector(tuple(HVector((1, 3, 6, 10, 6, 3, 1))))
        traces = verify_decomposition_traces(h, find_pivot_decomposition(h, 1))
        assert traces == []

    def test_searched_decomposition_verifies(self):
        h = HVector((1, 3, 5, 5, 3, 1))
        traces = verify_decomposition_traces(h, find_pivot_decomposition(h, 1))
        assert traces
        for trace in traces:
            assert all(c.holds for c in trace.inequalities)

    def test_small_residual_step_case_appears(self):
        # constant plateau: at degree 3 the residual step is sub-generic
        h = HVector((1, 3, 3, 3, 3, 3, 1))
        traces = verify_decomposition_traces(h, find_pivot_decomposition(h, 1))
        cases = {trace.degree: trace.case for trace in traces}
        assert cases[3] == TraceCase.RESIDUAL_STEP_SMALL
        small = [t for t in traces if t.case == TraceCase.RESIDUAL_STEP_SMALL][0]
        assert {c.label for c in small.inequalities} == {"(1)", "(2)", "(3)"}
        assert all(c.holds for c in small.inequalities)

    def test_generic_subtrahend_case_appears(self):
        # a valid non-canonical decomposition whose subtrahend is generic at degree 2
        h = HVector((1, 3, 5, 5, 3, 1))
        decomposition = PivotDecomposition(
            pivot=1, subtrahend=(1, 3, 5, 3, 1), residual=(1, 2, 2, 0, 0, 0)
        )
        traces = verify_decomposition_traces(h, decomposition)
        cases = {trace.degree: trace.case for trace in traces}
        assert cases[2] == TraceCase.SUBTRAHEND_GENERIC

    def test_traces_keep_their_frozen_values(self):
        # SHA-256 of the traces of the canonical pivot-1 decomposition of every SI vector on
        # the e <= 10, cap-25 codimension-3 box, frozen before the trace loop was rewritten
        digest = hashlib.sha256()
        checked = 0
        for e in range(2, 11):
            for h in mirrored_symmetric_vectors(e, 3, 25):
                if is_si_sequence(h):
                    hv = HVector(h)
                    traces = verify_decomposition_traces(hv, find_pivot_decomposition(hv, 1))
                    digest.update(repr((h, traces)).encode() + b"\n")
                    checked += 1
        assert checked == 141
        assert digest.hexdigest() == (
            "4a396196eee82488120d61ec2f5c916507ea3da93bc87efa6e9e591e73e6d651"
        )

    def test_rejects_foreign_residual(self):
        h = HVector((1, 3, 4, 3, 1))
        with pytest.raises(PreconditionViolatedError):
            verify_decomposition_traces(
                h,
                PivotDecomposition(pivot=1, subtrahend=(1, 1, 1, 1), residual=(1, 2, 2, 2, 0)),
            )

    def test_rejects_wrong_pivot(self):
        h = HVector((1, 3, 4, 3, 1))
        decomposition = find_pivot_decomposition(h, 2)
        with pytest.raises(PreconditionViolatedError):
            verify_decomposition_traces(h, decomposition)

    @pytest.mark.parametrize("h, decomposition, message", [
        ((1, 3, 4, 3, 1), (2, (1, 1, 1, 1), (1, 2, 3, 2, 0)), "trace verification needs pivot 1"),
        ((1, 2, 2, 1), (1, (1, 1, 1), (1, 1, 1, 0)),
         "trace verification needs codimension 3, got 2"),
        ((1, 3, 4, 4), (1, (1, 1, 1), (1, 2, 3, 3)), "trace verification needs a symmetric input"),
        ((1, 3, 4, 3, 1), (1, (1, 1, 1), (1, 2, 3, 2)),
         "subtrahend length does not match the input"),
        # an SI-sequence starts with 1, so this one breaks the SI test as well
        ((1, 3, 4, 3, 1), (1, (0, 1, 1, 0), (1, 3, 3, 2, 1)), "subtrahend must start with 1"),
        ((1, 3, 4, 5, 4, 3, 1), (1, (1, 1, 2, 2, 1, 1), (1, 2, 3, 3, 2, 2, 0)),
         "subtrahend is not an SI-sequence"),  # symmetric, with a first half not differentiable
        ((1, 3, 4, 3, 1), (1, (1, 1, 1, 0), (1, 2, 3, 2, 1)),
         "subtrahend is not an SI-sequence"),  # not symmetric, with a differentiable first half
        ((1, 3, 4, 3, 1), (1, (1, 1, 1, 1), (1, 2, 2, 2, 0)),
         "residual does not match h minus the subtrahend"),
        # growth is checked on non-negative entries only, so this one breaks it unchecked
        ((1, 3, 4, 3, 1), (1, (1, 4, 4, 1), (1, 2, 0, -1, 0)), "residual has a negative entry"),
        ((1, 3, 6, 6, 5, 6, 6, 3, 1),
         (1, (1, 3, 3, 3, 3, 3, 3, 1), (1, 2, 3, 3, 2, 3, 3, 0, 0)),
         "residual violates Macaulay growth"),
    ])
    def test_each_precondition_alone_names_itself(self, h, decomposition, message):
        # each row breaks one precondition and keeps every one checked before it
        with pytest.raises(PreconditionViolatedError, match=f"^{re.escape(message)}$"):
            verify_decomposition_traces(HVector(h), PivotDecomposition(*decomposition))

    def test_rejects_asymmetric_input(self):
        h = HVector((1, 3, 4, 4))
        decomposition = find_pivot_decomposition(h, 1)
        assert decomposition is not None
        with pytest.raises(PreconditionViolatedError):
            verify_decomposition_traces(h, decomposition)


class TestRefute:
    def test_plateau_vector_is_cleanly_refuted(self):
        report = refute_non_si(HVector((1, 3, 6, 6, 5, 6, 6, 3, 1)))
        assert report.survivors == ()
        assert report.candidate_count == len(report.refuted) == 6
        dead = [(c.subtrahend, c.violation_degree) for c in report.refuted if len(c.subtrahend) < 8]
        # residual degrees 1, 2 read 2, 5 after (1, 1) and 2, 4 after (1, 2);
        # degrees 5, 6 read 1, 2 after (1, 3, 4, 5) and its mirror
        assert dead == [((1, 1), 2), ((1, 2), 2), ((1, 3, 4, 5), 6)]
        for candidate in report.refuted:
            assert candidate.violation_degree >= 1

    def test_non_o_sequence_is_accepted_and_refuted(self):
        report = refute_non_si(HVector((1, 3, 2, 3, 1)))
        assert report.survivors == ()
        assert report.candidate_count > 0

    def test_si_input_is_a_precondition_violation(self):
        with pytest.raises(PreconditionViolatedError):
            refute_non_si(HVector((1, 3, 4, 3, 1)))

    def test_wrong_codimension_is_a_precondition_violation(self):
        with pytest.raises(PreconditionViolatedError):
            refute_non_si(HVector((1, 4, 2, 4, 1)))

    def test_asymmetric_input_is_a_precondition_violation(self):
        with pytest.raises(PreconditionViolatedError):
            refute_non_si(HVector((1, 3, 4, 4)))

    @pytest.mark.parametrize("entries", [
        (1, 3, 1, 3, 1),  # one full candidate
        (1, 3, 5, 4, 5, 3, 1),  # a dead root, then full candidates
        (1, 3, 6, 6, 5, 6, 6, 3, 1),  # dead halves and full candidates interleaved
        (1, 3, 6, 10, 9, 10, 6, 3, 1),  # dead roots and dead halves of length 3 come first
        (1, 3, 7, 3, 1),  # only dead roots: the walk ends before it builds a stack
        (1, 3, 7, 5, 9, 5, 7, 3, 1),  # the same at a longer socle
    ])
    def test_budget_is_the_last_entry_a_certificate_may_list(self, entries, monkeypatch):
        h = HVector(entries)
        report = refute_non_si(h)
        assert all(type(entry) is RefutedCandidate for entry in report.refuted)
        monkeypatch.setattr(decomposition, "REFUTE_CANDIDATE_BUDGET", report.candidate_count)
        assert refute_non_si(h) == report
        monkeypatch.setattr(decomposition, "REFUTE_CANDIDATE_BUDGET", report.candidate_count - 1)
        with pytest.raises(InfeasibleSearchError):
            refute_non_si(h)

    def test_the_walk_stops_once_the_certificate_passes_the_budget(self, capsys):
        # the generic e = 1000 vector with h_499 and h_501 lowered by 20: its certificate runs to
        # 134,919 entries, and the walk ends at the next level opening past the budget's 50,000
        e = 1000
        h = [comb(min(d, e - d) + 2, 2) for d in range(e + 1)]
        h[e // 2 - 1] -= 20
        h[e // 2 + 1] -= 20
        certificate = []
        assert list(_subtrahends(HVector(tuple(h)), 1, certificate)) == []
        assert 50_000 < len(certificate) <= 51_000
        assert main(["refute", ",".join(map(str, h))]) == 5
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: refutation needs more than 50000 candidates\n")

    def test_searches_leave_no_cyclic_garbage(self):
        # reference counting alone frees what a search built, so the collector has nothing to do
        gc.collect()
        gc.disable()
        try:
            refute_non_si(HVector((1, 3, 6, 6, 5, 6, 6, 3, 1)))
            find_pivot_decomposition(HVector((1, 3, 6, 6, 3, 1)))  # leaves its walk unfinished
            list(enumerate_hvectors(EnumerationSpec(4, 3, 6, SequenceFilter.ALL_O_SEQUENCES)))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_candidates_respect_the_mirror_bound(self):
        # every entry keeps a_2 <= 3 and entries below h pointwise, once mirrored
        h = HVector((1, 3, 6, 6, 5, 6, 6, 3, 1))
        report = refute_non_si(h)
        for candidate in report.refuted:
            a = candidate.subtrahend
            assert a[0] == 1
            assert a[1] <= 3
            if len(a) < h.socle_degree:
                a = mirror(a, h.socle_degree - 1)
            assert all(a[k] <= h[1 + k] for k in range(len(a)))
            assert a == tuple(reversed(a))

    def test_certificate_covers_the_naive_family_on_the_box(self):
        # every symmetric non-SI vector with r = 3, e <= 8, entries <= 25
        checked = 0
        for e in range(2, 9):
            for h in mirrored_symmetric_vectors(e, 3, 25):
                if not is_si_sequence(h):
                    assert_covers_naive_family(h, refute_non_si(HVector(h)))
                    checked += 1
        assert checked == 16_869

    def test_certificates_and_decompositions_keep_their_frozen_order(self):
        # SHA-256 of every refutation certificate and canonical pivot-1 decomposition on the
        # e <= 8, cap-25 box, entry by entry in walk order, frozen before the walk's fixed
        # costs were cut; the coverage test above compares sorted families and misses a reorder
        digest = hashlib.sha256()
        for e in range(2, 9):
            for h in mirrored_symmetric_vectors(e, 3, 25):
                if is_si_sequence(h):
                    found = find_pivot_decomposition(HVector(h), 1)
                    line = (h, found.subtrahend, found.residual)
                else:
                    report = refute_non_si(HVector(h))
                    line = (h, [tuple(c) for c in report.refuted], report.survivors)
                digest.update(repr(line).encode() + b"\n")
        assert digest.hexdigest() == (
            "81fc431b7286ef36586122d4f25689a9a53f69addc36d38d558ae70d0daf2d37"
        )

    @given(st.integers(4, 12).flatmap(
        lambda e: st.tuples(st.just(e), st.lists(st.integers(1, 12), min_size=e // 2 - 1,
                                                 max_size=e // 2 - 1))))
    def test_every_entry_breaks_a_step_it_fixes(self, shape):
        # symmetric (1, 3, ..., 3, 1) with 4 <= e <= 12 and entries <= 12; e <= 3 is always SI
        e, middle = shape
        half = (1, 3, *middle)
        h = half + (half[::-1] if e % 2 else half[-2::-1])
        assume(not is_si_sequence(h))
        report = refute_non_si(HVector(h))
        assert report.survivors == ()
        for candidate in report.refuted:
            assert naive_refutes(h, candidate.subtrahend, candidate.violation_degree), (h, candidate)
