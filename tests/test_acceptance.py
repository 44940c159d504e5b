"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
and timings.  Every assertion is exact; the only tolerances are runtime
budgets, which are printed rather than enforced.
"""

import time
from contextlib import contextmanager
from itertools import combinations_with_replacement, product
from pathlib import Path
from random import Random

from bruteforce import (
    full_box_vectors,
    lex_divisor_masks,
    mirrored_symmetric_vectors,
    naive_gorenstein_hvectors,
)
from hvectors import (
    EnumerationSpec,
    HVector,
    NotAnOSequenceError,
    SequenceFilter,
    Verdict,
    binom,
    classify_gorenstein,
    complete_intersection_hvector,
    count_by_degree,
    enumerate_hvectors,
    find_pivot_decomposition,
    hilbert_function,
    is_differentiable,
    is_o_sequence,
    is_si_sequence,
    is_symmetric,
    is_unimodal,
    lex_segment_realization,
    macaulay_bound,
    max_growth_bruteforce,
    o_sequence_violation,
    refute_non_si,
    verify_decomposition_traces,
)
from hvectors.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"

# frozen catalog sizes, confirmed by the dual-generator comparison below
SI_COUNTS = {1: 0, 2: 1, 3: 1, 4: 4, 5: 4, 6: 11, 7: 11, 8: 26}
SYMMETRIC_NOT_SI_COUNTS = {4: 21, 5: 21, 6: 614, 7: 614, 8: 15599}


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.monotonic() - start
        status = "PASS" if outcome["ok"] else "FAIL"
        print(f"{status} criterion {number}: {description} [{elapsed:.1f}s]")


def _si_box(socle_degree):
    spec = EnumerationSpec(
        socle_degree=socle_degree, codimension=3, entry_cap=25, filter=SequenceFilter.SI
    )
    return list(enumerate_hvectors(spec))


def test_criterion_1_growth_bound_oracle_equivalence():
    with criterion(1, "bound operator equals brute-force maximal growth (n<=7, i<=3, r=n)"):
        for n in range(1, 8):
            for i in range(1, 4):
                assert max_growth_bruteforce(n, i, n) == macaulay_bound(n, i), (n, i)


def test_criterion_2_realization_iff_growth():
    with criterion(
        2, "lex realization succeeds exactly on growth-legal vectors (h_1<=3, e<=6)"
    ):
        caps = [binom(d + 2, 2) for d in range(7)]

        # literal sweep over the full box up to degree 4, failures included
        for r in (1, 2, 3):
            for e in range(1, 5):
                for tail in product(*(range(1, caps[d] + 1) for d in range(2, e + 1))):
                    h = HVector((1, r) + tail)
                    violation = o_sequence_violation(h.entries)
                    try:
                        table = lex_segment_realization(h)
                    except NotAnOSequenceError as exc:
                        assert violation is not None
                        assert exc.degree == violation + 1
                    else:
                        assert violation is None
                        assert hilbert_function(table) == h

        # exhaustive prefix walk to degree 6: realization outcomes are decided
        # degree by degree, so asserting at every reachable prefix that the
        # eligible-monomial count equals the growth bound settles the box
        for r in (1, 2, 3):
            nodes_at = dict.fromkeys(range(1, 6), 0)

            def walk(degree, survivor_mask, value):
                if degree == 6:
                    return
                masks = lex_divisor_masks(r, degree + 1)
                candidates = [
                    k for k, m in enumerate(masks) if m & survivor_mask == m
                ]
                assert len(candidates) == macaulay_bound(value, degree), (r, degree, value)
                nodes_at[degree] += 1
                for nxt in range(1, min(len(candidates), caps[degree + 1]) + 1):
                    chosen = candidates[len(candidates) - nxt :]
                    child_mask = 0
                    for k in chosen:
                        child_mask |= 1 << k
                    walk(degree + 1, child_mask, nxt)

            walk(1, (1 << r) - 1, r)
            # the walk visited one node per growth-legal prefix: its census
            # must equal an independently generated O-sequence count
            for d in range(1, 6):
                spec = EnumerationSpec(
                    socle_degree=d,
                    codimension=r,
                    entry_cap=28,
                    filter=SequenceFilter.ALL_O_SEQUENCES,
                )
                assert nodes_at[d] == sum(1 for _ in enumerate_hvectors(spec)), (r, d)

        # spot-check deep vectors literally, both sides of the equivalence
        rng = Random(20260811)
        for _ in range(2000):
            e = rng.choice((5, 6))
            r = rng.randint(1, 3)
            entries = (1, r) + tuple(rng.randint(1, caps[d]) for d in range(2, e + 1))
            h = HVector(entries)
            violation = o_sequence_violation(h.entries)
            try:
                table = lex_segment_realization(h)
            except NotAnOSequenceError as exc:
                assert violation is not None
                assert exc.degree == violation + 1
            else:
                assert violation is None
                assert hilbert_function(table) == h


def test_criterion_3_complete_intersection_instances():
    with criterion(3, "all 56 complete-intersection vectors are symmetric, SI, Gorenstein"):
        triples = list(combinations_with_replacement(range(2, 8), 3))
        assert len(triples) == 56
        for a, b, c in triples:
            h = complete_intersection_hvector(a, b, c)
            assert is_symmetric(h.entries), (a, b, c)
            assert is_si_sequence(h.entries), (a, b, c)
            assert classify_gorenstein(h).verdict == Verdict.GORENSTEIN, (a, b, c)


def test_criterion_4_decomposition_exists_for_every_si_vector():
    with criterion(
        4, "every SI vector (r=3, e<=8, cap 25) decomposes and all growth traces hold"
    ):
        checked = 0
        for e in range(2, 9):
            for h in _si_box(e):
                decomposition = find_pivot_decomposition(h, 1)
                assert decomposition is not None, tuple(h)
                a = decomposition.subtrahend
                assert a[0] == 1
                assert a == tuple(reversed(a)), tuple(h)
                assert decomposition.residual[1] == 2
                assert is_o_sequence(decomposition.residual)
                verify_decomposition_traces(h, decomposition)  # raises on any failure
                checked += 1
        assert checked == sum(SI_COUNTS.values())


def test_criterion_5_refutation_never_finds_a_survivor():
    with criterion(
        5, "every symmetric non-SI vector (r=3, e<=8, cap 25) is exhaustively refuted"
    ):
        checked = 0
        for e in range(2, 9):
            spec = EnumerationSpec(
                socle_degree=e,
                codimension=3,
                entry_cap=25,
                filter=SequenceFilter.SYMMETRIC_NOT_SI,
            )
            for h in enumerate_hvectors(spec):
                report = refute_non_si(h)
                assert report.survivors == (), tuple(h)
                assert report.candidate_count == len(report.refuted)
                checked += 1
        assert checked == sum(SYMMETRIC_NOT_SI_COUNTS.values())
        # the CLI maps a survivor to exit code 4; a clean refutation exits 0
        assert main(["refute", "1,3,6,6,5,6,6,3,1"]) == 0


def test_criterion_6_dual_generator_agreement():
    with criterion(6, "constructive SI generator matches naive filtering for e<=8"):
        for r in (1, 2, 3):
            for e in range(0, 9):
                spec = EnumerationSpec(
                    socle_degree=e, codimension=r, entry_cap=25, filter=SequenceFilter.SI
                )
                optimized = [tuple(h) for h in enumerate_hvectors(spec)]
                # family membership: exact degree, codimension, cap respected
                for h in optimized:
                    assert len(h) == e + 1 and h[0] == 1
                    assert e < 1 or h[1] == r
                    assert max(h) <= 25
                    assert is_symmetric(h)
                assert optimized == sorted(optimized)
                # full cartesian product is affordable through degree 5
                if e <= 5:
                    naive_full = sorted(
                        v
                        for v in full_box_vectors(e, r, 25)
                        if is_symmetric(v) and is_si_sequence(v)
                    )
                    assert optimized == naive_full
                # mirrored family covers all symmetric vectors, hence all SI ones
                naive_mirror = sorted(
                    v for v in mirrored_symmetric_vectors(e, r, 25) if is_si_sequence(v)
                )
                assert optimized == naive_mirror
                if r == 3 and e >= 1:
                    assert len(optimized) == SI_COUNTS[e]


def test_criterion_7_definition_implications_on_the_box():
    with criterion(
        7, "differentiable=>growth-legal and SI=>unimodal+growth-legal on the box"
    ):
        # differentiable vectors are found by exhaustive prefix search: a
        # violated prefix stays violated under extension, so pruning is safe
        caps = (4,) + (15,) * 6  # v_1 <= 4, later entries <= 15, length <= 8
        by_length = dict.fromkeys(range(1, 9), 0)

        def extend(prefix):
            by_length[len(prefix)] += 1
            assert is_o_sequence(prefix), prefix
            if len(prefix) == 8:
                return
            for value in range(0, caps[len(prefix) - 1] + 1):
                child = prefix + (value,)
                if is_differentiable(child):
                    extend(child)

        extend((1,))
        # frozen census, cross-checked below by literal filtering where affordable
        assert by_length == {1: 1, 2: 4, 3: 14, 4: 45, 5: 101, 6: 163, 7: 215, 8: 254}
        for length in range(2, 7):
            literal = sum(
                1
                for v1 in range(0, 5)
                for tail in product(range(0, 16), repeat=length - 2)
                if is_differentiable((1, v1) + tail)
            )
            assert literal == by_length[length]

        # SI vectors are all symmetric, so the mirrored family is exhaustive
        si_seen = 0
        for e in range(1, 8):
            free = max(0, e // 2 - 1)
            for v1 in range(0, 5):
                for middle in product(range(0, 16), repeat=free):
                    prefix = (1, v1, *middle)[: e // 2 + 1]
                    full = prefix + (prefix[::-1] if e % 2 else prefix[-2::-1])
                    assert len(full) == e + 1
                    if is_si_sequence(full):
                        si_seen += 1
                        assert is_unimodal(full), full
                        assert is_o_sequence(full), full
        assert si_seen > 100
        assert is_si_sequence((1,)) and is_unimodal((1,)) and is_o_sequence((1,))


def test_criterion_8_cli_golden_files(capsys):
    with criterion(8, "CLI outputs are byte-identical to the committed golden files"):
        cases = [
            (["expand", "4", "2"], "expand_4_2.txt", 0),
            (["check", "1,3,4,3,1"], "check_1-3-4-3-1.txt", 0),
            (["classify", "1,13,12,13,1"], "classify_1-13-12-13-1.txt", 3),
            (["decompose", "1,3,4,3,1"], "decompose_1-3-4-3-1.txt", 0),
            (["realize", "1,2,2"], "realize_1-2-2.txt", 0),
        ]
        for argv, golden, expected_code in cases:
            code = main(argv)
            out = capsys.readouterr().out
            assert code == expected_code, argv
            assert out == (GOLDEN_DIR / golden).read_text(), argv


def test_criterion_9_si_sequences_are_the_gorenstein_hvectors_of_their_resolutions():
    with criterion(9, "codim-3 SI stream at the full cap equals the Buchsbaum-Eisenbud-Diesel "
                      "h-vectors (e<=14)"):
        assert naive_gorenstein_hvectors(0) == naive_gorenstein_hvectors(1) == set()
        for e in range(2, 15):
            cap = binom(e // 2 + 2, 2)  # h_(e//2) of the generic vector, the largest entry any SI vector has
            spec = EnumerationSpec(socle_degree=e, codimension=3, entry_cap=cap,
                                   filter=SequenceFilter.SI)
            si = [tuple(h) for h in enumerate_hvectors(spec)]
            gorenstein = naive_gorenstein_hvectors(e)
            assert set(si) == gorenstein, e
            assert count_by_degree(3, e, cap, SequenceFilter.SI)[e] == len(si), e
            assert all(classify_gorenstein(HVector(h)).verdict is Verdict.GORENSTEIN for h in si), e
            if e >= 8:  # the box holds degree sequences that break Diesel's condition from e = 8 on
                assert naive_gorenstein_hvectors(e, diesel=False) > gorenstein, e
