import hashlib
from enum import IntEnum

import pytest

from bruteforce import full_box_vectors, mirrored_symmetric_vectors
from test_acceptance import SI_COUNTS, SYMMETRIC_NOT_SI_COUNTS
from hvectors import (
    EnumerationSpec,
    SequenceFilter,
    Verdict,
    classify_gorenstein,
    count_by_degree,
    enumerate_hvectors,
    is_o_sequence,
    is_si_sequence,
    is_symmetric,
    refute_non_si,
)


def stream(e, r, cap=25, filter=SequenceFilter.SI):
    spec = EnumerationSpec(socle_degree=e, codimension=r, entry_cap=cap, filter=filter)
    return [tuple(h) for h in enumerate_hvectors(spec)]


class Three(IntEnum):
    THREE = 3


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnumerationSpec(socle_degree=-1, codimension=3)
        with pytest.raises(ValueError):
            EnumerationSpec(socle_degree=2, codimension=0)
        with pytest.raises(ValueError):
            EnumerationSpec(socle_degree=2, codimension=3, entry_cap=2)

    def test_odd_codimensions(self):
        # a bool or float codimension is refused where the box is built, before any range check;
        # an IntEnum member is kept as the plain int
        for r in (True, 3.0):
            message = f"codimension must be an integer, got {r!r}$"
            for filter in SequenceFilter:
                for cap in (1, 3, 7):
                    for e in range(7):
                        with pytest.raises(ValueError, match=message):
                            EnumerationSpec(e, r, cap, filter)
                    with pytest.raises(ValueError, match=message):
                        count_by_degree(r, 6, cap, filter)
        for filter in SequenceFilter:
            for cap in (3, 7):
                for e in range(7):
                    spec = EnumerationSpec(e, Three.THREE, cap, filter)
                    assert type(spec.codimension) is int
                    vectors = list(enumerate_hvectors(spec))
                    assert [tuple(h) for h in vectors] == stream(e, 3, cap, filter)
                    assert {type(x) for h in vectors for x in h} <= {int}
                assert count_by_degree(Three.THREE, 6, cap, filter) == count_by_degree(
                    3, 6, cap, filter
                )

    @pytest.mark.parametrize("filter", SequenceFilter)
    def test_streams_check_specs_that_skipped_the_constructor(self, filter):
        # _replace and a plain tuple skip EnumerationSpec.__new__, so the stream checks the box
        checked = EnumerationSpec(4, 3, 7, filter)
        for spec in (
            checked._replace(codimension=3.0),
            checked._replace(codimension=True, entry_cap=1),
            (4, 3.0, 7, filter),
        ):
            vectors = enumerate_hvectors(spec)
            with pytest.raises(ValueError, match="codimension must be an integer"):
                next(vectors)


class TestStreams:
    def test_si_degree_two(self):
        assert stream(2, 3) == [(1, 3, 1)]

    def test_si_degree_four(self):
        assert stream(4, 3) == [
            (1, 3, 3, 3, 1),
            (1, 3, 4, 3, 1),
            (1, 3, 5, 3, 1),
            (1, 3, 6, 3, 1),
        ]

    def test_si_degree_three_single_vector(self):
        # mirroring pairs (h_1, h_2), so only (1, 3, 3, 1) qualifies
        assert stream(3, 3) == [(1, 3, 3, 1)]

    def test_degree_zero_is_empty_for_positive_codimension(self):
        for filter in SequenceFilter:
            assert stream(0, 1, filter=filter) == []

    def test_degree_one_symmetric_needs_codimension_one(self):
        assert stream(1, 3, filter=SequenceFilter.SYMMETRIC) == []
        assert stream(1, 1, filter=SequenceFilter.SYMMETRIC) == [(1, 1)]

    def test_o_sequence_stream_degree_one(self):
        assert stream(1, 3, filter=SequenceFilter.ALL_O_SEQUENCES) == [(1, 3)]

    def test_streams_are_sorted_and_deterministic(self):
        for filter in SequenceFilter:
            first = stream(5, 3, filter=filter)
            second = stream(5, 3, filter=filter)
            assert first == second
            assert first == sorted(first)

    def test_socle_degree_is_exact_and_entries_capped(self):
        for filter in SequenceFilter:
            for h in stream(6, 3, cap=12, filter=filter):
                assert len(h) == 7
                assert h[1] == 3
                assert max(h) <= 12


class TestAgainstNaiveGenerators:
    @pytest.mark.parametrize("e", range(0, 6))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_full_product_naive_agreement(self, e, r):
        cap = 12
        naive = {
            v
            for v in full_box_vectors(e, r, cap)
            if is_symmetric(v) and is_si_sequence(v)
        }
        assert set(stream(e, r, cap=cap)) == naive

    @pytest.mark.parametrize("e", range(0, 9))
    def test_mirrored_naive_agreement(self, e):
        cap = 25
        naive = {
            v for v in mirrored_symmetric_vectors(e, 3, cap) if is_si_sequence(v)
        }
        assert set(stream(e, 3, cap=cap)) == naive

    @pytest.mark.parametrize("e", range(0, 7))
    def test_o_sequence_filter_agreement(self, e):
        # the same vectors in the same order
        for r in range(1, 5):
            for cap in (r, r + 1, 8):
                naive = [v for v in full_box_vectors(e, r, cap) if is_o_sequence(v)]
                assert stream(e, r, cap=cap, filter=SequenceFilter.ALL_O_SEQUENCES) == naive

    @pytest.mark.parametrize("e", range(0, 7))
    def test_symmetric_not_si_filter_agreement(self, e):
        # the same vectors in the same order, for both symmetric filters without the SI walk;
        # at e = 1 the one symmetric vector, (1, 1), is SI
        keeps_si = {SequenceFilter.SYMMETRIC: True, SequenceFilter.SYMMETRIC_NOT_SI: False}
        for filter, si in keeps_si.items():
            for r in range(1, 5):
                for cap in (r, r + 1, 7):
                    naive = [
                        v
                        for v in full_box_vectors(e, r, cap)
                        if is_symmetric(v) and (si or not is_si_sequence(v))
                    ]
                    assert stream(e, r, cap=cap, filter=filter) == naive, (filter, r, cap)


class TestDownstreamConsistency:
    def test_si_outputs_classify_gorenstein(self):
        for e in range(0, 8):
            spec = EnumerationSpec(socle_degree=e, codimension=3, filter=SequenceFilter.SI)
            for h in enumerate_hvectors(spec):
                assert classify_gorenstein(h).verdict == Verdict.GORENSTEIN

    def test_symmetric_not_si_outputs_are_refuted(self):
        spec = EnumerationSpec(
            socle_degree=5, codimension=3, entry_cap=10, filter=SequenceFilter.SYMMETRIC_NOT_SI
        )
        for h in enumerate_hvectors(spec):
            assert refute_non_si(h).survivors == ()


class TestCounts:
    def test_examples(self):
        counts = count_by_degree(3, 4, 25, SequenceFilter.SI)
        assert counts[2] == 1
        assert counts[3] == 1
        assert counts[4] == 4

    def test_counts_match_stream_lengths(self):
        # every filter on r <= 4, e <= 8 and caps r..7 and 25; O-sequences stop at e = 6 at
        # cap 25, past which r = 4 streams 651,269 vectors a degree
        for r in range(1, 5):
            for cap in [*range(r, 8), 25]:
                for filter in SequenceFilter:
                    max_e = 6 if cap == 25 and filter is SequenceFilter.ALL_O_SEQUENCES else 8
                    counts = count_by_degree(r, max_e, cap, filter)
                    assert list(counts) == list(range(max_e + 1))
                    for e, count in counts.items():
                        assert count == len(stream(e, r, cap, filter)), (filter, r, cap, e)
        assert count_by_degree(3, 8, 25, SequenceFilter.SI) == {0: 0, **SI_COUNTS}
        not_si = count_by_degree(3, 8, 25, SequenceFilter.SYMMETRIC_NOT_SI)
        assert not_si == dict.fromkeys(range(4), 0) | SYMMETRIC_NOT_SI_COUNTS


class TestUnknownFilter:
    @pytest.mark.parametrize("e", [0, 1, 4])
    def test_plain_string_raises_at_the_spec(self, e):
        # a member's value is not a member, even where `in SequenceFilter` would accept it
        with pytest.raises(ValueError, match="unknown filter"):
            EnumerationSpec(e, 3, 25, "si")


def outcomes(stream):
    """repr of each next() of the stream, ending with 'end' or with the error that stops it."""
    seen = []
    while True:
        try:
            seen.append(repr(next(stream)))
        except StopIteration:
            return seen + ["end"]
        except (TypeError, ValueError) as exc:
            return seen + [f"{type(exc).__name__}: {exc}"]


def count_outcome(*args):
    try:
        return count_by_degree(*args)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


VECTORS = 157_764
STREAMS = "bc793a35250ddb88d1e88a1f7775e7f62444983deffdc920d92da336dd79b401"
COUNTS = "5599fac524688830e6793559ad21e93aafec9f5574360dd43de28553c20d6a23"

# every box of the frozen grid: r <= 4, e <= 7, caps r, r + 1 and 7, and r = 3, cap 25, e <= 8
FROZEN_BOXES = [
    (r, max_e, cap)
    for r, caps, max_e in [(r, sorted({r, r + 1, 7}), 7) for r in range(1, 5)] + [(3, [25], 8)]
    for cap in caps
]


class TestFrozen:
    """SHA-256 of what the streams and counts give, frozen before the non-SI stream became the
    complement of the SI walk and the counts came from the box."""

    def test_streams_keep_their_frozen_values(self):
        digest = hashlib.sha256()
        vectors = 0
        for r, max_e, cap in FROZEN_BOXES:
            for filter in SequenceFilter:
                for e in range(max_e + 1):
                    seen = outcomes(enumerate_hvectors(EnumerationSpec(e, r, cap, filter)))
                    digest.update(repr((r, cap, filter.value, e, seen)).encode() + b"\n")
                    vectors += len(seen) - 1
        assert vectors == VECTORS
        assert digest.hexdigest() == STREAMS

    def test_counts_keep_their_frozen_values(self):
        digest = hashlib.sha256()
        for r, max_e, cap in FROZEN_BOXES:
            for filter in SequenceFilter:
                counts = count_outcome(r, max_e, cap, filter)
                digest.update(repr((r, cap, filter.value, counts)).encode() + b"\n")
        assert digest.hexdigest() == COUNTS
