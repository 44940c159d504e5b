import pytest

from bruteforce import full_box_vectors, mirrored_symmetric_vectors
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


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnumerationSpec(socle_degree=-1, codimension=3)
        with pytest.raises(ValueError):
            EnumerationSpec(socle_degree=2, codimension=0)
        with pytest.raises(ValueError):
            EnumerationSpec(socle_degree=2, codimension=3, entry_cap=2)


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
        for filter in SequenceFilter:
            for r in (1, 2, 3):
                counts = count_by_degree(r, 6, 25, filter)
                assert list(counts) == list(range(7))
                for e, count in counts.items():
                    assert count == len(stream(e, r, filter=filter)), (filter, r, e)


class TestUnknownFilter:
    @pytest.mark.parametrize("e", [0, 1, 4])
    def test_plain_string_raises_on_iteration(self, e):
        # a member's value is not a member, even where `in SequenceFilter` would accept it
        spec = EnumerationSpec(e, 3, 25, "si")
        with pytest.raises(ValueError, match="unknown filter"):
            next(enumerate_hvectors(spec))
