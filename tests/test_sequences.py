import re
from enum import IntEnum

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bruteforce import naive_differentiability_violation, naive_growth_violation, naive_hvector

from hvectors import (
    ClassificationReport,
    HVector,
    Reason,
    ReasonKind,
    Verdict,
    classify_gorenstein,
    differentiability_violation,
    first_difference,
    first_half,
    is_differentiable,
    is_o_sequence,
    is_si_sequence,
    is_symmetric,
    is_unimodal,
    o_sequence_violation,
    si_violations,
    symmetry_violation,
)


def small_hvectors(max_socle=7, max_entry=20):
    return st.builds(
        lambda tail: HVector((1, *tail)),
        st.lists(st.integers(1, max_entry), min_size=0, max_size=max_socle),
    )


def symmetric_hvectors(max_half=3, max_entry=20):
    @st.composite
    def build(draw):
        free = draw(st.lists(st.integers(1, max_entry), min_size=0, max_size=max_half))
        odd = draw(st.booleans())
        prefix = (1, *free)
        full = prefix + (prefix[::-1] if odd else prefix[-2::-1])
        return HVector(full)

    return build()


class TestHVector:
    def test_strips_trailing_zeros(self):
        h = HVector((1, 2, 2, 0, 0))
        assert h.entries == (1, 2, 2)
        assert h.socle_degree == 2

    def test_socle_degree_and_codimension(self):
        h = HVector((1, 3, 4, 3, 1))
        assert h.socle_degree == 4
        assert h.codimension == 3
        assert HVector((1,)).codimension == 0

    def test_sequence_protocol(self):
        h = HVector((1, 3, 1))
        assert len(h) == 3
        assert list(h) == [1, 3, 1]
        assert h[1] == 3

    @pytest.mark.parametrize(
        "bad",
        [(), (0,), (2, 1), (1, -1, 2), (1, 0, 2), (0, 0), (1, 2, 0, 1)],
    )
    def test_rejects_malformed_input(self, bad):
        with pytest.raises(ValueError):
            HVector(bad)

    @pytest.mark.parametrize(
        "bad, degree",
        [
            ((1, 2.7, 1.2), 1),
            (("1", "3", "3", "1"), 0),
            ((1, 3, 3.0, 1), 2),
            ((1, 2, 1, 0.0), 3),
            ((True, 1), 0),
        ],
    )
    def test_rejects_non_integer_entries(self, bad, degree):
        with pytest.raises(ValueError, match=f"at degree {degree} is not an integer"):
            HVector(bad)


class Small(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


# ints, bools, floats, an IntEnum, negatives and zeros; the lead and the tail are drawn apart
ENTRIES = st.one_of(st.integers(-2, 5), st.booleans(), st.sampled_from([0.0, 1.0, 2.5]),
                    st.sampled_from(Small))
MIXED_VECTORS = st.builds(
    lambda lead, body, tail: (lead, *body, *tail),
    st.sampled_from([1, 1, 1, 1, 2, 0, -1, True, 1.0, Small.ONE]),
    st.one_of(st.lists(st.integers(-1, 5), max_size=6), st.lists(ENTRIES, max_size=6)),
    st.lists(st.sampled_from([0, 0, False, 0.0, Small.ZERO]), max_size=3),
)


@given(MIXED_VECTORS)
@example(())
@example((0, 0))
@example((1, 3, 3, 1))
@example((1, 2, 0, 1))
@example((1, Small.TWO, 0))
@example((1, 2, -1, 0))
def test_hvector_accepts_exactly_what_the_naive_rule_accepts(values):
    kept, message = naive_hvector(values)
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HVector(values)
    else:
        h = HVector(values)
        assert h.entries == kept
        assert {type(value) for value in h.entries} == {int}


def test_int_subclass_entries_are_kept_as_ints():
    assert repr(HVector((1, Small.TWO, 1))) == repr(HVector((1, 2, 1))) == "HVector(entries=(1, 2, 1))"


class TestOSequence:
    def test_generic_growth(self):
        assert is_o_sequence((1, 3, 6, 10))

    def test_violation_degree_is_the_step(self):
        assert o_sequence_violation((1, 2, 4)) == 1

    def test_tight_plateau_case(self):
        # the step 5 -> 6 at degree 4 is exactly at the bound
        assert is_o_sequence((1, 3, 6, 6, 5, 6, 6, 3, 1))

    def test_zero_tail_is_fine_but_internal_zero_is_not(self):
        assert is_o_sequence((1, 2, 0))
        assert o_sequence_violation((1, 2, 0, 1)) == 2

    def test_requires_leading_one_and_non_negative(self):
        with pytest.raises(ValueError):
            o_sequence_violation((2, 1))
        with pytest.raises(ValueError):
            o_sequence_violation((1, -1))


class TestFirstDifference:
    def test_examples(self):
        assert first_difference((1, 3, 4)) == (1, 2, 1)
        assert first_difference((1,)) == (1,)
        assert first_difference((1, 3, 2)) == (1, 2, -1)

    @given(st.lists(st.integers(0, 30), min_size=0, max_size=8))
    def test_partial_sums_invert(self, tail):
        seq = (1, *tail)
        diff = first_difference(seq)
        total = 0
        rebuilt = []
        for d in diff:
            total += d
            rebuilt.append(total)
        assert tuple(rebuilt) == seq


class TestDifferentiable:
    def test_examples(self):
        assert is_differentiable((1, 3, 4))
        assert not is_differentiable((1, 3, 2))
        assert not is_differentiable((1, 2, 4))

    def test_zero_tail_of_difference_is_allowed(self):
        # difference (1, 2, 0) has a vanishing tail, still legal growth
        assert is_differentiable((1, 3, 3))

    def test_internal_zero_of_difference_is_rejected(self):
        # difference (1, 2, 0, 1) regrows after vanishing
        assert differentiability_violation((1, 3, 3, 4)) == 2


@st.composite
def _starting_with_one(draw):
    """(1, ...) with dips, internal zeros, a plateau (zeros of the first difference), zero tail."""
    values = [1] + draw(st.lists(st.integers(0, 12), max_size=7))
    values += [values[-1]] * draw(st.integers(0, 2))
    return tuple(values + [0] * draw(st.integers(0, 4)))


class TestPredicatesAgainstTheNaiveOracle:
    @given(_starting_with_one())
    @example((1, 3, 3, 4))  # the difference regrows after vanishing
    @example((1, 2, 0, 1))  # an internal zero regrows
    @example((1, 3, 6, 10, 0, 0, 0, 0))  # a long zero tail after growth at the bound
    @example((1, 3, 0, 0, 2))  # zeros that are not a tail
    def test_violation_degrees_match(self, seq):
        assert o_sequence_violation(seq) == naive_growth_violation(seq)
        assert differentiability_violation(seq) == naive_differentiability_violation(seq)

    @given(st.lists(st.integers(-3, 12), max_size=6).filter(lambda values: values[:1] != [1]))
    def test_a_sequence_not_starting_with_one_is_refused(self, values):
        with pytest.raises(ValueError):
            o_sequence_violation(values)
        with pytest.raises(ValueError):
            differentiability_violation(values)


class TestShapePredicates:
    def test_symmetry(self):
        assert is_symmetric((1, 3, 4, 3, 1))
        assert is_symmetric((1, 3, 3, 1))
        assert not is_symmetric((1, 3, 4, 1))
        assert symmetry_violation((1, 3, 4, 1)) == 1

    def test_unimodality(self):
        assert is_unimodal((1, 3, 4, 3, 1))
        assert not is_unimodal((1, 13, 12, 13, 1))
        assert is_unimodal((1, 3, 3, 3, 1))
        assert is_unimodal((1, 1, 2, 2, 1))

    def test_first_half(self):
        assert first_half((1, 3, 4, 3, 1)) == (1, 3, 4)
        assert first_half((1, 3, 3, 1)) == (1, 3)
        assert first_half((1,)) == (1,)

    @given(symmetric_hvectors())
    def test_symmetry_is_reversal_stability(self, h):
        assert is_symmetric(h.entries)
        assert tuple(reversed(h.entries)) == h.entries


class TestSISequence:
    def test_examples(self):
        assert is_si_sequence((1, 3, 4, 3, 1))
        assert not is_si_sequence((1, 3, 6, 6, 5, 6, 6, 3, 1))
        for length in range(1, 9):
            assert is_si_sequence((1,) * length)

    def test_violation_reasons_carry_degrees(self):
        reasons = si_violations((1, 3, 6, 6, 5, 6, 6, 3, 1))
        assert [r.kind for r in reasons] == [ReasonKind.FIRST_HALF_NOT_DIFFERENTIABLE]
        assert reasons[0].degree == 4
        reasons = si_violations((1, 3, 4, 1))
        assert ReasonKind.NOT_SYMMETRIC in {r.kind for r in reasons}

    @given(
        st.lists(st.integers(-2, 6), max_size=5).map(lambda tail: [1, *tail])
        | st.lists(st.integers(-2, 6), max_size=6),
        st.sampled_from([None, 0, 1]),
        st.integers(0, 2),
    )
    @example([], None, 0)
    @example([], None, 2)
    @example([1, -1], 0, 0)
    @example([1, 3, 3], 1, 0)
    @example([1, 3, 3], 1, 1)
    def test_is_si_sequence_is_the_negation_of_si_violations(self, half, mirror, zeros):
        # any int list, empty, negative or with a zero tail: the same answer or the same error;
        # a half is kept as it is, or mirrored to an odd (0) or even (1) socle degree
        seq = half + ([] if mirror is None else half[::-1][mirror:]) + [0] * zeros

        def outcome(test):
            try:
                return test(seq)
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(is_si_sequence) == outcome(lambda seq: not si_violations(seq)), seq


class TestClassifier:
    def test_codim3_not_gorenstein(self):
        report = classify_gorenstein(HVector((1, 3, 6, 6, 5, 6, 6, 3, 1)))
        assert report.verdict == Verdict.NOT_GORENSTEIN
        assert report.codimension == 3
        assert report.reasons[0].kind == ReasonKind.FIRST_HALF_NOT_DIFFERENTIABLE

    def test_complete_intersection_vector_is_gorenstein(self):
        report = classify_gorenstein(HVector((1, 3, 3, 1)))
        assert report.verdict == Verdict.GORENSTEIN
        assert report.reasons[0].kind == ReasonKind.SI_WITNESS

    def test_high_codimension_non_unimodal_is_undecided(self):
        report = classify_gorenstein(HVector((1, 13, 12, 13, 1)))
        assert report.verdict == Verdict.UNDECIDED
        assert report.reasons[0].kind == ReasonKind.OUT_OF_SCOPE_CODIMENSION

    def test_field_is_gorenstein(self):
        assert classify_gorenstein(HVector((1,))).verdict == Verdict.GORENSTEIN

    @pytest.mark.parametrize("r", [2, 3, 4, 7])
    def test_two_step_vectors_are_not_gorenstein(self, r):
        # (1, r) is asymmetric for r >= 2: top socle dimension r can't be 1
        report = classify_gorenstein(HVector((1, r)))
        assert report.verdict == Verdict.NOT_GORENSTEIN

    def test_asymmetric_high_codimension_is_still_decided(self):
        # symmetry is necessary in every codimension
        report = classify_gorenstein(HVector((1, 4, 2, 1)))
        assert report.verdict == Verdict.NOT_GORENSTEIN
        assert report.reasons[0].kind == ReasonKind.NOT_SYMMETRIC

    def test_growth_violation_high_codimension_is_still_decided(self):
        # (1, 4, 11, 4, 1) is symmetric but over the growth bound at step 1
        report = classify_gorenstein(HVector((1, 4, 11, 4, 1)))
        assert report.verdict == Verdict.NOT_GORENSTEIN
        assert report.reasons[0].kind == ReasonKind.NOT_O_SEQUENCE

    @pytest.mark.parametrize("entries, verdict, reasons", [
        ((1, 3, 3, 1), Verdict.GORENSTEIN, ((ReasonKind.SI_WITNESS,),)),
        # codimension <= 3 keeps both reasons
        ((1, 3, 2, 1, 1), Verdict.NOT_GORENSTEIN,
         ((ReasonKind.NOT_SYMMETRIC, 1), (ReasonKind.FIRST_HALF_NOT_DIFFERENTIABLE, 2))),
        # codimension >= 4 keeps only the symmetry reason
        ((1, 4, 3, 1, 1), Verdict.NOT_GORENSTEIN, ((ReasonKind.NOT_SYMMETRIC, 1),)),
        ((1, 4, 11, 4, 1), Verdict.NOT_GORENSTEIN, ((ReasonKind.NOT_O_SEQUENCE, 1),)),
        ((1, 13, 12, 13, 1), Verdict.UNDECIDED, ((ReasonKind.OUT_OF_SCOPE_CODIMENSION,),)),
    ])
    def test_each_branch_builds_the_public_types(self, entries, verdict, reasons):
        report = classify_gorenstein(HVector(entries))
        expected = ClassificationReport(verdict, entries[1], tuple(Reason(*r) for r in reasons))
        assert type(report) is ClassificationReport
        assert all(type(reason) is Reason for reason in report.reasons)
        assert report._asdict() == expected._asdict()
        assert [r._asdict() for r in report.reasons] == [r._asdict() for r in expected.reasons]
        assert repr(report) == repr(expected)
        assert hash(report) == hash(expected)
        assert list(map(str, report.reasons)) == list(map(str, expected.reasons))

    @given(small_hvectors())
    def test_report_invariants(self, h):
        report = classify_gorenstein(h)
        kinds = {r.kind for r in report.reasons}
        if report.verdict == Verdict.GORENSTEIN:
            assert kinds == {ReasonKind.SI_WITNESS}
            assert is_si_sequence(h.entries)
        elif report.verdict == Verdict.UNDECIDED:
            assert report.codimension >= 4
            assert is_symmetric(h.entries)
            assert is_o_sequence(h.entries)
            assert not is_si_sequence(h.entries)
        else:
            assert kinds
            assert ReasonKind.SI_WITNESS not in kinds

    @given(small_hvectors())
    def test_codim_le_3_is_always_decided(self, h):
        if h.codimension <= 3:
            assert classify_gorenstein(h).verdict != Verdict.UNDECIDED

    @given(symmetric_hvectors())
    def test_classification_is_reversal_stable(self, h):
        reversed_h = HVector(tuple(reversed(h.entries)))
        assert classify_gorenstein(h) == classify_gorenstein(reversed_h)


class TestBoxImplications:
    """Sampled versions of the exhaustive-box implications (full sweep in acceptance)."""

    box = st.lists(st.integers(0, 15), min_size=0, max_size=7).map(
        lambda tail: (1, *tail)
    )

    @given(box)
    def test_differentiable_implies_o_sequence(self, v):
        if v[1:2] and v[1] > 4:
            v = (1, min(v[1], 4), *v[2:])
        if is_differentiable(v):
            assert is_o_sequence(v)

    @given(box)
    def test_si_implies_unimodal_and_o_sequence(self, v):
        if is_si_sequence(v):
            assert is_unimodal(v)
            assert is_o_sequence(v)
