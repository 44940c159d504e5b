"""Value semantics of the public result types: equality, hashing, copying, immutability, repr."""

import copy
import pickle

import pytest

from hvectors import (
    BinomialExpansion,
    ClassificationReport,
    DegreeTrace,
    EnumerationSpec,
    HVector,
    InequalityCheck,
    PivotDecomposition,
    Reason,
    ReasonKind,
    RefutationReport,
    RefutedCandidate,
    SequenceFilter,
    SocleVector,
    SurvivorTable,
    TraceCase,
    Verdict,
    classify_gorenstein,
    count_by_degree,
    expand,
    find_pivot_decomposition,
    lex_segment_realization,
    refute_non_si,
    socle_vector,
    verify_decomposition_traces,
)


def _trace():
    h = HVector((1, 3, 4, 3, 1))
    return verify_decomposition_traces(h, find_pivot_decomposition(h))[0]


def _small_step_trace():
    # the degree-3 trace of a constant plateau: a small residual step, with three checks
    h = HVector((1, 3, 3, 3, 3, 3, 1))
    return verify_decomposition_traces(h, find_pivot_decomposition(h))[1]


# (built by the library or by hand, its rebuilt copy, the repr the types have always had)
CASES = {
    "BinomialExpansion": (
        lambda: expand(6, 3),
        lambda: BinomialExpansion(value=6, index=3, terms=((4, 3), (2, 2), (1, 1))),
        "BinomialExpansion(value=6, index=3, terms=((4, 3), (2, 2), (1, 1)))",
    ),
    "Reason": (
        lambda: Reason(ReasonKind.NOT_SYMMETRIC, 2),
        lambda: Reason(kind=ReasonKind.NOT_SYMMETRIC, degree=2),
        "Reason(kind=<ReasonKind.NOT_SYMMETRIC: 'not_symmetric'>, degree=2)",
    ),
    "ClassificationReport": (
        lambda: classify_gorenstein(HVector((1, 3, 6, 6, 5, 6, 6, 3, 1))),
        lambda: ClassificationReport(
            Verdict.NOT_GORENSTEIN, 3, (Reason(ReasonKind.FIRST_HALF_NOT_DIFFERENTIABLE, 4),)
        ),
        "ClassificationReport(verdict=<Verdict.NOT_GORENSTEIN: 'NotGorenstein'>, "
        "codimension=3, reasons=(Reason(kind=<ReasonKind.FIRST_HALF_NOT_DIFFERENTIABLE: "
        "'first_half_not_differentiable'>, degree=4),))",
    ),
    "PivotDecomposition": (
        lambda: find_pivot_decomposition(HVector((1, 3, 4, 3, 1))),
        lambda: PivotDecomposition(pivot=1, subtrahend=(1, 1, 1, 1), residual=(1, 2, 3, 2, 0)),
        "PivotDecomposition(pivot=1, subtrahend=(1, 1, 1, 1), residual=(1, 2, 3, 2, 0))",
    ),
    "InequalityCheck": (
        lambda: InequalityCheck("(1)", 1, 2),
        lambda: InequalityCheck(label="(1)", lhs=1, rhs=2),
        "InequalityCheck(label='(1)', lhs=1, rhs=2)",
    ),
    "InequalityCheck, library-built": (
        lambda: _small_step_trace().inequalities[2],
        lambda: InequalityCheck(label="(3)", lhs=0, rhs=0),
        "InequalityCheck(label='(3)', lhs=0, rhs=0)",
    ),
    "DegreeTrace, three checks": (
        _small_step_trace,
        lambda: DegreeTrace(3, TraceCase.RESIDUAL_STEP_SMALL, (
            InequalityCheck("(1)", 0, 0), InequalityCheck("(2)", 0, 0), InequalityCheck("(3)", 0, 0),
        )),
        "DegreeTrace(degree=3, case=<TraceCase.RESIDUAL_STEP_SMALL: 'residual_step_small'>, "
        "inequalities=(InequalityCheck(label='(1)', lhs=0, rhs=0), InequalityCheck(label='(2)', "
        "lhs=0, rhs=0), InequalityCheck(label='(3)', lhs=0, rhs=0)))",
    ),
    "DegreeTrace": (
        _trace,
        lambda: DegreeTrace(2, TraceCase.RESIDUAL_STEP_GENERIC, (InequalityCheck("(1)", 1, 2),)),
        "DegreeTrace(degree=2, case=<TraceCase.RESIDUAL_STEP_GENERIC: 'residual_step_generic'>, "
        "inequalities=(InequalityCheck(label='(1)', lhs=1, rhs=2),))",
    ),
    "RefutedCandidate": (
        lambda: RefutedCandidate((1, 2, 1), 3),
        lambda: RefutedCandidate(subtrahend=(1, 2, 1), violation_degree=3),
        "RefutedCandidate(subtrahend=(1, 2, 1), violation_degree=3)",
    ),
    "RefutationReport": (
        lambda: refute_non_si(HVector((1, 3, 2, 3, 1))),
        lambda: RefutationReport(
            HVector((1, 3, 2, 3, 1)),
            (RefutedCandidate((1, 1, 1, 1), 3), RefutedCandidate((1, 2, 2, 1), 3)),
            (),
        ),
        "RefutationReport(h=HVector(entries=(1, 3, 2, 3, 1)), refuted=(RefutedCandidate("
        "subtrahend=(1, 1, 1, 1), violation_degree=3), RefutedCandidate(subtrahend=(1, 2, 2, 1), "
        "violation_degree=3)), survivors=())",
    ),
    "SurvivorTable": (
        lambda: lex_segment_realization(HVector((1, 2, 2))),
        lambda: SurvivorTable(2, (((0, 0),), ((1, 0), (0, 1)), ((1, 1), (0, 2)))),
        "SurvivorTable(num_variables=2, per_degree=(((0, 0),), ((1, 0), (0, 1)), "
        "((1, 1), (0, 2))))",
    ),
    "SocleVector": (
        lambda: socle_vector(lex_segment_realization(HVector((1, 2, 2)))),
        lambda: SocleVector((0, 0, 2)),
        "SocleVector(entries=(0, 0, 2))",
    ),
    "EnumerationSpec": (
        lambda: EnumerationSpec(4, 3),
        lambda: EnumerationSpec(socle_degree=4, codimension=3, entry_cap=25,
                                filter=SequenceFilter.SI),
        "EnumerationSpec(socle_degree=4, codimension=3, entry_cap=25, "
        "filter=<SequenceFilter.SI: 'si'>)",
    ),
    "HVector": (
        lambda: HVector((1, 2, 1)),
        lambda: HVector([1, 2, 1, 0]),
        "HVector(entries=(1, 2, 1))",
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    built, rebuilt, text = CASES[request.param]
    return built(), rebuilt(), text


def test_equals_and_hashes_like_a_rebuilt_copy(case):
    value, copy_, _ = case
    assert value == copy_
    assert hash(value) == hash(copy_)


def test_repr_is_unchanged(case):
    value, _, text = case
    assert repr(value) == text


def test_pickle_and_deepcopy_round_trip(case):
    value, _, text = case
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert clone == value
        assert type(clone) is type(value)
        assert repr(clone) == text


def test_fields_cannot_be_assigned(case):
    value, _, text = case
    field = text.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert repr(value) == text


def test_library_built_traces_read_by_field():
    trace = _small_step_trace()
    assert type(trace) is DegreeTrace
    assert (trace.degree, trace.case) == (3, TraceCase.RESIDUAL_STEP_SMALL)
    assert trace._fields == ("degree", "case", "inequalities")
    for check, label in zip(trace.inequalities, ("(1)", "(2)", "(3)")):
        assert type(check) is InequalityCheck
        assert (check.label, check.lhs, check.rhs, check.holds) == (label, 0, 0, True)
        assert check._asdict() == {"label": label, "lhs": 0, "rhs": 0}
    assert trace._replace(degree=4) == (4, trace.case, trace.inequalities)
    (check,) = _trace().inequalities
    assert (check.label, check.lhs, check.rhs, check.holds) == ("(1)", 1, 2, True)
    assert check[1:] == (1, 2)


def test_hvector_is_not_a_tuple():
    assert HVector((1, 2, 1)) != (1, 2, 1)
    assert (1, 2, 1) != HVector((1, 2, 1))
    assert HVector((1, 2, 1, 0)) == HVector([1, 2, 1])
    assert len({HVector((1, 2, 1)), HVector([1, 2, 1, 0])}) == 1
    h = HVector((1, 2, 1))
    with pytest.raises(AttributeError):
        del h.entries
    with pytest.raises(AttributeError):
        h.socle = 2


def test_enumeration_spec_defaults_and_checks():
    spec = EnumerationSpec(4, 3)
    assert spec == EnumerationSpec(socle_degree=4, codimension=3)
    assert (spec.entry_cap, spec.filter) == (25, SequenceFilter.SI)
    for args, message in [((-1, 3), "socle degree"), ((4, 0), "codimension"),
                          ((4, 3, 2), "entry cap 2 is below")]:
        with pytest.raises(ValueError, match=message):
            EnumerationSpec(*args)
    for field, name in enumerate(["socle degree", "codimension", "entry cap"]):
        for value in (True, 3.0, "3"):
            args = [4, 3, 25]
            args[field] = value
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                EnumerationSpec(*args)
    with pytest.raises(ValueError, match="entry cap must be an integer, got 7.0"):
        count_by_degree(3, 6, 7.0, SequenceFilter.SI)
