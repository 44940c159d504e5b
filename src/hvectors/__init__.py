"""Combinatorics of Hilbert functions of standard graded artinian algebras.

The toolkit covers exact binomial expansions and the Macaulay growth
operator, the O-sequence / differentiability / symmetry / SI predicates on
h-vectors, a three-way Gorenstein classifier that is complete in
codimension <= 3, monomial-quotient oracles (lex-segment realizations,
socle vectors, brute-force maximal growth), pivot decompositions with
growth-trace verification, and deterministic enumeration of h-vector
families.

Importing the package loads none of its modules: the first use of a public
name (PEP 562) imports the module that defines it, once, and binds the name
here, so later lookups are plain attribute reads.
"""

from importlib import import_module as _import_module

# home module: the public names it defines
_PUBLIC = {
    "binomials": ("BinomialExpansion", "binom", "expand", "macaulay_bound"),
    "decomposition": (
        "DegreeTrace", "InequalityCheck", "PivotDecomposition", "RefutationReport",
        "RefutedCandidate", "TraceCase", "find_pivot_decomposition", "refute_non_si",
        "verify_decomposition_traces",
    ),
    "enumeration": ("EnumerationSpec", "count_by_degree", "enumerate_hvectors"),
    "errors": (
        "InfeasibleSearchError", "NotAnOSequenceError", "PreconditionViolatedError",
        "TraceViolationError", "UnsupportedCodimensionError",
    ),
    "monomials": (
        "Monomial", "SocleVector", "SurvivorTable", "complete_intersection_hvector",
        "complete_intersection_table", "divisors", "hilbert_function",
        "lex_segment_realization", "max_growth_bruteforce", "monomials_of_degree",
        "render_monomial", "socle_vector",
    ),
    "sequences": (
        "ClassificationReport", "HVector", "Reason", "ReasonKind", "SequenceFilter", "Verdict",
        "classify_gorenstein", "differentiability_violation", "first_difference", "first_half",
        "is_differentiable", "is_o_sequence", "is_si_sequence", "is_symmetric", "is_unimodal",
        "o_sequence_violation", "si_violations", "symmetry_violation", "unimodality_violation",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:  # a submodule, reachable as an attribute as when the package loaded them all
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
