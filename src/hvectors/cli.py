"""Batch command-line interface with deterministic, machine-readable output.

Exit codes: 0 success (SI / Gorenstein / clean search), 1 negative result
(predicate failure, NotGorenstein, no realization or decomposition),
2 malformed input or violated precondition, 3 Undecided classification,
4 mathematically impossible outcome (a refutation survivor or a failing
growth trace, i.e. an implementation bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .binomials import expand
from .decomposition import (
    PreconditionViolatedError,
    TraceViolationError,
    UnsupportedCodimensionError,
    find_pivot_decomposition,
    refute_non_si,
    verify_decomposition_traces,
)
from .enumeration import (
    EnumerationSpec,
    SequenceFilter,
    count_by_degree,
    enumerate_hvectors,
)
from .monomials import (
    NotAnOSequenceError,
    lex_segment_realization,
    render_monomial,
    socle_vector,
)
from .sequences import (
    HVector,
    Verdict,
    classify_gorenstein,
    differentiability_violation,
    first_half,
    o_sequence_violation,
    si_violations,
    strip_trailing_zeros,
    symmetry_violation,
    unimodality_violation,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_IMPOSSIBLE = 4


def _parse_hvector(text: str) -> HVector:
    tokens = [t.strip() for t in text.split(",")]
    values = []
    for token in tokens:
        if not token:
            raise ValueError(f"empty entry in {text!r}")
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"not an integer: {token!r}") from None
    return HVector(values)


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _render_entries(entries: Sequence[int]) -> str:
    return ",".join(str(x) for x in entries)


def _verdict_line(name: str, violation: int | None) -> str:
    if violation is None:
        return f"{name}: true"
    return f"{name}: false (first violation at degree {violation})"


def _predicate_violations(h: HVector) -> dict[str, int | None]:
    return {
        "o_sequence": o_sequence_violation(h.entries),
        "symmetric": symmetry_violation(h.entries),
        "unimodal": unimodality_violation(h.entries),
        "first_half_differentiable": differentiability_violation(first_half(h.entries)),
    }


def _json_report(h: HVector, certificate) -> str:
    verdicts = {
        name: {"holds": violation is None, "first_violation": violation}
        for name, violation in _predicate_violations(h).items()
    }
    verdicts["si_sequence"] = {"holds": not si_violations(h.entries), "first_violation": None}
    payload = {
        "input": list(h.entries),
        "verdicts": verdicts,
        "certificate": certificate,
        "version": SCHEMA_VERSION,
    }
    return json.dumps(payload, separators=(",", ":"))


def _cmd_expand(args: argparse.Namespace) -> int:
    if args.n < 1:
        return _fail("n must be positive")
    if args.i < 1:
        return _fail("i must be positive")
    expansion = expand(args.n, args.i)
    print(f"{args.n} = {expansion}; bound = {expansion.bound()}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        h = _parse_hvector(args.hvector)
    except ValueError as exc:
        return _fail(str(exc))
    si = not si_violations(h.entries)
    if args.json:
        print(_json_report(h, certificate=None))
    else:
        print(f"h = {h} (socle degree {h.socle_degree}, codimension {h.codimension})")
        for name, violation in _predicate_violations(h).items():
            print(_verdict_line(name, violation))
        print(f"si_sequence: {'true' if si else 'false'}")
    return EXIT_OK if si else EXIT_NEGATIVE


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        h = _parse_hvector(args.hvector)
    except ValueError as exc:
        return _fail(str(exc))
    report = classify_gorenstein(h)
    if args.json:
        certificate = {
            "verdict": report.verdict.value,
            "codimension": report.codimension,
            "reasons": [
                {"kind": reason.kind.value, "degree": reason.degree}
                for reason in report.reasons
            ],
        }
        print(_json_report(h, certificate))
    else:
        print(f"h = {h} (socle degree {h.socle_degree}, codimension {h.codimension})")
        print(f"verdict: {report.verdict.value}")
        print(f"reasons: {'; '.join(str(r) for r in report.reasons)}")
    return {
        Verdict.GORENSTEIN: EXIT_OK,
        Verdict.NOT_GORENSTEIN: EXIT_NEGATIVE,
        Verdict.UNDECIDED: EXIT_UNDECIDED,
    }[report.verdict]


def _cmd_realize(args: argparse.Namespace) -> int:
    try:
        h = _parse_hvector(args.hvector)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        table = lex_segment_realization(h)
    except NotAnOSequenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    for degree, level in enumerate(table.per_degree):
        print(f"degree {degree}: {', '.join(render_monomial(m) for m in level)}")
    return EXIT_OK


def _cmd_socle(args: argparse.Namespace) -> int:
    try:
        h = _parse_hvector(args.hvector)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        table = lex_segment_realization(h)
    except NotAnOSequenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    print(str(socle_vector(table)))
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    try:
        h = _parse_hvector(args.hvector)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        decomposition = find_pivot_decomposition(h, args.pivot)
    except (UnsupportedCodimensionError, ValueError) as exc:
        return _fail(str(exc))
    if decomposition is None:
        print(
            f"error: no decomposition of {h} exists at pivot {args.pivot}",
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    traces = []
    if args.pivot == 1 and h.codimension == 3 and symmetry_violation(h.entries) is None:
        try:
            traces = verify_decomposition_traces(h, decomposition)
        except TraceViolationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IMPOSSIBLE
    if args.json:
        certificate = {
            "pivot": decomposition.pivot,
            "subtrahend": list(decomposition.subtrahend),
            "residual": list(decomposition.residual),
            "traces": [
                {
                    "degree": trace.degree,
                    "case": trace.case.value,
                    "inequalities": [
                        {"label": c.label, "lhs": c.lhs, "rhs": c.rhs, "holds": c.holds}
                        for c in trace.inequalities
                    ],
                }
                for trace in traces
            ],
        }
        print(_json_report(h, certificate))
    else:
        subtrahend = _render_entries(decomposition.subtrahend)
        residual = _render_entries(strip_trailing_zeros(decomposition.residual))
        print(f"a = {subtrahend}; residual = {residual}")
        for trace in traces:
            checks = ", ".join(
                f"{c.label}: {c.lhs} <= {c.rhs} {'ok' if c.holds else 'FAIL'}"
                for c in trace.inequalities
            )
            print(f"trace degree {trace.degree}: case {trace.case.value}; {checks}")
    return EXIT_OK


def _cmd_refute(args: argparse.Namespace) -> int:
    try:
        h = _parse_hvector(args.hvector)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        report = refute_non_si(h)
    except PreconditionViolatedError as exc:
        return _fail(str(exc))
    if args.json:
        certificate = {
            "candidates": [
                {
                    "subtrahend": list(candidate.subtrahend),
                    "violation_degree": candidate.violation_degree,
                }
                for candidate in report.refuted
            ],
            "survivors": [list(s) for s in report.survivors],
        }
        print(_json_report(h, certificate))
    else:
        print(f"candidates: {report.candidate_count}, survivors: {len(report.survivors)}")
        for survivor in report.survivors:
            print(f"SURVIVOR: {_render_entries(survivor)}")
    if report.survivors:
        print(
            "error: refutation produced a surviving candidate; this is a bug",
            file=sys.stderr,
        )
        return EXIT_IMPOSSIBLE
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    filter_ = SequenceFilter(args.filter)
    try:
        if args.count_only:
            counts = count_by_degree(args.codim, args.degree, args.cap, filter_)
            for degree in sorted(counts):
                print(json.dumps({"degree": degree, "count": counts[degree]},
                                 separators=(",", ":")))
            return EXIT_OK
        spec = EnumerationSpec(
            socle_degree=args.degree,
            codimension=args.codim,
            entry_cap=args.cap,
            filter=filter_,
        )
    except ValueError as exc:
        return _fail(str(exc))
    for h in enumerate_hvectors(spec):
        print(json.dumps({"h": list(h.entries)}, separators=(",", ":")))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvec",
        description="Growth bounds, h-vector predicates and Gorenstein classification.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_expand = subparsers.add_parser("expand", help="i-binomial expansion and growth bound")
    p_expand.add_argument("n", type=int)
    p_expand.add_argument("i", type=int)
    p_expand.set_defaults(func=_cmd_expand)

    p_check = subparsers.add_parser("check", help="run every predicate on an h-vector")
    p_check.add_argument("hvector")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_classify = subparsers.add_parser("classify", help="three-way Gorenstein verdict")
    p_classify.add_argument("hvector")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=_cmd_classify)

    p_realize = subparsers.add_parser("realize", help="lex-smallest monomial realization")
    p_realize.add_argument("hvector")
    p_realize.set_defaults(func=_cmd_realize)

    p_socle = subparsers.add_parser("socle", help="socle vector of the realization")
    p_socle.add_argument("hvector")
    p_socle.set_defaults(func=_cmd_socle)

    p_decompose = subparsers.add_parser("decompose", help="find a pivot decomposition")
    p_decompose.add_argument("hvector")
    p_decompose.add_argument("--pivot", type=int, default=1)
    p_decompose.add_argument("--json", action="store_true")
    p_decompose.set_defaults(func=_cmd_decompose)

    p_refute = subparsers.add_parser(
        "refute", help="exhaust decomposition candidates against a symmetric non-SI input"
    )
    p_refute.add_argument("hvector")
    p_refute.add_argument("--json", action="store_true")
    p_refute.set_defaults(func=_cmd_refute)

    p_enum = subparsers.add_parser("enumerate", help="stream an h-vector family as JSON lines")
    p_enum.add_argument("--degree", type=int, required=True)
    p_enum.add_argument("--codim", type=int, required=True)
    p_enum.add_argument("--cap", type=int, default=25)
    p_enum.add_argument(
        "--filter",
        default="si",
        choices=[f.value for f in SequenceFilter],
    )
    p_enum.add_argument("--count-only", action="store_true")
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
