"""Batch command-line interface with deterministic, machine-readable output.

Exit codes: 0 success (SI / Gorenstein / clean search), 1 negative result
(predicate failure, NotGorenstein, no realization or decomposition),
2 malformed input or violated precondition, 3 Undecided classification,
4 mathematically impossible outcome (a refutation survivor or a failing
growth trace, i.e. an implementation bug), 5 budget exceeded (a search
that would run past its fixed budget, or memory ran out; a
RecursionError maps to 5 too, as a guard), 141 stdout closed early (the
reader of a pipe went away, as `head` does; the command ends quietly).

`main` reads a well-formed argv straight from the command table,
`_COMMANDS`: the command name, then its positionals and its flags, spelled
exactly, in any order.  The table gives each positional an attribute and a
kind, and each flag an attribute, a kind and a default, where a default of
None marks a required flag; a kind is int, bool (a switch), a tuple of
choices, or None for plain text.  Anything else (help, `--`,
`--flag=value`, an abbreviation, a repeated flag, a missing, leftover or
malformed argument) goes to the argparse parser, which `build_parser`
makes from the same table for help and errors only: it alone prints help,
usage and every argument error, and argparse is imported only then.
Normal h-vector text (`1`, then positive ASCII integers with no sign or
leading zero, joined by bare commas) is the `str` of its HVector: one
regular expression tells it, its HVector is built with no check, and
`check` and `classify` show it as typed.  Other text is read and checked
entry by entry, so that the error names the bad entry, and is shown as
`str(h)`.

Every command needs `sequences` (and with it `binomials`).  A handler
reaches `monomials`, `decomposition` or `enumeration` as an attribute of
the package, which imports each of them on first use, so that a command
loads only the modules it runs; after that first use the lookup is a
dictionary read, where an import statement in the handler would cost a
few microseconds on every call.  Each handler writes its answer with one
`print`; only `enumerate` streams, one line per h-vector.  `realize` and
`socle` both start from `lex_segment_realization(h)`, the one growth check,
so an h they cannot realize fails both with the same line; neither builds a
level of monomials.

A `--json` certificate is its result type written out by `_plain`: each NamedTuple an
object of its fields in field order, each Enum its value.  Only `decompose` adds to it
(`traces`, each inequality with its `holds`); `refute` renames `refuted` to `candidates`.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from enum import Enum
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

import hvectors

from .binomials import expand
from .errors import InfeasibleSearchError, NotAnOSequenceError, TraceViolationError
from .sequences import (
    HVector,
    SequenceFilter,
    Verdict,
    _growth_violation,
    _normal_hvector,
    _render_entries,
    classify_gorenstein,
    differentiability_violation,
    first_half,
    strip_trailing_zeros,
    symmetry_violation,
    unimodality_violation,
)

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = "1"
# version 2: a refuted entry shorter than the input stands for every
# candidate subtrahend whose first half it is
REFUTE_SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_IMPOSSIBLE = 4
EXIT_BUDGET = 5
EXIT_BROKEN_PIPE = 141  # what a shell reports for a command stopped by SIGPIPE
_VERDICT_EXIT_CODES = {
    Verdict.GORENSTEIN: EXIT_OK,
    Verdict.NOT_GORENSTEIN: EXIT_NEGATIVE,
    Verdict.UNDECIDED: EXIT_UNDECIDED,
}

_INTEGER = re.compile(r"[+-]?[0-9]+")
# normal h-vector text: 1, then positive integers with no sign or leading zero; it is str(h)
_NORMAL_HVECTOR = re.compile(r"1(?:,[1-9][0-9]*)*")

# Checked in order: NotAnOSequenceError is a ValueError, so it must come first.
# The ValueError row also covers UnsupportedCodimensionError,
# PreconditionViolatedError and the HVector and EnumerationSpec checks.
_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (NotAnOSequenceError, EXIT_NEGATIVE),
    (TraceViolationError, EXIT_IMPOSSIBLE),
    (InfeasibleSearchError, EXIT_BUDGET),
    (MemoryError, EXIT_BUDGET),
    (RecursionError, EXIT_BUDGET),
    (ValueError, EXIT_USAGE),
)


def _parse_integer(token: str) -> int:
    """ASCII digits with an optional sign; int() alone also takes '1_0' and non-ASCII digits."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _integer_flag(text: str) -> int:
    try:
        return _parse_integer(text.strip())
    except ValueError as exc:
        import argparse  # only the parser calls this, and it has loaded argparse

        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_hvector(text: str) -> HVector:
    if _NORMAL_HVECTOR.fullmatch(text):  # plain ints >= 1 from 1 on: nothing for HVector to check
        return _normal_hvector(tuple(map(int, text.split(","))))
    # a sign, a leading zero, a zero entry, whitespace or a malformed entry: token by token
    values = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            raise ValueError(f"empty entry in {text!r}")
        values.append(_parse_integer(token))
    return HVector(values)


def _verdict(violation: int | None) -> str:
    return "true" if violation is None else f"false (first violation at degree {violation})"


def _predicate_violations(h: HVector) -> dict[str, int | None]:
    return {  # an HVector meets the guards of o_sequence_violation, so its walk runs alone
        "o_sequence": _growth_violation(h.entries),
        "symmetric": symmetry_violation(h.entries),
        "unimodal": unimodality_violation(h.entries),
        "first_half_differentiable": differentiability_violation(first_half(h.entries)),
    }


def _is_si(violations: dict[str, int | None]) -> bool:
    """An SI-sequence is symmetric with a differentiable first half."""
    return violations["symmetric"] is None and violations["first_half_differentiable"] is None


def _plain(value):
    """A NamedTuple as an object of its fields in order, an Enum as its value, a tuple as a list."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {field: _plain(item) for field, item in zip(value._fields, value)}
    if isinstance(value, Enum):
        return value._value_  # an instance read; .value is a property call
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


def _json_report(h: HVector, certificate, version: str = SCHEMA_VERSION, violations=None) -> str:
    """The --json answer; `violations` are h's `_predicate_violations`, if the caller has them."""
    import json  # here, not at the top, so that only --json pays for loading it

    if violations is None:
        violations = _predicate_violations(h)
    verdicts = {
        name: {"holds": violation is None, "first_violation": violation}
        for name, violation in violations.items()
    }
    verdicts["si_sequence"] = {"holds": _is_si(violations), "first_violation": None}
    payload = {
        "input": list(h.entries),
        "verdicts": verdicts,
        "certificate": certificate,
        "version": version,
    }
    return json.dumps(payload, separators=(",", ":"))


def _cmd_expand(args) -> int:
    expansion = expand(args.n, args.i)
    print(f"{args.n} = {expansion}; bound = {expansion.bound()}")
    return EXIT_OK


def _heading(h: HVector, text: str) -> str:
    """The first line of check and classify; normal text is str(h), so it is shown as typed."""
    shown = text if _NORMAL_HVECTOR.fullmatch(text) else h
    return f"h = {shown} (socle degree {h.socle_degree}, codimension {h.codimension})"


_CHECK = (  # heading, then the verdicts
    "{}\no_sequence: {}\nsymmetric: {}\nunimodal: {}\nfirst_half_differentiable: {}\nsi_sequence: {}"
)


def _cmd_check(h: HVector, args) -> int:
    violations = _predicate_violations(h)
    si = _is_si(violations)
    if args.json:
        print(_json_report(h, None, violations=violations))
    else:
        print(_CHECK.format(_heading(h, args.hvector), *map(_verdict, violations.values()),
                            "true" if si else "false"))
    return EXIT_OK if si else EXIT_NEGATIVE


def _cmd_classify(h: HVector, args) -> int:
    report = classify_gorenstein(h)
    if args.json:
        print(_json_report(h, _plain(report)))
    else:
        reasons = "; ".join(map(str, report.reasons))
        print(f"{_heading(h, args.hvector)}\nverdict: {report.verdict._value_}\nreasons: {reasons}")
    return _VERDICT_EXIT_CODES[report.verdict]


def _cmd_realize(h: HVector, args) -> int:
    levels = hvectors.monomials.lex_realization_names(h)
    print("\n".join(f"degree {d}: {', '.join(names)}" for d, names in enumerate(levels)))
    return EXIT_OK


def _cmd_socle(h: HVector, args) -> int:
    monomials = hvectors.monomials
    print(str(monomials.socle_vector(monomials.lex_segment_realization(h))))
    return EXIT_OK


def _cmd_decompose(h: HVector, args) -> int:
    decomposition = hvectors.decomposition.find_pivot_decomposition(h, args.pivot)
    if decomposition is None:
        print(
            f"error: no decomposition of {h} exists at pivot {args.pivot}",
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    traces = []
    if args.pivot == 1 and h.codimension == 3 and h.entries == h.entries[::-1]:
        traces = hvectors.decomposition.verify_decomposition_traces(h, decomposition)
    if args.json:
        certificate = {**_plain(decomposition), "traces": _plain(traces)}
        for trace in certificate["traces"]:
            for check in trace["inequalities"]:
                check["holds"] = check["lhs"] <= check["rhs"]
        print(_json_report(h, certificate))
    else:
        subtrahend = _render_entries(decomposition.subtrahend)
        residual = _render_entries(strip_trailing_zeros(decomposition.residual))
        lines = [f"a = {subtrahend}; residual = {residual}"]
        for degree, case, inequalities in traces:
            checks = ", ".join(
                f"{label}: {lhs} <= {rhs} {'ok' if lhs <= rhs else 'FAIL'}"
                for label, lhs, rhs in inequalities
            )
            lines.append(f"trace degree {degree}: case {case._value_}; {checks}")
        print("\n".join(lines))
    return EXIT_OK


def _cmd_refute(h: HVector, args) -> int:
    report = hvectors.decomposition.refute_non_si(h)
    if args.json:
        certificate = {"candidates": _plain(report.refuted), "survivors": _plain(report.survivors)}
        print(_json_report(h, certificate, REFUTE_SCHEMA_VERSION))
    else:
        lines = [f"candidates: {report.candidate_count}, survivors: {len(report.survivors)}"]
        lines += [f"SURVIVOR: {_render_entries(survivor)}" for survivor in report.survivors]
        print("\n".join(lines))
    if report.survivors:
        print(
            "error: refutation produced a surviving candidate; this is a bug",
            file=sys.stderr,
        )
        return EXIT_IMPOSSIBLE
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    enumeration = hvectors.enumeration
    filter_ = SequenceFilter(args.filter)
    if args.count_only:
        counts = enumeration.count_by_degree(args.codim, args.degree, args.cap, filter_)
        for degree in sorted(counts):
            print(f'{{"degree":{degree},"count":{counts[degree]}}}')
        return EXIT_OK
    spec = enumeration.EnumerationSpec(
        socle_degree=args.degree,
        codimension=args.codim,
        entry_cap=args.cap,
        filter=filter_,
    )
    for h in enumeration.enumerate_hvectors(spec):
        print(f'{{"h":[{_render_entries(h.entries)}]}}')
    return EXIT_OK


_HVECTOR = (("hvector", None),)
_JSON = {"--json": ("json", bool, False)}

# name: (handler, help, positionals, flags).  positionals holds (attribute,
# kind) in order; flags maps each spelling to (attribute, kind, default),
# and a default of None marks a required flag.  A kind is int, bool (a
# switch), a tuple of choices, or None for plain text.  A command whose
# positionals are _HVECTOR gets the parsed HVector as its first argument.
_COMMANDS = {
    "expand": (_cmd_expand, "i-binomial expansion and growth bound", (("n", int), ("i", int)), {}),
    "check": (_cmd_check, "run every predicate on an h-vector", _HVECTOR, _JSON),
    "classify": (_cmd_classify, "three-way Gorenstein verdict", _HVECTOR, _JSON),
    "realize": (_cmd_realize, "lex-smallest monomial realization", _HVECTOR, {}),
    "socle": (_cmd_socle, "socle vector of the realization", _HVECTOR, {}),
    "decompose": (_cmd_decompose, "find a pivot decomposition",
                  _HVECTOR, {"--pivot": ("pivot", int, 1), **_JSON}),
    "refute": (_cmd_refute,
               "exhaust decomposition candidates against a symmetric non-SI input",
               _HVECTOR, _JSON),
    "enumerate": (_cmd_enumerate, "stream an h-vector family as JSON lines", (), {
        "--degree": ("degree", int, None),
        "--codim": ("codim", int, None),
        "--cap": ("cap", int, 25),
        "--filter": ("filter", tuple(f.value for f in SequenceFilter), "si"),
        "--count-only": ("count_only", bool, False),
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hvec` parser, built from `_COMMANDS` on first use and shared by later `main` calls.

    Sharing is safe: each `parse_args` call fills a fresh namespace, and
    no flag has a mutable default.
    """
    import argparse  # here, so that a well-formed call never loads it

    parser = argparse.ArgumentParser(
        prog="hvec",
        description="Growth bounds, h-vector predicates and Gorenstein classification.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    keywords = {int: {"type": _integer_flag}, bool: {"action": "store_true"}, None: {}}  # per kind
    for name, (handler, help_text, positionals, flags) in _COMMANDS.items():
        subparser = subparsers.add_parser(name, help=help_text)
        for attribute, kind in positionals:
            subparser.add_argument(attribute, **keywords.get(kind, {"choices": kind}))
        for flag, (attribute, kind, default) in flags.items():
            subparser.add_argument(flag, dest=attribute, default=default, required=default is None,
                                   **keywords.get(kind, {"choices": kind}))
        subparser.set_defaults(func=handler)
    return parser


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` gives, less `command`, for a well-formed argv.

    Reads the command name, then in any order its positionals (tokens not
    starting with "-") and its flags spelled exactly as in `_COMMANDS`,
    each at most once, each value not starting with "-".  Returns None for
    any other argv, so that the parser answers it, help and errors included.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    handler, _, positionals, flags = command
    given = {}
    at = 0  # the next positional
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if at == len(positionals):
                return None
            name, kind = positionals[at]
            at += 1
            text = token
        else:
            name, kind, _ = flags.get(token, (None, None, None))
            if name is None or name in given:
                return None
            if kind is bool:
                given[name] = True
                continue
            text = next(tokens, "-")  # a missing value reads as a flag
            if text[:1] == "-":
                return None
        if kind is int:
            text = text.strip()
            if not _INTEGER.fullmatch(text):
                return None
            given[name] = int(text)
        elif kind is None or text in kind:
            given[name] = text
        else:
            return None
    if at < len(positionals):
        return None
    for name, _, default in flags.values():
        if name not in given:
            if default is None:  # a required flag
                return None
            given[name] = default
    return SimpleNamespace(func=handler, **given)


def _parse_args(argv: Sequence[str] | None):
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


def _detach_stdout() -> None:
    """Point a stdout that has a file descriptor at os.devnull.

    After a broken pipe, this leaves the flush at interpreter exit nowhere
    to fail; an in-process stream without a descriptor is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = _parse_args(argv)
            if "hvector" in vars(args):
                return args.func(_parse_hvector(args.hvector), args)
            return args.func(args)
        except tuple(kind for kind, _ in _EXIT_CODES) as exc:
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
        finally:  # after argparse's help and errors too: a closed pipe shows here, not at exit
            sys.stdout.flush()
    except BrokenPipeError:
        _detach_stdout()
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
