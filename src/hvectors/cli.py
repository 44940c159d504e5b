"""Batch command-line interface with deterministic, machine-readable output.

Exit codes: 0 success (SI / Gorenstein / clean search), 1 negative result
(predicate failure, NotGorenstein, no realization or decomposition),
2 malformed input or violated precondition, 3 Undecided classification,
4 mathematically impossible outcome (a refutation survivor or a failing
growth trace, i.e. an implementation bug), 5 budget exceeded (a search
that would run past its fixed budget, or memory ran out; a
RecursionError maps to 5 too, as a guard), 141 stdout closed early (the
reader of a pipe went away, as `head` does; the command ends quietly).

`main` reads a well-formed argv straight from the command table: the
command name, then its positionals and its flags, spelled exactly, in any
order.  It reads them through `_READERS`, one table per command built once,
at import, from `_COMMANDS`: the positionals' names and, per flag, its
attribute, kind, default and whether it is required.  Anything else (help,
`--`, `--flag=value`, an abbreviation, a repeated flag, a missing, leftover
or malformed argument) goes to the argparse parser, which alone prints
help, usage and every argument error, and which is imported only then.
Canonical h-vector text (signed ASCII integers joined by bare commas) is
read with one regular expression; other text is read entry by entry, so
that the error names the bad entry.

Every command needs `sequences` (and with it `binomials`).  A handler
reaches `monomials`, `decomposition` or `enumeration` as an attribute of
the package, which imports each of them on first use, so that a command
loads only the modules it runs; after that first use the lookup is a
dictionary read, where an import statement in the handler would cost a
few microseconds on every call.  Each handler writes its answer with one
`print`; only `enumerate` streams, one line per h-vector.

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
    classify_gorenstein,
    differentiability_violation,
    first_half,
    o_sequence_violation,
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
# canonical h-vector text: such integers joined by bare commas, no whitespace
_CANONICAL_HVECTOR = re.compile(rf"{_INTEGER.pattern}(?:,{_INTEGER.pattern})*")

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
    if _CANONICAL_HVECTOR.fullmatch(text):
        return HVector(map(int, text.split(",")))
    # whitespace or a malformed entry: token by token, so that the error names it
    values = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            raise ValueError(f"empty entry in {text!r}")
        values.append(_parse_integer(token))
    return HVector(values)


def _render_entries(entries: Sequence[int]) -> str:
    return ",".join(map(str, entries))


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


def _heading(h: HVector) -> str:
    return f"h = {h} (socle degree {h.socle_degree}, codimension {h.codimension})"


def _cmd_check(h: HVector, args) -> int:
    violations = _predicate_violations(h)
    si = _is_si(violations)
    if args.json:
        print(_json_report(h, None, violations=violations))
    else:
        lines = [_heading(h)]
        lines += [_verdict_line(name, violation) for name, violation in violations.items()]
        lines.append(f"si_sequence: {'true' if si else 'false'}")
        print("\n".join(lines))
    return EXIT_OK if si else EXIT_NEGATIVE


def _cmd_classify(h: HVector, args) -> int:
    report = classify_gorenstein(h)
    if args.json:
        print(_json_report(h, _plain(report)))
    else:
        reasons = "; ".join(map(str, report.reasons))
        print(f"{_heading(h)}\nverdict: {report.verdict._value_}\nreasons: {reasons}")
    return _VERDICT_EXIT_CODES[report.verdict]


def _cmd_realize(h: HVector, args) -> int:
    levels = hvectors.monomials.lex_realization_names(h)
    print("\n".join(f"degree {d}: {', '.join(names)}" for d, names in enumerate(levels)))
    return EXIT_OK


def _cmd_socle(h: HVector, args) -> int:
    print(str(hvectors.monomials.lex_socle_vector(h)))
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


_STORE_TRUE, _INTEGER_KIND = "store_true", "integer"  # two kinds of flag; see _reader


def _reader(handler, flags):
    """A command's `_read` table, from its `_COMMANDS` flags.

    (handler, positionals, options, defaults, required): positionals holds
    (attribute, kind) in order, options maps each flag's spelling to its
    (attribute, kind), defaults holds each optional flag's default and
    required every attribute a well-formed argv must give.  A kind is
    `_STORE_TRUE`, `_INTEGER_KIND`, a tuple of choices, or None for plain text.
    """
    positionals, options, defaults, required = [], {}, {}, set()
    for flag, keywords in flags:
        name = flag.lstrip("-").replace("-", "_")
        if keywords.get("action") == _STORE_TRUE:
            kind = _STORE_TRUE
        elif "type" in keywords:  # _integer_flag, the one type in the table
            kind = _INTEGER_KIND
        else:
            kind = tuple(keywords["choices"]) if "choices" in keywords else None
        if flag[0] != "-":
            positionals.append((name, kind))
        else:
            options[flag] = (name, kind)
        if keywords.get("required", flag[0] != "-"):
            required.add(name)
        else:
            defaults[name] = keywords.get("default", False)  # only store_true flags have no default
    return handler, tuple(positionals), options, defaults, frozenset(required)


_HVECTOR = ("hvector", {})
_JSON = ("--json", {"action": "store_true"})

# name: (handler, help, ((flag, add_argument keywords), ...)).  A command
# whose flags include _HVECTOR gets the parsed HVector as its first argument.
_COMMANDS = {
    "expand": (_cmd_expand, "i-binomial expansion and growth bound",
               (("n", {"type": _integer_flag}), ("i", {"type": _integer_flag}))),
    "check": (_cmd_check, "run every predicate on an h-vector", (_HVECTOR, _JSON)),
    "classify": (_cmd_classify, "three-way Gorenstein verdict", (_HVECTOR, _JSON)),
    "realize": (_cmd_realize, "lex-smallest monomial realization", (_HVECTOR,)),
    "socle": (_cmd_socle, "socle vector of the realization", (_HVECTOR,)),
    "decompose": (_cmd_decompose, "find a pivot decomposition",
                  (_HVECTOR, ("--pivot", {"type": _integer_flag, "default": 1}), _JSON)),
    "refute": (_cmd_refute,
               "exhaust decomposition candidates against a symmetric non-SI input",
               (_HVECTOR, _JSON)),
    "enumerate": (_cmd_enumerate, "stream an h-vector family as JSON lines", (
        ("--degree", {"type": _integer_flag, "required": True}),
        ("--codim", {"type": _integer_flag, "required": True}),
        ("--cap", {"type": _integer_flag, "default": 25}),
        ("--filter", {"default": "si", "choices": [f.value for f in SequenceFilter]}),
        ("--count-only", {"action": "store_true"}),
    )),
}
_READERS = {name: _reader(handler, flags) for name, (handler, _, flags) in _COMMANDS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hvec` parser, built on first use and shared by every later `main` call.

    Sharing is safe: each `parse_args` call fills a fresh namespace, and
    no flag has a mutable default.
    """
    import argparse  # here, so that a well-formed call never loads it

    parser = argparse.ArgumentParser(
        prog="hvec",
        description="Growth bounds, h-vector predicates and Gorenstein classification.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        subparser = subparsers.add_parser(name, help=help_text)
        for flag, keywords in flags:
            subparser.add_argument(flag, **keywords)
        subparser.set_defaults(func=handler)
    return parser


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` gives, less `command`, for a well-formed argv.

    Reads the command name, then in any order its positionals (tokens not
    starting with "-") and its flags spelled exactly as in `_COMMANDS`,
    each at most once, each value not starting with "-".  Returns None for
    any other argv, so that the parser answers it, help and errors included.
    """
    reader = _READERS.get(argv[0]) if argv else None
    if reader is None:
        return None
    handler, positionals, options, defaults, required = reader
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
            name, kind = options.get(token, (None, None))
            if name is None or name in given:
                return None
            if kind is _STORE_TRUE:
                given[name] = True
                continue
            text = next(tokens, "-")  # a missing value reads as a flag
            if text[:1] == "-":
                return None
        if kind is _INTEGER_KIND:
            text = text.strip()
            if not _INTEGER.fullmatch(text):
                return None
            given[name] = int(text)
        elif kind is None or text in kind:
            given[name] = text
        else:
            return None
    if not required <= given.keys():
        return None
    return SimpleNamespace(func=handler, **{**defaults, **given})


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
