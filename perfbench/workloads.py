"""The three workloads: their seeded inputs, the calls they make and the checks on each answer.

An operation is an `Op(label, call, check)`: `call()` drives the package
through its public functions and returns what it answered; `check(answer)`
returns None when the answer is right and a message otherwise.  Expected
answers come from `oracle`, from how an input was constructed, from the
frozen catalog of the acceptance tests, or from the golden files, never from
the function under test.  Library names are looked up when an operation
runs, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "goldens"

# frozen catalog sizes (tests/test_acceptance.py), codimension 3, entry cap 25
SI_COUNTS = {2: 1, 3: 1, 4: 4, 5: 4, 6: 11, 7: 11, 8: 26}
SYMMETRIC_NOT_SI_COUNTS = {2: 0, 3: 0, 4: 21, 5: 21, 6: 614, 7: 614, 8: 15599}
GROWTH_GRID = [(n, i) for n in range(1, 7) for i in range(1, 4)]

# the CLI goldens (tests/test_cli.py): argv, golden file, exit code
GOLDENS = [
    (["expand", "4", "2"], "expand_4_2.txt", 0),
    (["check", "1,3,4,3,1"], "check_1-3-4-3-1.txt", 0),
    (["classify", "1,13,12,13,1"], "classify_1-13-12-13-1.txt", 3),
    (["decompose", "1,3,4,3,1"], "decompose_1-3-4-3-1.txt", 0),
    (["realize", "1,2,2"], "realize_1-2-2.txt", 0),
    (["refute", "1,3,6,6,5,6,6,3,1"], "refute_1-3-6-6-5-6-6-3-1.txt", 0),
    (["enumerate", "--degree", "4", "--codim", "3", "--filter", "si"], "enumerate_si_d4.txt", 0),
    (["classify", "1,3,3,1", "--json"], "classify_1-3-3-1.json", 0),
]


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list[Op]
    gate: Callable[[], list[str]]  # whole-workload checks, run once after the timed passes
    budget_s: float  # an operation slower than this counts as failed


def text(h) -> str:
    return ",".join(str(x) for x in h)


# -- campaign ----------------------------------------------------------------

def campaign(seed: int) -> Workload:
    """The e <= 8, cap 25 codimension-3 campaign; the box is exhaustive, so the seed is unused."""
    import hvectors as hv

    def family(filter_):
        return {
            e: [h.entries for h in hv.enumerate_hvectors(hv.EnumerationSpec(e, 3, 25, filter_))]
            for e in range(2, 9)
        }

    si = family(hv.SequenceFilter.SI)
    non_si = family(hv.SequenceFilter.SYMMETRIC_NOT_SI)

    def grid_op(n, i):
        def check(answer):
            expected = oracle.growth_bound(n, i)
            return None if answer == (expected, expected) else f"(brute force, bound) {answer} != {expected}"
        return Op(f"grid n={n} i={i}", lambda: (hv.max_growth_bruteforce(n, i, n), hv.macaulay_bound(n, i)), check)

    def decompose_op(h):
        def call():
            decomposition = hv.find_pivot_decomposition(hv.HVector(h), 1)
            if decomposition is not None:
                hv.verify_decomposition_traces(hv.HVector(h), decomposition)  # raises on a failing trace
            return decomposition
        return Op(f"decompose {text(h)}", call, lambda d: check_decomposition(h, d))

    def refute_op(h):
        def check(report):
            if report.survivors:
                return f"survivors {report.survivors}"
            if report.candidate_count != len(report.refuted):
                return "candidate count disagrees with the refuted list"
            return None
        return Op(f"refute {text(h)}", lambda: hv.refute_non_si(hv.HVector(h)), check)

    ops = [grid_op(n, i) for n, i in GROWTH_GRID]
    ops += [decompose_op(h) for e in si for h in si[e]]
    ops += [refute_op(h) for e in non_si for h in non_si[e]]

    def gate():
        problems = []
        for e in range(2, 9):
            if len(si[e]) != SI_COUNTS[e] or len(non_si[e]) != SYMMETRIC_NOT_SI_COUNTS[e]:
                problems.append(f"catalog e={e}: {len(si[e])} SI, {len(non_si[e])} non-SI")
            if si[e] != oracle.si_vectors(3, e, 25):
                problems.append(f"SI family e={e} differs from the reference generator")
            if sorted(si[e] + non_si[e]) != oracle.symmetric_vectors(3, e, 25):
                problems.append(f"SI and non-SI families e={e} do not partition the symmetric box")
        return problems

    return Workload(ops, gate, budget_s=2.0)


def check_decomposition(h, decomposition) -> str | None:
    if decomposition is None:
        return "no decomposition"
    a, residual = tuple(decomposition.subtrahend), tuple(decomposition.residual)
    return check_decomposition_parts(h, a, residual)


def check_decomposition_parts(h, a, residual) -> str | None:
    """h = (1, residual_1 + a_0, ...): the subtrahend is SI and the residual grows legally."""
    expected = (1,) + tuple(h[k] - a[k - 1] for k in range(1, len(h)))
    stripped = list(expected)
    while stripped and stripped[-1] == 0:
        stripped.pop()
    if len(a) != len(h) - 1 or residual not in (expected, tuple(stripped)):
        return f"residual {residual} is not h minus the shifted subtrahend {a}"
    if not oracle.is_si(a):
        return f"subtrahend {a} is not SI"
    if min(expected) < 0 or oracle.growth_violation(expected) is not None:
        return f"residual {expected} is not a legal growth sequence"
    return None


# -- single-vector -----------------------------------------------------------

def run_cli(argv: list[str]):
    """hvectors.cli.main(argv) with stdout and stderr captured: (exit code, out, err)."""
    import hvectors.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = hvectors.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_op(argv: list[str], code: int, check_out: Callable[[str, str], str | None] | None = None) -> Op:
    def check(answer):
        got, out, err = answer
        if "Traceback" in err:
            return "traceback on stderr"
        if got != code:
            return f"exit {got}, expected {code}; stderr {err.strip()!r}"
        if code == 2 and not err.startswith("error:"):
            return f"usage error without a message: {err!r}"
        return check_out(out, err) if check_out else None
    return Op(" ".join(argv), lambda: run_cli(argv), check)


def expect_lines(*lines: str) -> Callable[[str, str], str | None]:
    def check(out, err):
        missing = [line for line in lines if line not in out.splitlines()]
        return f"missing output lines {missing}" if missing else None
    return check


def draw_o_sequence(rng: random.Random, r: int, e: int, cap: int, low: int = 1) -> list[int]:
    h = [1, r]
    for d in range(1, e):
        bound = min(oracle.growth_bound(h[d], d), cap)
        h.append(rng.randint(min(low, bound), bound))
    return h


def draw_si(rng: random.Random, r: int, e: int, cap: int) -> tuple[int, ...]:
    half, delta = [1, r], r - 1
    for d in range(2, e // 2 + 1):
        delta = rng.randint(0, min(oracle.growth_bound(delta, d - 1), cap))
        half.append(half[-1] + delta)
    return oracle.mirror(half, e)


def draw_symmetric_non_si(rng: random.Random, r: int, e: int, cap: int) -> tuple[int, ...]:
    """A symmetric growth-legal vector whose first half descends somewhere, so it is not SI.

    Drawn by rejection; codimension r >= 4 and even socle degree e >= 4 make such vectors common.
    """
    for _ in range(100_000):
        half = draw_o_sequence(rng, r, e // 2, cap)
        h = oracle.mirror(half, e)
        descends = any(b < a for a, b in zip(half, half[1:]))
        if descends and oracle.growth_violation(h) is None:
            return h
    raise RuntimeError(f"no symmetric growth-legal non-SI vector drawn for r={r}, e={e}")


def draw_growth_violating(rng: random.Random, r: int, e: int, cap: int, symmetric: bool):
    """(h, d): h is growth-legal up to degree d and h[d+1] exceeds the bound."""
    span = e // 2 if symmetric else e
    planted = rng.randint(2, span)
    h = draw_o_sequence(rng, r, planted - 1, cap)
    h.append(oracle.growth_bound(h[-1], planted - 1) + rng.randint(1, 3))
    h += [rng.randint(1, cap) for _ in range(span - planted)]
    return (oracle.mirror(h, e) if symmetric else tuple(h)), planted - 1


def corrupt(rng: random.Random, h) -> str:
    """Malformed h-vector text: a bad token, an internal zero, an empty entry or a first entry != 1."""
    tokens = [str(x) for x in h]
    kind = rng.randrange(5)
    if kind == 4:
        tokens[0] = str(rng.randint(2, 9))
    else:
        position = rng.randint(1, len(tokens) - 2)
        tokens[position] = ["x", "", "0", "-1"][kind]
    return ",".join(tokens)


def predicate_ops(rng: random.Random, per_kind: int, malformed: int) -> list[Op]:
    """`check` and `classify` on SI, asymmetric, growth-violating, symmetric non-SI and malformed inputs."""
    ops = []
    for _ in range(per_kind):
        r, e = rng.randint(1, 8), rng.randint(2, 12)
        h = draw_si(rng, r, e, 12)
        ops.append(cli_op(["check", text(h)], 0, expect_lines("o_sequence: true", "symmetric: true", "si_sequence: true")))
        ops.append(cli_op(["classify", text(h)], 0, expect_lines("verdict: Gorenstein")))

        r, e = rng.randint(2, 8), rng.randint(2, 12)
        h = draw_o_sequence(rng, r, e, 40, low=2)  # h_e >= 2 = h_0 + 1, so asymmetric
        ops.append(cli_op(["check", text(h)], 1, expect_lines("o_sequence: true", "symmetric: false (first violation at degree 0)", "si_sequence: false")))
        ops.append(cli_op(["classify", text(h)], 1, expect_lines("verdict: NotGorenstein")))

        r, e = rng.randint(1, 8), rng.randint(4, 12)
        h, d = draw_growth_violating(rng, r, e, 40, symmetric=rng.random() < 0.5)
        line = f"o_sequence: false (first violation at degree {d})"
        ops.append(cli_op(["check", text(h)], 1, expect_lines(line, "si_sequence: false")))
        ops.append(cli_op(["classify", text(h)], 1, expect_lines("verdict: NotGorenstein")))

        r, e = rng.randint(4, 8), 2 * rng.randint(2, 6)
        h = draw_symmetric_non_si(rng, r, e, 40)
        ops.append(cli_op(["check", text(h)], 1, expect_lines("o_sequence: true", "symmetric: true", "si_sequence: false")))
        ops.append(cli_op(["classify", text(h)], 3, expect_lines("verdict: Undecided")))
    for _ in range(malformed):
        bad = corrupt(rng, draw_si(rng, rng.randint(1, 8), rng.randint(2, 12), 12))
        ops.append(cli_op(["check", bad], 2))
        ops.append(cli_op(["classify", bad], 2))
    return ops


EXPANSION = re.compile(r"^(\d+) = (.+); bound = (\d+)\n$")
TERM = re.compile(r"C\((\d+),(\d+)\)")


def expand_op(n: int, i: int) -> Op:
    def check(out, err):
        match = EXPANSION.match(out)
        if not match or int(match[1]) != n:
            return f"unparsable expansion {out!r}"
        terms = [(int(t), int(b)) for t, b in TERM.findall(match[2])]
        remaining = n
        for k, (top, bottom) in enumerate(terms):
            # bottoms run i, i-1, ...; each top is the largest that fits what is left
            if bottom != i - k or not top >= bottom >= 1 or not math.comb(top, bottom) <= remaining < math.comb(top + 1, bottom):
                return f"term C({top},{bottom}) is not the greedy term"
            remaining -= math.comb(top, bottom)
        if remaining or int(match[3]) != oracle.growth_bound(n, i):
            return f"expansion {out.strip()!r} does not sum to n or has the wrong bound"
        return None
    return cli_op(["expand", str(n), str(i)], 0, check)


DECOMPOSITION = re.compile(r"^a = ([\d,]+); residual = ([\d,]+)$")


def decompose_op(h) -> Op:
    def check(out, err):
        lines = out.splitlines()
        match = DECOMPOSITION.match(lines[0]) if lines else None
        if not match:
            return f"unparsable decomposition {out!r}"
        a = tuple(int(x) for x in match[1].split(","))
        residual = tuple(int(x) for x in match[2].split(","))
        bad_traces = [line for line in lines[1:] if not line.startswith("trace degree") or "FAIL" in line]
        if bad_traces:
            return f"trace lines {bad_traces}"
        return check_decomposition_parts(h, a, residual)
    return cli_op(["decompose", text(h)], 0, check)


REFUTATION = re.compile(r"^candidates: (\d+), survivors: 0\n$")


def refute_op(h) -> Op:
    def check(out, err):
        match = REFUTATION.match(out)
        return None if match and int(match[1]) >= 1 else f"refutation output {out!r}"
    return cli_op(["refute", text(h)], 0, check)


def parse_monomial(token: str, r: int) -> tuple[int, ...]:
    exponents = [0] * r
    if token != "1":
        for factor in token.split("*"):
            var, _, power = factor.partition("^")
            exponents[int(var[1:]) - 1] += int(power or 1)
    return tuple(exponents)


def realize_op(h) -> Op:
    """The printed survivors must form an order ideal with h_d monomials of each degree d."""
    def check(out, err):
        lines = out.splitlines()
        if len(lines) != len(h):
            return f"{len(lines)} degree lines for socle degree {len(h) - 1}"
        previous = None
        for d, line in enumerate(lines):
            head, _, body = line.partition(": ")
            level = {parse_monomial(token, h[1]) for token in body.split(", ")}
            if head != f"degree {d}" or len(level) != h[d] or any(sum(m) != d for m in level):
                return f"degree {d} line {line!r} does not hold {h[d]} distinct monomials of degree {d}"
            if previous is not None:
                for m in level:
                    for k, x in enumerate(m):
                        if x and m[:k] + (x - 1,) + m[k + 1:] not in previous:
                            return f"survivor {m} has a divisor outside degree {d - 1}"
            previous = level
        return None
    return cli_op(["realize", text(h)], 0, check)


def socle_op(h) -> Op:
    def check(out, err):
        entries = [int(x) for x in out.strip().split(",")]
        if len(entries) != len(h) or entries[-1] != h[-1]:
            return f"socle {out.strip()} does not end in h_e = {h[-1]}"
        if any(not 0 <= s <= x for s, x in zip(entries, h)):
            return f"socle {out.strip()} exceeds h"
        return None
    return cli_op(["socle", text(h)], 0, check)


def not_realizable_op(command: str, h, degree: int) -> Op:
    def check(out, err):
        return None if f"NotAnOSequence({degree})" in err else f"stderr {err.strip()!r} does not name degree {degree}"
    return cli_op([command, text(h)], 1, check)


def enumerate_op(filter_name: str, codim: int, degree: int, cap: int) -> Op:
    def check(out, err):
        expected = "".join(
            f'{{"degree":{e},"count":{oracle.family_count(filter_name, codim, e, cap)}}}\n'
            for e in range(degree + 1)
        )
        return None if out == expected else f"counts {out!r}, expected {expected!r}"
    argv = ["enumerate", "--degree", str(degree), "--codim", str(codim), "--cap", str(cap),
            "--filter", filter_name, "--count-only"]
    return cli_op(argv, 0, check)


def golden_op(argv: list[str], golden: str, code: int) -> Op:
    expected = (GOLDEN_DIR / golden).read_text()
    return cli_op(argv, code, lambda out, err: None if out == expected else f"output differs from {golden}")


def single_vector(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = [golden_op(*golden) for golden in GOLDENS]
    ops += predicate_ops(rng, per_kind=90, malformed=30)
    for _ in range(250):
        ops.append(expand_op(int(10 ** rng.uniform(0, 6)), rng.randint(1, 12)))
    ops += [cli_op(["expand", str(n), str(i)], 2) for n, i in ((0, 3), (5, 0), (0, 0))] * 3
    pools = {e: oracle.si_vectors(3, e, 40) for e in range(2, 21)}
    for e in range(2, 21):  # a systematic sample of each lexicographically sorted pool
        pool = pools[e]
        ops += [decompose_op(pool[int((k + rng.random()) * len(pool) / 24)]) for k in range(24)]
    for e in [4, 5, 6, 7, 8, 9, 10] * 29:
        while True:
            h = oracle.mirror((1, 3) + tuple(rng.randint(1, 25) for _ in range(e // 2 - 1)), e)
            if not oracle.is_si(h):
                break
        ops.append(refute_op(h))
    for command, make in (("realize", realize_op), ("socle", socle_op)):
        for r, e in [(r, e) for r in range(1, 11) for e in range(1, 7)] * 3:
            ops.append(make(draw_o_sequence(rng, r, e, 30)))
        for _ in range(20):
            r, e = rng.randint(1, 10), rng.randint(2, 6)
            h, d = draw_growth_violating(rng, r, e, 30, symmetric=False)
            ops.append(not_realizable_op(command, h, d + 1))
    for _ in range(50):
        codim = rng.randint(1, 3)
        filter_name = rng.choice(["o-sequence", "symmetric", "si", "symmetric-not-si"])
        ops.append(enumerate_op(filter_name, codim, rng.randint(0, 5), rng.randint(codim, 6)))
    rng.shuffle(ops)
    return Workload(ops, gate=list, budget_s=1.0)


# -- monomial-oracles --------------------------------------------------------

STRATA = 14  # operations per (codimension, socle degree) shape


def monomial_oracles(seed: int) -> Workload:
    """Lex realization, Hilbert function and socle vector on every shape r = 3..20, e = 2..5."""
    import hvectors as hv

    rng = random.Random(seed)

    def oracle_op(h, planted: int | None):
        def call():
            try:
                table = hv.lex_segment_realization(hv.HVector(h))
            except hv.NotAnOSequenceError as exc:
                return exc
            return hv.hilbert_function(table).entries, hv.socle_vector(table).entries

        def check(answer):
            if planted is not None:
                ok = isinstance(answer, hv.NotAnOSequenceError) and answer.degree == planted
                return None if ok else f"expected NotAnOSequence({planted}), got {answer!r}"
            if isinstance(answer, Exception):
                return f"unexpected {answer!r}"
            hilbert, socle = answer
            if hilbert != tuple(h):
                return f"Hilbert function {hilbert} does not round-trip"
            if len(socle) != len(h) or socle[-1] != h[-1]:
                return f"socle {socle} does not end in h_e = {h[-1]}"
            return None

        return Op(f"oracles {text(h)}", call, check)

    def draw(r, e, stratum, planted=None):
        """Entries in the stratum-th of STRATA equal slices of [bound/4, bound].

        Lower degrees take the middle of their slice and the top degree a
        seeded point in it, so each stratum has a steady cost across seeds.
        """
        h = [1, r]
        for d in range(1, e):
            bound = oracle.growth_bound(h[d], d)
            low = max(1, bound // 4)
            offset = rng.random() if d == e - 1 else 0.5
            pick = low + int((bound - low + 1) * (stratum + offset) / STRATA)
            h.append(bound + 1 if d + 1 == planted else min(pick, bound))
        return oracle_op(tuple(h), planted)

    shapes = [(r, e) for r in range(3, 21) for e in range(2, 6)]
    ops = [draw(r, e, stratum) for r, e in shapes for stratum in range(STRATA)]
    ops += [draw(r, e, rng.randrange(STRATA), planted=rng.randint(2, e)) for r, e in shapes for _ in range(2)]
    rng.shuffle(ops)
    return Workload(ops, gate=list, budget_s=2.0)


WORKLOADS = {"campaign": campaign, "single-vector": single_vector, "monomial-oracles": monomial_oracles}
