import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import naive_parse_hvector, naive_refutes
from hvectors import HVector, cli, decomposition, macaulay_bound, monomials
from hvectors.cli import build_parser, main
from hvectors.enumeration import SequenceFilter
from hvectors.monomials import (
    SurvivorTable,
    lex_segment_realization,
    render_monomial,
    socle_vector,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbidden_level(num_variables, degree):
    raise AssertionError(f"built every degree-{degree} monomial in {num_variables} variables")


def generic_with(e, entries):
    """The generic codimension-3 vector of socle degree e, with the given entries replaced."""
    h = [comb(min(d, e - d) + 2, 2) for d in range(e + 1)]
    for degree, value in entries.items():
        h[degree] = value
    return ",".join(map(str, h))


def outcome(argv):
    """(exit code, stdout, stderr) of main(argv); argparse exits count as codes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(None if argv is None else list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, golden, code",
    [
        (("expand", "4", "2"), "expand_4_2.txt", 0),
        (("check", "1,3,4,3,1"), "check_1-3-4-3-1.txt", 0),
        (("classify", "1,13,12,13,1"), "classify_1-13-12-13-1.txt", 3),
        (("decompose", "1,3,4,3,1"), "decompose_1-3-4-3-1.txt", 0),
        (("realize", "1,2,2"), "realize_1-2-2.txt", 0),
        (("refute", "1,3,6,6,5,6,6,3,1"), "refute_1-3-6-6-5-6-6-3-1.txt", 0),
        (("enumerate", "--degree", "4", "--codim", "3", "--filter", "si"),
         "enumerate_si_d4.txt", 0),
        (("classify", "1,3,3,1", "--json"), "classify_1-3-3-1.json", 0),
        (("realize", "1,4,7,9"), "realize_1-4-7-9.txt", 0),
        (("socle", "1,3,4,3,2"), "socle_1-3-4-3-2.txt", 0),
        (("check", "1,3,6,6,5,6,6,3,1", "--json"), "check_1-3-6-6-5-6-6-3-1.json", 1),
        # traces at degrees 2 and 3: residual_step_generic, then residual_step_small with (1)-(3)
        (("decompose", "1,3,3,3,3,3,1", "--json"), "decompose_1-3-3-3-3-3-1.json", 0),
        # dead first halves and full-length subtrahends
        (("refute", "1,3,6,6,5,6,6,3,1", "--json"), "refute_1-3-6-6-5-6-6-3-1.json", 0),
    ],
)
def test_golden_outputs(capsys, argv, golden, code):
    exit_code, out, _ = run(capsys, *argv)
    assert exit_code == code
    assert out == (GOLDEN_DIR / golden).read_text()


def test_every_golden_file_is_a_golden_case():
    # the installed-hvec CI step replays this case list, so a file missing from it goes unchecked
    (cases,) = [mark.args[1] for mark in test_golden_outputs.pytestmark]
    assert {golden for _, golden, _ in cases} == {p.name for p in GOLDEN_DIR.iterdir()}


class TestExpand:
    def test_single_term(self, capsys):
        code, out, _ = run(capsys, "expand", "1", "5")
        assert code == 0
        assert out == "1 = C(5,5); bound = 1\n"

    def test_rejects_zero(self, capsys):
        for n, i in ((0, 2), (3, 0)):
            code, out, err = run(capsys, "expand", str(n), str(i))
            assert (code, out) == (2, "")
            assert err == f"error: binomial expansion needs n >= 1 and i >= 1, got n={n}, i={i}\n"


class TestCheck:
    def test_si_vector_exits_zero(self, capsys):
        assert run(capsys, "check", "1,3,4,3,1")[0] == 0

    def test_failing_vector_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", "1,3,6,6,5,6,6,3,1")
        assert code == 1
        assert "o_sequence: true" in out
        assert "first_half_differentiable: false (first violation at degree 4)" in out

    def test_internal_zero_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "1,0,2")
        assert code == 2
        assert "internal zero" in err

    def test_bad_token_is_named(self, capsys):
        code, _, err = run(capsys, "check", "1,x,2")
        assert code == 2
        assert "'x'" in err

    def test_digit_separator_is_not_an_integer(self, capsys):
        code, _, err = run(capsys, "check", "1,3_0")
        assert code == 2
        assert err == "error: not an integer: '3_0'\n"

    def test_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "check", "1,3,6,6,5,6,6,3,1", "--json")
        payload = json.loads(out)
        assert payload["version"] == "1"
        assert payload["input"] == [1, 3, 6, 6, 5, 6, 6, 3, 1]
        assert payload["verdicts"]["o_sequence"]["holds"] is True
        assert payload["verdicts"]["si_sequence"]["holds"] is False
        assert payload["verdicts"]["first_half_differentiable"]["first_violation"] == 4
        assert payload["certificate"] is None


class TestClassify:
    @pytest.mark.parametrize(
        "text, code, verdict",
        [
            ("1,3,3,1", 0, "Gorenstein"),
            ("1,3,6,6,5,6,6,3,1", 1, "NotGorenstein"),
            ("1,13,12,13,1", 3, "Undecided"),
        ],
    )
    def test_exit_codes_follow_verdicts(self, capsys, text, code, verdict):
        exit_code, out, _ = run(capsys, "classify", text)
        assert exit_code == code
        assert f"verdict: {verdict}" in out

    def test_json_certificate(self, capsys):
        _, out, _ = run(capsys, "classify", "1,13,12,13,1", "--json")
        payload = json.loads(out)
        assert payload["certificate"]["verdict"] == "Undecided"
        assert payload["certificate"]["codimension"] == 13
        assert payload["certificate"]["reasons"] == [
            {"kind": "out_of_scope_codimension", "degree": None}
        ]


class TestRealizeAndSocle:
    def test_socle_output(self, capsys):
        code, out, _ = run(capsys, "socle", "1,2,2")
        assert code == 0
        assert out == "0,0,2\n"

    def test_not_an_o_sequence_exits_one(self, capsys):
        code, _, err = run(capsys, "realize", "1,2,4")
        assert code == 1
        assert "NotAnOSequence(2)" in err

    def test_socle_failure_matches_realize(self, capsys):
        line = "error: NotAnOSequence(2): needs 4 monomials of degree 2, only 3 available\n"
        for command in ("socle", "realize"):
            assert run(capsys, command, "1,2,4") == (1, "", line)
        # O-sequences as the single-vector workload draws them: r = 1..10, e = 1..6, entries <= 30
        rng = random.Random(41)
        for r, e in itertools.product(range(1, 11), range(1, 7)):
            for _ in range(3):
                h = [1, r]
                for d in range(1, e):
                    h.append(rng.randint(1, min(macaulay_bound(h[d], d), 30)))
                realization = lex_segment_realization(HVector(h))
                probed = SurvivorTable(r, tuple(map(tuple, realization.per_degree)))
                text = ",".join(map(str, h))
                assert run(capsys, "socle", text) == (0, f"{socle_vector(probed)}\n", ""), h
                if e == 1:
                    continue
                # one past the growth bound at the top degree
                h[e] = macaulay_bound(h[e - 1], e - 1) + 1
                text = ",".join(map(str, h))
                failed = run(capsys, "socle", text)
                assert failed[:2] == (1, "") and f"NotAnOSequence({e}): " in failed[2], h
                assert run(capsys, "realize", text) == failed, h

    def test_realize_in_many_variables(self, capsys):
        code, out, _ = run(capsys, "realize", "1,1100")
        assert code == 0
        degree_one = out.splitlines()[1]
        assert degree_one.startswith("degree 1: ")
        assert len(degree_one.split(", ")) == 1100

    def test_socle_in_many_variables(self, capsys):
        code, out, _ = run(capsys, "socle", "1,1100")
        assert (code, out) == (0, "0,1100\n")

    def test_socle_builds_no_level(self, capsys, monkeypatch):
        def forbidden_build(*args):
            raise AssertionError(f"built a lex level: {args}")

        monkeypatch.setattr(monomials, "monomials_of_degree", forbidden_level)
        monkeypatch.setattr(monomials._LexLevels, "_tuple", forbidden_build)
        monkeypatch.setattr(monomials, "lex_realization_names", forbidden_build)
        assert run(capsys, "socle", "1,40,1,1,1,1,1") == (0, "0,39,0,0,0,0,1\n", "")

    def test_realize_text_matches_the_table_and_holds_nothing(self):
        # O-sequences in 2, 3 or 5 variables in a seeded random order
        rng = random.Random(23)
        for _ in range(300):
            r = rng.choice((2, 3, 5))
            h = [1, r]
            for d in range(1, rng.randint(1, 6)):
                h.append(rng.randint(1, min(macaulay_bound(h[-1], d), 40)))
            answer = outcome(["realize", ",".join(map(str, h))])
            expected = "".join(
                f"degree {d}: {', '.join(map(render_monomial, level))}\n"
                for d, level in enumerate(lex_segment_realization(HVector(h)).per_degree)
            )
            assert answer == (0, expected, ""), h


class TestDecomposeAndRefute:
    def test_unsupported_codimension_exits_two(self, capsys):
        code, _, err = run(capsys, "decompose", "1,4,4,1")
        assert code == 2
        assert "codimension" in err

    def test_missing_decomposition_exits_one(self, capsys):
        code, _, err = run(capsys, "decompose", "1,3,6,6,5,6,6,3,1")
        assert code == 1
        assert "no decomposition" in err

    def test_pivot_flag(self, capsys):
        code, out, _ = run(capsys, "decompose", "1,3,4,3,1", "--pivot", "2")
        assert code == 0
        assert out.startswith("a = ")

    def test_decompose_json_certificate(self, capsys):
        _, out, _ = run(capsys, "decompose", "1,3,4,3,1", "--json")
        payload = json.loads(out)
        certificate = payload["certificate"]
        assert certificate["pivot"] == 1
        assert certificate["subtrahend"] == [1, 1, 1, 1]
        assert certificate["residual"] == [1, 2, 3, 2, 0]
        assert certificate["traces"][0]["case"] == "residual_step_generic"
        assert certificate["traces"][0]["inequalities"][0]["holds"] is True

    @pytest.mark.parametrize("pivot", ["0", "1"])
    def test_socle_degree_zero_has_no_pivot(self, capsys, pivot):
        code, out, err = run(capsys, "decompose", "1", "--pivot", pivot)
        assert (code, out) == (2, "")
        assert err == f"error: no pivot exists at socle degree 0, got {pivot}\n"

    def test_refute_si_input_exits_two(self, capsys):
        code, _, err = run(capsys, "refute", "1,3,4,3,1")
        assert code == 2
        assert "SI-sequence" in err

    def test_refute_json_certificate(self, capsys):
        code, out, _ = run(capsys, "refute", "1,3,2,3,1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["version"] == "2"
        assert payload["certificate"]["survivors"] == []
        assert all(
            c["violation_degree"] >= 1 for c in payload["certificate"]["candidates"]
        )

    def test_refute_dip_vector_is_answered_fast(self, capsys):
        # unpruned, this vector has about 1M candidates whose residuals all fail late
        h = generic_with(40, {19: 190, 21: 190})
        start = time.perf_counter()
        code, out, _ = run(capsys, "refute", h)
        assert time.perf_counter() - start < 0.05
        assert code == 0 and out.endswith(", survivors: 0\n")
        code, out, _ = run(capsys, "refute", h, "--json")
        assert code == 0
        entries = json.loads(out)["certificate"]["candidates"]
        values = [int(x) for x in h.split(",")]
        assert entries
        for entry in entries:
            assert naive_refutes(values, entry["subtrahend"], entry["violation_degree"]), entry

    def test_refute_survivors_are_printed_and_exit_four(self, capsys, monkeypatch):
        def surviving(h):
            return decomposition.RefutationReport(h, (), ((1, 2, 1), (1, 3, 3, 1)))

        monkeypatch.setattr(decomposition, "refute_non_si", surviving)
        code, out, err = run(capsys, "refute", "1,3,6,6,5,6,6,3,1")
        assert (code, out) == (4, "candidates: 2, survivors: 2\nSURVIVOR: 1,2,1\nSURVIVOR: 1,3,3,1\n")
        assert err == "error: refutation produced a surviving candidate; this is a bug\n"

    def test_refute_over_budget_exits_five(self, capsys, monkeypatch):
        monkeypatch.setattr(decomposition, "REFUTE_CANDIDATE_BUDGET", 2)
        code, out, err = run(capsys, "refute", "1,3,6,6,5,6,6,3,1")
        assert (code, out) == (5, "")
        assert err == "error: refutation needs more than 2 candidates\n"

    def test_memory_error_exits_five(self, capsys, monkeypatch):
        def exhausted(h):
            raise MemoryError

        monkeypatch.setattr(monomials, "lex_realization_names", exhausted)
        code, out, err = run(capsys, "realize", "1,3,1")
        assert (code, out) == (5, "")
        assert err == "error: MemoryError\n"
        assert "Traceback" not in err

    def test_recursion_error_exits_five(self, capsys, monkeypatch):
        def bottomless(h, pivot):
            return bottomless(h, pivot)

        monkeypatch.setattr(decomposition, "find_pivot_decomposition", bottomless)
        code, out, err = run(capsys, "decompose", "1,3,4,3,1")
        assert (code, out) == (5, "")
        assert err.startswith("error: maximum recursion depth exceeded")
        assert len(err.splitlines()) == 1

    def test_refute_walks_no_dead_branches(self, capsys):
        # the dip caps the whole first half at 3; a walk that meets the cap
        # only at the dip builds millions of prefixes that end there
        start = time.perf_counter()
        code, out, _ = run(capsys, "refute", generic_with(50, {25: 3}))
        assert time.perf_counter() - start < 10
        assert (code, out) == (0, "candidates: 3, survivors: 0\n")


class TestEnumerate:
    def test_single_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--degree", "2", "--codim", "3",
                           "--filter", "si")
        assert code == 0
        assert out == '{"h":[1,3,1]}\n'

    def test_symmetric_degree_one_is_empty(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--degree", "1", "--codim", "3",
                           "--filter", "symmetric")
        assert code == 0
        assert out == ""

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--degree", "4", "--codim", "3",
                           "--filter", "si", "--count-only")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1] == {"degree": 4, "count": 4}

    def test_catalog_counts_on_a_small_box(self, capsys):
        # the codimension-3 Gorenstein h-vectors with entries up to 25, by socle degree
        code, out, _ = run(capsys, "enumerate", "--degree", "6", "--codim", "3",
                           "--filter", "si", "--count-only")
        assert code == 0
        counts = [json.loads(line) for line in out.splitlines()]
        assert [line["degree"] for line in counts] == list(range(7))
        assert [line["count"] for line in counts][2:] == [1, 1, 4, 4, 11]

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--degree", "2", "--codim", "3", "--cap", "1"], "cap"),
            (["--degree", "-1", "--codim", "3", "--count-only"], "socle degree"),
        ],
        ids=["cap-below-codim", "negative-degree-count-only"],
    )
    def test_invalid_cap_exits_two(self, capsys, argv, fragment):
        code, _, err = run(capsys, "enumerate", *argv)
        assert code == 2
        assert fragment in err

    def test_unknown_filter_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(capsys, "enumerate", "--degree", "2", "--codim", "3",
                "--filter", "bogus")
        assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        (command, text)
        for command in ("check", "classify", "realize", "socle", "decompose", "refute")
        for text in ("1,x,2", "1,,2", "1,0,2", "2,3,1")
    ]
    + [("decompose", "1,3,4,3,1", "--pivot", "0")],
)
def test_malformed_input_exits_two_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["decompose", ",".join(["1"] * 2500)],
         "a = " + ",".join(["1"] * 2499) + "; residual = 1\n"),
        (["enumerate", "--degree", "1200", "--codim", "1", "--cap", "1", "--filter", "o-sequence"],
         '{"h":[' + ",".join(["1"] * 1201) + "]}\n"),
    ],
    ids=["decompose-2500-ones", "enumerate-degree-1200"],
)
def test_inputs_past_the_recursion_limit_answer(capsys, argv, expected):
    # the searches keep an explicit stack, so their depth is not bounded by the interpreter's
    assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize(
    "argv, token",
    [
        (("expand", "1_0", "2"), "1_0"),
        (("expand", "4", "\u0662"), "\u0662"),
        (("decompose", "1,3,4,3,1", "--pivot", "1_0"), "1_0"),
        (("enumerate", "--degree", "\u0663", "--codim", "3", "--count-only"), "\u0663"),
        (("enumerate", "--degree", "3", "--codim", "3_0", "--count-only"), "3_0"),
        (("enumerate", "--degree", "3", "--codim", "3", "--cap", "2_5"), "2_5"),
    ],
    ids=["expand-separator", "expand-arabic-indic", "pivot", "degree", "codim", "cap"],
)
def test_integer_flags_take_only_ascii_digits(argv, token):
    # the rule h-vector entries follow (TestCheck.test_digit_separator_is_not_an_integer)
    code, out, err = outcome(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: hvec {argv[0]}")
    assert err.endswith(f"not an integer: {token!r}\n")


def test_integer_flags_still_take_signs_and_padding():
    assert outcome(("expand", " 4 ", "+2")) == (0, (GOLDEN_DIR / "expand_4_2.txt").read_text(), "")


def test_bad_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_parser_reuse_carries_no_state_between_calls():
    assert build_parser() is build_parser()
    goldens = {
        ("decompose", "1,3,4,3,1"): "decompose_1-3-4-3-1.txt",
        ("check", "1,3,4,3,1"): "check_1-3-4-3-1.txt",
        ("enumerate", "--degree", "4", "--codim", "3", "--filter", "si"): "enumerate_si_d4.txt",
    }
    sequence = [
        ("decompose", "1,3,4,3,1", "--pivot", "2"),
        ("decompose", "1,3,4,3,1"),  # must fall back to pivot 1
        ("check", "1,3,4,3,1", "--json"),
        ("check", "1,3,4,3,1"),
        ("decompose", "1,3,4,3,1", "--pivot", "x"),  # argparse usage error
        ("refute", "--help"),
        ("enumerate", "--degree", "4", "--codim", "3", "--filter", "si", "--count-only"),
        ("enumerate", "--degree", "4", "--codim", "3", "--filter", "si"),
    ]
    forward = {argv: outcome(argv) for argv in sequence}
    backward = {argv: outcome(argv) for argv in reversed(sequence)}
    assert forward == backward
    for argv, golden in goldens.items():
        assert forward[argv] == (0, (GOLDEN_DIR / golden).read_text(), "")
    assert forward[sequence[4]][0] == 2
    assert forward[sequence[5]][0] == 0
    assert forward[sequence[5]][1].startswith("usage: hvec refute")


# argvs where a parse pass that starts at the subcommand could part from the full parser
_PARITY_CORPUS = [
    (), ("-h",), ("--help",), ("frobnicate", "1,2,1"), ("--json", "check", "1,2,1"),
    *((command, "--help") for command in cli._COMMANDS),
    ("check",), ("expand", "4"), ("decompose", "--pivot", "2"),
    ("enumerate", "--degree", "2"), ("enumerate", "--codim", "3", "--count-only"),
    ("enumerate", "--degree", "2", "--codim", "3", "--filter", "bogus"),
    ("enumerate", "--degree", "2", "--codim", "3", "--filter", "SI"),
    ("decompose", "1,3,4,3,1", "--piv", "2"), ("decompose", "1,3,4,3,1", "--pivot=2"),
    ("check", "1,3,3,1", "--js"), ("check", "1,3,3,1", "--json", "--json"),
    # leftovers: the full parser reports them as "hvec: error", not "hvec check: error"
    ("check", "1,2,1", "extra"), ("expand", "4", "2", "9"), ("check", "--bogus", "1,2,1"),
    ("enumerate", "--degree", "2", "--codim", "3", "x", "--y"), ("check", "1,2,1", "-h", "extra"),
    ("socle", "--", "-1,2"), ("socle", "-1,2"), ("expand", "-1", "2"), ("check", "--", "1,3,3,1"),
]


@pytest.mark.parametrize("argv", _PARITY_CORPUS, ids=lambda argv: " ".join(argv) or "no-argv")
def test_dispatch_matches_the_full_parser(monkeypatch, argv):
    direct = outcome(argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: build_parser().parse_args(argv))
    assert direct == outcome(argv)


@pytest.mark.parametrize("argv", [("check", "1,2,1", "extra"), ("check", "1,3,3,1"), ()])
def test_main_without_argv_reads_sys_argv(monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["hvec", *argv])
    assert outcome(None) == outcome(argv)


_PADDED_TOKEN = st.builds(
    lambda lead, sign, digits, trail: lead + sign + digits + trail,
    st.sampled_from(["", "", " ", "\x1c"]), st.sampled_from(["", "", "+", "-"]),
    st.one_of(st.integers(0, 30).map(str), st.sampled_from(["", "007", "1_0", "\u0663"])),
    st.sampled_from(["", "", " ", "\x1c"]),
)


# h-vector text, normal or not: each entry unsigned, signed, zero-padded, zero or not ASCII
_ENTRY = st.one_of(
    st.integers(1, 30).map(str),
    st.builds(lambda sign, zeros, value: sign + "0" * zeros + str(value),
              st.sampled_from(["", "+", "-"]), st.integers(0, 2), st.integers(0, 30)),
    st.sampled_from(["\u0661", "\u0662", "\uff13"]),
)
_SPELLED_HVECTOR = st.one_of(
    st.lists(st.integers(1, 30), max_size=7).map(lambda xs: ",".join(map(str, [1, *xs]))),
    st.builds(lambda first, rest: ",".join([first, *rest]),
              st.sampled_from(["1", "+1", "01", "001", "-1", "0", "2", "\u0661"]),
              st.lists(_ENTRY, max_size=7)),
)


# normal text, and other text that reads as the same vector or is refused
_SPELLINGS = ["1", "1,3,3,1", "+1,3,3,1", "01,3,03,1", "1,03", "1,3,+3,1", "00001", "1,0",
              "1,1,0,0", "1,3,3,1,0", "1,-3,3,1", "-1,3", "1,0,2", "\u0661,\u0662", "1,\uff13"]


def with_spellings(test):
    """Run a @given(text) test on each spelling in _SPELLINGS as well."""
    for text in _SPELLINGS:
        test = example(text=text)(test)
    return test


@given(text=st.one_of(st.text("0123456789+-,_\u0663 \x1c", max_size=12),
                      st.lists(_PADDED_TOKEN, min_size=1, max_size=6).map(",".join),
                      _SPELLED_HVECTOR))
@example(text="1,3,\x1c3,1")  # \x1c is whitespace to str.strip and \s, but int() refuses "\x1c3"
@with_spellings
def test_parse_hvector_reads_what_the_naive_rule_reads(text):
    kept, message = naive_parse_hvector(text)
    if message is None:  # the HVector of the naive rule's entries
        h = cli._parse_hvector(text)
        assert (type(h), h) == (HVector, HVector(kept))
        assert set(map(type, h.entries)) == {int}
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli._parse_hvector(text)


@pytest.mark.parametrize("command", ["check", "classify"])
@given(text=_SPELLED_HVECTOR)
@with_spellings
def test_check_and_classify_head_their_answer_with_str_h(command, text):
    kept, message = naive_parse_hvector(text)
    code, out, err = outcome((command, "--", text) if text[:1] == "-" else (command, text))
    if message is None:
        h = HVector(kept)
        codimension = kept[1] if len(kept) > 1 else 0
        assert out.split("\n")[0] == (
            f"h = {str(h)} (socle degree {len(kept) - 1}, codimension {codimension})")
        assert err == ""
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int() digit limit")
@pytest.mark.parametrize("text", ["1," + "2" * 5000, "+1," + "2" * 5000, "1,0" + "2" * 4999])
@pytest.mark.parametrize("command", ["check", "classify", "decompose"])
def test_an_entry_past_the_int_digit_limit_exits_two_with_the_int_error(text, command):
    with pytest.raises(ValueError) as refused:
        int(text.partition(",")[2])
    assert outcome((command, text)) == (2, "", f"error: {refused.value}\n")


_HVECTOR_TEXT = st.lists(st.integers(-1, 12), max_size=7).map(lambda xs: ",".join(map(str, xs)))
_JSON_FLAG = st.sampled_from([(), ("--json",)])
_ARGVS = st.one_of(
    st.tuples(st.just("expand"), st.integers(-2, 12).map(str), st.integers(-2, 12).map(str)),
    st.tuples(st.sampled_from(["realize", "socle"]), _HVECTOR_TEXT),
    st.builds(lambda command, text, flag: (command, text, *flag),
              st.sampled_from(["check", "classify", "refute"]), _HVECTOR_TEXT, _JSON_FLAG),
    st.builds(lambda text, pivot, flag: ("decompose", text, *pivot, *flag), _HVECTOR_TEXT,
              st.one_of(st.just(()), st.integers(-2, 8).map(lambda p: ("--pivot", str(p)))),
              _JSON_FLAG),
    st.builds(lambda degree, codim, cap, filter_, count: (
        "enumerate", "--degree", str(degree), "--codim", str(codim), "--cap", str(cap),
        "--filter", filter_, *count),
        st.integers(-1, 5), st.integers(0, 4), st.integers(0, 8),
        st.sampled_from([f.value for f in SequenceFilter]),
        st.sampled_from([(), ("--count-only",)])),
)


def _full_parse(argv):
    """vars(build_parser().parse_args(argv)) without `command`, which the reader leaves out."""
    parsed = vars(build_parser().parse_args(argv))
    del parsed["command"]
    return parsed


_INTEGER_TEXT = st.one_of(_PADDED_TOKEN, st.integers(-3, 12).map(str))
_HVECTOR_TOKEN = st.one_of(_HVECTOR_TEXT, st.sampled_from(["1,3,4,3,1", " 1, 2,1", "-1,2"]))
_ODD_TOKEN = st.sampled_from([
    "-h", "--help", "--", "--pivot=2", "--piv", "--js", "--count", "-", "", "x", "SI", "-1",
    *(f.value for f in SequenceFilter),
    *sorted({flag for _, _, _, flags in cli._COMMANDS.values() for flag in flags}),
])


def _value(kind):
    """A strategy for the text of a positional or valued flag of this `_COMMANDS` kind."""
    if kind is None:
        return _HVECTOR_TOKEN
    return _INTEGER_TEXT if kind is int else st.sampled_from(kind)


def _units(positionals, flags):
    """Strategies for each positional's and flag's tokens as a well-formed argv spells them."""
    for _, kind in positionals:
        yield _value(kind).map(lambda text: (text,))
    for flag, (_, kind, default) in flags.items():
        if kind is bool:
            yield st.sampled_from([(), (flag,)])
        else:
            spelled = _value(kind).map(lambda text, flag=flag: (flag, text))
            yield spelled if default is None else st.one_of(st.just(()), spelled)


@given(st.data())
def test_reader_builds_what_the_full_parser_builds(data):
    # a well-formed argv in any order, then up to two stray, odd or repeated tokens
    command = data.draw(st.sampled_from(list(cli._COMMANDS)))
    units = [data.draw(unit) for unit in _units(*cli._COMMANDS[command][2:])]
    tokens = [token for unit in data.draw(st.permutations(units)) for token in unit]
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
        stray = data.draw(st.one_of(
            st.one_of(_ODD_TOKEN, _INTEGER_TEXT, st.sampled_from(tokens or [""])).map(lambda t: [t]),
            st.lists(st.one_of(_ODD_TOKEN, _INTEGER_TEXT), min_size=2, max_size=2)))
        at = data.draw(st.integers(0, len(tokens)))
        tokens[at:at] = stray
    argv = [command, *tokens]
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == _full_parse(argv), argv


def _well_formed_argvs():
    """Every command with every subset of its optional flags, its units in every order.

    A unit is a positional's token or a flag with its value; each integer is
    its flag's place in the command's table, so that two swapped values show.
    """
    for command, (_, _, positionals, flags) in cli._COMMANDS.items():
        entries = [(None, kind, None) for _, kind in positionals]  # a positional is required
        entries += [(flag, kind, default) for flag, (_, kind, default) in flags.items()]
        units, optional = [], []
        for place, (flag, kind, default) in enumerate(entries):
            if isinstance(kind, tuple):
                value = kind[-1]  # not the default
            else:
                value = str(place + 2) if kind is int else "1,3,4,3,1"
            if flag is None:
                units.append((value,))
            elif kind is bool:
                optional.append((flag,))
            else:
                (units if default is None else optional).append((flag, value))
        for size in range(len(optional) + 1):
            for chosen in itertools.combinations(optional, size):
                for order in itertools.permutations(units + list(chosen)):
                    yield [command, *(token for unit in order for token in unit)]


def test_reader_builds_what_the_full_parser_builds_on_every_well_formed_shape():
    argvs = list(_well_formed_argvs())
    assert len(argvs) == 236
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS)
    for argv in argvs:
        read = cli._read(argv)
        assert read is not None and vars(read) == _full_parse(argv), argv


@pytest.mark.parametrize("argv, accepted", [
    (("expand", " 4 ", "+2"), True),
    (("check", "--json", "1,3,3,1"), True),
    (("decompose", "--pivot", "2", " 1, 3,4,3,1", "--json"), True),
    (("enumerate", "--count-only", "--filter", "o-sequence", "--codim", "03", "--degree", "2"), True),
    ((), False), (("frobnicate", "1,2,1"), False), (("--json", "check", "1,2,1"), False),
    (("check", "-h"), False), (("check", "1,3,3,1", "--help"), False),
    (("check", "--", "1,3,3,1"), False), (("socle", "-1,2"), False),
    (("decompose", "1,3,4,3,1", "--pivot=2"), False), (("decompose", "1,3,4,3,1", "--piv", "2"), False),
    (("check", "1,3,3,1", "--json", "--json"), False),
    (("decompose", "1,3,4,3,1", "--pivot", "x", "--pivot", "2"), False),
    (("decompose", "1,3,4,3,1", "--pivot", "-1"), False), (("decompose", "1,3,4,3,1", "--pivot"), False),
    (("check",), False), (("check", "1,3,3,1", "extra"), False), (("expand", "4"), False),
    (("enumerate", "--degree", "2"), False), (("expand", "1_0", "2"), False),
    (("expand", "4", "\u0662"), False), (("expand", "", "2"), False),
    (("enumerate", "--degree", "2", "--codim", "3", "--filter", "SI"), False),
])
def test_reader_takes_the_plain_spelling_and_leaves_the_rest_to_the_parser(argv, accepted):
    assert (cli._read(argv) is not None) == accepted


def test_reader_takes_every_benchmark_argv_as_the_full_parser_does(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    argvs = []
    monkeypatch.setattr(workloads, "run_cli", argvs.append)
    for seed in (1, 2, 3):
        for op in workloads.single_vector(seed).ops:
            op.call()
    assert argvs
    for argv in argvs:
        read = cli._read(argv)
        assert read is not None and vars(read) == _full_parse(argv), argv


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


def test_a_closed_stream_in_process_ends_quietly():
    err = io.StringIO()
    with redirect_stdout(_ClosedPipe()), redirect_stderr(err):
        assert main(["check", "1,3,3,1"]) == cli.EXIT_BROKEN_PIPE
    assert err.getvalue() == ""


@pytest.mark.parametrize("argv, unbuffered_code", [
    (("enumerate", "--degree", "8", "--codim", "3", "--filter", "symmetric-not-si"), 141),
    (("realize", "1,3,6,10,15,21"), 141),
    # argparse from 3.11 on drops a failed write of its help, then exits 0
    (("check", "--help"), 0 if sys.version_info >= (3, 11) else 141),
])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_early_ends_the_command_quietly(argv, unbuffered_code, unbuffered):
    env = dict(os.environ, PYTHONUNBUFFERED="1" if unbuffered else "")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, "-m", "hvectors.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        process.stdout.close()  # the reader goes away before the interpreter has started
        code, err = process.wait(timeout=60), process.stderr.read()
    assert (code, err) == (unbuffered_code if unbuffered else cli.EXIT_BROKEN_PIPE, b"")


# most _HVECTOR_TEXT draws are malformed; these start with 1 and about half realize
_LEADING_ONE_TEXT = st.lists(st.integers(0, 12), max_size=6).map(lambda xs: ",".join(map(str, [1, *xs])))


@given(st.one_of(_HVECTOR_TEXT, _LEADING_ONE_TEXT))
def test_socle_exits_as_realize_does_and_prints_the_probed_socle(text):
    code, out, err = outcome(("socle", "--", text))  # "--", so that "-1,2" is no flag
    assert (code, err) == outcome(("realize", "--", text))[::2]
    if code == 0:
        table = lex_segment_realization(cli._parse_hvector(text))
        probed = socle_vector(SurvivorTable(table.num_variables, tuple(table.per_degree)))
        assert out == f"{probed}\n"


@given(_ARGVS)
def test_fuzzed_argv_exits_with_a_documented_code_and_repeats(argv):
    first = outcome(argv)
    code, _, err = first
    assert code in (0, 1, 2, 3, 5), (argv, first)  # 4 marks a bug, never a result
    assert "Traceback" not in err
    assert outcome(argv) == first


def _long_tail(r, runs):
    """1, r, then each (value, count) run in turn: long and usually growth-legal when non-increasing."""
    return ",".join(map(str, [1, r, *(value for value, count in runs for _ in range(count))]))


# one large codimension with a short tail, a long tail in few variables, or a wide first
# degree with at most three more entries; tiny entries
_LARGE_REALIZE_TEXT = st.one_of(
    st.builds(lambda r, tail: ",".join(map(str, [1, r, *tail])),
              st.integers(1, 60), st.lists(st.integers(1, 4), max_size=7)),
    st.builds(_long_tail, st.integers(1, 3),
              st.lists(st.tuples(st.integers(1, 4), st.integers(1, 333)), min_size=1, max_size=3)),
    st.builds(lambda r, tail: ",".join(map(str, [1, r, *tail])),
              st.integers(1, 20_000), st.lists(st.integers(1, 4), max_size=3)),
)


@given(_LARGE_REALIZE_TEXT)
@example("1,20000")
@example("1,40,1,1,1,1,1")
@example(",".join(["1", "2", *["3"] * 1000]))
@example(",".join(["1", *["3"] * 301]))
def test_fuzzed_large_realize_and_socle_answer_within_a_second(text):
    answers = []
    for command in ("realize", "socle"):
        start = time.perf_counter()
        answers.append(outcome((command, text)))
        assert time.perf_counter() - start < 1.0, (command, text)
    (code, realized, err), (socle_code, socle, _) = answers
    assert code in (0, 1) and socle_code == code, (text, code, socle_code, err)  # 1: growth fails
    if code == 0:
        entries = text.split(",")
        assert len(realized.splitlines()) == len(entries)
        assert socle.endswith(f",{entries[-1]}\n")  # the top degree is all socle


# Codimension 1 and cap 1 leave at most one vector per degree under every
# filter, so large degrees stay cheap; a cap above the codimension would let
# the symmetric filters walk cap^(D/2) prefixes.  That vector is all ones, it
# exists from socle degree 1 on, and it is SI.
@settings(max_examples=4)
@given(st.integers(900, 1300), st.sampled_from([f.value for f in SequenceFilter]),
       st.sampled_from([(), ("--count-only",)]))
def test_fuzzed_large_enumerate_degrees_answer_exactly(degree, filter_, count):
    argv = ("enumerate", "--degree", str(degree), "--codim", "1", "--cap", "1",
            "--filter", filter_, *count)
    found = filter_ != SequenceFilter.SYMMETRIC_NOT_SI.value
    if count:
        expected = "".join(f'{{"degree":{e},"count":{int(found and e > 0)}}}\n'
                           for e in range(degree + 1))
    else:
        expected = '{"h":[' + ",".join(["1"] * (degree + 1)) + "]}\n" if found else ""
    assert outcome(argv) == (0, expected, "")
