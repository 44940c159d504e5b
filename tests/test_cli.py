import json
from pathlib import Path

import pytest

from hvectors.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ],
)
def test_golden_outputs(capsys, argv, golden, code):
    exit_code, out, _ = run(capsys, *argv)
    assert exit_code == code
    assert out == (GOLDEN_DIR / golden).read_text()


class TestExpand:
    def test_single_term(self, capsys):
        code, out, _ = run(capsys, "expand", "1", "5")
        assert code == 0
        assert out == "1 = C(5,5); bound = 1\n"

    def test_rejects_zero(self, capsys):
        code, _, err = run(capsys, "expand", "0", "2")
        assert code == 2
        assert "n must be positive" in err


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
        code, _, err = run(capsys, "socle", "1,2,4")
        assert code == 1
        assert "NotAnOSequence(2)" in err


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

    def test_refute_si_input_exits_two(self, capsys):
        code, _, err = run(capsys, "refute", "1,3,4,3,1")
        assert code == 2
        assert "SI-sequence" in err

    def test_refute_json_certificate(self, capsys):
        code, out, _ = run(capsys, "refute", "1,3,2,3,1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"]["survivors"] == []
        assert all(
            c["violation_degree"] >= 1 for c in payload["certificate"]["candidates"]
        )


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


def test_bad_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2
