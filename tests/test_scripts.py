import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def script_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=script_env(), timeout=120,
    )


def test_verification_campaign_on_a_small_box():
    result = run_script("exhaustive_verification.py",
                        "--max-degree", "5", "--grid-n", "4", "--grid-i", "2")
    assert result.returncode == 0, result.stderr


def test_verification_campaign_prints_one_record_per_sweep():
    result = run_script("exhaustive_verification.py",
                        "--max-degree", "4", "--grid-n", "4", "--grid-i", "2")
    assert (result.returncode, result.stderr) == (0, "")
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(r["sweep"], r["checked"]) for r in records] == [
        ("growth oracle", 8), ("decompositions", 6), ("refutations", 21)]
    for record in records:
        assert (record["max_degree"], record["cap"], record["failures"]) == (4, 25, 0)
        assert record["seconds"] >= 0


def test_verification_campaign_counts_and_reports_a_failure(monkeypatch, capsys):
    # the growth oracle's brute force disagrees with the bound at one grid point
    spec = importlib.util.spec_from_file_location(
        "exhaustive_verification", ROOT / "scripts" / "exhaustive_verification.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "max_growth_bruteforce",
                        lambda n, i, cap: script.macaulay_bound(n, i) + ((n, i) == (2, 1)))
    monkeypatch.setattr(sys, "argv", ["exhaustive_verification.py", "--max-degree", "4",
                                      "--grid-n", "2", "--grid-i", "2"])
    assert script.main() == 4
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["sweep"], r["checked"], r["failures"]) for r in records] == [
        ("growth oracle", 4, 1), ("decompositions", 6, 0), ("refutations", 21, 0)]
    assert err == "MISMATCH at n=2, i=1\n"


@pytest.mark.parametrize("cap", ["2", "-1"])
def test_verification_campaign_refuses_a_cap_below_the_codimension(cap):
    result = run_script("exhaustive_verification.py", "--cap", cap)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "exhaustive_verification.py: error: argument --cap: "
        f"entry cap {cap} is below codimension 3\n"
    )


@pytest.mark.parametrize("argv, refusal", [
    (["--max-degree", "-3", "--grid-n", "-1", "--grid-i", "0"], "--max-degree: -3 is below 2"),
    (["--max-degree", "1"], "--max-degree: 1 is below 2"),
    (["--grid-n", "0"], "--grid-n: 0 is below 1"),
    (["--grid-i", "-1"], "--grid-i: -1 is below 1"),
])
def test_verification_campaign_refuses_an_empty_box(argv, refusal):
    # a sweep over nothing would print "checked": 0 and pass
    result = run_script("exhaustive_verification.py", *argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"exhaustive_verification.py: error: argument {refusal}\n"


@pytest.mark.parametrize("flag, text", [("--cap", "1_0"), ("--max-degree", "\u0663")])
def test_verification_campaign_reads_integers_as_hvec_does(flag, text):
    # int() takes both spellings; hvec's integer flags refuse them
    result = run_script("exhaustive_verification.py", flag, text)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.endswith(f"argument {flag}: not an integer: {text!r}\n")


@pytest.mark.parametrize("reads_first", [True, False], ids=["unbuffered, after one record",
                                                            "buffered, before any record"])
def test_verification_campaign_ends_quietly_when_its_reader_closes(reads_first):
    # the refutation sweep at socle degree <= 10 takes long enough that its record finds the
    # pipe closed; a buffered run meets the closed pipe at its final flush
    flags = ["-u"] if reads_first else []
    argv = [sys.executable, *flags, str(ROOT / "scripts" / "exhaustive_verification.py"),
            "--max-degree", "10", "--grid-n", "1", "--grid-i", "1"]
    with subprocess.Popen(argv, env=script_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as process:
        if reads_first:
            assert json.loads(process.stdout.readline())["sweep"] == "growth oracle"
        process.stdout.close()
        code, err = process.wait(timeout=120), process.stderr.read()
    assert (code, err) == (141, b"")
