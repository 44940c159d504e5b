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


def test_verification_campaign_json_records_match_the_text_run():
    box = ("--max-degree", "4", "--grid-n", "4", "--grid-i", "2")
    text = run_script("exhaustive_verification.py", *box)
    records = run_script("exhaustive_verification.py", *box, "--json")
    assert text.returncode == records.returncode == 0, (text.stderr, records.stderr)
    text_checked = [int(line.split(":")[1].split()[0]) for line in text.stdout.splitlines()]
    parsed = [json.loads(line) for line in records.stdout.splitlines()]
    assert [r["sweep"] for r in parsed] == ["growth oracle", "decompositions", "refutations"]
    assert [r["checked"] for r in parsed] == text_checked
    for record in parsed:
        assert (record["max_degree"], record["cap"], record["failures"]) == (4, 25, 0)
        assert record["seconds"] >= 0


@pytest.mark.parametrize("cap", ["2", "-1"])
def test_verification_campaign_refuses_a_cap_below_the_codimension(cap):
    result = run_script("exhaustive_verification.py", "--cap", cap)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "exhaustive_verification.py: error: argument --cap: "
        f"entry cap {cap} is below codimension 3\n"
    )


@pytest.mark.parametrize("reads_first", [True, False], ids=["unbuffered, after one record",
                                                            "buffered, before any record"])
def test_verification_campaign_ends_quietly_when_its_reader_closes(reads_first):
    # the refutation sweep at socle degree <= 10 takes long enough that its record finds the
    # pipe closed; a buffered run meets the closed pipe at its final flush
    flags = ["-u"] if reads_first else []
    argv = [sys.executable, *flags, str(ROOT / "scripts" / "exhaustive_verification.py"),
            "--max-degree", "10", "--grid-n", "1", "--grid-i", "1", "--json"]
    with subprocess.Popen(argv, env=script_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as process:
        if reads_first:
            assert json.loads(process.stdout.readline())["sweep"] == "growth oracle"
        process.stdout.close()
        code, err = process.wait(timeout=120), process.stderr.read()
    assert (code, err) == (141, b"")
