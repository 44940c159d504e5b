import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
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
