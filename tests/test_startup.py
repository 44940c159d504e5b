"""What `hvec` loads at start-up: fresh interpreters, compared with a bare one."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_LOADED = "import sys; {}; print('\\n'.join(sorted(sys.modules)))"


def run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=60, cwd=ROOT)


def loaded_modules(statement):
    result = run_python("-c", _LOADED.format(statement))
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_import_leaves_out_dataclasses_inspect_and_json():
    added = loaded_modules("import hvectors.cli") - loaded_modules("pass")
    assert "hvectors.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}, sorted(added)


def test_no_source_file_mentions_dataclasses():
    assert [path.name for path in SRC.rglob("*.py") if "dataclasses" in path.read_text()] == []


def test_json_flag_still_prints_the_report():
    result = run_python("-m", "hvectors.cli", "check", "1,3,3,1", "--json")
    assert (result.returncode, result.stderr) == (0, "")
    report = json.loads(result.stdout)
    assert report["input"] == [1, 3, 3, 1]
    assert report["verdicts"]["si_sequence"]["holds"] is True
