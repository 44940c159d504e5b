"""Fresh-interpreter measurements: `hvec` cold start, the import cost of the CLI, and the limit probes.

Children run one at a time from the checkout root, with `src` on their
PYTHONPATH; each is waited for (and killed first if it overruns).
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import GOLDEN_DIR, GOLDENS, ROOT

# one invocation per subcommand, with its exit code and expected stdout
COLD_START = [(argv, code, (GOLDEN_DIR / golden).read_text) for argv, golden, code in GOLDENS[:7]]
COLD_START.insert(5, (["socle", "1,2,2"], 0, lambda: "0,0,2\n"))

# the budget every valid input should meet (1 s, 100 MB), applied to the child only
PROBE_SECONDS = 1.0
PROBE_BYTES = 100 * 2**20
GENERIC_HALF = [(d + 1) * (d + 2) // 2 for d in range(26)]  # h_d = C(d+2, 2), d <= 25
GENERIC_50 = ",".join(str(x) for x in GENERIC_HALF + GENERIC_HALF[-2::-1])
PROBES = [["decompose", GENERIC_50], ["realize", "1,40,1,1,1,1,1"]]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(args: list[str], timeout: float, preexec=None):
    """(seconds, completed process or None when it overran and was killed)."""
    start = perf_counter()
    try:
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout, preexec_fn=preexec)
    except subprocess.TimeoutExpired:
        return perf_counter() - start, None
    return perf_counter() - start, done


def cold_start() -> tuple[list[float], list[float], list[str]]:
    """One fresh `python -m hvectors.cli <subcommand>` per subcommand, each after a bare `python -c pass`.

    Returns the wall seconds of the hvec processes, those of the bare
    interpreters, and the mismatches seen.
    """
    samples, bare, problems = [], [], []
    for argv, code, expected in COLD_START:
        bare.append(_run(["-c", "pass"], timeout=30)[0])
        seconds, done = _run(["-m", "hvectors.cli", *argv], timeout=30)
        samples.append(seconds)
        if done is None or done.returncode != code or done.stdout != expected():
            problems.append(f"cold start {' '.join(argv)}: exit {done and done.returncode}")
    return samples, bare, problems


def import_seconds() -> float:
    """Time to `import hvectors.cli` inside a fresh interpreter, as the benchmark itself does at set-up."""
    code = "import time; t = time.perf_counter(); import hvectors.cli; print(time.perf_counter() - t)"
    _, done = _run(["-c", code], timeout=30)
    return float(done.stdout)


def import_ms(rounds: int) -> float:
    """Median fresh-interpreter time of `import hvectors.cli` minus that of an empty program."""
    bare, loaded = [], []
    for _ in range(rounds):
        bare.append(_run(["-c", "pass"], timeout=30)[0])
        loaded.append(_run(["-c", "import hvectors.cli"], timeout=30)[0])
    return max(0.0, statistics.median(loaded) - statistics.median(bare)) * 1e3


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_BYTES, PROBE_BYTES))


def limit_probes() -> list[tuple[str, str | None]]:
    """Run each probe under the budget: (command, None if it finished cleanly, else why not)."""
    results = []
    for argv in PROBES:
        seconds, done = _run(["-m", "hvectors.cli", *argv], timeout=PROBE_SECONDS, preexec=_limit_child)
        label = f"{argv[0]} {argv[1][:40]}"
        if done is None:
            results.append((label, f"over {PROBE_SECONDS:g} s"))
        elif done.returncode != 0 or "Traceback" in done.stderr:
            last = done.stderr.strip().splitlines()[-1:] or [""]
            results.append((label, f"exit {done.returncode} after {seconds:.2f} s: {last[0][:80]}"))
        else:
            results.append((label, None))
    return results
