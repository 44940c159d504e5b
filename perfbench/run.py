#!/usr/bin/env python3
"""Benchmark of the hvectors package: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

Run from the root of a checkout.  One process with one caller drives the
package through its public functions in a closed loop: each operation starts
when the previous one has finished.  The operation set is built from --seed
and run in whole passes, at least MIN_PASSES of them, until --seconds have
elapsed.  Every answer is checked; each mismatch is printed and counted as
failed.

Throughput and the latency percentiles are computed for each pass, and the
median over the passes is reported.  Between passes the benchmark times one more build of the inputs
(set-up) and one round of fresh `hvec` processes (cold start), so those
samples span the run.  Because a shared machine's speed drifts, in-process
times are scaled by the speed of their pass, measured with reference_task(),
and cold starts by the start time of a bare interpreter (see README.md).

--trace 0 reports the end-to-end metrics.  --trace 1 runs one traced pass
(spans written to perfbench/out/spans-<workload>.tsv), then one untraced
pass, and reports the per-layer metrics and the tracing overhead.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.  --all runs every workload both ways, one child process at
a time, and prints each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
from array import array
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
IMPORT_ROUNDS = 10
REFERENCE_S = 0.005  # the nominal time of reference_task(); in-process timings are scaled to it
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW = 5
REFERENCE_START_S = 0.050  # the nominal start of a bare interpreter; cold starts are scaled to it

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "cold_start_p50_ms": "ms",
}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def reference_task() -> float:
    """Seconds taken by a fixed pure-Python task of the package's kind: integer growth bounds, tuples, a dict.

    Its median over a few samples measures how fast the shared machine runs
    Python code just then.  It and oracle.growth_bound must never change,
    because they set the scale of every reported time.
    """
    began = perf_counter()
    seen: dict[tuple[int, ...], int] = {}
    for n in range(1, 300):
        h = tuple(oracle.growth_bound(n + k, 2) for k in range(8))
        seen[h] = seen.get(h, 0) + 1
    return perf_counter() - began


def run_passes(workload, seconds: float, passes: int | None = None, tracer=None, between=None) -> dict:
    """Whole passes over the operations: exactly `passes`, or MIN_PASSES and on until `seconds` elapse.

    reference_task() runs every REFERENCE_EVERY_S and at the end of each
    pass.  The speed of a stretch of operations is REFERENCE_S over the
    median of the REFERENCE_WINDOW reference times around the one that
    closes it.  Returns, for each pass, the operations' times scaled by the
    speed of their stretch, the pass's unscaled time and the speed at its
    end; the number of operations attempted; and the failures seen.
    `between()` runs after every pass, outside the timed operations.
    """
    raw: list[tuple[array, array]] = []  # per pass: seconds, index of the closing reference
    references: list[float] = []
    pass_ends, failures = [], []
    start = last_reference = perf_counter()
    while True:
        seconds_taken, closing = array("d"), array("l")
        for index, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = index
            began = perf_counter()
            try:
                answer = op.call()
            except Exception:  # a crash is a failed operation; keep running the rest
                answer, problem = None, traceback.format_exc(limit=-2).strip()
            else:
                problem = None
            elapsed = perf_counter() - began
            seconds_taken.append(elapsed)
            closing.append(len(references))
            if problem is None:
                problem = op.check(answer)
            if problem is None and elapsed > workload.budget_s:
                problem = f"took {elapsed:.3f} s, over the {workload.budget_s:g} s budget"
            if problem is not None:
                failures.append(f"{op.label}: {problem}")
            if perf_counter() - last_reference >= REFERENCE_EVERY_S:
                references.append(reference_task())
                last_reference = perf_counter()
        raw.append((seconds_taken, closing))
        references.append(reference_task())
        pass_ends.append(len(references) - 1)
        if between is not None:
            between()
        done = len(raw)
        if done == passes or (passes is None and done >= MIN_PASSES and perf_counter() - start >= seconds):
            break
    half = REFERENCE_WINDOW // 2
    speeds = [REFERENCE_S / statistics.median(references[max(0, j - half):j + half + 1])
              for j in range(len(references))]
    return {
        "times": [array("d", (t * speeds[j] for t, j in zip(*pass_raw))) for pass_raw in raw],
        "pass_speeds": [speeds[j] for j in pass_ends],
        "pass_times": [sum(seconds_taken) for seconds_taken, _ in raw],
        "failures": failures,
        "attempted": done * len(workload.ops),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)

    if not (ROOT / "src" / "hvectors").is_dir():
        print(f"error: no hvectors sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hvectors.cli  # noqa: F401  (imported up front so the tracer sees every module)

        import processes
        import tracer as tracing
        from workloads import WORKLOADS
    except (ImportError, OSError) as exc:
        print(f"error: cannot load the package or the goldens from {ROOT}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    build = WORKLOADS[args.workload]
    workload = build(args.seed)

    cold_starts: list[float] = []
    problems: list[str] = []
    if args.trace:
        tracer = tracing.Tracer()
        caches_before = tracing.cache_counts()
        tracer.install()
        try:
            traced = run_passes(workload, 0, passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        caches_after = tracing.cache_counts()
        plain = run_passes(workload, 0, passes=1)
        runs = [traced, plain]
        metrics = tracing.layer_values(tracer.spans, {
            name: tuple(after - before for after, before in zip(caches_after[name], caches_before[name]))
            for name in caches_after
        })
        metrics["trace.overhead"] = traced["pass_times"][0] / plain["pass_times"][0]
        metrics["cli.import_ms"] = processes.import_ms(IMPORT_ROUNDS)
        tracer.write(HERE / "out" / f"spans-{args.workload}.tsv")
        units = tracing.LAYER_METRICS
    else:
        bare_starts: list[float] = []
        setups: list[float] = []  # unscaled: a fresh interpreter's import plus one more build

        def between():
            began = perf_counter()
            build(args.seed)
            setups.append(processes.import_seconds() + perf_counter() - began)
            samples, bare, cold_problems = processes.cold_start()
            cold_starts.extend(samples)
            bare_starts.extend(bare)
            problems.extend(cold_problems)

        plain = run_passes(workload, args.seconds, between=between)
        runs = [plain]
        speeds = plain["pass_speeds"]
        per_op = sorted(statistics.median(times) for times in zip(*plain["times"]))
        cold_start = statistics.median(cold_starts)
        # each hvec start over the bare start just before it
        start_ratios = [t / b for t, b in zip(cold_starts, bare_starts)]
        print(f"{args.workload}: unscaled pass times {', '.join(f'{t:.2f}' for t in plain['pass_times'])} s; "
              f"pass speeds {', '.join(f'{v:.3f}' for v in speeds)}; bare interpreter "
              f"{statistics.median(bare_starts) * 1e3:.1f} ms; unscaled cold start {cold_start * 1e3:.1f} ms")
        metrics = {
            "setup_s": statistics.median(t * v for t, v in zip(setups, speeds)),
            "ops_per_s": statistics.median(len(times) / sum(times) for times in plain["times"]),
            "latency_p50_ms": percentile(per_op, 50) * 1e3,
            "latency_p99_ms": percentile(per_op, 99) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cold_start_p50_ms": statistics.median(start_ratios) * REFERENCE_START_S * 1e3,
        }
        units = END_TO_END

    problems += [problem for run in runs for problem in run["failures"]]
    gate = workload.gate()  # the whole-workload check counts as one more operation
    attempted = sum(run["attempted"] for run in runs) + len(cold_starts) + 1
    failed = len(problems) + bool(gate)
    problems += gate
    if args.workload == "single-vector":
        over = [(label, why) for label, why in processes.limit_probes() if why is not None]
        for label, why in over:
            print(f"LIMIT PROBE {label}: {why}")
        if args.trace:
            metrics["limits.probes_over_budget"] = len(over)

    for problem in problems:
        print(f"FAIL {args.workload}: {problem}")
    print(f"{args.workload}: {attempted} ops attempted, {failed} failed "
          f"(failed_ops_ratio {failed / attempted:.6f}), {len(runs[-1]['pass_times'])} untraced passes")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own child process, one at a time."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
