#!/usr/bin/env python3
"""Desk-scale verification campaign over the codimension-3 box.

Three sweeps, any failure exits 4:
  1. growth bound vs. brute-force maximal growth on the small grid;
  2. every SI vector decomposes at pivot 1 with all growth traces holding;
  3. every symmetric non-SI vector is exhaustively refuted (no survivors).

With --json, each sweep prints one JSON object on its own line instead of
its text line: sweep, max_degree, cap, checked, failures and seconds.
A reader that closes early ends the run quietly with exit 141, as in hvec.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from hvectors import (
    EnumerationSpec,
    SequenceFilter,
    enumerate_hvectors,
    find_pivot_decomposition,
    macaulay_bound,
    max_growth_bruteforce,
    refute_non_si,
    verify_decomposition_traces,
)
from hvectors.cli import EXIT_BROKEN_PIPE, EXIT_USAGE, _detach_stdout


def sweep_growth_oracle(n_max: int, i_max: int) -> tuple[int, int]:
    checked = failures = 0
    for n in range(1, n_max + 1):
        for i in range(1, i_max + 1):
            checked += 1
            if max_growth_bruteforce(n, i, n) != macaulay_bound(n, i):
                failures += 1
                print(f"MISMATCH at n={n}, i={i}", file=sys.stderr)
    return checked, failures


def sweep_decompositions(max_degree: int, cap: int) -> tuple[int, int]:
    checked = failures = 0
    for e in range(2, max_degree + 1):
        spec = EnumerationSpec(socle_degree=e, codimension=3, entry_cap=cap,
                               filter=SequenceFilter.SI)
        for h in enumerate_hvectors(spec):
            checked += 1
            decomposition = find_pivot_decomposition(h, 1)
            if decomposition is None:
                failures += 1
                print(f"NO DECOMPOSITION for {h}", file=sys.stderr)
                continue
            try:
                verify_decomposition_traces(h, decomposition)
            except Exception as exc:
                failures += 1
                print(f"TRACE FAILURE for {h}: {exc}", file=sys.stderr)
    return checked, failures


def sweep_refutations(max_degree: int, cap: int) -> tuple[int, int]:
    checked = failures = 0
    for e in range(2, max_degree + 1):
        spec = EnumerationSpec(socle_degree=e, codimension=3, entry_cap=cap,
                               filter=SequenceFilter.SYMMETRIC_NOT_SI)
        for h in enumerate_hvectors(spec):
            checked += 1
            report = refute_non_si(h)
            if report.survivors:
                failures += 1
                print(f"SURVIVOR for {h}: {report.survivors}", file=sys.stderr)
    return checked, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=8)
    parser.add_argument("--cap", type=int, default=25)
    parser.add_argument("--grid-n", type=int, default=6)
    parser.add_argument("--grid-i", type=int, default=3)
    parser.add_argument("--json", action="store_true",
                        help="print one JSON record per sweep instead of the text lines")
    args = parser.parse_args()
    if args.cap < 3:  # every sweep's box is codimension 3
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: argument --cap: "
                                f"entry cap {args.cap} is below codimension 3\n")

    total_failures = 0
    for name, sweep in [
        ("growth oracle", lambda: sweep_growth_oracle(args.grid_n, args.grid_i)),
        ("decompositions", lambda: sweep_decompositions(args.max_degree, args.cap)),
        ("refutations", lambda: sweep_refutations(args.max_degree, args.cap)),
    ]:
        start = time.monotonic()
        checked, failures = sweep()
        elapsed = time.monotonic() - start
        if args.json:
            print(json.dumps({"sweep": name, "max_degree": args.max_degree, "cap": args.cap,
                              "checked": checked, "failures": failures,
                              "seconds": round(elapsed, 3)}))
        else:
            status = "ok" if failures == 0 else f"{failures} FAILURES"
            print(f"{name:>15}: {checked:>6} checked, {status} [{elapsed:.1f}s]")
        total_failures += failures
    return 4 if total_failures else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        _detach_stdout()
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
