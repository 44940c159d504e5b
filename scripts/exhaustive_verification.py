#!/usr/bin/env python3
"""Desk-scale verification campaign over the codimension-3 box.

Three sweeps, any failure exits 4:
  1. growth bound vs. brute-force maximal growth on the small grid;
  2. every SI vector decomposes at pivot 1 with all growth traces holding;
  3. every symmetric non-SI vector is exhaustively refuted (no survivors).

Each sweep prints one JSON record on its own line: sweep, max_degree, cap,
checked, failures and seconds; each failure's message goes to stderr.
A reader that closes early ends the run quietly with exit 141, as in hvec,
and each flag takes an integer as hvec's do: ASCII digits, with an
optional sign.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import product
from typing import Iterator

from hvectors import (
    EnumerationSpec,
    HVector,
    SequenceFilter,
    enumerate_hvectors,
    find_pivot_decomposition,
    macaulay_bound,
    max_growth_bruteforce,
    refute_non_si,
    verify_decomposition_traces,
)
from hvectors.cli import EXIT_BROKEN_PIPE, EXIT_USAGE, _detach_stdout, _integer_flag


def box(max_degree: int, cap: int, sequence_filter: SequenceFilter) -> Iterator[HVector]:
    """The codimension-3 vectors of socle degree 2..max_degree passing the filter."""
    for e in range(2, max_degree + 1):
        yield from enumerate_hvectors(EnumerationSpec(e, 3, cap, sequence_filter))


def growth_failure(point: tuple[int, int]) -> str | None:
    n, i = point
    if max_growth_bruteforce(n, i, n) != macaulay_bound(n, i):
        return f"MISMATCH at n={n}, i={i}"
    return None


def decomposition_failure(h: HVector) -> str | None:
    decomposition = find_pivot_decomposition(h, 1)
    if decomposition is None:
        return f"NO DECOMPOSITION for {h}"
    try:
        verify_decomposition_traces(h, decomposition)
    except Exception as exc:
        return f"TRACE FAILURE for {h}: {exc}"
    return None


def refutation_failure(h: HVector) -> str | None:
    survivors = refute_non_si(h).survivors
    return f"SURVIVOR for {h}: {survivors}" if survivors else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=_integer_flag, default=8)
    parser.add_argument("--cap", type=_integer_flag, default=25)
    parser.add_argument("--grid-n", type=_integer_flag, default=6)
    parser.add_argument("--grid-i", type=_integer_flag, default=3)
    args = parser.parse_args()
    try:  # every sweep's box is codimension 3
        EnumerationSpec(2, 3, args.cap)
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: argument --cap: {exc}\n")

    total_failures = 0
    for name, inputs, failure in [
        ("growth oracle", product(range(1, args.grid_n + 1), range(1, args.grid_i + 1)),
         growth_failure),
        ("decompositions", box(args.max_degree, args.cap, SequenceFilter.SI),
         decomposition_failure),
        ("refutations", box(args.max_degree, args.cap, SequenceFilter.SYMMETRIC_NOT_SI),
         refutation_failure),
    ]:
        start = time.monotonic()
        checked = failures = 0
        for item in inputs:
            checked += 1
            message = failure(item)
            if message is not None:
                failures += 1
                print(message, file=sys.stderr)
        print(json.dumps({"sweep": name, "max_degree": args.max_degree, "cap": args.cap,
                          "checked": checked, "failures": failures,
                          "seconds": round(time.monotonic() - start, 3)}))
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
