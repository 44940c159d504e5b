#!/usr/bin/env python3
"""Catalog the codimension-3 Gorenstein h-vectors by socle degree.

The SI filter with codimension 3 enumerates exactly these vectors.
"""

from __future__ import annotations

import argparse
import json
import sys

from hvectors import (
    EnumerationSpec,
    SequenceFilter,
    Verdict,
    classify_gorenstein,
    enumerate_hvectors,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=10)
    parser.add_argument("--cap", type=int, default=25, help="largest allowed entry")
    parser.add_argument("--codim", type=int, default=3)
    parser.add_argument("--list", action="store_true", help="emit one JSON line per vector")
    args = parser.parse_args()

    total = 0
    for e in range(args.max_degree + 1):
        spec = EnumerationSpec(socle_degree=e, codimension=args.codim,
                               entry_cap=args.cap, filter=SequenceFilter.SI)
        vectors = list(enumerate_hvectors(spec))
        for h in vectors:
            report = classify_gorenstein(h)
            if report.verdict != Verdict.GORENSTEIN:
                print(f"BUG: {h} enumerated as SI but classified {report.verdict}",
                      file=sys.stderr)
                return 4
        print(f"socle degree {e:>2}: {len(vectors):>6} vectors")
        total += len(vectors)
        if args.list:
            for h in vectors:
                print(json.dumps({"e": e, "h": list(h)}, separators=(",", ":")))
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
