"""Spans around the calls into each `hvectors` layer, recorded from outside the package.

`Tracer.install` replaces each traced public function by a wrapper in every
`hvectors` module namespace that binds it: the defining module (for calls
through its own globals) and every import site.  `uninstall` puts the
originals back.  A traced name that no longer exists is skipped, so its
metrics read 0.

A span is a list [name, site, start, end, parent, op, busy, child, extra]:
`site` is the module whose namespace held the wrapper, `parent` the index
of the enclosing span (-1 at top level), `op` the benchmark's operation id,
`busy` the time spent inside the call (for a generator, the sum of its
resumptions), `child` the part of that time covered by child spans and
`extra` a per-function count dictionary.  Self time is busy - child.
"""

from __future__ import annotations

import importlib
import sys
from math import comb
from pathlib import Path
from time import perf_counter

NAME, SITE, START, END, PARENT, OP, BUSY, CHILD, EXTRA = range(9)


def _refute_extra(args, result, error):
    if result is None:
        return {}
    return {"candidates": result.candidate_count, "survivors": len(result.survivors)}


def _decompose_extra(args, result, error):
    return {"found": int(error is None and result is not None)}


def _main_extra(args, result, error):
    code = result if error is None else getattr(error, "code", None)  # argparse raises SystemExit
    return {f"exit_code.{code}": 1}


def _realization_extra(args, result, error):
    """Monomials kept against monomials generated, computed from the requested shape.

    Realizing h in r variables scans every degree-d monomial, C(r+d-1, d) of
    them, for each degree it reaches; it keeps h_d of them.
    """
    h = tuple(args[0])
    r = h[1] if len(h) > 1 else 0
    last = len(h) - 1 if error is None else getattr(error, "degree", len(h) - 1)
    return {
        "kept": sum(h[: last + 1]) if error is None else sum(h[:last]),
        "materialized": sum(comb(r + d - 1, d) for d in range(last + 1)),
    }


# (module, function, is_generator, extra-count hook)
TRACED = (
    ("binomials", "expand", False, None),
    ("sequences", "o_sequence_violation", False, None),
    ("sequences", "is_si_sequence", False, None),
    ("sequences", "classify_gorenstein", False, None),
    ("enumeration", "enumerate_hvectors", True, None),
    ("decomposition", "refute_non_si", False, _refute_extra),
    ("decomposition", "find_pivot_decomposition", False, _decompose_extra),
    ("decomposition", "verify_decomposition_traces", False, None),
    ("monomials", "lex_segment_realization", False, _realization_extra),
    ("monomials", "socle_vector", False, None),
    ("monomials", "max_growth_bruteforce", False, None),
    ("cli", "main", False, _main_extra),
    ("cli", "build_parser", False, None),
)

# lru_cache statistics are read through the public cache_info(), unwrapped
CACHED = (("binomials", "macaulay_bound"), ("monomials", "monomials_of_degree"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        targets = {}
        for module, function, is_gen, hook in TRACED:
            try:
                original = getattr(importlib.import_module(f"hvectors.{module}"), function)
            except (ImportError, AttributeError):
                continue
            targets[id(original)] = (original, f"{module}.{function}", is_gen, hook)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "hvectors" or module_name.startswith("hvectors.")):
                continue
            site = module_name.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is None or target[0] is not value:
                    continue
                original, name, is_gen, hook = target
                wrapped = (self._wrap_generator(original, name, site) if is_gen
                           else self._wrap_call(original, name, site, hook))
                self._patches.append((module, attr, value))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------
    def _open(self, name: str, site: str) -> tuple[int, list]:
        span = [name, site, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, 0.0, 0.0, None]
        index = len(self.spans)
        self.spans.append(span)
        self.stack.append(index)
        return index, span

    def _charge_parent(self, duration: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][CHILD] += duration

    def _wrap_call(self, fn, name, site, hook):
        tracer = self

        def traced(*args, **kwargs):
            _, span = tracer._open(name, site)
            result = error = None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[END] = perf_counter()
                span[BUSY] = span[END] - span[START]
                tracer.stack.pop()
                tracer._charge_parent(span[BUSY])
                if hook is not None:
                    span[EXTRA] = hook(args, result, error)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name, site):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            index, span = -1, None
            try:
                while True:
                    if span is None:
                        index, span = tracer._open(name, site)
                        span[START] = perf_counter()
                        span[EXTRA] = {"yielded": 0}
                    else:
                        tracer.stack.append(index)
                    begin = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        span[END] = end
                        span[BUSY] += end - begin
                        tracer.stack.pop()
                        tracer._charge_parent(end - begin)
                    span[EXTRA]["yielded"] += 1
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = fn
        return traced

    # -- output -------------------------------------------------------
    def write(self, path: Path) -> None:
        """One tab-separated line per span; times in microseconds from the first span's start."""
        origin = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id\tname\tsite\tstart_us\tend_us\tparent\top\tbusy_us\tself_us\textra\n")
            for index, span in enumerate(self.spans):
                extra = ",".join(f"{k}={v}" for k, v in (span[EXTRA] or {}).items())
                out.write(f"{index}\t{span[NAME]}\t{span[SITE]}\t{(span[START] - origin) * 1e6:.1f}\t"
                          f"{(span[END] - origin) * 1e6:.1f}\t{span[PARENT]}\t{span[OP]}\t"
                          f"{span[BUSY] * 1e6:.1f}\t{(span[BUSY] - span[CHILD]) * 1e6:.1f}\t{extra}\n")


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each cached public function, (0, 0) when it has no cache_info()."""
    counts = {}
    for module, function in CACHED:
        try:
            info = getattr(importlib.import_module(f"hvectors.{module}"), function).cache_info()
            counts[f"{module}.{function}"] = (info.hits, info.misses)
        except (ImportError, AttributeError):
            counts[f"{module}.{function}"] = (0, 0)
    return counts


# every per-layer metric the traced run reports, with its unit; absent layers read 0
LAYER_METRICS = {
    "binomials.macaulay_bound.cache_hits": "count",
    "binomials.macaulay_bound.cache_misses": "count",
    **{f"{module}.{function}.{stat}": unit
       for module, function, _, _ in TRACED if function != "build_parser"
       for stat, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    "enumeration.enumerate_hvectors.yielded": "count",
    "enumeration.enumerate_hvectors.from_decomposition.calls": "count",
    "enumeration.enumerate_hvectors.from_decomposition.yielded": "count",
    "decomposition.refute_non_si.candidates": "count",
    "decomposition.refute_non_si.survivors": "count",
    "decomposition.find_pivot_decomposition.found": "count",
    "decomposition.candidates_per_decompose": "ratio",
    "monomials.monomials_of_degree.cache_hits": "count",
    "monomials.monomials_of_degree.cache_misses": "count",
    "monomials.kept_per_materialized": "ratio",
    "cli.build_parser.calls": "count",
    "cli.build_parser.busy_s": "s",
    **{f"cli.exit_code.{code}": "count" for code in range(5)},
    "cli.import_ms": "ms",
    "trace.overhead": "ratio",
    "limits.probes_over_budget": "count",
}


def layer_values(spans: list[list], cache_delta: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Aggregate spans into the LAYER_METRICS that spans and caches give (the rest stay 0)."""
    values = dict.fromkeys(LAYER_METRICS, 0)
    for span in spans:
        name = span[NAME]
        counts = {"calls": 1, "busy_s": span[BUSY], "self_s": span[BUSY] - span[CHILD], **(span[EXTRA] or {})}
        for key, count in counts.items():
            metric = f"cli.{key}" if key.startswith("exit_code.") else f"{name}.{key}"
            values[metric] = values.get(metric, 0) + count

    under_decompose = 0  # candidates yielded to a decompose search, not to a refutation
    for span in spans:
        if span[NAME] != "enumeration.enumerate_hvectors":
            continue
        yielded = span[EXTRA]["yielded"]
        if span[SITE] == "decomposition":
            values["enumeration.enumerate_hvectors.from_decomposition.calls"] += 1
            values["enumeration.enumerate_hvectors.from_decomposition.yielded"] += yielded
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in (
            "decomposition.find_pivot_decomposition", "decomposition.refute_non_si"
        ):
            parent = spans[parent][PARENT]
        if parent >= 0 and spans[parent][NAME] == "decomposition.find_pivot_decomposition":
            under_decompose += yielded
    decompose_calls = values["decomposition.find_pivot_decomposition.calls"]
    values["decomposition.candidates_per_decompose"] = under_decompose / decompose_calls if decompose_calls else 0
    materialized = values.get("monomials.lex_segment_realization.materialized")
    if materialized:
        values["monomials.kept_per_materialized"] = values["monomials.lex_segment_realization.kept"] / materialized
    for cached, (hits, misses) in cache_delta.items():
        values[f"{cached}.cache_hits"], values[f"{cached}.cache_misses"] = hits, misses
    return {name: values[name] for name in LAYER_METRICS}
