"""Reference predicates and generators that share no code with the package.

The benchmark builds its inputs and judges the package's answers with these
helpers, so an expected value never comes from the function under test.
"""

from __future__ import annotations

from math import comb


def growth_bound(n: int, i: int) -> int:
    """Macaulay's bound n^<i>: raise every top and bottom of the i-binomial expansion of n."""
    total = 0
    while n > 0 and i > 0:
        # largest t with C(t, i) <= n, by bisection between i and n + i
        low, high = i, n + i
        while low < high:
            mid = (low + high + 1) // 2
            if comb(mid, i) <= n:
                low = mid
            else:
                high = mid - 1
        total += comb(low + 1, i + 1)
        n -= comb(low, i)
        i -= 1
    return total


def growth_violation(h) -> int | None:
    """First degree d with h[d+1] > h[d]^<d>, ignoring a zero tail; None if legal."""
    h = list(h)
    while h and h[-1] == 0:
        h.pop()
    for d in range(1, len(h) - 1):
        if h[d + 1] > growth_bound(h[d], d):
            return d
    return None


def is_symmetric(h) -> bool:
    return tuple(h) == tuple(reversed(h))


def is_si(h) -> bool:
    """Symmetric, and the first difference of the first half is a legal growth sequence."""
    h = tuple(h)
    if not is_symmetric(h):
        return False
    half = h[: (len(h) - 1) // 2 + 1]
    diff = (1,) + tuple(half[d] - half[d - 1] for d in range(1, len(half)))
    return min(diff) >= 0 and growth_violation(diff) is None


def mirror(half, e: int) -> tuple[int, ...]:
    """The symmetric vector of socle degree e whose first half is `half`."""
    half = tuple(half)
    return half + half[::-1] if e % 2 else half + half[-2::-1]


def si_vectors(codim: int, e: int, cap: int) -> list[tuple[int, ...]]:
    """Every SI vector of codimension `codim`, socle degree e >= 2, entries <= cap.

    Built from first halves whose first difference grows legally, so each
    output is SI by construction.
    """
    length = e // 2 + 1
    out = []

    def extend(half, delta):
        if len(half) == length:
            out.append(mirror(half, e))
            return
        d = len(half)
        for step in range(min(growth_bound(delta, d - 1), cap - half[-1]) + 1):
            extend(half + (half[-1] + step,), step)

    if codim <= cap:
        extend((1, codim), codim - 1)
    return sorted(out)


def symmetric_vectors(codim: int, e: int, cap: int) -> list[tuple[int, ...]]:
    """Every symmetric vector (1, codim, ...) of socle degree e >= 2 with entries in 1..cap."""
    out = [(1, codim)]
    for _ in range(e // 2 - 1):
        out = [half + (x,) for half in out for x in range(1, cap + 1)]
    return sorted(mirror(half, e) for half in out)


def o_sequences(codim: int, e: int, cap: int) -> list[tuple[int, ...]]:
    """Every growth-legal (1, codim, h_2, ..., h_e) with positive entries <= cap."""
    out = [(1, codim)] if e >= 1 else [(1,)]
    for d in range(1, e):
        out = [h + (x,) for h in out for x in range(1, min(growth_bound(h[-1], d), cap) + 1)]
    return out


def family_count(filter_name: str, codim: int, e: int, cap: int) -> int:
    """Size of one `hvec enumerate` box, counted from the definitions above."""
    if e == 0 or codim > cap:
        return 0
    if filter_name == "o-sequence":
        return len(o_sequences(codim, e, cap))
    if e == 1:  # the only symmetric vector of socle degree 1 is (1, 1)
        symmetric = [(1, 1)] if codim == 1 else []
    else:
        symmetric = symmetric_vectors(codim, e, cap)
    if filter_name == "symmetric":
        return len(symmetric)
    si = sum(1 for h in symmetric if is_si(h))
    return si if filter_name == "si" else len(symmetric) - si
