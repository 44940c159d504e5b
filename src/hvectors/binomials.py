"""Exact binomial arithmetic and the Macaulay growth operator."""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple


def binom(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k > n."""
    return comb(n, k)


class BinomialExpansion(NamedTuple):
    """Decomposition n = C(t_i, i) + C(t_{i-1}, i-1) + ... + C(t_j, j).

    Tops strictly decrease, bottoms run down by exactly one from `index`
    to some j >= 1, and the last term satisfies t_j >= j.  Under these
    constraints the decomposition is unique.
    """

    value: int
    index: int
    terms: tuple[tuple[int, int], ...]

    def bound(self) -> int:
        """Sum after raising every top and bottom by one: the largest legal successor."""
        return sum(comb(t + 1, b + 1) for t, b in self.terms)

    def __str__(self) -> str:
        return " + ".join(f"C({t},{b})" for t, b in self.terms)


def _largest_top(remaining: int, bottom: int, high: int) -> int:
    """Largest t < high with C(t, bottom) <= remaining, by bisection; C(high, bottom) > remaining.

    After a term (t, j), what is left is below C(t + 1, j) - C(t, j) = C(t, j - 1),
    so the next top lies in [j - 1, t): each top bounds the search for the next.
    """
    low = bottom  # C(bottom, bottom) = 1 <= remaining
    while high - low > 1:
        mid = (low + high) // 2
        if comb(mid, bottom) <= remaining:
            low = mid
        else:
            high = mid
    return low


def expand(n: int, i: int) -> BinomialExpansion:
    """The i-binomial expansion of n >= 1, built greedily from the largest top."""
    if n < 1 or i < 1:
        raise ValueError(f"binomial expansion needs n >= 1 and i >= 1, got n={n}, i={i}")
    terms: list[tuple[int, int]] = []
    remaining = n
    bottom = i
    top = i + 1  # the first top has no earlier one above it, so gallop up to a bound
    while comb(top, i) <= n:
        top *= 2
    while remaining > 0:
        top = _largest_top(remaining, bottom, top)
        terms.append((top, bottom))
        remaining -= comb(top, bottom)
        bottom -= 1
    return BinomialExpansion(value=n, index=i, terms=tuple(terms))


@lru_cache(maxsize=None)
def macaulay_bound(n: int, i: int) -> int:
    """Largest value allowed in degree i+1 given value n in degree i.

    Zero propagates: once a graded piece vanishes, all later ones do.
    """
    if i < 1:
        raise ValueError(f"growth step index must be >= 1, got {i}")
    if n < 0:
        raise ValueError(f"growth bound needs n >= 0, got {n}")
    if n == 0:
        return 0
    return expand(n, i).bound()
