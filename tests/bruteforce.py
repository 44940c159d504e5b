"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately naive: Pascal's triangle instead of closed
forms, exhaustive candidate generation instead of greedy construction,
literal subset enumeration instead of branch and bound.  The point is that
none of it shares a code path with the package.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, product
from math import prod
from operator import add
from random import Random
from typing import Iterator, Sequence


def pascal_row(n: int) -> list[int]:
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


def pascal_binom(n: int, k: int) -> int:
    if k > n:
        return 0
    return pascal_row(n)[k]


def all_expansions(n: int, i: int) -> list[tuple[tuple[int, int], ...]]:
    """Every legal descending-top expansion of n starting at bottom i.

    Legal means: bottoms run i, i-1, ... consecutively, tops strictly
    decrease, every term has top >= bottom, and the binomials sum to n.
    """
    results: list[tuple[tuple[int, int], ...]] = []

    def go(bottom: int, remaining: int, top_cap: int, prefix: list[tuple[int, int]]) -> None:
        if remaining == 0:
            results.append(tuple(prefix))
            return
        if bottom < 1:
            return
        for top in range(bottom, top_cap):
            value = pascal_binom(top, bottom)
            if value > remaining:
                break
            prefix.append((top, bottom))
            go(bottom - 1, remaining - value, top, prefix)
            prefix.pop()

    go(i, n, n + i + 2, [])
    return results


def naive_hvector(values: Sequence) -> tuple[tuple | None, str | None]:
    """What HVector keeps of the values, or the message refusing them, by its definition.

    Every value must be an int and not a bool; trailing zeros go; what is
    left must start with 1 and have no entry below 1, and is kept as plain ints.
    """
    for degree, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, int):
            return None, f"entry {value!r} at degree {degree} is not an integer"
    kept = list(values)
    while kept and kept[-1] == 0:
        kept.pop()
    if not kept:
        return None, "h-vector has no positive entry"
    if kept[0] != 1:
        return None, f"h-vector must start with 1, got {kept[0]}"
    for degree, value in enumerate(kept):
        if value < 0:
            return None, f"negative entry {value} at degree {degree}"
        if value == 0:
            return None, f"internal zero at degree {degree}"
    return tuple(int(value) for value in kept), None


def naive_parse_hvector(text: str) -> tuple[tuple | None, str | None]:
    """The entries `hvec` reads from text, or the message refusing it, by its definition.

    The text splits at commas; each entry, stripped of whitespace, is ASCII
    digits after at most one sign; the values must then pass naive_hvector.
    """
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            return None, f"empty entry in {text!r}"
        digits = token[1:] if token[0] in "+-" else token
        if not digits or any(c not in "0123456789" for c in digits):
            return None, f"not an integer: {token!r}"
        values.append(int(token))
    return naive_hvector(values)


@lru_cache(maxsize=None)
def naive_bound(n: int, i: int) -> int:
    """Largest successor of n in degree i+1, read off its only legal expansion."""
    if n == 0:
        return 0
    (terms,) = all_expansions(n, i)
    return sum(pascal_binom(t + 1, b + 1) for t, b in terms)


def naive_growth_violation(seq: Sequence[int]) -> int | None:
    """First degree d >= 1 whose step breaks naive_bound, a zero tail ignored; None if none does."""
    values = list(seq)
    while values and values[-1] == 0:
        values.pop()
    for d in range(1, len(values) - 1):
        if values[d + 1] > naive_bound(values[d], d):
            return d
    return None


def naive_obeys_growth(seq: Sequence[int]) -> bool:
    """Every step from degree d >= 1 respects naive_bound; a zero tail is ignored."""
    return naive_growth_violation(seq) is None


def naive_differentiability_violation(seq: Sequence[int]) -> int | None:
    """First degree where the first difference goes negative, else where it breaks growth."""
    diff = [1] + [seq[k] - seq[k - 1] for k in range(1, len(seq))]
    for d, step in enumerate(diff):
        if step < 0:
            return d
    return naive_growth_violation(diff)


@lru_cache(maxsize=None)
def naive_si_sequences(socle: int, top: int) -> tuple[tuple[int, ...], ...]:
    """Every SI-sequence (1, a_1, ..., a_socle) with entries <= top, in lexicographic order.

    Free first halves are mirrored, then kept when their first difference
    is non-negative and obeys growth.
    """
    found = []
    for middle in product(range(1, top + 1), repeat=socle // 2):
        half = (1,) + middle
        diff = (1,) + tuple(half[k] - half[k - 1] for k in range(1, len(half)))
        if min(diff) >= 0 and naive_obeys_growth(diff):
            found.append(half + half[::-1] if socle % 2 else half + half[-2::-1])
    return tuple(found)


def naive_subtrahends(
    h: Sequence[int], pivot: int, max_codim: int
) -> list[tuple[int, ...]]:
    """SI-sequences (1, a_1, ..., a_{e-pivot}) with a_1 <= max_codim and a_k <= h[pivot+k]."""
    return [
        a
        for a in naive_si_sequences(len(h) - 1 - pivot, max(h))
        if (len(a) < 2 or a[1] <= max_codim)
        and all(x <= y for x, y in zip(a, h[pivot:]))
    ]


def naive_residual(h: Sequence[int], pivot: int, a: Sequence[int]) -> tuple[int, ...]:
    """h minus a placed at degrees pivot, pivot+1, ..."""
    return tuple(x - (a[d - pivot] if d >= pivot else 0) for d, x in enumerate(h))


def naive_refutes(h: Sequence[int], entry: Sequence[int], degree: int, pivot: int = 1) -> bool:
    """Whether a refutation entry at the pivot rules out every candidate it stands for.

    An entry of length e - pivot + 1 is a palindromic subtrahend.  A shorter
    entry is a first half (a_0, ..., a_{k-1}): it fixes the residual at
    degrees pivot+j and e-j for j < k.  Either way the residual must be
    fixed at `degree - 1` and `degree`, past the pivot, and the step between
    them must break naive_bound.
    """
    e = len(h) - 1
    entry = tuple(entry)
    fixed = {pivot + j: h[pivot + j] - a for j, a in enumerate(entry)}
    if len(entry) == e - pivot + 1:
        if entry != entry[::-1]:
            return False
    elif 2 <= len(entry) <= (e - pivot) // 2 + 1:
        fixed.update({e - j: h[e - j] - a for j, a in enumerate(entry)})
    else:
        return False
    if degree <= pivot or degree - 1 not in fixed or degree not in fixed:
        return False
    return fixed[degree] > naive_bound(fixed[degree - 1], degree - 1)


def exponent_vectors(num_variables: int, degree: int) -> list[tuple[int, ...]]:
    if num_variables == 0:
        return [()] if degree == 0 else []
    return [
        (first,) + rest
        for first in range(degree + 1)
        for rest in exponent_vectors(num_variables - 1, degree - first)
    ]


def lex_divisor_masks(num_variables: int, degree: int) -> list[int]:
    """For each degree-d monomial, largest first, a bitmask of its divisors' lex positions.

    Bit k stands for the k-th largest monomial of degree d-1.
    """
    previous = {m: k for k, m in enumerate(exponent_vectors(num_variables, degree - 1)[::-1])}
    masks = []
    for m in exponent_vectors(num_variables, degree)[::-1]:
        mask = 0
        for v in range(num_variables):
            if m[v]:
                mask |= 1 << previous[m[:v] + (m[v] - 1,) + m[v + 1 :]]
        masks.append(mask)
    return masks


def naive_last_variable_multiples(
    num_variables: int, degree: int, size: int
) -> list[tuple[int, ...]]:
    """The members of the final lex segment of this size in this degree that x_r divides."""
    segment = exponent_vectors(num_variables, degree)[:size]  # ascending, smallest first
    return [m for m in segment if m[-1] > 0]


def naive_lex_realization(
    h: Sequence[int],
) -> tuple[list[tuple[tuple[int, ...], ...]], tuple[int, int, int] | None]:
    """Lex realization by its definition, one degree at a time.

    In each degree keep the h_d smallest monomials whose one-step divisors
    all survived the degree before.  Returns the survivor levels, each
    listed largest first, and None; or, at the first degree with too few
    eligible monomials, the levels so far and (degree, eligible, needed).
    """
    r = h[1] if len(h) > 1 else 0
    levels = [((0,) * r,)]
    for degree in range(1, len(h)):
        survived = set(levels[-1])
        eligible = [
            m
            for m in exponent_vectors(r, degree)  # ascending, smallest first
            if all(m[:v] + (m[v] - 1,) + m[v + 1 :] in survived for v in range(r) if m[v])
        ]
        if len(eligible) < h[degree]:
            return levels, (degree, len(eligible), h[degree])
        levels.append(tuple(reversed(eligible[: h[degree]])))
    return levels, None


def naive_socle(table) -> tuple[int, ...]:
    """Per degree, the survivors m with no x_v * m among the next degree's survivors."""
    r = table.num_variables
    levels = table.per_degree
    counts = []
    for degree, level in enumerate(levels):
        above = set(levels[degree + 1]) if degree + 1 < len(levels) else set()
        counts.append(
            sum(
                1
                for m in level
                if not any(m[:v] + (m[v] + 1,) + m[v + 1 :] in above for v in range(r))
            )
        )
    return tuple(counts)


def naive_max_growth(n: int, i: int, r: int) -> int:
    """Literal maximum over all n-subsets of degree-i monomials.

    Only usable when C(#monomials, n) is small; tests keep it tiny.
    """
    lower = exponent_vectors(r, i)
    index = {m: k for k, m in enumerate(lower)}
    upper_divisor_sets = []
    for m in exponent_vectors(r, i + 1):
        divisor_set = set()
        for v in range(r):
            if m[v] > 0:
                divisor_set.add(index[m[:v] + (m[v] - 1,) + m[v + 1 :]])
        upper_divisor_sets.append(frozenset(divisor_set))
    best = 0
    for chosen in combinations(range(len(lower)), n):
        chosen_set = set(chosen)
        count = sum(1 for divs in upper_divisor_sets if divs <= chosen_set)
        if count > best:
            best = count
    return best


def naive_gorenstein_hvectors(e: int, diesel: bool = True) -> set[tuple[int, ...]]:
    """The h-vectors of codimension-3 Gorenstein algebras of socle degree e, from their resolutions.

    Buchsbaum and Eisenbud (Amer. J. Math. 99, 1977): such an algebra R/I,
    with R = k[x, y, z], has I generated by the 2k+1 submaximal Pfaffians of
    an alternating matrix, and is resolved as
    0 -> R(-t) -> sum R(d_i - t) -> sum R(-d_i) -> R, with t = e + 3 and
    generator degrees d_1 <= ... <= d_{2k+1} summing to k*t.  Its Hilbert
    series is (1 - sum z^d_i + sum z^(t - d_i) - z^t) / (1 - z)^3.  Diesel
    (Pacific J. Math. 172, 1996): the degrees occur exactly when the matrix
    entries of degree t - d_i - d_(2k+3-i) are positive, that is when
    d_i + d_(2k+3-i) < t for 2 <= i <= k+1; d_1 >= 2 makes h_1 = 3.

    The search is finite.  Those k pairs hold every degree but d_1, so
    d_1 = k*t - (their sum) >= k*t - k*(t - 1) = k; and 2*d_1 <= d_2 + d_(2k+1) < t.
    So k <= d_1 < t/2, and each later degree lies in d_1 .. t-1-d_1, as its
    pair partner is at least d_1.

    diesel=False drops the condition and keeps that box, so that a test can
    see the condition matter.  Nothing here uses Macaulay's bound.
    """
    t = e + 3
    found = set()
    for d1 in range(2, (t + 1) // 2):
        for k in range(1, d1 + 1):
            for rest in combinations_with_replacement(range(d1, t - d1), 2 * k):
                degrees = (d1, *rest)
                if sum(degrees) != k * t:
                    continue
                if diesel and any(degrees[i - 1] + degrees[2 * k + 2 - i] >= t for i in range(2, k + 2)):
                    continue
                series = [1] + [0] * t  # the numerator, then divided by 1 - z three times
                series[t] -= 1
                for d in degrees:
                    series[d] -= 1
                    series[t - d] += 1
                for _ in range(3):
                    series = list(accumulate(series))
                assert series[e + 1:] == [0, 0, 0], degrees  # a polynomial of degree e
                found.add(tuple(series[: e + 1]))
    return found


INVERSE_SYSTEM_PRIME = 32003


def _rank_mod_p(rows: list[list[int]]) -> int:
    """The rank over GF(INVERSE_SYSTEM_PRIME) of rows of residues, by elimination in place."""
    p = INVERSE_SYSTEM_PRIME
    rank = 0
    for column in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][column]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inverse = pow(top[column], -1, p)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][column] * inverse % p
            if factor:
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def inverse_system_hvector(coefficients: dict, r: int, e: int) -> tuple[int, ...]:
    """The h-vector of R/Ann(F), F a form of degree e in r variables, over GF(32003).

    F = sum of c_alpha X^[alpha] in divided powers, with coefficients
    mapping each exponent tuple alpha (|alpha| = e) to c_alpha; a missing
    alpha has c_alpha = 0.  A monomial x^beta acts by contraction, x^beta o
    X^[alpha] = X^[alpha - beta], so Ann(F) in degree d is the kernel of F's
    d-th catalecticant (c_(beta + gamma)), rows |beta| = d and columns
    |gamma| = e - d, and h_d is its rank.  Over any field, R/Ann(F) of a
    nonzero F is an artinian Gorenstein algebra of socle degree e (Macaulay,
    The Algebraic Theory of Modular Systems, 1916; Iarrobino and Kanev,
    LNM 1721, 1999): a Gorenstein h-vector built with linear algebra alone.
    """
    levels = [exponent_vectors(r, d) for d in range(e + 1)]
    return tuple(
        _rank_mod_p([[coefficients.get(tuple(map(add, beta, gamma)), 0) % INVERSE_SYSTEM_PRIME
                      for gamma in levels[e - d]] for beta in levels[d]])
        for d in range(e + 1)
    )


def inverse_system_forms(r: int, e: int, count: int, seed: int) -> Iterator[dict]:
    """Seeded nonzero forms of degree e in r variables, for inverse_system_hvector.

    The kinds take turns: sums of powers of random linear forms, sparse
    sums of monomials, sums of powers of linear forms that each miss one
    variable (x_r, but x_1 for the last, so that the points lie on a line
    and one off it), and sums of powers of linear forms at points
    (1, t, ..., t^(r-1)) of the rational normal curve, a conic when r = 3.
    Each kind's forms have 1, 2, ... terms in turn, up to one more than
    C(r - 1 + e // 2, e // 2), the middle catalecticant's size, and then
    again from 1.  In divided powers the power L^[e] of L = sum a_i X_i is
    the sum of a^alpha X^[alpha].  A zero form is skipped, so fewer may come.
    """
    p = INVERSE_SYSTEM_PRIME
    rng = Random(seed)
    alphas = exponent_vectors(r, e)
    sizes = len(exponent_vectors(r, e // 2)) + 1
    for k in range(count):
        terms = 1 + k // 4 % sizes
        if k % 4 == 1:
            chosen = rng.sample(alphas, min(terms, len(alphas)))
            coefficients = {alpha: rng.randrange(1, p) for alpha in chosen}
        else:
            coefficients = dict.fromkeys(alphas, 0)
            for j in range(terms):
                if k % 4 == 3:
                    t = rng.randrange(p)
                    point = [pow(t, i, p) for i in range(r)]
                else:
                    point = [rng.randrange(p) for _ in range(r)]
                    if k % 4 == 2:
                        point[0 if j == terms - 1 else r - 1] = 0
                weight = rng.randrange(1, p)
                for alpha in alphas:
                    power = prod(pow(a, x, p) for a, x in zip(point, alpha))
                    coefficients[alpha] = (coefficients[alpha] + weight * power) % p
        if any(coefficients.values()):
            yield coefficients


def full_box_vectors(e: int, codim: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every vector (1, r, h_2, ..., h_e) with entries in 1..cap, no filtering.

    Socle degree 0 gives the empty family: (1,) has codimension 0 < r.
    """
    if e == 0:
        return
    if e == 1:
        yield (1, codim)
        return
    for tail in product(range(1, cap + 1), repeat=e - 1):
        yield (1, codim) + tail


def mirrored_symmetric_vectors(e: int, codim: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every symmetric vector (1, r, ..., r, 1) with free entries in 1..cap."""
    if e == 0:
        return
    if e == 1:
        if codim == 1:
            yield (1, 1)
        return
    free = e // 2 - 1  # entries h_2 .. h_floor(e/2)
    for middle in product(range(1, cap + 1), repeat=free):
        prefix = (1, codim) + middle
        if e % 2:
            yield prefix + prefix[::-1]
        else:
            yield prefix + prefix[-2::-1]
