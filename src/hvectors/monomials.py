"""Monomial-quotient oracles: lex-segment realizations, socle vectors, brute-force growth.

Monomials are exponent tuples, one slot per variable.  The fixed term order
compares exponents position by position with a higher exponent on an earlier
variable ranking larger, and every per-degree collection is stored largest
first so that output is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import combinations_with_replacement, islice, product
from math import comb
from operator import sub
from typing import Iterator, NamedTuple, Sequence

from .binomials import expand, macaulay_bound
from .errors import InfeasibleSearchError, NotAnOSequenceError
from .sequences import HVector, _growth_violation

Monomial = tuple[int, ...]

# Nodes max_growth_bruteforce may visit before the search gives up.
MAX_GROWTH_NODE_BUDGET = 10_000_000


def monomials_of_degree(num_variables: int, degree: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in r variables, largest first.

    C(r+d-1, d) of them (one at r = d = 0, none at r = 0 < d), one per index
    word of combinations_with_replacement, whose order is the term order (see
    max_growth_bruteforce); nothing is held.  Raises ValueError when an
    argument is negative.
    """
    if num_variables < 0 or degree < 0:
        raise ValueError(f"num_variables and degree must be >= 0, got {num_variables}, {degree}")
    words = combinations_with_replacement(range(num_variables), degree)
    return tuple(tuple(map(word.count, range(num_variables))) for word in words)


def divisors(monomial: Monomial) -> tuple[Monomial, ...]:
    """Degree-(d-1) divisors of a degree-d monomial."""
    result = []
    for i, exponent in enumerate(monomial):
        if exponent > 0:
            result.append(monomial[:i] + (exponent - 1,) + monomial[i + 1 :])
    return tuple(result)


def render_monomial(monomial: Monomial) -> str:
    """1-based power-product notation, e.g. (2, 0, 1) -> 'x1^2*x3'."""
    parts = []
    for i, exponent in enumerate(monomial):
        if exponent == 1:
            parts.append(f"x{i + 1}")
        elif exponent > 1:
            parts.append(f"x{i + 1}^{exponent}")
    return "*".join(parts) if parts else "1"


class SurvivorTable(NamedTuple):
    """Per-degree standard monomials of a monomial quotient.

    The complement is closed under multiplication by variables, so every
    one-step divisor of a survivor survives too; a monomial whose divisors
    all survive may still be cut.  Functions that read a table rely only on
    per_degree[d] holding degree-d exponent tuples of length num_variables;
    they do not assume a level is ordered, free of repeats, or part of an
    order ideal.
    """

    num_variables: int
    per_degree: tuple[tuple[Monomial, ...], ...]

    @property
    def socle_degree(self) -> int:
        return len(self.per_degree) - 1


class _LexLevels(tuple):
    """The per_degree of a lex realization; it acts as the plain tuple."""

    __slots__ = ()


def _check_growth(h: HVector) -> int:
    """h's codimension; raises NotAnOSequenceError at the first degree that exceeds its bound."""
    d = _growth_violation(h.entries)
    if d is not None:
        raise NotAnOSequenceError(d + 1, macaulay_bound(h[d], d), h[d + 1])
    return h.codimension


def _ascending_words(r: int, d: int, start: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    """Index words of degree-d monomials in r variables (r >= 1 or d = 0), up the term order.

    Words list variable indices in non-decreasing order and ascend as the
    monomials descend (see max_growth_bruteforce).  From x_r^d = (r-1, ...,
    r-1), or just after start, up to x_1^d, each O(d) step lowers the last
    index that can drop (above the one before it, or above 0 at the front)
    and sets every later one to r-1, the largest suffix: none lies between.
    """
    word = (r - 1,) * d if start is None else tuple(start)
    if start is None:
        yield word
    while d and word[-1] > 0:
        i = bisect_left(word, word[-1])
        word = word[:i] + (word[i] - 1,) + (r - 1,) * (d - 1 - i)
        yield word


# (r, d) -> the longest degree-d final lex segment in r variables a lex realization asked for
_held_segments: dict[tuple[int, int], tuple[Monomial, ...]] = {}


def lex_segment_realization(h: HVector) -> SurvivorTable:
    """Realize h by keeping, in each degree, the h_d smallest monomials.

    By Macaulay's theorem the monomials whose one-step divisors all lie in
    a final lex segment of size n in degree d-1 form the final lex segment
    of size macaulay_bound(n, d-1) in degree d, so each level is the final
    segment of size h_d.  Levels are sliced from the longest final segment
    asked so far for their (r, d), held in _held_segments, which no other
    function reads or writes.  A shorter one grows from its smallest end
    (x_r^d when none is held) by _ascending_words resumed from its top, at
    O(r + d) a monomial, and is held in its place, so no other monomial of
    the degree is made: time and memory are O(sum of h_d * r).  A level as
    long as its held segment is that tuple itself.  Raises for the first
    degree that breaks Macaulay growth, before it builds any level.
    per_degree is a _LexLevels, so socle_vector answers from its sizes.
    """
    r = _check_growth(h)
    held = _held_segments.get
    levels = []
    for d, size in enumerate(h.entries):
        segment = held((r, d), ())
        if len(segment) < size:
            top = [v for v, c in enumerate(segment[0]) for _ in range(c)] if segment else None
            added = []
            for word in islice(_ascending_words(r, d, top), size - len(segment)):
                exponents = [0] * r
                for v in word:
                    exponents[v] += 1
                added.append(tuple(exponents))
            segment = _held_segments[r, d] = (*reversed(added), *segment)
        levels.append(segment[-size:])
    return tuple.__new__(SurvivorTable, (r, _LexLevels(levels)))  # past the NamedTuple's __new__


def lex_realization_names(h: HVector) -> list[list[str]]:
    """Per degree, render_monomial of each monomial of lex_segment_realization(h), in order.

    Each level is rendered from its _ascending_words and reversed, holding
    nothing: time and memory are O(sum of h_d * d), the size of the text.
    Raises as lex_segment_realization does.
    """
    r = _check_growth(h)
    factors = [f"*x{v + 1}" for v in range(r)]
    levels = []
    for d, size in enumerate(h.entries):
        names = []
        for word in islice(_ascending_words(r, d), size):
            name, k = "", 0
            while k < d:  # one factor per run of equal indices
                j = bisect_right(word, word[k], k)
                name += factors[word[k]] if j - k == 1 else f"{factors[word[k]]}^{j - k}"
                k = j
            names.append(name[1:] or "1")
        levels.append(names[::-1])
    return levels


def hilbert_function(table: SurvivorTable) -> HVector:
    return HVector(tuple(map(len, table.per_degree)))


class SocleVector(NamedTuple):
    """Per-degree count of survivors annihilated by every variable."""

    entries: tuple[int, ...]

    @property
    def is_gorenstein(self) -> bool:
        return self.entries[-1:] == (1,) and all(x == 0 for x in self.entries[:-1])

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.entries)


@lru_cache(maxsize=None)
def _last_variable_multiples(size: int, degree: int) -> int:
    """How many of the final lex segment of this size >= 1 in this degree x_r divides.

    With size = sum of C(t_j, j) by expand(size, degree), it is the sum of
    C(t_j - 1, j - 1), whatever the number of variables: the count behind
    Green's hyperplane-restriction theorem.  Cached like macaulay_bound.
    """
    return sum(comb(top - 1, bottom - 1) for top, bottom in expand(size, degree).terms)


def _lex_socle(sizes: Sequence[int]) -> SocleVector:
    """The socle vector of the lex realization whose levels have these sizes."""
    above = map(_last_variable_multiples, sizes[1:], range(1, len(sizes)))
    return tuple.__new__(SocleVector, ((*map(sub, sizes, above), sizes[-1]),))


def lex_socle_vector(h: HVector) -> SocleVector:
    """socle_vector(lex_segment_realization(h)), or its error, with no level built."""
    _check_growth(h)
    return _lex_socle(h.entries)


def socle_vector(table: SurvivorTable) -> SocleVector:
    """Count, per degree, the survivors m with no multiple x_v * m among the next degree's survivors.

    The top degree has nothing above it, so all of its survivors count.
    A lex realization is known by its _LexLevels per_degree, whose degree-0
    monomial must have num_variables slots (an O(1) check that catches the
    container put in a table with another r).  There x_r * m is the
    smallest multiple of m, and a final segment holding any multiple of m
    holds x_r * m too, so m counts exactly when x_r * m is not a survivor.
    Each survivor above that x_r divides is x_r * m for one survivor m, so
    the count is h_d less the x_r-multiples among h_{d+1}: a function of h.

    Any other table goes through the probe loop: each survivor probes a set
    of the next level upward, once per variable, and counts when all r
    probes miss, which is exact on any table, order ideal or not, even one
    whose monomials have slots past the r-th.
    """
    levels = table.per_degree
    if isinstance(levels, _LexLevels) and len(levels[0][0]) == table.num_variables:
        return _lex_socle(tuple(map(len, levels)))
    variables = range(table.num_variables)
    entries = []
    for level, above in zip(levels, (*levels[1:], ())):
        upper = set(above)
        count = 0
        for m in level:
            if not any(m[:v] + (m[v] + 1,) + m[v + 1 :] in upper for v in variables):
                count += 1
        entries.append(count)
    return SocleVector(tuple(entries))


def max_growth_bruteforce(n: int, i: int, r: int) -> int:
    """Largest possible degree-(i+1) count over all n-element degree-i survivor sets.

    Maximizes, over n-subsets S of the degree-i monomials in r variables,
    the number of degree-(i+1) monomials whose one-step divisors all lie
    in S.  The search is exact: it branches over which degree-(i+1)
    monomials to cover, bounding the union of their divisor sets by n,
    which reaches the same maximum because any chosen union extends to an
    n-element S.  Picks come largest first, each the largest not yet
    covered; a node passes on only the monomials still affordable under
    its union, and counts those it already covers for free.

    Each pick must have non-increasing exponents on every run of variables
    where all earlier picks have equal exponents, which makes it the
    largest in its orbit under the variable permutations that fix every
    earlier pick.  The rule loses nothing.  Take an optimal covered set
    that is closed, holding every monomial whose divisors lie in its union;
    permuting the variables permutes divisor sets, so each of its images
    is optimal and closed too.  Let T be the image whose descending member
    list is lex-largest, and follow the branch whose every pick is the
    largest member of T not yet covered; it stays within budget and covers
    all of T.  If a permutation fixing the earlier picks raised a pick t,
    it would fix their union and so the set C of monomials that union
    covers.  C lies in T, as T is closed, and holds every member of T above
    t but not t.  The image of T would then hold all of C and the image of
    t, which lies above t and outside C, so its descending list would be
    lex-larger than T's: a contradiction.  So that branch obeys the rule.

    Monomials are the index words of combinations_with_replacement, whose
    ascending order is the term order, largest first: where two words first
    differ, the smaller holds more of that variable, and every earlier
    variable has equal counts in both.  A word of more than n distinct
    indices has more than n divisors and is skipped unbuilt; divisors take
    bits on first sight, and nothing is held.  Raises InfeasibleSearchError
    past MAX_GROWTH_NODE_BUDGET nodes, or words (then before listing any).
    """
    if n < 1 or i < 1 or r < 1:
        raise ValueError(f"needs n, i, r >= 1, got n={n}, i={i}, r={r}")
    available = comb(r + i - 1, i)
    if available < n:
        raise ValueError(f"only {available} monomials of degree {i} in {r} variables, needs {n}")
    node_budget = MAX_GROWTH_NODE_BUDGET
    refusal = f"search for n={n}, i={i}, r={r} exceeded {node_budget} nodes"
    if comb(r + i, i + 1) > node_budget:
        raise InfeasibleSearchError(refusal)
    bits: dict[tuple[int, ...], int] = {}
    # each candidate is (divisor mask, bits x with m[x] < m[x+1], bits x with m[x] == m[x+1])
    candidates = []
    for word in combinations_with_replacement(range(r), i + 1):
        if len(set(word)) > n:
            continue
        mask = 0
        for k in range(i + 1):  # a repeated index gives the same divisor again
            mask |= 1 << bits.setdefault(word[:k] + word[k + 1 :], len(bits))
        m = list(map(word.count, range(r)))
        candidates.append((mask, sum(1 << x for x in range(r - 1) if m[x] < m[x + 1]),
                           sum(1 << x for x in range(r - 1) if m[x] == m[x + 1])))
    best, nodes = _most_covered(candidates, (1 << r - 1) - 1, 0, 0, 0, 0, n, node_budget)
    if nodes > node_budget:
        raise InfeasibleSearchError(refusal)
    return best


# A module function, not a closure: a closure that calls itself holds its own cell, and
# every search would leave that cycle behind for the garbage collector.
def _most_covered(
    candidates: list[tuple[int, int, int]],
    ties: int,
    union: int,
    count: int,
    best: int,
    nodes: int,
    n: int,
    node_budget: int,
) -> tuple[int, int]:
    """(best, nodes) once the branches below a node covering count monomials are searched.

    Bit x of ties is set when every earlier pick has equal exponents on
    variables x and x+1; a candidate whose exponents rise at any such x is
    not the largest in its orbit, so it is passed over as a pick but can
    still be covered for free.  A pick keeps the ties on which its own
    exponents are equal.  The caller has already counted the node itself
    into best.  Returns early once nodes pass the budget.
    """
    for k, (mask, rises, equal) in enumerate(candidates):
        nodes += 1
        if nodes > node_budget or count + len(candidates) - k <= best:
            return best, nodes
        if rises & ties:
            continue
        merged = union | mask
        free = 0
        affordable = []
        for other in candidates[k + 1 :]:
            widened = merged | other[0]
            if widened == merged:
                free += 1
            elif widened.bit_count() <= n:
                affordable.append(other)
        covered = count + 1 + free
        if covered > best:
            best = covered
        if affordable:
            best, nodes = _most_covered(
                affordable, ties & equal, merged, covered, best, nodes, n, node_budget
            )
    return best, nodes


def _check_exponents(exponents: tuple[int, ...]) -> None:
    for exponent in exponents:
        if exponent < 2:
            raise ValueError(f"exponents must be >= 2, got {exponent}")


def complete_intersection_hvector(*exponents: int) -> HVector:
    """Coefficients of the product over the exponents k of (1 + t + ... + t^(k-1))."""
    _check_exponents(exponents)
    coeffs = [1]
    for k in exponents:
        result = [0] * (len(coeffs) + k - 1)
        for p, x in enumerate(coeffs):
            for q in range(k):
                result[p + q] += x
        coeffs = result
    return HVector(tuple(coeffs))


def complete_intersection_table(*exponents: int) -> SurvivorTable:
    """Survivors of the quotient by pure powers with the given exponents; nothing is held."""
    _check_exponents(exponents)
    levels = [[] for _ in range(sum(exponents) - len(exponents) + 1)]
    # descending ranges make product yield the survivors in the term order, largest first
    for m in product(*(range(k - 1, -1, -1) for k in exponents)):
        levels[sum(m)].append(m)
    return SurvivorTable(num_variables=len(exponents), per_degree=tuple(map(tuple, levels)))
