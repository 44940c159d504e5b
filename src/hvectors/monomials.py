"""Monomial-quotient oracles: lex-segment realizations, socle vectors, brute-force growth.

Monomials are exponent tuples, one slot per variable.  The fixed term order
compares exponents position by position with a higher exponent on an earlier
variable ranking larger, and every per-degree collection is stored largest
first so that output is deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations_with_replacement, product, repeat
from math import comb
from operator import sub
from typing import NamedTuple

from .binomials import CACHE_SIZE, expand, macaulay_bound
from .errors import InfeasibleSearchError, NotAnOSequenceError
from .sequences import HVector, _growth_violation, _render_entries

Monomial = tuple[int, ...]

# Nodes max_growth_bruteforce may visit before the search gives up.
MAX_GROWTH_NODE_BUDGET = 10_000_000


def monomials_of_degree(num_variables: int, degree: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in r variables, largest first.

    C(r+d-1, d) of them (one at r = d = 0, none at r = 0 < d), one per index
    word of combinations_with_replacement, whose order is the term order (see
    max_growth_bruteforce).  Raises ValueError when an argument is negative.
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
    per_degree[d] being a sequence of degree-d exponent tuples of length
    num_variables; they do not assume a level is ordered, free of repeats,
    or part of an order ideal.  per_degree is a tuple of tuples, or in a
    lex realization a _LexLevels, which reads, compares, hashes and pickles
    as one; lex_segment_realization alone makes a _LexLevels.
    """

    num_variables: int
    per_degree: Sequence[Sequence[Monomial]]

    @property
    def socle_degree(self) -> int:
        return len(self.per_degree) - 1


class _LexLevels(Sequence):
    """The per_degree of a lex realization of hilbert, in hilbert.codimension variables.

    len(), hilbert_function and socle_vector read only hilbert, so none of
    them builds a monomial.  Any other read builds every level once by
    lex_segment_realization's shadow rule, at O(r) a monomial, and keeps
    only that tuple of levels, largest first.  It equals, hashes, prints,
    indexes and slices as that tuple, and the Sequence mixins iterate,
    reverse, search and count it through __getitem__; pickled or
    deep-copied, it is that tuple.
    """

    __slots__ = ("hilbert", "_levels")

    def __init__(self, hilbert: HVector) -> None:
        self.hilbert = hilbert
        self._levels = None

    def _tuple(self) -> tuple[tuple[Monomial, ...], ...]:
        if self._levels is None:
            r = self.hilbert.codimension
            below, lasts = [(0,) * r], [0]  # ascending, with each monomial's last variable
            levels = [tuple(below)]
            for size in self.hilbert.entries[1:]:
                level, level_lasts = [], []
                for m, last in zip(below, lasts):
                    room = size - len(level)
                    whole = room > r - last  # every child fits, and room is left after them
                    children = range(r - 1, last - 1 if whole else r - 1 - room, -1)
                    for j in children:
                        level.append(m[:j] + (m[j] + 1,) + m[j + 1 :])
                    level_lasts += children
                    if not whole:
                        break
                levels.append(tuple(reversed(level)))
                below, lasts = level, level_lasts
            self._levels = tuple(levels)
        return self._levels

    def __len__(self) -> int:
        return len(self.hilbert.entries)

    def __getitem__(self, index):
        return self._tuple()[index]

    def __eq__(self, other) -> bool:
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())

    def __reduce__(self):
        return tuple, (self._tuple(),)


def lex_segment_realization(h: HVector) -> SurvivorTable:
    """Realize h by keeping, in each degree, the h_d smallest monomials.

    By Macaulay's theorem the monomials whose one-step divisors all lie in
    a final lex segment of size n in degree d-1 form the final lex segment
    of size macaulay_bound(n, d-1) in degree d.  By the shadow rule the
    children x_j * p of each p, j from r down to p's last variable, ascend,
    each monomial has one parent, and a smaller parent's are smaller: the
    level is the first h_d children of the level below, from its smallest.
    Raises NotAnOSequenceError for the first degree that breaks growth,
    checked here alone; then returns in O(1) a _LexLevels, built on its
    first read.
    """
    d = _growth_violation(h.entries)
    if d is not None:
        raise NotAnOSequenceError(d + 1, macaulay_bound(h[d], d), h[d + 1])
    # past the NamedTuple's __new__
    return tuple.__new__(SurvivorTable, (h.codimension, _LexLevels(h)))


def lex_realization_names(h: HVector) -> list[list[str]]:
    """Per degree, render_monomial of each monomial of lex_segment_realization(h), in order.

    Builds no exponent tuple: a child x_j * p of the shadow rule is named in
    one concatenation, p's name and "*x_j" past p's last variable, else p's
    name with its last power raised.  Only the levels below the top keep,
    per name, its head, last variable and power, so time and memory are
    O(sum of h_d * d), the size of the text.  Raises as the realization does.
    """
    r, sizes = lex_segment_realization(h).num_variables, h.entries
    variables = [f"x{v + 1}" for v in range(r)]
    starred = ["*" + x for x in variables]
    levels = [["1"], variables][: len(sizes)]  # degree 1 holds every variable, largest first
    # the level below, ascending, as (name, head, last, power): name is head, then x_last^power
    below = zip(reversed(variables), repeat(""), range(r - 1, -1, -1), repeat(1))
    for d, size in enumerate(sizes[2:], 2):
        names, level, keep = [], [], d < len(sizes) - 1
        for name, head, last, power in below:
            room = size - len(names)
            whole = room > r - 1 - last  # every child fits, x_last * name the largest
            for j in range(r - 1, last if whole else r - 1 - room, -1):
                child = name + starred[j]
                names.append(child)
                if keep:
                    level.append((child, name, j, 1))
            if not whole:
                break
            child = f"{head}*x{last + 1}^{power + 1}" if head else f"x{last + 1}^{power + 1}"
            names.append(child)
            if keep:
                level.append((child, head, last, power + 1))
            if room == r - last:
                break
        levels.append(names[::-1])
        below = level
    return levels


def hilbert_function(table: SurvivorTable) -> HVector:
    levels = table.per_degree
    if type(levels) is _LexLevels:  # exact: an ABC isinstance miss costs a __instancecheck__ call
        return levels.hilbert
    return HVector(tuple(map(len, levels)))


class SocleVector(NamedTuple):
    """Per-degree count of survivors annihilated by every variable."""

    entries: tuple[int, ...]

    @property
    def is_gorenstein(self) -> bool:
        return self.entries[-1:] == (1,) and all(x == 0 for x in self.entries[:-1])

    def __str__(self) -> str:
        return _render_entries(self.entries)


@lru_cache(maxsize=CACHE_SIZE)
def _last_variable_multiples(size: int, degree: int) -> int:
    """How many of the final lex segment of this size >= 1 in this degree x_r divides.

    With size = sum of C(t_j, j) by expand(size, degree), it is the sum of
    C(t_j - 1, j - 1), whatever the number of variables: the count behind
    Green's hyperplane-restriction theorem.  Cached like macaulay_bound.
    """
    return sum(comb(top - 1, bottom - 1) for top, bottom in expand(size, degree).terms)


def socle_vector(table: SurvivorTable) -> SocleVector:
    """Count, per degree, the survivors m with no multiple x_v * m among the next degree's survivors.

    The top degree has nothing above it, so all of its survivors count.  A
    lex realization is known by its _LexLevels per_degree, whose hilbert's
    codimension must be the table's num_variables (an O(1) check that
    catches the container put in a table with another r).  There x_r * m is
    the smallest multiple of m, and a final segment holding any multiple of
    m holds x_r * m too, so m counts exactly when x_r * m is not a survivor.
    Each survivor above that x_r divides is x_r * m for one survivor m, so
    the count is h_d less the x_r-multiples among h_{d+1}: a function of h,
    computed here from the container's hilbert in O(e), so no level is
    built.  hvec socle prints this vector of lex_segment_realization(h).

    Any other table goes through the probe loop: each survivor probes a set
    of the next level upward, once per variable, and counts when all r
    probes miss, which is exact on any table, order ideal or not, even one
    whose monomials have slots past the r-th.
    """
    levels = table.per_degree
    if type(levels) is _LexLevels and levels.hilbert.codimension == table.num_variables:
        sizes = levels.hilbert.entries
        multiples = map(_last_variable_multiples, sizes[1:], range(1, len(sizes)))
        return tuple.__new__(SocleVector, ((*map(sub, sizes, multiples), sizes[-1]),))
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
    bits on first sight.  Raises InfeasibleSearchError
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
    """Survivors of the quotient by pure powers with the given exponents."""
    _check_exponents(exponents)
    levels = [[] for _ in range(sum(exponents) - len(exponents) + 1)]
    # descending ranges make product yield the survivors in the term order, largest first
    for m in product(*(range(k - 1, -1, -1) for k in exponents)):
        levels[sum(m)].append(m)
    return SurvivorTable(num_variables=len(exponents), per_degree=tuple(map(tuple, levels)))
