import copy
import gc
import pickle
import random
import tracemalloc
from collections.abc import Sequence
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruteforce import (
    exponent_vectors,
    naive_bound,
    naive_last_variable_multiples,
    naive_lex_realization,
    naive_max_growth,
    naive_socle,
)
from hvectors import (
    HVector,
    InfeasibleSearchError,
    NotAnOSequenceError,
    SocleVector,
    SurvivorTable,
    binom,
    complete_intersection_hvector,
    complete_intersection_table,
    divisors,
    hilbert_function,
    is_si_sequence,
    is_symmetric,
    lex_segment_realization,
    macaulay_bound,
    max_growth_bruteforce,
    monomials_of_degree,
    o_sequence_violation,
    render_monomial,
    socle_vector,
)
from hvectors import monomials
from hvectors.binomials import CACHE_SIZE
from hvectors.monomials import _last_variable_multiples, _LexLevels, lex_realization_names

# ways to spoil a final lex segment, each leaving a table the socle count must still get right
NEAR_LEX_MUTATIONS = ("none", "drop", "duplicate", "swap", "larger first", "hole", "empty")


class TestMonomialBasics:
    def test_counts_match_stars_and_bars(self):
        for r in range(1, 5):
            for d in range(0, 7):
                assert len(monomials_of_degree(r, d)) == binom(r - 1 + d, d)

    def test_order_is_descending(self):
        level = monomials_of_degree(3, 2)
        assert level == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))

    def test_order_matches_the_naive_enumeration(self):
        for r in range(7):
            for d in range(7):
                assert list(monomials_of_degree(r, d)) == exponent_vectors(r, d)[::-1], (r, d)

    @pytest.mark.parametrize("r, d, level", [
        (2, -1, None), (0, -1, None), (-1, 2, None), (-1, 0, None), (0, 0, ((),)), (0, 3, ()),
    ])
    def test_negative_arguments_are_refused_before_anything_is_held(self, r, d, level):
        if level is not None:
            assert monomials_of_degree(r, d) == level
            return
        with pytest.raises(ValueError, match=rf"must be >= 0, got {r}, {d}$"):
            monomials_of_degree(r, d)

    def test_divisors(self):
        assert divisors((2, 0, 1)) == ((1, 0, 1), (2, 0, 0))
        assert divisors((0, 0, 0)) == ()

    def test_rendering(self):
        assert render_monomial((2, 0, 1)) == "x1^2*x3"
        assert render_monomial((0, 1, 0)) == "x2"
        assert render_monomial((0, 0, 0)) == "1"


class TestRealization:
    def test_two_variable_example(self):
        table = lex_segment_realization(HVector((1, 2, 2)))
        assert table.num_variables == 2
        assert table.per_degree[1] == ((1, 0), (0, 1))
        assert table.per_degree[2] == ((1, 1), (0, 2))

    def test_full_generic_keeps_everything(self):
        table = lex_segment_realization(HVector((1, 3, 6, 10)))
        for degree, level in enumerate(table.per_degree):
            assert level == monomials_of_degree(3, degree)

    def test_failure_names_the_overfull_degree(self):
        with pytest.raises(NotAnOSequenceError) as exc_info:
            lex_segment_realization(HVector((1, 2, 4)))
        assert exc_info.value.degree == 2

    @pytest.mark.parametrize(
        "entries",
        [(1, 2, 4), (1, 3, 7), (1, 2, 3, 5), (1, 3, 6, 11), (1, 1, 2)],
    )
    def test_failure_degree_is_one_past_the_violating_step(self, entries):
        with pytest.raises(NotAnOSequenceError) as exc_info:
            lex_segment_realization(HVector(entries))
        assert exc_info.value.degree == o_sequence_violation(entries) + 1

    def test_round_trip_on_small_o_sequences(self):
        for entries in [(1,), (1, 1, 1, 1), (1, 2, 2), (1, 3, 4, 3, 1), (1, 3, 6, 6, 5)]:
            h = HVector(entries)
            assert hilbert_function(lex_segment_realization(h)) == h

    def test_complement_is_closed_under_variable_multiplication(self):
        table = lex_segment_realization(HVector((1, 3, 4, 3, 2)))
        for degree in range(table.socle_degree):
            survivors = set(table.per_degree[degree])
            next_survivors = set(table.per_degree[degree + 1])
            for monomial in monomials_of_degree(table.num_variables, degree):
                if monomial in survivors:
                    continue
                for v in range(table.num_variables):
                    bumped = monomial[:v] + (monomial[v] + 1,) + monomial[v + 1 :]
                    assert bumped not in next_survivors

    def test_field_realizes_in_zero_variables(self):
        table = lex_segment_realization(HVector((1,)))
        assert table.per_degree == (((),),)

    @given(st.integers(4, 5), st.lists(st.integers(1, 40), min_size=1, max_size=4))
    def test_contract_holds_beyond_codimension_three(self, r, tail):
        # the success/failure contract is not special to small codimension
        h = HVector((1, r, *tail))
        violation = o_sequence_violation(h.entries)
        try:
            table = lex_segment_realization(h)
        except NotAnOSequenceError as exc:
            assert violation is not None
            assert exc.degree == violation + 1
        else:
            assert violation is None
            assert hilbert_function(table) == h


class TestSocle:
    def test_two_variable_example(self):
        assert socle_vector(lex_segment_realization(HVector((1, 2, 2)))).entries == (0, 0, 2)

    def test_generic_truncation(self):
        table = lex_segment_realization(HVector((1, 3, 6)))
        vector = socle_vector(table)
        assert vector.entries == (0, 0, 6)
        assert not vector.is_gorenstein

    def test_top_degree_socle_equals_top_entry(self):
        for entries in [(1, 2, 2), (1, 3, 4, 3, 1), (1, 3, 3), (1, 1, 1)]:
            h = HVector(entries)
            vector = socle_vector(lex_segment_realization(h))
            assert vector.entries[-1] == h[h.socle_degree]
            assert all(x >= 0 for x in vector.entries)

    def test_missing_last_variable_multiple_falls_back_to_the_others(self):
        # x2 * x2 is not a survivor, but x1 * x2 is, so x2 is not in the socle
        table = SurvivorTable(
            num_variables=2, per_degree=(((0, 0),), ((0, 1),), ((1, 1),))
        )
        assert socle_vector(table).entries == naive_socle(table) == (0, 0, 1)

    def test_empty_socle_vector_is_not_gorenstein(self):
        # no degree, so no top degree holding the one socle element
        vector = socle_vector(SurvivorTable(num_variables=2, per_degree=()))
        assert vector == SocleVector(())
        assert not vector.is_gorenstein
        assert not SocleVector(()).is_gorenstein

    @given(st.data())
    def test_matches_the_naive_oracle_on_arbitrary_tables(self, data):
        r = data.draw(st.integers(1, 4), label="r")
        degrees = data.draw(st.integers(1, 4), label="degrees")
        levels = tuple(
            tuple(data.draw(st.lists(st.sampled_from(monomials_of_degree(r, d)), unique=True)))
            for d in range(degrees)
        )
        table = SurvivorTable(num_variables=r, per_degree=levels)
        assert socle_vector(table).entries == naive_socle(table)

    @given(st.data())
    def test_matches_the_naive_oracle_on_near_lex_tables(self, data):
        r = data.draw(st.integers(1, 4), label="r")
        degrees = data.draw(st.integers(1, 5), label="degrees")
        levels = []
        for d in range(degrees):
            every = monomials_of_degree(r, d)
            size = data.draw(st.integers(1, len(every)), label=f"size {d}")
            level = list(every[-size:])
            larger = every[:-size]  # every monomial above the segment
            mutation = data.draw(st.sampled_from(NEAR_LEX_MUTATIONS), label=f"mutation {d}")
            if mutation == "drop" and size >= 3:
                del level[data.draw(st.integers(1, size - 2))]
            elif mutation == "duplicate":
                k = data.draw(st.integers(0, size - 1))
                level.insert(k, level[k])
            elif mutation == "swap" and size >= 2:
                k = data.draw(st.integers(0, size - 2))
                level[k], level[k + 1] = level[k + 1], level[k]
            elif mutation == "larger first" and larger:
                level[0] = data.draw(st.sampled_from(larger))
            elif mutation == "hole" and size >= 3 and larger:
                # same length, first and last monomial; one inner slot leaves the segment
                level[data.draw(st.integers(1, size - 2))] = data.draw(st.sampled_from(larger))
            elif mutation == "empty":
                level = []
            levels.append(tuple(level))
        table = SurvivorTable(num_variables=r, per_degree=tuple(levels))
        assert socle_vector(table).entries == naive_socle(table)

    def test_a_level_out_of_order_is_not_taken_for_a_final_segment(self):
        # the degree-2 level has the size, first and last monomial of the final segment
        # (0,2,0), (0,1,1), (0,0,2), but (1,1,0) stands where (0,1,1) belongs
        table = SurvivorTable(
            num_variables=3,
            per_degree=(
                ((0, 0, 0),),
                ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                ((0, 2, 0), (1, 1, 0), (0, 0, 2)),
                ((0, 0, 3),),
            ),
        )
        assert socle_vector(table).entries == naive_socle(table) == (0, 0, 2, 1)

    def test_lex_realizations_match_the_naive_oracle_at_larger_codimension(self):
        rng = random.Random(1994)
        for r in range(7, 13):
            for _ in range(12):
                entries = [1, r]
                for degree in range(2, rng.randint(2, 4) + 1):
                    entries.append(rng.randint(1, naive_bound(entries[-1], degree - 1)))
                table = lex_segment_realization(HVector(entries))
                assert socle_vector(table).entries == naive_socle(table), entries

    def test_tables_without_variables_or_levels(self):
        assert socle_vector(SurvivorTable(num_variables=0, per_degree=())).entries == ()
        assert socle_vector(SurvivorTable(num_variables=0, per_degree=(((),),))).entries == (1,)

    def test_monomial_complete_intersections_are_gorenstein(self):
        for count in (2, 3, 4):
            for exponents in combinations_with_replacement(range(2, 5), count):
                vector = socle_vector(complete_intersection_table(*exponents))
                assert vector.is_gorenstein, exponents


def test_realization_and_socle_match_the_naive_oracles():
    rng = random.Random(2004)
    tables = []
    shortfalls = 0
    for _ in range(600):
        entries = [1, rng.randint(1, 6)]
        for degree in range(2, rng.randint(1, 5) + 1):
            entries.append(rng.randint(1, naive_bound(entries[-1], degree - 1) + 2))
        levels, shortfall = naive_lex_realization(entries)
        if shortfall is None:
            table = lex_segment_realization(HVector(entries))
            assert table.per_degree == tuple(levels), entries
            tables.append(table)
        else:
            shortfalls += 1
            with pytest.raises(NotAnOSequenceError) as exc_info:
                lex_segment_realization(HVector(entries))
            error = exc_info.value
            assert (error.degree, error.available, error.requested) == shortfall, entries
    assert tables and shortfalls  # the sample reaches both outcomes

    for count in (2, 3, 4):
        for exponents in combinations_with_replacement(range(2, 5), count):
            tables.append(complete_intersection_table(*exponents))
    # x2^2 survives without its divisor x2, so this is not an order ideal
    tables.append(
        SurvivorTable(
            num_variables=3,
            per_degree=(
                ((0, 0, 0),),
                ((1, 0, 0), (0, 0, 1)),
                ((1, 0, 1), (0, 2, 0), (0, 0, 2)),
            ),
        )
    )
    for table in tables:
        assert socle_vector(table).entries == naive_socle(table), table


def plain(table):
    """The same table with every level rebuilt as a plain tuple, so socle_vector probes it."""
    return SurvivorTable(table.num_variables, tuple(tuple(level) for level in table.per_degree))


def random_o_sequence(rng, r, e):
    """1, r, then each entry drawn from [bound/4, bound] under the growth bound of the one before."""
    h = [1, r]
    for d in range(1, e):
        bound = macaulay_bound(h[d], d)
        h.append(rng.randint(max(1, bound // 4), bound))
    return HVector(h)


class TestMarkedLevels:
    def test_closed_form_matches_the_probe_loop_on_every_workload_shape(self):
        rng = random.Random(1103)
        for r in range(3, 21):
            for e in range(2, 6):
                table = lex_segment_realization(random_o_sequence(rng, r, e))
                fast = socle_vector(table).entries
                assert fast == socle_vector(plain(table)).entries, (r, e)
                if r <= 8:
                    assert fast == naive_socle(table), (r, e)

    def test_levels_moved_to_another_degree_are_probed(self):
        rng = random.Random(1104)
        for _ in range(60):
            r = rng.randint(2, 5)
            pool = [
                level
                for _ in range(3)
                for level in lex_segment_realization(random_o_sequence(rng, r, 4)).per_degree
            ]
            levels = tuple(rng.choice(pool) for _ in range(rng.randint(2, 5)))
            table = SurvivorTable(num_variables=r, per_degree=levels)
            assert socle_vector(table).entries == naive_socle(table), levels

    def test_levels_under_another_number_of_variables_are_probed(self):
        rng = random.Random(1105)
        for _ in range(40):
            r = rng.randint(3, 6)
            levels = lex_segment_realization(random_o_sequence(rng, r, 4)).per_degree
            for fewer in range(1, r):
                table = SurvivorTable(num_variables=fewer, per_degree=levels)
                assert socle_vector(table).entries == naive_socle(table), (fewer, levels)

    def test_a_marked_level_next_to_a_plain_one_is_probed(self):
        rng = random.Random(1106)
        for _ in range(60):
            r = rng.randint(2, 5)
            levels = list(lex_segment_realization(random_o_sequence(rng, r, 4)).per_degree)
            d = rng.randrange(1, len(levels))
            # a hand-made level of the same size: the largest monomials, not the smallest
            levels[d] = monomials_of_degree(r, d)[: len(levels[d])]
            table = SurvivorTable(num_variables=r, per_degree=tuple(levels))
            assert socle_vector(table).entries == naive_socle(table), levels

    def test_pickled_and_copied_realizations_keep_their_socle(self):
        rng = random.Random(1107)
        for r in (3, 7, 12):
            table = lex_segment_realization(random_o_sequence(rng, r, 5))
            expected = socle_vector(table)
            for clone in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
                assert clone == table
                assert socle_vector(clone) == expected


class TestClosedForm:
    def test_last_variable_multiples_match_the_naive_segment(self):
        for r in range(1, 7):
            for d in range(1, 6):
                for size in range(1, binom(r + d - 1, d) + 1):
                    expected = len(naive_last_variable_multiples(r, d, size))
                    assert _last_variable_multiples(size, d) == expected, (r, d, size)

    def test_lex_realization_socle_matches_the_probe_loop_and_its_failures(self):
        rng = random.Random(1108)
        for r in range(1, 9):
            for e in range(1, 7):
                for _ in range(8):
                    h = random_o_sequence(rng, r, e)
                    expected = socle_vector(plain(lex_segment_realization(h)))
                    assert socle_vector(lex_segment_realization(h)) == expected, h
                    if e == 1:
                        continue
                    # one past the growth bound at the top degree
                    spoiled = HVector(h.entries[:-1] + (macaulay_bound(h[e - 1], e - 1) + 1,))
                    with pytest.raises(NotAnOSequenceError) as realized:
                        lex_segment_realization(spoiled)
                    with pytest.raises(NotAnOSequenceError) as closed:
                        socle_vector(lex_segment_realization(spoiled))
                    assert closed.value.degree == e
                    assert str(closed.value) == str(realized.value), spoiled
                    assert str(closed.value) == (
                        f"NotAnOSequence({e}): needs {spoiled[e]} monomials of degree {e}, "
                        f"only {spoiled[e] - 1} available"
                    ), spoiled

    def test_full_levels_are_the_cached_tuples(self, monkeypatch):
        # each level is a plain tuple, built without listing its whole degree and kept by its table
        def forbidden_level(num_variables, degree):
            raise AssertionError(f"built every degree-{degree} monomial in {num_variables} variables")

        monkeypatch.setattr(monomials, "monomials_of_degree", forbidden_level)
        short = lex_segment_realization(HVector((1, 3, 6, 4)))
        longer = lex_segment_realization(HVector((1, 3, 6, 10)))
        for table in (short, longer):
            levels = table.per_degree
            for d, size in enumerate(hilbert_function(table).entries):
                assert type(levels[d]) is tuple and levels[d] is levels[d]
                assert levels[d] == tuple(reversed(exponent_vectors(3, d)[:size])), (d, size)
        assert longer.per_degree[3][-4:] == short.per_degree[3]
        assert lex_segment_realization(HVector((1, 3, 6, 4))).per_degree == short.per_degree


def least_levels_below(r, d, size):
    """(1, r, ..., size) at degree d >= 2, each level below d the least that grows to the next."""
    h = [size]
    for k in range(d - 1, 1, -1):
        h.append(next(n for n in range(1, h[-1] + 1) if macaulay_bound(n, k) >= h[-1]))
    return (1, r, *reversed(h))


class TestShadowRule:
    """Exponent tuples and names of every level, built by the shadow rule, against the naive final segment."""

    @staticmethod
    def check(h, ascending=None):
        # ascending[d] lists degree d up the term order, naively unless given
        if ascending is None:
            ascending = [exponent_vectors(h.codimension, d) for d in range(len(h.entries))]
        expected = tuple(tuple(reversed(ascending[d][:size])) for d, size in enumerate(h.entries))
        assert lex_segment_realization(h).per_degree == expected, h
        assert lex_realization_names(h) == [list(map(render_monomial, level)) for level in expected], h

    def test_every_size_over_whole_and_least_levels_below(self):
        for r in range(1, 7):
            ascending = []
            for d in range(7):
                ascending.append(exponent_vectors(r, d))
                for size in range(1, len(ascending[d]) + 1) if d >= 2 else ():
                    self.check(HVector((*map(len, ascending[:d]), size)), ascending)
                    self.check(HVector(least_levels_below(r, d, size)), ascending)

    def test_no_variable_one_variable_and_many_variables(self):
        self.check(HVector((1,)))
        for e in range(1, 8):
            self.check(HVector((1,) * (e + 1)))
        for r in (2, 10, 300):  # below degree 2 every variable, then x_r^d alone
            levels = lex_segment_realization(HVector((1, r, 1, 1, 1))).per_degree
            assert levels == (((0,) * r,), tuple(reversed(exponent_vectors(r, 1))),
                              *(((0,) * (r - 1) + (d,),) for d in (2, 3, 4))), r
        names = lex_realization_names(HVector((1, 100_000, 1, 1)))
        assert names[0] == ["1"] and names[2:] == [["x100000^2"], ["x100000^3"]]
        assert names[1] == [f"x{v}" for v in range(1, 100_001)]


class TestFinalSegments:
    """The levels lex_segment_realization builds, against the naive ascending enumeration."""

    @staticmethod
    def check_in_order(r, d, sizes):
        # each request realizes (1, r, C(r+1, 2), ..., C(r+d-2, d-1), size), so d >= 2, and
        # every level below d is its whole degree
        whole = tuple(binom(r + k - 1, k) for k in range(d))
        below = tuple(tuple(reversed(exponent_vectors(r, k))) for k in range(d))
        ascending = exponent_vectors(r, d)
        for size in sizes:
            levels = lex_segment_realization(HVector((*whole, size))).per_degree
            assert levels[d] == tuple(reversed(ascending[:size])), (r, d, size)
            assert levels[:d] == below, (r, d, size)

    def test_every_size_ascending_and_descending(self):
        for r in range(1, 7):
            for d in range(2, 7):
                sizes = range(1, binom(r + d - 1, d) + 1)
                self.check_in_order(r, d, sizes)
                self.check_in_order(r, d, reversed(sizes))

    def test_maximal_growth_vectors_from_nothing_held(self):
        # every level of (1, r, C(r+1, 2), ..., C(r+e-1, e)) is the whole degree, built from x_r^d;
        # e starts at 1, since a lone 1 names no variables
        for r in range(1, 7):
            for e in range(1, 7):
                h = HVector(tuple(binom(r + d - 1, d) for d in range(e + 1)))
                table = lex_segment_realization(h)
                for d, level in enumerate(table.per_degree):
                    assert list(level) == exponent_vectors(r, d)[::-1], (r, e, d)

    def test_no_variables_and_forty_variables(self):
        assert lex_segment_realization(HVector((1,))).per_degree == (((),),)
        levels = lex_segment_realization(HVector((1, 40, 1, 1, 1, 1, 1))).per_degree
        assert levels[1] == tuple(reversed(exponent_vectors(40, 1)))
        for d in (0, 2, 3, 4, 5, 6):
            assert levels[d] == ((0,) * 39 + (d,),)


def fresh_realizations():
    """(fresh, expected) for (1, r, ..., C(r+d-2, d-1), size) at r = 2..5, d = 2..4, size < C(r+d-1, d).

    fresh() realizes the vector again and returns its per_degree, a
    _LexLevels no one has read; expected is the tuple of levels it stands
    for, from the naive ascending enumeration.
    """
    for r in range(2, 6):
        for d in range(2, 5):
            whole = tuple(tuple(reversed(exponent_vectors(r, k))) for k in range(d + 1))
            for size in range(1, len(whole[-1])):
                h = HVector((*map(len, whole[:-1]), size))
                yield (lambda h=h: lex_segment_realization(h).per_degree), (*whole[:-1], whole[-1][-size:])


class TestLexLevels:
    """The per_degree of a lex realization, each level its degree's final segment, against its tuple."""

    def test_len_reads_nothing_and_the_first_read_keeps_only_the_tuple(self):
        for fresh, expected in fresh_realizations():
            levels = fresh()
            assert isinstance(levels, _LexLevels)
            assert len(levels) == len(expected)
            assert levels._levels is None
            assert levels[0] == expected[0]
            assert levels._levels == expected and type(levels._levels) is tuple
            assert all(type(level) is tuple for level in levels._levels)

    def test_oracles_build_nothing_and_the_first_read_builds_once(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError(f"built a level: {args}")

        h = HVector((1, 4, 8, 12, 5))
        expected = socle_vector(plain(lex_segment_realization(h)))  # the probe loop
        monkeypatch.setattr(_LexLevels, "_tuple", forbidden)
        monkeypatch.setattr(monomials, "monomials_of_degree", forbidden)
        table = lex_segment_realization(h)
        assert len(table.per_degree) == table.socle_degree + 1 == 5
        assert hilbert_function(table) == h
        assert socle_vector(table) == socle_vector(lex_segment_realization(h)) == expected
        monkeypatch.undo()
        builds = []
        build = _LexLevels._tuple

        def counted(levels):
            if levels._levels is None:
                builds.append(levels.hilbert)
            return build(levels)

        monkeypatch.setattr(_LexLevels, "_tuple", counted)
        assert table.per_degree[3] == tuple(reversed(exponent_vectors(4, 3)[:12]))
        assert builds == [h]
        assert table.per_degree == plain(table).per_degree and builds == [h]

    def test_compares_hashes_and_prints_as_its_tuple(self):
        for fresh, expected in fresh_realizations():
            longer = (*expected, expected[-1])
            assert fresh() == expected and expected == fresh() and fresh() == fresh()
            assert not fresh() != expected and not expected != fresh()
            assert fresh() != longer and longer != fresh() and fresh() != list(expected)
            assert not fresh() == longer and not longer == fresh()
            assert fresh() != expected[1:] and expected[1:] != fresh()
            assert hash(fresh()) == hash(expected)
            assert repr(fresh()) == repr(expected)
            assert {expected: 1}[fresh()] == 1 and fresh() in {expected}

    def test_reads_as_its_tuple(self):
        for fresh, expected in fresh_realizations():
            assert isinstance(fresh(), Sequence)
            size = len(expected)
            outside = expected[-1][1:]  # a level with its largest monomial dropped
            assert fresh()[-1] == expected[-1]
            levels = fresh()
            assert [levels[i] for i in range(-size, size)] == [expected[i] for i in range(-size, size)]
            for index in (size, -size - 1):
                with pytest.raises(IndexError):
                    levels[index]
            for part in (slice(None), slice(1, None), slice(None, None, -1), slice(None, None, 2),
                         slice(-3, -1), slice(size, None)):
                assert fresh()[part] == expected[part] and type(fresh()[part]) is tuple
            assert list(fresh()) == list(expected) and tuple(fresh()) == expected
            assert list(reversed(fresh())) == list(reversed(expected))
            assert expected[0] in fresh() and expected[-1] in fresh()
            assert outside not in fresh() and () not in fresh()
            assert [levels.index(level) for level in expected] == list(range(size))
            assert fresh().index(expected[-1], size - 1) == size - 1
            for args in ((outside,), (expected[0], 1)):
                with pytest.raises(ValueError):
                    fresh().index(*args)
            assert [levels.count(level) for level in expected] == [1] * size
            assert fresh().count(outside) == 0

    def test_pickles_and_deep_copies_as_its_tuple(self):
        for fresh, expected in fresh_realizations():
            for clone in (pickle.loads(pickle.dumps(fresh())), copy.deepcopy(fresh())):
                assert clone == expected and type(clone) is tuple
                assert all(type(level) is tuple for level in clone)


def test_held_realizations_hold_no_levels():
    # 500 realizations kept with their Hilbert functions and socle vectors: building each
    # one's levels would take about 5.8 MB, or 2.9 GB for all 500
    tracemalloc.start()
    try:
        kept = []
        for k in range(500):
            h = HVector((1, 20, 205, 1412, 7484, 20000 + k))
            table = lex_segment_realization(h)
            kept.append((table, hilbert_function(table), socle_vector(table)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tops = [(hilbert[5], socle.entries[5]) for _, hilbert, socle in kept]
    assert tops == [(20000 + k,) * 2 for k in range(500)]
    assert peak < 5 * 2**20, peak


def test_the_process_holds_nothing_once_its_tables_are_dropped():
    # each table's levels, once read, take 0.02 MB (r = 10) to 2.3 MB (r = 40), and nothing
    # keeps them past the table
    tracemalloc.start()
    try:
        for r in range(10, 41):
            h = HVector((1, r, binom(r + 1, 2), binom(r + 2, 3) // 2))
            table = lex_segment_realization(h)
            assert hilbert_function(table) == h
            assert socle_vector(table) == socle_vector(lex_segment_realization(h))
            assert table.per_degree[3][-1] == (0,) * (r - 1) + (3,)
            del table
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 2**20, current


def test_the_caches_stay_bounded_over_many_distinct_inputs():
    # three cachefuls of distinct keys for macaulay_bound and _last_variable_multiples: an
    # unbounded cache would hold three times what one full cache holds
    tracemalloc.start()
    try:
        for k in range(3 * CACHE_SIZE):
            n, i = k % 4 + 1, k // 4 + 1
            macaulay_bound(n, i)
            _last_variable_multiples(n, i)
            if k == CACHE_SIZE:
                full, _ = tracemalloc.get_traced_memory()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert macaulay_bound.cache_info().maxsize == _last_variable_multiples.cache_info().maxsize == CACHE_SIZE
    assert peak < min(2 * full, 8 * 2**20), (full, peak)  # README's bound for small arguments


class TestMaxGrowth:
    def test_examples(self):
        assert max_growth_bruteforce(3, 1, 3) == 6
        assert max_growth_bruteforce(4, 2, 4) == 5
        for i in range(1, 4):
            for r in range(1, 4):
                assert max_growth_bruteforce(1, i, r) == 1

    def test_matches_literal_subset_enumeration(self):
        for n in range(1, 5):
            for i in range(1, 3):
                for r in range(1, 4):
                    if len(monomials_of_degree(r, i)) < n:
                        continue
                    assert max_growth_bruteforce(n, i, r) == naive_max_growth(n, i, r)

    def test_monotone_in_r_and_stabilizes_at_the_bound(self):
        for n in range(1, 6):
            for i in range(1, 3):
                previous = 0
                for r in range(1, n + 3):
                    if len(monomials_of_degree(r, i)) < n:
                        continue
                    value = max_growth_bruteforce(n, i, r)
                    assert value >= previous
                    previous = value
                    if r >= n:
                        assert value == macaulay_bound(n, i)

    # max_growth_bruteforce(n, i, r) for r = 1..n+1 from the search before symmetry pruning
    # reached past the first pick; None where fewer than n degree-i monomials exist
    UNPRUNED_VALUES = {
        (1, 1): (1, 1),
        (1, 2): (1, 1),
        (1, 3): (1, 1),
        (2, 1): (None, 3, 3),
        (2, 2): (None, 2, 2),
        (2, 3): (None, 2, 2),
        (3, 1): (None, None, 6, 6),
        (3, 2): (None, 4, 4, 4),
        (3, 3): (None, 3, 3, 3),
        (4, 1): (None, None, None, 10, 10),
        (4, 2): (None, None, 5, 5, 5),
        (4, 3): (None, 5, 5, 5, 5),
        (5, 1): (None, None, None, None, 15, 15),
        (5, 2): (None, None, 7, 7, 7, 7),
        (5, 3): (None, None, 6, 6, 6, 6),
        (6, 1): (None, None, None, None, None, 21, 21),
        (6, 2): (None, None, 10, 10, 10, 10, 10),
        (6, 3): (None, None, 7, 7, 7, 7, 7),
    }

    def test_matches_the_unpruned_search(self):
        for (n, i), values in self.UNPRUNED_VALUES.items():
            for r, expected in enumerate(values, start=1):
                if expected is None:
                    with pytest.raises(ValueError):
                        max_growth_bruteforce(n, i, r)
                else:
                    assert max_growth_bruteforce(n, i, r) == expected, (n, i, r)

    def test_symmetry_pruning_reaches_every_pick(self, monkeypatch):
        # pruning only the first pick needs 44,219 nodes here
        monkeypatch.setattr(monomials, "MAX_GROWTH_NODE_BUDGET", 10_000)
        assert max_growth_bruteforce(6, 3, 6) == 7

    def test_search_leaves_no_cyclic_garbage(self):
        # reference counting alone frees what the search built, so the collector has nothing to do
        gc.collect()
        gc.disable()
        try:
            max_growth_bruteforce(4, 2, 4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(monomials, "MAX_GROWTH_NODE_BUDGET", 10)
        with pytest.raises(InfeasibleSearchError, match="^search for n=6, i=3, r=6 exceeded 10 nodes$"):
            max_growth_bruteforce(6, 3, 6)

    # (n, i, r) -> (value, nodes the search visits); the node count moves with any change
    # to the candidate order or the pruning, so it pins both as well as the answer
    NODE_COUNTS = {(5, 2, 5): (7, 457), (6, 3, 6): (7, 5_587), (7, 3, 7): (9, 34_047)}

    def test_node_counts_at_the_budget_boundary(self, monkeypatch):
        for (n, i, r), (value, nodes) in self.NODE_COUNTS.items():
            monkeypatch.setattr(monomials, "MAX_GROWTH_NODE_BUDGET", nodes)
            assert max_growth_bruteforce(n, i, r) == value
            monkeypatch.setattr(monomials, "MAX_GROWTH_NODE_BUDGET", nodes - 1)
            with pytest.raises(InfeasibleSearchError, match=f"exceeded {nodes - 1} nodes$"):
                max_growth_bruteforce(n, i, r)

    def test_budget_also_bounds_the_words_listed(self, monkeypatch):
        # C(9, 4) = 126 degree-4 monomials in 6 variables, and one node searched
        monkeypatch.setattr(monomials, "MAX_GROWTH_NODE_BUDGET", 126)
        assert max_growth_bruteforce(1, 3, 6) == 1
        monkeypatch.setattr(monomials, "MAX_GROWTH_NODE_BUDGET", 125)
        with pytest.raises(InfeasibleSearchError, match="^search for n=1, i=3, r=6 exceeded 125 nodes$"):
            max_growth_bruteforce(1, 3, 6)

    def test_forty_variables(self):
        assert max_growth_bruteforce(1, 3, 40) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            max_growth_bruteforce(0, 1, 1)
        with pytest.raises(ValueError):
            max_growth_bruteforce(5, 2, 1)  # one variable has a single monomial


class TestCompleteIntersections:
    def test_product_examples(self):
        assert complete_intersection_hvector(2, 2, 2).entries == (1, 3, 3, 1)
        assert complete_intersection_hvector(2, 2, 3).entries == (1, 3, 4, 3, 1)
        assert complete_intersection_hvector(2, 2).entries == (1, 2, 1)
        assert complete_intersection_hvector(2, 2, 2, 2).entries == (1, 4, 6, 4, 1)

    def test_rejects_small_exponents(self):
        with pytest.raises(ValueError):
            complete_intersection_hvector(1, 2, 2)
        with pytest.raises(ValueError):
            complete_intersection_table(2, 2, 1)

    @given(st.permutations([2, 3, 5]))
    def test_exponent_order_is_irrelevant(self, perm):
        assert complete_intersection_hvector(*perm) == complete_intersection_hvector(2, 3, 5)

    @given(st.integers(2, 9), st.integers(2, 9), st.integers(2, 9))
    def test_shape_properties(self, a, b, c):
        h = complete_intersection_hvector(a, b, c)
        assert h.socle_degree == a + b + c - 3
        assert h.codimension == 3
        assert is_symmetric(h.entries)
        assert is_si_sequence(h.entries)

    def test_table_is_the_naive_filter_of_every_degree(self):
        for count in range(1, 5):
            for exponents in product(range(2, 5), repeat=count):
                levels = tuple(
                    tuple(
                        m
                        for m in exponent_vectors(count, d)[::-1]
                        if all(e < k for e, k in zip(m, exponents))
                    )
                    for d in range(sum(exponents) - count + 1)
                )
                assert complete_intersection_table(*exponents) == SurvivorTable(count, levels), exponents

    def test_twelve_variables(self):
        table = complete_intersection_table(*[2] * 12)
        assert tuple(map(len, table.per_degree)) == tuple(binom(12, d) for d in range(13))

    def test_vector_agrees_with_exponent_capped_table(self):
        for count in (2, 3, 4):
            for exponents in combinations_with_replacement(range(2, 5), count):
                product_form = complete_intersection_hvector(*exponents)
                table_form = hilbert_function(complete_intersection_table(*exponents))
                assert product_form == table_form, exponents
