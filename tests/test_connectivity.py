import itertools
import random
from collections import Counter

import pytest

import oracles
from monocat import connectivity
from monocat.connectivity import (
    ISO_BOUND,
    are_connected,
    connecting_category,
    group_isomorphism,
    group_of,
    groups_isomorphic,
    profile,
    table_isomorphism,
)
from monocat.core import Monoid, Subset, adjoin_identity, dump_cayley, parse_cayley, validate_semigroup
from monocat.corpus import CorpusSpec, generate
from monocat.errors import GroupTooLarge
from monocat.ideals import GroupHandle, group_of_intersection, minimal_left_ideals, minimal_right_ideals
from monocat.rees import ReesMatrixSemigroup, expand
from monocat.twocat import TABLE_KEYS, compose_categories, validate_category


def monoid(table, identity):
    return Monoid(validate_semigroup(table), identity)


def handle_of(table, members, identity):
    return GroupHandle(Subset(validate_semigroup(table), tuple(members)), identity)


def t2():
    return monoid(oracles.t2_table(), oracles.T2_ID)


def z2():
    return monoid(oracles.cyclic_table(2), 0)


def pool():
    """Monoids over three kernel groups.  t2 appears twice, as two objects
    with one table; C_3 is the only group of its kind, so it meets no
    positive partner but itself."""
    rees = adjoin_identity(expand(ReesMatrixSemigroup(z2(), 2, 2, ((0, 1), (1, 1)))))
    return [t2(), adjoin_identity(validate_semigroup(oracles.lz2_table())), t2(),
            z2(), monoid([[1, 0], [0, 1]], 1), rees, monoid(oracles.cyclic_table(3), 0)]


def fresh(m):
    """A new object with the same table and identity, which has met no one."""
    return parse_cayley(dump_cayley(m))


def outcome_facts(outcome):
    """Everything a verdict reports, with the witness down to its tables."""
    facts = [outcome.connected, outcome.group_map, outcome.profiles,
             tuple(g.order for g in outcome.groups)]
    w = outcome.witness
    if w is not None:
        facts += [w.a_elems, w.l_elems, w.r_elems, w.g_elems, w.a_identity, w.g_identity,
                  *(w.comp[k] for k in TABLE_KEYS)]
    return facts


class TestGroupOf:
    def test_group_is_its_own_group(self):
        handle = group_of(z2())
        assert handle.elements == (0, 1) and handle.identity == 0

    def test_t2_has_the_trivial_group(self):
        assert group_of(t2()).order == 1

    def test_rees_monoid_recovers_the_structure_group(self):
        rms = ReesMatrixSemigroup(z2(), 2, 2, ((0, 1), (1, 1)))
        m = adjoin_identity(expand(rms))
        handle = group_of(m)
        assert handle.order == 2
        assert groups_isomorphic(handle, group_of(z2()))

    def test_choice_independent_up_to_isomorphism(self, corpus):
        for name, m in corpus[:30]:
            lefts = minimal_left_ideals(m)
            rights = minimal_right_ideals(m)
            handles = [
                group_of_intersection(left, right)
                for left in lefts
                for right in rights
            ]
            first = handles[0]
            for other in handles[1:]:
                assert groups_isomorphic(first, other), name


class TestGroupsIsomorphic:
    def test_relabelled_z2(self):
        shifted = handle_of([[1, 0], [0, 1]], (0, 1), 1)
        witness = group_isomorphism(group_of(z2()), shifted)
        assert witness is not None

    def test_z4_vs_klein(self):
        c4 = group_of(monoid(oracles.cyclic_table(4), 0))
        v4 = group_of(monoid(oracles.klein_table(), 0))
        assert profile(c4).element_orders == (1, 2, 4, 4)
        assert profile(v4).element_orders == (1, 2, 2, 2)
        assert not groups_isomorphic(c4, v4)

    def test_trivial_groups(self):
        e = group_of(monoid([[0]], 0))
        assert groups_isomorphic(e, e)

    def test_witness_is_a_homomorphism(self):
        s3 = generate(CorpusSpec("symmetric_group", (3,)))[0]
        handle = group_of(s3)
        witness = group_isomorphism(handle, handle)
        t = handle.abstract_table()
        n = len(t)
        assert witness is not None
        for a in range(n):
            for b in range(n):
                assert witness[t[a][b]] == t[witness[a]][witness[b]]

    def test_profile_is_relabelling_invariant(self):
        base = group_of(monoid(oracles.klein_table(), 0))
        perm = (2, 0, 3, 1)
        inv = [perm.index(i) for i in range(4)]
        shuffled_table = [
            [inv[oracles.klein_table()[perm[i]][perm[j]]] for j in range(4)]
            for i in range(4)
        ]
        shuffled = handle_of(shuffled_table, range(4), inv[0])
        assert profile(base) == profile(shuffled)
        assert groups_isomorphic(base, shuffled)


class TestTableIsomorphism:
    def test_agrees_with_permutation_search(self):
        rms = ReesMatrixSemigroup(z2(), 1, 1, ((1,),))
        twisted = expand(rms)
        got = table_isomorphism(twisted.table, oracles.cyclic_table(2))
        want = oracles.perm_isomorphic([list(r) for r in twisted.table], oracles.cyclic_table(2))
        assert (got is None) == (want is None)
        assert got is not None

    def test_distinguishes_band_orientations(self):
        lz = oracles.lz2_table()
        rz = oracles.rz2_table()
        assert table_isomorphism(lz, rz) is None
        assert oracles.perm_isomorphic(lz, rz) is None


class TestAreConnected:
    def test_t2_and_left_zero_monoid(self):
        lz1 = adjoin_identity(validate_semigroup(oracles.lz2_table()))
        outcome = are_connected(t2(), lz1)
        assert outcome.connected
        assert validate_category(outcome.witness)
        assert outcome.witness.comp["AA"] == t2().table
        assert outcome.witness.comp["GG"] == lz1.table
        assert (outcome.witness.a_identity, outcome.witness.g_identity) == (
            oracles.T2_ID, lz1.identity)

    def test_z2_and_t2_are_not(self):
        outcome = are_connected(z2(), t2())
        assert not outcome and outcome.witness is None

    def test_reflexive(self):
        m = t2()
        outcome = are_connected(m, m)
        assert outcome.connected
        assert validate_category(outcome.witness)

    def test_two_groups(self):
        outcome = are_connected(z2(), monoid([[1, 0], [0, 1]], 1))
        assert outcome.connected
        assert validate_category(outcome.witness)

    def test_verdict_matches_group_comparison(self, corpus):
        entries = corpus[:12]
        for (na, a), (nb, b) in itertools.combinations(entries, 2):
            expected = groups_isomorphic(group_of(a), group_of(b))
            assert bool(are_connected(a, b)) == expected, (na, nb)

    def test_group_too_large(self):
        big = monoid(oracles.cyclic_table(ISO_BOUND + 1), 0)
        with pytest.raises(GroupTooLarge):
            are_connected(big, big)

    def test_the_larger_group_is_named_on_every_call(self, monkeypatch):
        a, b = (parse_cayley(dump_cayley(monoid(oracles.cyclic_table(n), 0)))
                for n in (ISO_BOUND + 1, ISO_BOUND + 2))
        built = []
        monkeypatch.setattr(connectivity, "_group_facts", built.append)
        for x, y in ((a, b), (b, a), (a, b)):
            with pytest.raises(GroupTooLarge) as raised:
                are_connected(x, y)
            assert (raised.value.order, raised.value.bound) == (ISO_BOUND + 2, ISO_BOUND)
        assert built == []


class TestEachMonoidIsMetOnce:
    """``are_connected`` derives a monoid's group facts and connecting
    category once per monoid object, the category only for a positive
    verdict, and gives the answers a monoid met for the first time gets."""

    def test_each_part_is_built_once_per_object(self, monkeypatch):
        monoids = pool()
        calls = []
        for name in ("group_of", "connecting_category"):
            def counted(m, name=name, routine=getattr(connectivity, name)):
                calls.append((name, m))
                return routine(m)

            monkeypatch.setattr(connectivity, name, counted)
        facts = connectivity._group_facts

        def counted_facts(g):
            calls.append(("facts", next(m for m in monoids if m.base is g.carrier)))
            return facts(g)

        monkeypatch.setattr(connectivity, "_group_facts", counted_facts)
        positive = set()
        for a, b in itertools.permutations(monoids, 2):
            if are_connected(a, b).connected:
                positive |= {id(a), id(b)}
        counts = Counter((name, id(m)) for name, m in calls)
        for m in monoids:
            assert counts["group_of", id(m)] == 1 and counts["facts", id(m)] == 1
            assert counts["connecting_category", id(m)] == (id(m) in positive)
        assert len(positive) == len(monoids) - 1  # C_3 met no positive partner

    def test_warm_monoids_answer_as_fresh_ones(self):
        monoids = pool()
        pairs = list(itertools.product(range(len(monoids)), repeat=2))
        random.Random(5).shuffle(pairs)
        for i, j in pairs:
            are_connected(monoids[i], monoids[j])
        random.Random(6).shuffle(pairs)
        for i, j in pairs:
            a, b = monoids[i], monoids[j]
            warm = are_connected(a, b)
            cold = are_connected(fresh(a), fresh(b))
            assert outcome_facts(warm) == outcome_facts(cold), (i, j)
            if warm.connected:
                assert validate_category(warm.witness)

    def test_public_functions_return_fresh_objects(self):
        m = t2()
        are_connected(m, m)
        assert connecting_category(m) is not connecting_category(m)
        assert group_of(m) is not group_of(m)


class TestTransitivity:
    def test_composed_witnesses_connect_the_ends(self):
        lz1 = adjoin_identity(validate_semigroup(oracles.lz2_table()))
        rz1 = adjoin_identity(validate_semigroup(oracles.rz2_table()))
        w1 = are_connected(t2(), lz1).witness
        w2 = are_connected(lz1, rz1).witness
        chained = compose_categories(w1, w2)
        assert validate_category(chained)
        assert chained.comp["AA"] == t2().table
        assert chained.comp["GG"] == rz1.table
        assert (chained.a_identity, chained.g_identity) == (oracles.T2_ID, rz1.identity)


class TestConnectingCategory:
    def test_groups_get_the_groupoid(self):
        cat = connecting_category(z2())
        assert cat.sizes() == {"A": 2, "L": 2, "R": 2, "G": 2}

    def test_nongroups_get_the_kernel_cut(self):
        cat = connecting_category(t2())
        assert cat.sizes() == {"A": 4, "L": 1, "R": 2, "G": 1}
