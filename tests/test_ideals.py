import gc
import random
import weakref
from collections import Counter

import pytest

import oracles
from monocat import ideals
from monocat.cli import _suite_entry
from monocat.connectivity import are_connected, connecting_category, group_of
from monocat.core import (Monoid, Subset, adjoin_identity, sub_semigroup, trusted,
                          validate_semigroup)
from monocat.corpus import standard_corpus
from monocat.errors import BadSubset, CarrierMismatch, EmptyIdeal, NotAGroup
from monocat.ideals import (
    GroupHandle,
    IdealSubset,
    canonical_minimal_pair,
    group_handle_from_subset,
    group_of_intersection,
    is_simple,
    kernel,
    minimal_left_ideals,
    minimal_right_ideals,
    principal_left_ideal,
    principal_right_ideal,
    principal_two_sided_ideal,
    subset_product,
)
from monocat.rees import ReesMatrixSemigroup, expand


def t2():
    return Monoid(validate_semigroup(oracles.t2_table()), oracles.T2_ID)


def lz2():
    return validate_semigroup(oracles.lz2_table())


def band22():
    return validate_semigroup(oracles.band22_table())


def z2():
    return Monoid(validate_semigroup(oracles.cyclic_table(2)), 0)


class TestPrincipalIdeals:
    def test_left_zero_left(self):
        # s*0 = s sweeps everything
        assert principal_left_ideal(lz2(), 0).members == (0, 1)

    def test_left_zero_right(self):
        # 0*s = 0
        assert principal_right_ideal(lz2(), 0).members == (0,)

    def test_identity_generates_everything(self):
        m = t2()
        assert principal_two_sided_ideal(m, m.identity).members == tuple(range(4))

    def test_tags_and_generators(self):
        ideal = principal_left_ideal(lz2(), 0)
        assert ideal.side == "left" and ideal.generator == 0

    @pytest.mark.parametrize("principal", [principal_left_ideal, principal_right_ideal,
                                           principal_two_sided_ideal])
    @pytest.mark.parametrize("a", [-1, 4, 99, 1.0, True, "0"])
    def test_the_generator_must_be_an_index(self, principal, a):
        with pytest.raises(BadSubset, match="is not an element index"):
            principal(t2(), a)


class TestMinimalIdeals:
    def test_t2_left(self):
        got = [i.members for i in minimal_left_ideals(t2())]
        assert got == [(oracles.T2_C0,), (oracles.T2_C1,)]
        assert got == [tuple(x) for x in oracles.brute_minimal_ideals(oracles.t2_table(), "left")]

    def test_t2_right(self):
        got = [i.members for i in minimal_right_ideals(t2())]
        assert got == [(oracles.T2_C0, oracles.T2_C1)]
        assert got == [tuple(x) for x in oracles.brute_minimal_ideals(oracles.t2_table(), "right")]

    def test_rectangular_band(self):
        # columns are the minimal left ideals, rows the minimal right ideals
        got_left = [i.members for i in minimal_left_ideals(band22())]
        got_right = [i.members for i in minimal_right_ideals(band22())]
        assert got_left == [(0, 2), (1, 3)] and all(len(i) == 2 for i in got_left)
        assert got_right == [(0, 1), (2, 3)] and all(len(i) == 2 for i in got_right)
        assert got_left == [tuple(x) for x in oracles.brute_minimal_ideals(oracles.band22_table(), "left")]
        assert got_right == [tuple(x) for x in oracles.brute_minimal_ideals(oracles.band22_table(), "right")]

    def test_matches_subset_enumeration_on_small_corpus(self, corpus):
        for name, m in corpus:
            if m.n > 10:
                continue
            for side, func in (("left", minimal_left_ideals), ("right", minimal_right_ideals)):
                got = [i.members for i in func(m)]
                want = [tuple(x) for x in oracles.brute_minimal_ideals(m.table, side)]
                assert got == want, (name, side)


class TestKernel:
    def test_group_kernel_is_everything(self):
        assert kernel(z2()).members == (0, 1)

    def test_t2(self):
        assert kernel(t2()).members == (oracles.T2_C0, oracles.T2_C1)

    def test_adjoined_left_zero(self):
        assert kernel(adjoin_identity(lz2())).members == (0, 1)

    def test_matches_subset_enumeration(self, corpus):
        for name, m in corpus:
            if m.n > 10:
                continue
            assert kernel(m).members == oracles.brute_kernel(m.table), name

    def test_kernel_is_simple_and_minimal_ideals_transfer(self, corpus):
        for name, m in corpus[:40]:
            kern = kernel(m)
            sub, old = sub_semigroup(m, kern.subset)
            assert is_simple(sub), name
            # minimal one-sided ideals of the kernel are exactly those of the monoid
            lifted = sorted(
                tuple(old[i] for i in ideal.members)
                for ideal in minimal_left_ideals(sub)
            )
            assert lifted == [i.members for i in minimal_left_ideals(m)], name
            lifted = sorted(
                tuple(old[i] for i in ideal.members)
                for ideal in minimal_right_ideals(sub)
            )
            assert lifted == [i.members for i in minimal_right_ideals(m)], name

    def test_minimal_ideals_partition_the_kernel(self, corpus):
        for name, m in corpus[:40]:
            kern = set(kernel(m).members)
            for func in (minimal_left_ideals, minimal_right_ideals):
                pieces = [set(i.members) for i in func(m)]
                assert set().union(*pieces) == kern, name
                total = sum(len(p) for p in pieces)
                assert total == len(kern), name


class TestIsSimple:
    def test_group(self):
        assert is_simple(z2())

    def test_rectangular_band(self):
        assert is_simple(band22())

    def test_t2_is_not(self):
        assert not is_simple(t2())


class TestSubsetProduct:
    def test_lr_is_the_kernel(self):
        m = t2()
        left, right = canonical_minimal_pair(m)
        prod = subset_product(left.subset, right.subset)
        assert prod.members == kernel(m).members

    def test_rl_is_the_intersection(self):
        m = t2()
        left, right = canonical_minimal_pair(m)
        prod = subset_product(right.subset, left.subset)
        inter = tuple(sorted(set(left.members) & set(right.members)))
        assert prod.members == inter == (oracles.T2_C0,)

    def test_identity_factor(self):
        m = t2()
        x = Subset(m.base, (0, 2))
        assert subset_product(x, Subset(m.base, (m.identity,))).members == x.members

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            subset_product(Subset(lz2(), (0,)), Subset(band22(), (0,)))


class TestGroupOfIntersection:
    def test_t2_trivial(self):
        left, right = canonical_minimal_pair(t2())
        handle = group_of_intersection(left, right)
        assert handle.elements == (oracles.T2_C0,)
        assert handle.identity == oracles.T2_C0

    def test_band_trivial(self):
        left, right = canonical_minimal_pair(band22())
        handle = group_of_intersection(left, right)
        assert handle.order == 1

    def test_group_gives_itself(self):
        m = z2()
        left, right = canonical_minimal_pair(m)
        handle = group_of_intersection(left, right)
        assert handle.elements == (0, 1) and handle.identity == 0
        assert oracles.group_axioms_hold(m.table, handle.elements, handle.identity)

    def test_non_minimal_inputs_rejected(self):
        m = t2()
        whole_left = IdealSubset(Subset(m.base, tuple(range(4))), "left")
        whole_right = IdealSubset(Subset(m.base, tuple(range(4))), "right")
        with pytest.raises(NotAGroup):
            group_of_intersection(whole_left, whole_right)

    def test_axioms_hold_over_corpus(self, corpus):
        for name, m in corpus[:40]:
            left, right = canonical_minimal_pair(m)
            handle = group_of_intersection(left, right)
            assert oracles.group_axioms_hold(m.table, handle.elements, handle.identity), name
            nl, nr, ng = len(left.members), len(right.members), handle.order
            assert nl % ng == 0 and nr % ng == 0, name

    def test_every_minimal_pair_recovers_the_kernel(self, corpus):
        # L*R is the kernel and R*L the intersection, whichever minimal
        # ideals are chosen
        for name, m in corpus[:40]:
            kern = kernel(m).members
            for left in minimal_left_ideals(m):
                for right in minimal_right_ideals(m):
                    prod = subset_product(left.subset, right.subset)
                    assert prod.members == kern, name
                    inter = tuple(sorted(set(left.members) & set(right.members)))
                    back = subset_product(right.subset, left.subset)
                    assert back.members == inter, name


def semilattice2():
    """``{1, 0}`` as ``{0, 1}``: an identity and a zero."""
    return validate_semigroup([[0, 1], [1, 1]])


class TestGroupRefusals:
    """Each refusal of a subset that is not a group, with its message."""

    @pytest.mark.parametrize("carrier, members, identity, message", [
        (lambda: z2().base, (), 0, "empty subset"),
        (lambda: z2().base, (0,), 1, "identity 1 is not a member"),
        (lz2, (0, 1), 0, "0 is not an identity for 1"),
        (lambda: validate_semigroup(oracles.cyclic_table(3)), (0, 1), 0, "not closed: 1*1 escapes"),
        (semilattice2, (0, 1), 0, "1 has no inverse"),
    ], ids=["empty", "identity", "not-identity", "not-closed", "no-inverse"])
    def test_group_handle(self, carrier, members, identity, message):
        with pytest.raises(NotAGroup) as raised:
            GroupHandle(Subset(carrier(), members), identity)
        assert str(raised.value) == message

    @pytest.mark.parametrize("members, message", [
        ((), "empty subset"),
        ((0, 1), "no identity element in the subset"),
    ], ids=["empty", "no-identity"])
    def test_group_handle_from_subset(self, members, message):
        with pytest.raises(NotAGroup) as raised:
            group_handle_from_subset(lz2(), members)
        assert str(raised.value) == message

    def test_group_of_intersection_needs_a_common_carrier(self):
        with pytest.raises(CarrierMismatch) as raised:
            group_of_intersection(canonical_minimal_pair(t2())[0], canonical_minimal_pair(z2())[1])
        assert str(raised.value) == "intersection requires a common carrier"

    def test_group_of_intersection_needs_a_left_right_pair(self):
        left, right = canonical_minimal_pair(t2())
        with pytest.raises(NotAGroup) as raised:
            group_of_intersection(right, left)
        assert str(raised.value) == "expected a (left, right) pair, got (right, left)"

    def test_group_of_intersection_of_disjoint_subsets(self):
        # r*l lies in both a right ideal R and a left ideal L, so checked
        # ideals always meet: only subsets built without the check can miss
        s = lz2()
        left = trusted(IdealSubset, subset=Subset(s, (0,)), side="left", generator=0)
        right = trusted(IdealSubset, subset=Subset(s, (1,)), side="right", generator=1)
        with pytest.raises(NotAGroup) as raised:
            group_of_intersection(left, right)
        assert str(raised.value) == "the ideals do not intersect"


class TestIdealSubsetValidation:
    def test_an_unknown_side_is_refused(self):
        with pytest.raises(BadSubset) as raised:
            IdealSubset(Subset(lz2(), (0,)), "up")
        assert str(raised.value) == "unknown side 'up'"

    def test_rejects_non_absorbing(self):
        with pytest.raises(BadSubset):
            IdealSubset(Subset(t2().base, (oracles.T2_ID,)), "left")

    def test_rejects_empty(self):
        with pytest.raises(EmptyIdeal):
            IdealSubset(Subset(lz2(), ()), "left")


def rees_monoid():
    """C_4 with I = 5, Lambda = 6 and an identity adjoined: 121 elements."""
    group = Monoid(validate_semigroup(oracles.cyclic_table(4)), 0)
    rng = random.Random(0)
    sandwich = tuple(tuple(rng.randrange(4) for _ in range(5)) for _ in range(6))
    return adjoin_identity(expand(ReesMatrixSemigroup(group, 5, 6, sandwich)))


class TestKeptStructure:
    """Each semigroup object computes its kernel, minimal ideals and group once."""

    def test_suite_entry_analyses_each_semigroup_once(self, monkeypatch):
        monoids = [m for _, m in standard_corpus()] + [rees_monoid()]
        calls = []  # keeps every semigroup alive, so that ids stay unique
        for name in ("_kernel_members", "_minimal_ideals"):
            def counted(s, *args, name=name, routine=getattr(ideals, name)):
                calls.append((name, s, args))
                return routine(s, *args)

            monkeypatch.setattr(ideals, name, counted)
        for m in monoids:
            _suite_entry(m)
        counts = Counter((name, id(s), args) for name, s, args in calls)
        assert len(counts) > 3 * len(monoids) and max(counts.values()) == 1, counts.most_common(1)

    def test_is_simple_computes_only_the_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("more than the kernel was computed")

        monkeypatch.setattr(ideals, "_minimal_ideals", refuse)
        monkeypatch.setattr(ideals, "_group_part", refuse)
        assert is_simple(band22()) and not is_simple(t2())

    def test_the_kept_group_builds_no_ideal(self, monkeypatch):
        # the group is computed from the kept member tuples; before, it went
        # through canonical_minimal_pair and checked two IdealSubsets
        expected = group_of_intersection(*canonical_minimal_pair(rees_monoid()))
        m = rees_monoid()
        assert m.n == 121

        def refuse(ideal):
            raise AssertionError("an IdealSubset was built")

        monkeypatch.setattr(IdealSubset, "__post_init__", refuse)
        assert ideals._group(m.base) == (expected.elements, expected.identity)
        assert group_of(m).elements == expected.elements

    def test_only_ints_and_tuples_are_kept(self):
        # validate_semigroup keeps its Light's-test generators, is_group its
        # Latin-square verdict (a bool), and the envelope at (1, e) = (1, 0)
        # keeps its slots and tables
        m = t2()
        kernel(m), minimal_left_ideals(m), minimal_right_ideals(m), group_of(m)
        connecting_category(m)
        kept = {k: v for k, v in vars(m.base).items() if k not in ("table", "labels")}

        def plain(v):
            return type(v) in (bool, int) or (type(v) is tuple and all(map(plain, v)))

        assert sorted(kept) == ["_envelope_1_0", "_generators", "_group", "_kernel", "_latin",
                                "_minimal_left", "_minimal_right"]
        assert all(map(plain, kept.values()))

    @pytest.mark.parametrize("make", [t2, z2, rees_monoid])
    def test_a_monoid_is_freed_without_the_cycle_collector(self, make):
        # groups 1, C_2 and C_4: each monoid meets a positive and a negative
        # partner, so it keeps its group facts and its connecting category
        others = [adjoin_identity(lz2()), z2(), Monoid(validate_semigroup(oracles.cyclic_table(4)), 0)]
        gc.collect()
        gc.disable()
        try:
            m = make()
            _suite_entry(m)
            verdicts = [(are_connected(m, o).connected, are_connected(o, m).connected) for o in others]
            refs = [weakref.ref(m), weakref.ref(m.base)]
            del m
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
        assert all(x == y for x, y in verdicts)
        assert {x for x, _ in verdicts} == {True, False}
