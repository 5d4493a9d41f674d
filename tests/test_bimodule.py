import itertools

import pytest

import oracles
from monocat.bimodule import (
    Bimodule,
    check_bimodule_laws,
    free_action_check,
    group_quotient,
    mult_bijection_check,
    regular_bimodule,
    tensor,
    validate_bimodule,
)
from monocat.core import Monoid, is_group, validate_semigroup
from monocat.corpus import CorpusSpec, generate
from monocat.errors import (
    ActionLawViolation,
    CommutationViolation,
    EmptyBimodule,
    FormatError,
    GSideNotGroup,
    IllDefinedAction,
    IllDefinedComposition,
    MonoidMismatch,
    NotAGroup,
    NotAGroupAction,
    TheoremViolation,
    UnitLawViolation,
)
from monocat.twocat import (TwoObjectCategory, category_from_monoid, groupoid_from_group,
                            karoubi_pair, slot_bimodule)


def z2():
    return Monoid(validate_semigroup(oracles.cyclic_table(2)), 0)


def z3():
    return Monoid(validate_semigroup(oracles.cyclic_table(3)), 0)


def trivial():
    return Monoid(validate_semigroup([[0]]), 0)


def t2():
    return Monoid(validate_semigroup(oracles.t2_table()), oracles.T2_ID)


def swap01_action():
    # Z2 acting on three points by swapping {0, 1}
    return ((0, 1, 2), (1, 0, 2))


class TestValidation:
    def test_monoid_as_bimodule_over_itself(self):
        bm = validate_bimodule(t2(), t2(), 4, t2().table, t2().table)
        assert bm.size == 4

    def test_minimal_left_ideal_as_bimodule(self):
        # the L slot of the category of T2 carries commuting actions by
        # construction; re-validate its raw tables from scratch
        cat = category_from_monoid(t2())
        raw = slot_bimodule(cat, "L")
        validate_bimodule(raw.left_monoid, raw.right_monoid, raw.size,
                          raw.left_action, raw.right_action)

    def test_transposed_entry_breaks_commutation(self):
        # start from commuting actions (right action trivial) and transpose
        # one row of the right action: both actions stay lawful but no
        # longer commute
        g = z2()
        left = swap01_action()
        right_ok = tuple((x, x) for x in range(3))
        validate_bimodule(g, g, 3, left, right_ok)
        right_bad = ((0, 0), (1, 2), (2, 1))
        with pytest.raises(CommutationViolation):
            validate_bimodule(g, g, 3, left, right_bad)

    def test_unit_violation(self):
        g = z2()
        bad_left = ((1, 0, 2), (0, 1, 2))
        with pytest.raises(UnitLawViolation):
            validate_bimodule(g, g, 3, bad_left, tuple((x, x) for x in range(3)))

    def test_empty_rejected(self):
        with pytest.raises(EmptyBimodule):
            Bimodule(z2(), z2(), 0, ((), ()), ())

    def test_a_size_that_is_no_int_is_a_format_error(self):
        with pytest.raises(FormatError) as err:
            Bimodule(z2(), z2(), 2.0, z2().table, z2().table)
        assert str(err.value) == "bimodule size 2.0 is not an integer"


def _changed(table, i, j, value):
    rows = [list(row) for row in table]
    rows[i][j] = value
    return rows


def _changed_category(cat, key, i, j, value):
    comp = dict(cat.comp, **{key: _changed(cat.comp[key], i, j, value)})
    return TwoObjectCategory(cat.a_elems, cat.l_elems, cat.r_elems, cat.g_elems,
                             cat.a_identity, cat.g_identity, comp)


# one case per law, each with the first failure the law check names: the
# unit laws come first, then the left action law, the right action law and
# the commutation, each at its lexicographically first triple
LAW_CASES = {
    "unit": (z2, 3, ((1, 0, 2), (0, 1, 2)), ((0, 0), (1, 1), (2, 2)),
             UnitLawViolation, "left", 0),
    "left": (t2, 4, _changed(oracles.t2_table(), 0, 2, 0), oracles.t2_table(),
             ActionLawViolation, "left", (0, 2, 1)),
    "right": (t2, 4, oracles.t2_table(), _changed(oracles.t2_table(), 1, 0, 1),
              ActionLawViolation, "right", (0, 2, 1)),
    "commutation": (z2, 3, swap01_action(), ((0, 0), (1, 2), (2, 1)),
                    CommutationViolation, None, (1, 0, 1)),
}


class TestLawOrder:
    @pytest.mark.parametrize("case", sorted(LAW_CASES))
    def test_the_first_failed_law_is_named(self, case):
        monoid, size, left, right, error, side, witness = LAW_CASES[case]
        m = monoid()
        with pytest.raises(error) as err:
            check_bimodule_laws(Bimodule(m, m, size, left, right))
        got = err.value.element if error is UnitLawViolation else err.value.triple
        assert (getattr(err.value, "side", None), got) == (side, witness)
        pair = (m.table, m.identity)
        assert oracles.bimodule_law_failure(pair, pair, size, left, right) == (
            error.__name__, side, witness)


class TestTensor:
    def test_trivial_middle_keeps_all_pairs(self):
        e = trivial()
        x = validate_bimodule(e, e, 3, ((0, 1, 2),), ((0,), (1,), (2,)))
        ts = tensor(x, x)
        assert ts.class_count == 9
        assert all(len(c) == 1 for c in ts.classes)

    def test_free_group_actions_collapse_to_group_size(self):
        reg = regular_bimodule(z2())
        ts = tensor(reg, reg)
        assert ts.class_count == 2

    def test_regular_tensor_collapses_to_products(self):
        for m in (z3(), t2()):
            reg = regular_bimodule(m)
            ts = tensor(reg, reg)
            assert ts.class_count == m.n
            for x in range(m.n):
                for y in range(m.n):
                    assert ts.class_of(x, y) == ts.class_of(m.mul(x, y), m.identity)

    def test_monoid_mismatch(self):
        with pytest.raises(MonoidMismatch):
            tensor(regular_bimodule(z2()), regular_bimodule(z3()))

    def test_lawless_input_is_caught_as_ill_defined(self):
        # a broken left action (only shape-checked here) makes the induced
        # action depend on representatives
        g = z2()
        broken = Bimodule(g, g, 2, ((0, 1), (0, 0)), g.table)
        with pytest.raises(IllDefinedAction):
            tensor(broken, regular_bimodule(g))

    def test_induced_actions_satisfy_the_laws(self, corpus_categories):
        count = 0
        for name, cat in sorted(corpus_categories.items()):
            if cat.size("L") * cat.size("R") > 40 or count >= 12:
                continue
            ts = tensor(slot_bimodule(cat, "L"), slot_bimodule(cat, "R"))
            check_bimodule_laws(ts.bimodule)
            count += 1
        assert count >= 5


class TestGroupQuotient:
    def test_trivial_group_gives_singletons(self):
        e = trivial()
        x = validate_bimodule(e, e, 2, ((0, 1),), ((0,), (1,)))
        ts = group_quotient(x, x, e)
        assert ts.class_count == 4

    def test_free_action_orbit_count(self):
        reg = regular_bimodule(z2())
        ts = group_quotient(reg, reg, z2())
        assert ts.class_count == 2
        assert all(len(c) == 2 for c in ts.classes)

    def test_non_free_action_breaks_the_count(self):
        g = z2()
        # both actions trivial: every orbit is a singleton
        left = Bimodule(g, g, 2, ((0, 1), (0, 1)), ((0, 0), (1, 1)))
        right = Bimodule(g, g, 2, ((0, 1), (0, 1)), ((0, 0), (1, 1)))
        ts = group_quotient(left, right, g)
        assert any(len(c) < g.n for c in ts.classes)
        assert ts.class_count != (left.size * right.size) // g.n
        assert ts.class_count == left.size * right.size

    def test_group_required(self):
        m = t2()
        bm = regular_bimodule(m)
        with pytest.raises(NotAGroup):
            group_quotient(bm, bm, m)

    def test_the_group_must_be_the_middle_monoid(self):
        reg = regular_bimodule(z3())
        with pytest.raises(MonoidMismatch) as err:
            group_quotient(reg, reg, z2())
        assert str(err.value) == "both factors must carry the action of the same group"

    def test_lawless_factors_can_split_the_partitions(self):
        # Z3 on two points from the right by g=1 fixing both and g=2 swapping
        # them, and from the left by g=1 swapping and g=2 fixing: each row of
        # images is an orbit, so the orbit test passes, but no action law
        # holds, and the relation the links generate is coarser than the
        # orbits.  Only the comparison of the two partitions sees it.
        g = z3()
        left = Bimodule(trivial(), g, 2, ((0, 1),), ((0, 0, 1), (1, 1, 0)))
        right = Bimodule(g, trivial(), 2, ((0, 1), (1, 0), (0, 1)), ((0,), (1,)))
        with pytest.raises(TheoremViolation) as err:
            group_quotient(left, right, g)
        assert str(err.value) == "orbit partition differs from the tensor partition"
        with pytest.raises(ActionLawViolation):
            check_bimodule_laws(left)

    def test_a_broken_action_is_named(self):
        # 1*1 = 0 but 0*1 = 0: the images of 1 reach 0, whose images differ;
        # the union-find merged both into one class
        g = z2()
        broken = Bimodule(g, g, 2, g.table, ((0, 0), (1, 0)))
        with pytest.raises(NotAGroupAction, match="G does not act on L as a group at 1") as err:
            group_quotient(broken, regular_bimodule(g), g)
        assert (err.value.slot, err.value.element) == ("L", 1)

    def test_actions_that_pass_alone_can_fail_as_pairs(self):
        # S3 acting on three points by a bijection onto their permutations
        # that is no homomorphism: each column of g*y holds every point, so
        # R alone passes, but the pairs with S3 acting on itself do not
        (s3,) = generate(CorpusSpec("symmetric_group", (3,)))
        perms = [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]
        rows = [perms.pop() if g != s3.identity else (0, 1, 2) for g in range(s3.n)]
        assert not oracles.group_acts(rows, s3.table, s3.identity, "left")
        points = Bimodule(s3, trivial(), 3, rows, ((0,), (1,), (2,)))
        with pytest.raises(NotAGroupAction) as err:
            group_quotient(regular_bimodule(s3), points, s3)
        assert err.value.slot == "L x R"

    def test_orbits_match_tensor_partition_on_categories(self, corpus, corpus_categories):
        checked = 0
        for name, m in corpus:
            cat = corpus_categories[name]
            if not is_group(cat.g_monoid) or cat.size("L") * cat.size("R") > 40:
                continue
            left = slot_bimodule(cat, "L")
            right = slot_bimodule(cat, "R")
            ts = group_quotient(left, right, cat.g_monoid)  # asserts the partitions agree
            assert ts.class_count * cat.size("G") == cat.size("L") * cat.size("R")
            checked += 1
            if checked >= 15:
                break
        assert checked >= 5


class TestMultBijection:
    def test_degenerate_singleton(self):
        cat = groupoid_from_group(trivial())
        verdict = mult_bijection_check(cat)
        assert verdict

    def test_t2_category(self):
        cat = category_from_monoid(t2())
        assert mult_bijection_check(cat)
        lr = cat.comp["LR"]
        image = {lr[x][y] for x in range(cat.size("L")) for y in range(cat.size("R"))}
        assert len(image) == 2 == (cat.size("L") * cat.size("R")) // cat.size("G")

    def test_requires_group_side(self):
        cat = karoubi_pair(t2(), oracles.T2_ID, oracles.T2_ID)
        with pytest.raises(GSideNotGroup):
            mult_bijection_check(cat)

    def test_passes_on_all_corpus_categories(self, corpus_categories):
        for name, cat in corpus_categories.items():
            assert mult_bijection_check(cat), name

    @pytest.mark.parametrize("key, i, j, detail", [
        ("LG", 0, 0, "G does not act on L as a group at 0"),
        ("GR", 0, 0, "G does not act on R as a group at 0"),
    ])
    def test_a_broken_action_is_a_failed_check(self, key, i, j, detail):
        # it raised IllDefinedComposition "composition splits the class of (0, 0)"
        cat = _changed_category(groupoid_from_group(z2()), key, i, j, 1)
        assert mult_bijection_check(cat) == (False, detail)

    def test_a_non_free_action_fails_the_count(self):
        # Z2 fixes the one element of L and of R: one class of one pair,
        # composed to one value, but |L*R|*|G| = 2 > |L|*|R| = 1
        cat = TwoObjectCategory((0,), (0,), (0,), (0, 1), 0, 0, {
            "AA": ((0,),), "AL": ((0,),), "LG": ((0, 0),), "LR": ((0,),),
            "RA": ((0,),), "GR": ((0,), (0,)), "RL": ((0,),), "GG": z2().table})
        assert mult_bijection_check(cat) == (False, "|L*R|*|G| = 2 differs from |L|*|R| = 1")

    def test_an_orbit_split_by_composition_is_ill_defined(self):
        # G acts as a group, but L*R tells (0, 0) from (1, 1) in its orbit
        cat = _changed_category(groupoid_from_group(z2()), "LR", 0, 0, 1)
        with pytest.raises(IllDefinedComposition, match=r"splits the class of \(0, 0\)"):
            mult_bijection_check(cat)


class TestFreeAction:
    def test_passes_on_corpus_categories(self, corpus_categories):
        for name, cat in corpus_categories.items():
            assert free_action_check(cat), name
            assert cat.size("L") % cat.size("G") == 0, name
            assert cat.size("R") % cat.size("G") == 0, name

    def test_detects_a_stuck_action(self):
        cat = groupoid_from_group(z2())
        tables = dict(cat.comp)
        tables["LG"] = ((0, 0), (1, 1))  # right action no longer free
        from monocat.twocat import TwoObjectCategory

        broken = TwoObjectCategory(cat.a_elems, cat.l_elems, cat.r_elems, cat.g_elems,
                                   cat.a_identity, cat.g_identity, tables)
        verdict = free_action_check(broken)
        assert not verdict and "not free" in verdict.detail
