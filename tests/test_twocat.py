import itertools
import json
import random
import sys

import pytest

import oracles
from monocat import ideals, twocat
from monocat.connectivity import are_connected, connecting_category
from monocat.core import (Monoid, adjoin_identity, dump_cayley, is_group, kept_generators,
                          parse_cayley, validate_semigroup, word_generators)
from monocat.corpus import full_transformation_monoid
from monocat.errors import (
    AIsGroup,
    EmptyBimodule,
    FormatError,
    GSideNotGroup,
    IllDefinedAction,
    IllDefinedComposition,
    IsAGroup,
    MiddleMonoidMismatch,
    NotAGroup,
    NotIdempotent,
    NotSimple,
)
from monocat.ideals import IdealSubset, kernel, minimal_left_ideals, minimal_right_ideals
from monocat.rees import ReesMatrixSemigroup, expand
from monocat.twocat import (
    COMPOSE_TYPE,
    TwoObjectCategory,
    category_from_json_dict,
    category_from_monoid,
    category_from_simple,
    category_isomorphic,
    category_to_json_dict,
    compose_categories,
    extract_simple,
    groupoid_from_group,
    ideal_slices,
    is_reduced,
    karoubi_pair,
    minimal_ideal_correspondence,
    relabel,
    reverse,
    slot_bimodule,
    standardize,
    triple_patterns,
    validate_category,
    verify_category_iso,
)


def t2():
    return Monoid(validate_semigroup(oracles.t2_table()), oracles.T2_ID)


def z2():
    return Monoid(validate_semigroup(oracles.cyclic_table(2)), 0)


def z4():
    return Monoid(validate_semigroup(oracles.cyclic_table(4)), 0)


def rees_monoid_121():
    """A Rees matrix semigroup over Z_4 with 5 x 6 sandwich, identity adjoined."""
    rng = random.Random(0)
    sandwich = tuple(tuple(rng.randrange(4) for _ in range(5)) for _ in range(6))
    m = adjoin_identity(expand(ReesMatrixSemigroup(z4(), 5, 6, sandwich)))
    assert m.n == 121
    return m


def klein():
    return Monoid(validate_semigroup(oracles.klein_table()), 0)


def lz2():
    return validate_semigroup(oracles.lz2_table())


def band22():
    return validate_semigroup(oracles.band22_table())


def trivial():
    return Monoid(validate_semigroup([[0]]), 0)


def corrupt(cat, key, i, j, value):
    tables = dict(cat.comp)
    rows = [list(r) for r in tables[key]]
    rows[i][j] = value
    tables[key] = tuple(tuple(r) for r in rows)
    return TwoObjectCategory(cat.a_elems, cat.l_elems, cat.r_elems, cat.g_elems,
                             cat.a_identity, cat.g_identity, tables)


class TestTyping:
    def test_sixteen_patterns(self):
        pats = {"".join(p) for p in triple_patterns()}
        assert pats == {
            "AAA", "AAL", "ALG", "ALR", "LGG", "LGR", "LRA", "LRL",
            "RAA", "RAL", "GRA", "GRL", "GGG", "GGR", "RLG", "RLR",
        }
        assert len(triple_patterns()) == 16 == 2 * len(COMPOSE_TYPE)


class TestConstruction:
    def test_bimodule_slots_must_be_nonempty(self):
        cat = groupoid_from_group(z2())
        with pytest.raises(EmptyBimodule):
            TwoObjectCategory(cat.a_elems, (), cat.r_elems, cat.g_elems,
                              cat.a_identity, cat.g_identity, dict(cat.comp))


class TestValidate:
    def test_groupoid_from_z2(self):
        assert validate_category(groupoid_from_group(z2()))

    def test_category_of_t2(self):
        assert validate_category(category_from_monoid(t2()))

    def test_corrupted_cross_table(self):
        cat = category_from_simple(band22())
        good = cat.comp["LR"][0][0]
        bad = next(v for v in range(cat.size("A")) if v != good)
        verdict = validate_category(corrupt(cat, "LR", 0, 0, bad))
        assert not verdict
        assert "LR" in verdict.detail or "RL" in verdict.detail

    def test_corrupted_identity_law(self):
        cat = groupoid_from_group(z2())
        broken = corrupt(cat, "AL", cat.a_identity, 0, 1)
        verdict = validate_category(broken)
        assert not verdict and "identity law" in verdict.detail

    def test_valid_categories_never_take_the_exhaustive_scan(self, monkeypatch, corpus,
                                                             corpus_categories):
        def refuse(c):
            raise AssertionError("exhaustive scan on a valid category")

        monkeypatch.setattr(twocat, "_first_violation", refuse)
        cat = category_from_simple(band22())
        good = cat.comp["LR"][0][0]
        bad = next(v for v in range(cat.size("A")) if v != good)
        with pytest.raises(AssertionError, match="exhaustive scan"):
            validate_category(corrupt(cat, "LR", 0, 0, bad))
        envelopes = [*corpus_categories.values(), category_from_monoid(full_transformation_monoid(4))]
        envelopes += [standardize(c).category for c in envelopes if not is_group(c.a_monoid)]
        lz1 = adjoin_identity(lz2())
        rz1 = adjoin_identity(validate_semigroup(oracles.rz2_table()))
        pairs = [(t2(), t2()), (z2(), Monoid(validate_semigroup([[1, 0], [0, 1]]), 1)),
                 *itertools.combinations([m for _, m in corpus[:12]], 2)]
        # compose_categories validates each witness itself, under the patch
        witnesses = [w for a, b in pairs if (w := are_connected(a, b).witness) is not None]
        w1, w2 = are_connected(t2(), lz1).witness, are_connected(lz1, rz1).witness
        witnesses += [w1, w2, compose_categories(w1, w2)]
        for c in envelopes + witnesses:
            assert validate_category(c)


AAA, GGG = ("AA",) * 4, ("GG",) * 4


def light_test_patterns(monkeypatch):
    """The patterns of every Light's test that ``validate_category`` runs."""
    seen = []
    test = twocat.light_test

    def counted(tables, gens, patterns):
        seen.extend(p for middle in patterns.values() for p in middle)
        return test(tables, gens, patterns)

    monkeypatch.setattr(twocat, "light_test", counted)
    return seen


def one_entry_mutant(cat, rng):
    """The JSON form of ``cat`` with one table entry changed, loaded back."""
    d = json.loads(json.dumps(category_to_json_dict(cat)))
    keys = [k for k in twocat.TABLE_KEYS if cat.size(COMPOSE_TYPE[k[0], k[1]]) > 1]
    key = rng.choice(keys)
    rows = d["tables"][key]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[i][j] = rng.choice([v for v in range(cat.size(COMPOSE_TYPE[key[0], key[1]]))
                             if v != rows[i][j]])
    return category_from_json_dict(d)


@pytest.fixture(scope="module")
def loaded_categories(corpus):
    """The connecting category of every corpus monoid as ``suite`` loads it:
    read back from its Cayley text, so its table was validated."""
    return {name: connecting_category(parse_cayley(dump_cayley(m))) for name, m in corpus}


class TestDecidedAtLoad:
    """A category whose end table is a loaded, validated table skips that
    slot's pattern in Light's test, and its verdict is unchanged."""

    def test_corpus_categories_agree_with_the_full_light_test(self, loaded_categories):
        groupoids = 0
        for name, cat in loaded_categories.items():
            verdict = validate_category(cat)
            assert (verdict.ok, verdict.detail) == oracles.light_category_verdict(cat), name
            decided = twocat._decided(cat)
            assert sorted(decided) == (["A", "G"] if cat.comp["GG"] is cat.comp["AA"] else ["A"])
            groupoids += len(decided) == 2
        assert groupoids == 7

    def test_json_mutants_agree_with_the_full_light_test(self, loaded_categories):
        rng = random.Random(21)
        failed = []
        for name, cat in loaded_categories.items():
            if cat.size("A") == cat.size("G") == 1:
                continue
            for _ in range(3):
                mutant = one_entry_mutant(cat, rng)
                verdict = validate_category(mutant)
                assert (verdict.ok, verdict.detail) == oracles.light_category_verdict(mutant), name
                assert twocat._decided(mutant) == {} and "a_monoid" not in vars(mutant)
                failed += [verdict.detail] if not verdict.ok else []
        # most mutants fail, many of them in AAA, which no loaded table decides
        assert len(failed) >= 500 and sum("pattern AAA" in d for d in failed) >= 50

    def test_an_envelope_skips_aaa_and_a_groupoid_ggg_too(self, monkeypatch):
        seen = light_test_patterns(monkeypatch)
        envelope, groupoid = category_from_monoid(t2()), groupoid_from_group(z4())
        assert validate_category(envelope) and AAA not in seen and GGG in seen
        seen.clear()
        assert validate_category(groupoid) and AAA not in seen and GGG not in seen
        assert len(seen) == 14
        gens = kept_generators(z4().base)
        assert twocat._decided(groupoid) == {"A": gens, "G": gens}

    def test_an_unvalidated_base_decides_nothing(self, monkeypatch):
        # the adjoined identity's base and the end monoid a category builds
        # for itself are trusted, not validated; a karoubi_pair at e1 = 1 has
        # the loaded table as AA but no a_monoid
        seen = light_test_patterns(monkeypatch)
        m = t2()
        cats = [category_from_monoid(adjoin_identity(band22())), karoubi_pair(m, m.identity, 0),
                reverse(category_from_monoid(m)), category_from_simple(band22())]
        cats[1].a_monoid  # built from the AA table: a wrapper, not the loaded base
        assert cats[1].comp["AA"] is m.table
        for cat in cats:
            seen.clear()
            assert twocat._decided(cat) == {} and validate_category(cat)
            assert len(seen) == 16

    def test_no_end_monoid_is_built_to_decide(self):
        witness = are_connected(t2(), adjoin_identity(lz2())).witness
        loaded = category_from_json_dict(category_to_json_dict(category_from_monoid(t2())))
        for cat in (witness, loaded):
            assert validate_category(cat)
            assert "a_monoid" not in vars(cat) and "g_monoid" not in vars(cat)

    def test_a_nonassociative_aa_table_of_a_json_category_is_named(self):
        # T_3's envelope with AA[i][j] set to i, away from the identity's row
        # and column: the first bad triple, as the exhaustive scan names it
        cat = category_from_monoid(full_transformation_monoid(3))
        d = category_to_json_dict(cat)
        e, table = cat.a_identity, d["tables"]["AA"]
        i, j = next((i, j) for i in range(len(table)) for j in range(len(table))
                    if e not in (i, j) and table[i][j] != i)
        table[i][j] = i
        mutant = category_from_json_dict(d)
        ok, detail = oracles.category_verdict(mutant)
        assert not ok and detail.startswith("associativity pattern AAA")
        assert validate_category(mutant) == (False, detail)


class TestWordGenerators:
    def test_every_small_envelope_is_generated(self, corpus):
        # karoubi_pair at every pair of idempotents gives L and R slots with
        # several orbits, which kernel envelopes and witnesses rarely have
        count = 0
        for name, m in corpus:
            if m.n > 12:
                continue
            idempotents = [e for e in range(m.n) if m.table[e][e] == e]
            for e1, e2 in itertools.product(idempotents, repeat=2):
                cat = karoubi_pair(m, e1, e2)
                assert oracles.generates_every_morphism(cat, twocat._word_generators(cat)), \
                    (name, e1, e2)
                count += 1
        assert count == 3291

    def test_t4_envelope(self):
        cat = category_from_monoid(full_transformation_monoid(4))
        gens = twocat._word_generators(cat)
        assert {s: len(gens[s]) for s in "ALRG"} == {"A": 35, "L": 1, "R": 1, "G": 0}
        assert gens["A"] == [a for a in word_generators(cat.comp["AA"]) if a != cat.a_identity]
        assert gens["G"] == [g for g in word_generators(cat.comp["GG"]) if g != cat.g_identity]
        assert oracles.generates_every_morphism(cat, gens)

    def test_the_oracle_sees_a_missing_generator(self):
        # without a generator in L, no composite reaches L
        cat = karoubi_pair(t2(), oracles.T2_ID, oracles.T2_ID)
        gens = twocat._word_generators(cat)
        assert oracles.generates_every_morphism(cat, gens)
        assert not oracles.generates_every_morphism(cat, {**gens, "L": []})


class TestKaroubiPair:
    def test_degenerate_pair_of_identities(self):
        m = t2()
        cat = karoubi_pair(m, m.identity, m.identity)
        assert cat.sizes() == {"A": 4, "L": 4, "R": 4, "G": 4}
        assert cat.a_elems == cat.l_elems == cat.r_elems == cat.g_elems

    def test_t2_split(self):
        cat = karoubi_pair(t2(), oracles.T2_ID, oracles.T2_C0)
        assert cat.sizes() == {"A": 4, "L": 1, "R": 2, "G": 1}

    def test_band_split(self):
        m = adjoin_identity(band22())
        cat = karoubi_pair(m, m.identity, 0)
        assert cat.sizes() == {"A": 5, "L": 2, "R": 2, "G": 1}

    def test_the_envelope_is_built_once_per_base_and_pair(self, monkeypatch):
        built = []
        envelope = twocat._envelope

        def counted(base, e1, e2):
            built.append((base, e1, e2))
            return envelope(base, e1, e2)

        monkeypatch.setattr(twocat, "_envelope", counted)
        m = t2()
        first, again = karoubi_pair(m, m.identity, 0), karoubi_pair(m, m.identity, 0)
        assert first == again and first is not again and len(built) == 1
        assert all(first.comp[k] is again.comp[k] for k in twocat.TABLE_KEYS)
        other = karoubi_pair(Monoid(validate_semigroup(oracles.t2_table()), oracles.T2_ID),
                             oracles.T2_ID, 0)
        assert other == first and len(built) == 2

    def test_a_table_over_the_whole_monoid_is_its_own(self):
        m = z4()
        groupoid = karoubi_pair(m, 0, 0)
        assert all(groupoid.comp[k] is m.table for k in twocat.TABLE_KEYS)
        m = t2()
        envelope = karoubi_pair(m, oracles.T2_ID, 0)
        assert [k for k in twocat.TABLE_KEYS if envelope.comp[k] is m.table] == ["AA"]

    def test_a_groupoid_needs_a_group(self):
        with pytest.raises(NotAGroup, match="^the groupoid construction needs a group$"):
            groupoid_from_group(t2())

    @pytest.mark.parametrize("slot", ["A", "G", "l", ""])
    def test_an_unknown_bimodule_slot_is_a_format_error(self, slot):
        with pytest.raises(FormatError) as err:
            slot_bimodule(category_from_monoid(t2()), slot)
        assert str(err.value) == f"no bimodule slot {slot!r}"

    def test_not_idempotent(self):
        with pytest.raises(NotIdempotent):
            karoubi_pair(t2(), oracles.T2_SWAP, oracles.T2_ID)

    @pytest.mark.parametrize("e1, e2", [(True, True), (1.0, oracles.T2_ID),
                                        (oracles.T2_ID, -1), (oracles.T2_ID, 4)])
    def test_positions_must_be_indices(self, e1, e2):
        # T2_ID is 1, so True and 1.0 would name an idempotent
        with pytest.raises(NotIdempotent):
            karoubi_pair(t2(), e1, e2)

    def test_every_pair_of_idempotents_matches_the_oracle(self, corpus):
        pairs = 0
        for name, m in corpus:
            if m.n > 8:
                continue
            idempotents = [e for e in range(m.n) if m.table[e][e] == e]
            for e1, e2 in itertools.product(idempotents, repeat=2):
                cat = karoubi_pair(m, e1, e2)
                sets, comp, a_identity, g_identity = oracles.karoubi_envelope(m.table, e1, e2)
                assert {s: cat.elems(s) for s in "ALRG"} == sets, (name, e1, e2)
                assert cat.comp == comp, (name, e1, e2)
                assert (cat.a_identity, cat.g_identity) == (a_identity, g_identity)
                pairs += 1
        assert pairs > 100


class TestCategoryFromSimple:
    def test_group_input(self):
        cat = category_from_simple(z2().base)
        assert cat.sizes() == {"A": 3, "L": 2, "R": 2, "G": 2}

    def test_band(self):
        cat = category_from_simple(band22())
        assert cat.sizes() == {"A": 5, "L": 2, "R": 2, "G": 1}
        assert 4 * cat.size("G") == cat.size("L") * cat.size("R")

    def test_left_zero(self):
        cat = category_from_simple(lz2())
        assert cat.sizes() == {"A": 3, "L": 2, "R": 1, "G": 1}

    def test_not_simple_rejected(self):
        with pytest.raises(NotSimple):
            category_from_simple(t2().base)


class TestCategoryFromMonoid:
    def test_t2(self):
        cat = category_from_monoid(t2())
        assert cat.sizes() == {"A": 4, "L": 1, "R": 2, "G": 1}
        assert len(kernel(t2()).members) == 2
        assert 4 >= 2 + 1

    def test_equality_case(self):
        m = adjoin_identity(lz2())
        cat = category_from_monoid(m)
        assert cat.sizes() == {"A": 3, "L": 2, "R": 1, "G": 1}
        assert m.n == (cat.size("L") * cat.size("R")) // cat.size("G") + 1

    def test_group_refused(self):
        with pytest.raises(IsAGroup):
            category_from_monoid(z2())

    def test_valid_on_nongroup_corpus(self, nongroup_corpus, corpus_categories):
        for name, m in nongroup_corpus:
            cat = corpus_categories[name]
            assert validate_category(cat), name
            # L lies in the kernel, an ideal without 1, so no l*r is the identity
            assert all(cat.a_identity not in row for row in cat.comp["LR"]), name


class TestExtractSimple:
    def test_round_trip_t2(self):
        m = t2()
        cat = category_from_monoid(m)
        assert extract_simple(cat).members == kernel(m).members

    def test_degenerate_singleton(self):
        cat = groupoid_from_group(trivial())
        assert extract_simple(cat).members == (0,)

    def test_band_pipeline(self):
        cat = category_from_simple(band22())
        # the simple ideal inside the adjoined monoid is the band itself
        assert extract_simple(cat).members == (0, 1, 2, 3)

    def test_g_side_must_be_group(self):
        cat = karoubi_pair(t2(), oracles.T2_ID, oracles.T2_ID)
        with pytest.raises(GSideNotGroup):
            extract_simple(cat)

    def test_builds_only_the_ideal_it_returns(self, monkeypatch, corpus_categories):
        # is_simple reads the restricted table's kernel as a kept tuple, so
        # the ideal returned is the one checked ideal built
        envelopes = [*corpus_categories.values(), category_from_monoid(rees_monoid_121())]
        built = []
        check = IdealSubset.__post_init__

        def counted(ideal):
            built.append(ideal)
            check(ideal)

        def refuse(s, a):
            raise AssertionError("a principal two-sided ideal was built")

        monkeypatch.setattr(ideals, "principal_two_sided_ideal", refuse)
        monkeypatch.setattr(IdealSubset, "__post_init__", counted)
        for cat in envelopes:
            built.clear()
            ideal = extract_simple(cat)
            assert len(built) == 1 and built[0] is ideal

    def test_builds_one_principal_ideal_the_kernel(self, monkeypatch):
        # is_simple settles the recovery argument, so the kernel of the
        # restricted table is the one S¹aS¹ built, wherever the routine is bound
        cat = category_from_monoid(rees_monoid_121())
        calls = []
        original = ideals.two_sided_multiples

        def counted(t, a):
            calls.append(a)
            return original(t, a)

        for name, module in list(sys.modules.items()):
            if name.startswith("monocat") and vars(module).get("two_sided_multiples") is original:
                monkeypatch.setattr(module, "two_sided_multiples", counted)
        assert extract_simple(cat).members == tuple(range(120))
        assert len(calls) <= 1


class TestIsReduced:
    def test_t2_category_is_reduced(self):
        assert is_reduced(category_from_monoid(t2()))

    def test_degenerate_pair_is_not(self):
        m = t2()
        assert not is_reduced(karoubi_pair(m, m.identity, m.identity))

    def test_groupoid_is_not(self):
        assert not is_reduced(groupoid_from_group(z2()))

    def test_adjoined_group_category_is_reduced(self):
        # cutting at a fresh identity never composes back to it
        assert is_reduced(category_from_simple(z2().base))


class TestIdealSlices:
    def test_t2_slices_match_the_ideal_module(self):
        m = t2()
        cat = category_from_monoid(m)
        left, right, handle = ideal_slices(cat, 0, 0)
        assert left.members in [i.members for i in minimal_left_ideals(m)]
        assert right.members in [i.members for i in minimal_right_ideals(m)]
        assert handle.order == 1

    def test_shift_by_group_element_keeps_the_slice(self):
        cat = category_from_simple(z2().base)
        lg = cat.comp["LG"]
        _, right0, _ = ideal_slices(cat, 0, 0)
        for g in range(cat.size("G")):
            _, right_g, _ = ideal_slices(cat, lg[0][g], 0)
            assert right_g.members == right0.members

    def test_groupoid_slices_are_everything(self):
        cat = groupoid_from_group(z2())
        left, right, handle = ideal_slices(cat, 0, 0)
        assert left.members == right.members == handle.elements == (0, 1)

    @pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (2, 0), (0, 99), (1.0, 0), (0, True)])
    def test_positions_must_be_indices(self, x, y):
        with pytest.raises(FormatError, match="slice positions out of range"):
            ideal_slices(groupoid_from_group(z2()), x, y)


class TestMinimalIdealCorrespondence:
    def test_corpus_categories(self, corpus_categories):
        for name, cat in sorted(corpus_categories.items())[:40]:
            assert minimal_ideal_correspondence(cat), name

    def test_groupoid_single_orbit(self):
        assert minimal_ideal_correspondence(groupoid_from_group(z2()))

    @pytest.mark.parametrize("key, detail", [("GR", "G does not act on R as a group at 0"),
                                             ("LG", "G does not act on L as a group at 0")])
    def test_a_broken_action_is_a_failed_check(self, key, detail):
        # the identity of G moves 0 to 1, so 0 is not among its own images;
        # the union-find found one orbit, as many as minimal ideals, and passed
        cat = corrupt(groupoid_from_group(z2()), key, 0, 0, 1)
        assert minimal_ideal_correspondence(cat) == (False, detail)

    def test_band_counts(self):
        cat = category_from_simple(band22())
        assert len(minimal_left_ideals(cat.a_monoid)) == 2
        assert minimal_ideal_correspondence(cat)


class TestStandardize:
    def test_t2_maps_verified(self):
        cat = category_from_monoid(t2())
        std = standardize(cat)
        assert verify_category_iso(cat, std.category, std.maps)
        assert category_isomorphic(std.category, cat)

    def test_an_envelope_gets_its_own_tables_back(self, nongroup_corpus):
        for name, m in nongroup_corpus[::5]:
            cat = category_from_monoid(m)
            std = standardize(cat)
            assert all(std.category.comp[k] is cat.comp[k] for k in twocat.TABLE_KEYS), name

    def test_second_pass_is_isomorphic(self):
        cat = category_from_monoid(t2())
        std = standardize(cat)
        std2 = standardize(std.category)
        assert category_isomorphic(std2.category, std.category)

    def test_two_choices_are_isomorphic(self):
        m = adjoin_identity(band22())
        cat = category_from_monoid(m)
        a = standardize(cat, 0, 0)
        b = standardize(cat, cat.size("L") - 1, cat.size("R") - 1)
        assert (a.x, a.y) != (b.x, b.y)
        # explicit isomorphism: push a's maps through the inverse of b's
        composed = {}
        for slot, am, bm in (("A", a.a_map, b.a_map), ("L", a.l_map, b.l_map),
                             ("R", a.r_map, b.r_map), ("G", a.g_map, b.g_map)):
            inverse = [0] * len(am)
            for src, dst in enumerate(am):
                inverse[dst] = src
            composed[slot] = tuple(bm[inverse[i]] for i in range(len(am)))
        assert verify_category_iso(a.category, b.category, composed)
        assert category_isomorphic(a.category, b.category)

    def test_group_a_side_rejected(self):
        with pytest.raises(AIsGroup):
            standardize(groupoid_from_group(z2()))

    @pytest.mark.parametrize("position", ["x", "y"])
    @pytest.mark.parametrize("bad", [0.0, True, -1, "size"])
    def test_start_positions_must_be_indices(self, position, bad):
        # a float, a bool, a negative index and the slot size are refused alike
        cat = category_from_monoid(t2())
        value = cat.size("L" if position == "x" else "R") if bad == "size" else bad
        start = (value, 0) if position == "x" else (0, value)
        with pytest.raises(FormatError, match="starting positions out of range"):
            standardize(cat, *start)

    def test_group_g_side_required(self):
        with pytest.raises(GSideNotGroup):
            standardize(karoubi_pair(t2(), oracles.T2_ID, oracles.T2_ID))


class TestCompose:
    def test_with_degenerate_category_is_isomorphic(self):
        cat = category_from_monoid(t2())
        degenerate = karoubi_pair(cat.g_monoid, cat.g_identity, cat.g_identity)
        composite = compose_categories(cat, degenerate)
        assert validate_category(composite)
        assert category_isomorphic(composite, cat)

    def test_t2_to_left_zero_monoid(self):
        c1 = category_from_monoid(t2())
        c2 = reverse(category_from_monoid(adjoin_identity(lz2())))
        composite = compose_categories(c1, c2)
        assert validate_category(composite)
        assert composite.comp["AA"] == t2().table
        assert composite.comp["GG"] == adjoin_identity(lz2()).table

    def test_two_groupoids_compose_to_a_groupoid(self):
        g1 = groupoid_from_group(z2())
        g2 = groupoid_from_group(z2())
        composite = compose_categories(g1, g2)
        assert validate_category(composite)
        assert not is_reduced(composite)
        assert is_group(composite.a_monoid) and is_group(composite.g_monoid)

    def test_middle_mismatch(self):
        with pytest.raises(MiddleMonoidMismatch):
            compose_categories(category_from_monoid(t2()), groupoid_from_group(z2()))

    # one entry of c1 changed, composed with its own reverse so that the
    # middle monoids match: each error is typed, and names where it arose
    @pytest.mark.parametrize("name, key, value, error, message", [
        ("cyclic_group(2)", "AL", 1, IllDefinedAction, "left action of 0 splits class of (0, 0)"),
        ("cyclic_group(2)", "LR", 1, IllDefinedComposition,
         "L*R composition depends on representatives at (0, 0), (0, 0)"),
        ("left_zero(2)", "LG", 1, IllDefinedComposition,
         "L*R composition depends on representatives at (0, 0), (0, 0)"),
        ("left_zero(2)", "LR", 1, IllDefinedComposition,
         "composite fails validation: associativity pattern ALR fails at (0,0,0)"),
        ("left_zero(2)", "AL", 1, IllDefinedComposition,
         "composite fails validation: associativity pattern AAL fails at (0,0,0)"),
    ])
    def test_an_invalid_factor_is_a_typed_error(self, corpus_categories, name, key, value,
                                               error, message):
        c1 = corrupt(corpus_categories[name], key, 0, 0, value)
        with pytest.raises(error) as err:
            compose_categories(c1, reverse(c1))
        assert str(err.value) == message
        assert oracles.composition_failure(c1, reverse(c1)) == error.__name__


class TestReverse:
    def test_reverse_is_valid_and_involutive(self, corpus_categories):
        for name, cat in sorted(corpus_categories.items())[:25]:
            rev = reverse(cat)
            assert validate_category(rev), name
            again = reverse(rev)
            assert again.comp == cat.comp and again.a_elems == cat.a_elems


class TestRelabel:
    def test_permuted_groupoid_still_valid(self):
        cat = groupoid_from_group(z4())
        perm = (2, 0, 3, 1)
        shuffled = relabel(cat, {"A": perm})
        assert validate_category(shuffled)
        assert shuffled.a_elems == tuple(cat.a_elems[p] for p in perm)

    @pytest.mark.parametrize("perms, slot", [
        ({"A": (0, 0, 1, 2)}, "A"), ({"L": (0, 1, 2)}, "L"), ({"G": (1, 2, 3, 4)}, "G"),
        ({"A": (1, 0, 3, 2), "R": (3, 2, 1, 0, 0)}, "R")])
    def test_a_non_permutation_is_refused(self, perms, slot):
        with pytest.raises(FormatError) as err:
            relabel(groupoid_from_group(z4()), perms)
        assert str(err.value) == f"bad permutation for slot {slot}"

    @pytest.mark.parametrize("perms, message", [
        ({"A": (1.0, 0.0, 2.0, 3.0)}, "bad permutation for slot A"),
        ({"G": (True, False, 2, 3)}, "bad permutation for slot G"),
        ({"X": (0,)}, "no slot 'X'"), ({"A": (0, 1, 2, 3), 0: ()}, "no slot 0")])
    def test_positions_and_slots_are_checked(self, perms, message):
        with pytest.raises(FormatError) as err:
            relabel(groupoid_from_group(z4()), perms)
        assert str(err.value) == message


class TestCategoryIsomorphic:
    def test_reflexive(self):
        cat = category_from_monoid(t2())
        assert category_isomorphic(cat, cat)

    def test_object_swap(self):
        cat = category_from_monoid(t2())
        assert category_isomorphic(cat, reverse(cat))

    def test_different_groups_not_isomorphic(self):
        assert not category_isomorphic(groupoid_from_group(z4()),
                                       groupoid_from_group(klein()))

    def test_trivial_versus_z2_endomorphism_group(self):
        assert not category_isomorphic(category_from_monoid(t2()),
                                       groupoid_from_group(z2()))

    def test_relabelled_category_found_isomorphic(self):
        cat = groupoid_from_group(klein())
        shuffled = relabel(cat, {"A": (1, 0, 3, 2), "G": (2, 3, 0, 1)})
        assert validate_category(shuffled)
        assert category_isomorphic(cat, shuffled)

    def test_only_a_shared_table_under_identity_maps_is_skipped(self):
        # every table of a groupoid is the group's own; under the automorphism
        # g -> -g of Z_4 on A alone, the three tables with an identity map on
        # each of their slots (LG, GR, GG) are skipped, and the first of the
        # others that does not commute is named, as the oracle names it
        cat = groupoid_from_group(z4())
        ident = tuple(range(4))
        maps = {"A": (0, 3, 2, 1), "L": ident, "R": ident, "G": ident}
        expected = oracles.category_iso_verdict(cat, cat, maps)
        assert not expected[0] and (False, expected[1]) == verify_category_iso(cat, cat, maps)
        assert verify_category_iso(cat, cat, {s: ident for s in "ALRG"})
        # a table that is another object is compared, under identity maps too
        changed = corrupt(cat, "GG", 2, 3, 0)
        assert changed.comp["GG"] is not cat.comp["GG"]
        identity_maps = {s: ident for s in "ALRG"}
        assert verify_category_iso(cat, changed, identity_maps) == (
            False, "table GG: maps do not commute at (2,3)")
        assert oracles.category_iso_verdict(cat, changed, identity_maps) == (
            False, "table GG: maps do not commute at (2,3)")

    @pytest.mark.parametrize("slot, images, detail", [
        ("A", (0.0, 1.0, 2.0, 3.0), "slot A: map is not a bijection"),
        ("G", (False, True, 2, 3), "slot G: map is not a bijection"),
        ("L", None, "slot L: no map")])
    def test_maps_of_non_positions_fail(self, slot, images, detail):
        cat = groupoid_from_group(z4())
        maps = {s: tuple(range(4)) for s in "ALRG"}
        maps[slot] = images
        if images is None:
            del maps[slot]
        verdict = verify_category_iso(cat, cat, maps)
        assert not verdict and verdict.detail == detail


class TestJson:
    def test_round_trip(self):
        cat = category_from_monoid(t2())
        again = category_from_json_dict(category_to_json_dict(cat))
        assert again == cat

    def test_round_trip_through_text(self):
        cat = compose_categories(category_from_monoid(t2()),
                                 reverse(category_from_monoid(adjoin_identity(lz2()))))
        text = json.dumps(category_to_json_dict(cat))
        again = category_from_json_dict(json.loads(text))
        assert again.comp == cat.comp
        assert again.l_elems == cat.l_elems  # nested labels survive the round trip

    def test_stable_golden_payload(self):
        cat = category_from_monoid(adjoin_identity(lz2()))
        golden = (
            '{"hom_sizes": {"A": 3, "L": 2, "R": 1, "G": 1}, '
            '"a_identity": 2, "g_identity": 0, '
            '"labels": {"A": [0, 1, 2], "L": [0, 1], "R": [0], "G": [0]}, '
            '"tables": {"AA": [[0, 0, 0], [1, 1, 1], [0, 1, 2]], '
            '"AL": [[0, 0], [1, 1], [0, 1]], "LG": [[0], [1]], '
            '"LR": [[0], [1]], "RA": [[0, 0, 0]], "GR": [[0]], '
            '"RL": [[0, 0]], "GG": [[0]]}}'
        )
        assert json.dumps(category_to_json_dict(cat)) == golden
