import dataclasses
import random

import pytest

import oracles
from monocat import cli, rees
from monocat.core import (FiniteSemigroup, Monoid, adjoin_identity, dump_cayley, sub_semigroup,
                          validate_semigroup, word_generators)
from monocat.corpus import CorpusSpec, generate
from monocat.errors import (DecompositionFailure, FormatError, NotAGroup, NotAssociative,
                            NotSimple, OutOfRange)
from monocat.ideals import is_simple, kernel, minimal_left_ideals, minimal_right_ideals
from monocat.rees import (
    ReesMatrixSemigroup,
    expand,
    rees_decomposition,
    rees_from_json_dict,
    rees_round_trip,
    rees_to_json_dict,
    verify_rees_iso,
)


def z2():
    return Monoid(validate_semigroup(oracles.cyclic_table(2)), 0)


def trivial_group():
    return Monoid(validate_semigroup([[0]]), 0)


def t2():
    return Monoid(validate_semigroup(oracles.t2_table()), oracles.T2_ID)


# a Latin square with identity 0 that is no group: (1*1)*2 != 1*(1*2)
LOOP = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def assert_expands_as_validated(rms):
    """``expand`` trusts the table of ``rms``, which holds a checked group;
    it gives the expansion built as before, by Light's test on all of the
    table, labels included, and the constructor accepts ``rms`` again."""
    labels = [f"({i},{g},{l})" for i, g, l in rms.triples()]
    validated = validate_semigroup(rms.table, labels)
    expanded = expand(rms)
    assert expanded == validated and expanded.labels == validated.labels
    assert dataclasses.replace(rms) == rms


class TestConstruction:
    def test_group_required(self):
        not_group = adjoin_identity(validate_semigroup(oracles.lz2_table()))
        with pytest.raises(NotAGroup):
            ReesMatrixSemigroup(not_group, 1, 1, ((0,),))

    def test_a_loop_is_refused_by_the_constructor(self):
        loop = Monoid(FiniteSemigroup(LOOP), 0)
        with pytest.raises(NotAssociative) as caught:
            ReesMatrixSemigroup(loop, 2, 1, ((0, 0),))
        assert caught.value.triple == (1, 1, 2)

    def test_a_loop_does_not_decompose(self):
        # the loop is simple and its own Rees structure, I = Lambda = 1, so
        # only the check of the returned group refuses it
        with pytest.raises(NotAssociative) as caught:
            rees_decomposition(FiniteSemigroup(LOOP))
        assert caught.value.triple == (1, 1, 2)

    def test_sandwich_shape_and_range(self):
        with pytest.raises(FormatError):
            ReesMatrixSemigroup(z2(), 2, 1, ((0,),))
        with pytest.raises(OutOfRange):
            ReesMatrixSemigroup(z2(), 1, 1, ((7,),))


class TestExpand:
    def test_trivial_sandwich_reproduces_the_group(self):
        rms = ReesMatrixSemigroup(z2(), 1, 1, ((0,),))
        s = expand(rms)
        # triples (0, g, 0) in order of g: the table is literally the group's
        assert s.table == z2().table

    def test_trivial_group_two_by_two_is_the_band(self):
        rms = ReesMatrixSemigroup(trivial_group(), 2, 2, ((0, 0), (0, 0)))
        s = expand(rms)
        assert s.table == tuple(tuple(r) for r in oracles.band22_table())

    def test_twisted_sandwich_still_isomorphic_to_the_group(self):
        rms = ReesMatrixSemigroup(z2(), 1, 1, ((1,),))
        s = expand(rms)
        assert s.table != z2().table
        # oracle: brute-force permutation search
        assert oracles.perm_isomorphic([list(r) for r in s.table], oracles.cyclic_table(2)) is not None

    def test_expansion_is_simple(self):
        # expand checks no simplicity: a Rees product over a group is
        # completely simple, here over random sandwiches and shapes
        rms = ReesMatrixSemigroup(z2(), 2, 2, ((0, 1), (1, 1)))
        assert is_simple(expand(rms))
        rng = random.Random(3)
        groups = (trivial_group(), z2(), Monoid(validate_semigroup(oracles.cyclic_table(3)), 0))
        for _ in range(40):
            group = rng.choice(groups)
            i_count, lambda_count = rng.randint(1, 4), rng.randint(1, 4)
            sandwich = tuple(tuple(rng.randrange(group.n) for _ in range(i_count))
                             for _ in range(lambda_count))
            assert is_simple(expand(ReesMatrixSemigroup(group, i_count, lambda_count, sandwich)))


class TestDecomposition:
    def test_group_case(self):
        rms, mapping = rees_decomposition(z2().base)
        assert (rms.i_count, rms.lambda_count) == (1, 1)
        assert rms.sandwich == ((rms.group.identity,),)
        # the mapping is the identity isomorphism of the group
        assert mapping == {0: (0, 0, 0), 1: (0, 1, 0)}

    def test_rectangular_band(self):
        rms, _ = rees_decomposition(validate_semigroup(oracles.band22_table()))
        assert rms.group.n == 1
        assert (rms.i_count, rms.lambda_count) == (2, 2)
        assert all(v == 0 for row in rms.sandwich for v in row)

    def test_t2_kernel(self):
        m = t2()
        sub, _ = sub_semigroup(m, kernel(m).subset)
        rms, mapping = rees_decomposition(sub)
        assert rms.group.n == 1
        assert rms.i_count == 1 and rms.lambda_count == 2
        assert verify_rees_iso(sub, rms, mapping)

    def test_counts_match_minimal_ideals(self, corpus):
        for name, m in corpus[:40]:
            sub, _ = sub_semigroup(m, kernel(m).subset)
            if sub.n > 16:
                continue
            rms, mapping = rees_decomposition(sub)
            assert rms.size == sub.n, name
            lefts = minimal_left_ideals(sub)
            rights = minimal_right_ideals(sub)
            assert rms.i_count == len(rights), name
            assert rms.lambda_count == len(lefts), name
            # each minimal left ideal holds one G-coset per minimal right ideal
            assert len(lefts[0].members) == rms.i_count * rms.group.n, name
            assert len(rights[0].members) == rms.lambda_count * rms.group.n, name

    def test_requires_simplicity(self):
        with pytest.raises(NotSimple):
            rees_decomposition(t2().base)

    def test_round_trip_counts(self):
        rms = ReesMatrixSemigroup(z2(), 2, 2, ((0, 1), (1, 0)))
        again, _ = rees_decomposition(expand(rms))
        assert (again.i_count, again.group.n, again.lambda_count) == (2, 2, 2)
        # and the two expansions are isomorphic semigroups (oracle search, n <= 7 skipped here)
        assert expand(again).n == expand(rms).n


    def test_a_sandwich_entry_outside_g_is_a_decomposition_failure(self):
        # a shape-checked, non-associative table whose y*x leaves G; it
        # raised a raw KeyError from the sandwich
        (m,) = generate(CorpusSpec("rees_sample", ("symmetric", 3, 2, 2), seed=0))
        sub, _ = sub_semigroup(m, [v for v in range(m.n) if v != m.identity])
        table = [list(row) for row in sub.table]
        assert table[1][12] == 4
        table[1][12] = 22
        with pytest.raises(DecompositionFailure, match=r"sandwich entry \(1, 1\) = 1\*12 = 22"):
            rees_decomposition(FiniteSemigroup(table))

    @pytest.mark.parametrize("entry, detail", [((0, 1, 0), "G does not act on R as a group at 1"),
                                               ((1, 0, 5), "G does not act on L as a group at 5")])
    def test_a_broken_group_action_is_named(self, entry, detail):
        # one entry of a simple table changed, so that the images of a member
        # under G leave its orbit; the sweep read the orbits off all the same
        (m,) = generate(CorpusSpec("rees_sample", ("cyclic", 2, 2, 2), seed=0))
        sub, _ = sub_semigroup(m, kernel(m).subset)
        table = [list(row) for row in sub.table]
        a, b, v = entry
        table[a][b] = v
        with pytest.raises(DecompositionFailure) as err:
            rees_decomposition(FiniteSemigroup(table))
        assert str(err.value) == detail


# the shapes (group family, order parameter, I, Lambda) of the benchmark's
# rees_roundtrip workload: 36 to 120 elements
ROUND_TRIP_SHAPES = [("symmetric", 3, 2, 3), ("cyclic", 4, 3, 3), ("cyclic", 4, 3, 4),
                     ("symmetric", 3, 3, 3), ("cyclic", 4, 4, 4), ("cyclic", 4, 2, 8),
                     ("cyclic", 4, 4, 5), ("symmetric", 3, 4, 4), ("symmetric", 3, 4, 5),
                     ("cyclic", 4, 5, 6)]


def relabelled_shape(shape):
    """The group and a relabelled expansion of a Rees matrix semigroup of
    ``shape``, its sandwich drawn from a generator seeded by the shape."""
    family, param, i_count, lambda_count = shape
    rng = random.Random(str(shape))
    group = generate(CorpusSpec(f"{family}_group", (param,)))[0]
    sandwich = tuple(tuple(rng.randrange(group.n) for _ in range(i_count))
                     for _ in range(lambda_count))
    s = expand(ReesMatrixSemigroup(group, i_count, lambda_count, sandwich))
    perm = list(range(s.n))
    rng.shuffle(perm)
    inv = [0] * s.n
    for new, old in enumerate(perm):
        inv[old] = new
    return group, validate_semigroup([[inv[s.table[a][b]] for b in perm] for a in perm])


class TestRoundTrip:
    @pytest.mark.parametrize("shape", ROUND_TRIP_SHAPES, ids=lambda shape: "-".join(map(str, shape)))
    def test_the_trusted_expansion_is_the_checked_one(self, shape, monkeypatch):
        i_count, lambda_count = shape[2:]
        group, moved = relabelled_shape(shape)
        decomposed = []
        decompose = rees._decompose

        def recorded(target, gens):
            decomposed.append(target)
            return decompose(target, gens)

        monkeypatch.setattr(rees, "_decompose", recorded)
        rms, mapping, again = rees_round_trip(moved)
        assert 36 <= moved.n <= 120 and decomposed[0] is moved and len(decomposed) == 2
        expanded = expand(rms)
        assert decomposed[1] == expanded and decomposed[1].labels == expanded.labels
        assert (again.i_count, again.group.n, again.lambda_count) == (
            rms.i_count, rms.group.n, rms.lambda_count) == (i_count, group.n, lambda_count)
        assert verify_rees_iso(moved, rms, mapping)
        assert_expands_as_validated(rms)
        assert_expands_as_validated(again)

    @pytest.mark.parametrize("shape", ROUND_TRIP_SHAPES, ids=lambda shape: "-".join(map(str, shape)))
    def test_the_certificate_fails_with_the_oracle(self, shape):
        # certified on Light's generators, the decomposition passes where all
        # n^2 products do; a mapping with a few images moved fails with the
        # oracle, at the same first pair
        _, moved = relabelled_shape(shape)
        gens = word_generators(moved.table)
        rms, mapping = rees._decompose(moved, gens)
        assert oracles.rees_iso_verdict(moved.table, rms, mapping) == (True, None)
        rng = random.Random(str(shape))
        for k in (2, 3, moved.n):
            wrong = dict(mapping)
            chosen = rng.sample(range(moved.n), k)
            wrong.update(zip(chosen, [mapping[v] for v in chosen[1:] + chosen[:1]]))
            code = [rms.triple_index(wrong[v]) for v in range(moved.n)]
            verdict = rees._multiplicative(moved.table, code, rms.table, gens)
            assert not verdict
            assert (verdict.ok, verdict.detail) == oracles.rees_iso_verdict(moved.table, rms, wrong)


class TestVerify:
    def test_identity_mapping_on_expansion(self):
        rms = ReesMatrixSemigroup(z2(), 1, 2, ((0,), (1,)))
        s = expand(rms)
        mapping = {rms.triple_index(t): t for t in rms.triples()}
        assert verify_rees_iso(s, rms, mapping)

    def test_detects_a_swapped_pair(self):
        rms = ReesMatrixSemigroup(z2(), 1, 2, ((0,), (1,)))
        s = expand(rms)
        mapping = {rms.triple_index(t): t for t in rms.triples()}
        triples = rms.triples()
        a, b = rms.triple_index(triples[0]), rms.triple_index(triples[1])
        mapping[a], mapping[b] = mapping[b], mapping[a]
        verdict = verify_rees_iso(s, rms, mapping)
        assert not verdict and "multiplicative" in verdict.detail

    def test_size_mismatch(self):
        rms = ReesMatrixSemigroup(z2(), 1, 1, ((0,),))
        verdict = verify_rees_iso(t2().base, rms, {i: (0, 0, 0) for i in range(4)})
        assert not verdict


    @pytest.mark.parametrize("change, detail", [
        (lambda m: m.update({0: (0, 0)}), "image (0, 0) of 0 is not a valid triple"),
        (lambda m: m.update({0: (0, 0, 0, 0)}), "image (0, 0, 0, 0) of 0 is not a valid triple"),
        (lambda m: m.update({0: ("0", 0, 0)}), "image ('0', 0, 0) of 0 is not a valid triple"),
        (lambda m: m.update({0: (0, None, 0)}), "image (0, None, 0) of 0 is not a valid triple"),
        (lambda m: m.update({0: None}), "image None of 0 is not a valid triple"),
        (lambda m: m.update({0: "abc"}), "image 'abc' of 0 is not a valid triple"),
        (lambda m: m.update({0: (0, 1.0, 0)}), "image (0, 1.0, 0) of 0 is not a valid triple"),
        (lambda m: m.update({0: (0, True, 0)}), "image (0, True, 0) of 0 is not a valid triple"),
        (lambda m: m.update({0: (0, -1, 0)}), "image (0, -1, 0) of 0 is not a valid triple"),
        (lambda m: m.update({"a": m.pop(3)}), "mapping key 'a' is not an element of S"),
        (lambda m: m.update({None: m.pop(3)}), "mapping key None is not an element of S"),
        (lambda m: m.update({3.0: m.pop(3)}), "mapping key 3.0 is not an element of S"),
        (lambda m: m.update({True: m.pop(1)}), "mapping key True is not an element of S"),
    ], ids=["short", "long", "str", "None entry", "None", "str image", "float", "bool",
            "negative", "str key", "None key", "float key", "bool key"])
    def test_a_malformed_mapping_is_a_failed_check(self, change, detail):
        rms = ReesMatrixSemigroup(z2(), 2, 2, ((0, 1), (1, 0)))
        s = expand(rms)
        mapping = {rms.triple_index(t): t for t in rms.triples()}
        assert verify_rees_iso(s, rms, mapping)
        change(mapping)
        verdict = verify_rees_iso(s, rms, mapping)
        assert not verdict and verdict.detail == detail

    def test_list_images_are_read_as_triples(self):
        rms = ReesMatrixSemigroup(z2(), 1, 2, ((0,), (1,)))
        s = expand(rms)
        assert verify_rees_iso(s, rms, {rms.triple_index(t): list(t) for t in rms.triples()})


class TestTableSpeed:
    def test_rees_layer_never_multiplies_triples_one_at_a_time(self, monkeypatch, tmp_path):
        group = Monoid(validate_semigroup(oracles.cyclic_table(4)), 0)
        rng = random.Random(0)
        sandwich = tuple(tuple(rng.randrange(4) for _ in range(5)) for _ in range(6))
        s = expand(ReesMatrixSemigroup(group, 5, 6, sandwich))
        perm = list(range(s.n))
        rng.shuffle(perm)
        inv = [0] * s.n
        for new, old in enumerate(perm):
            inv[old] = new
        moved = validate_semigroup([[inv[s.table[a][b]] for b in perm] for a in perm])
        path = tmp_path / "sample.cayley"
        path.write_text(dump_cayley(moved))

        def refuse(self, t1, t2):
            raise AssertionError("a product of two triples was formed")

        monkeypatch.setattr(ReesMatrixSemigroup, "mul", refuse)
        assert s.n == 120
        assert expand(ReesMatrixSemigroup(group, 5, 6, sandwich)).table == s.table
        rms, _ = rees_decomposition(moved)
        assert (rms.i_count, rms.group.n, rms.lambda_count) == (5, 4, 6)
        assert cli.main(["--quiet", "--json", str(tmp_path / "r.json"), "rees", str(path)]) == 0


class TestJson:
    def test_round_trip(self):
        rms = ReesMatrixSemigroup(z2(), 2, 1, ((1, 0),))
        again = rees_from_json_dict(rees_to_json_dict(rms))
        assert again == rms

    def test_schema_fields(self):
        payload = rees_to_json_dict(ReesMatrixSemigroup(z2(), 1, 1, ((0,),)))
        assert list(payload) == ["group_table", "I", "Lambda", "P"]

    def test_bad_payload(self):
        with pytest.raises(FormatError):
            rees_from_json_dict({"I": 1})
        with pytest.raises(NotAGroup):
            rees_from_json_dict(
                {"group_table": [[0, 0], [1, 1]], "I": 1, "Lambda": 1, "P": [[0]]}
            )
