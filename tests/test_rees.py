import random

import pytest

import oracles
from monocat import cli
from monocat.core import Monoid, adjoin_identity, dump_cayley, sub_semigroup, validate_semigroup
from monocat.errors import FormatError, NotAGroup, NotSimple, OutOfRange
from monocat.ideals import is_simple, kernel, minimal_left_ideals, minimal_right_ideals
from monocat.rees import (
    ReesMatrixSemigroup,
    expand,
    rees_decomposition,
    rees_from_json_dict,
    rees_to_json_dict,
    verify_rees_iso,
)


def z2():
    return Monoid(validate_semigroup(oracles.cyclic_table(2)), 0)


def trivial_group():
    return Monoid(validate_semigroup([[0]]), 0)


def t2():
    return Monoid(validate_semigroup(oracles.t2_table()), oracles.T2_ID)


class TestConstruction:
    def test_group_required(self):
        not_group = adjoin_identity(validate_semigroup(oracles.lz2_table()))
        with pytest.raises(NotAGroup):
            ReesMatrixSemigroup(not_group, 1, 1, ((0,),))

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
        rms = ReesMatrixSemigroup(z2(), 2, 2, ((0, 1), (1, 1)))
        assert is_simple(expand(rms))


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
