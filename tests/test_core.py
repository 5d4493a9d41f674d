import random

import pytest

import oracles
from monocat import core
from monocat.core import (
    FiniteSemigroup,
    Monoid,
    Subset,
    adjoin_identity,
    dump_cayley,
    find_identity,
    generated_subsemigroup,
    idempotents,
    is_group,
    parse_cayley,
    validate_semigroup,
)
from monocat.corpus import full_transformation_monoid, standard_corpus
from monocat.errors import (
    BadSubset,
    EmptyGenerators,
    FormatError,
    InvalidIdentity,
    NotAssociative,
    OutOfRange,
    TheoremViolation,
)
from monocat.rees import ReesMatrixSemigroup, expand


def t2():
    return Monoid(validate_semigroup(oracles.t2_table()), oracles.T2_ID)


class TestValidateSemigroup:
    def test_singleton(self):
        s = validate_semigroup([[0]])
        assert s.n == 1

    def test_left_zero(self):
        s = validate_semigroup(oracles.lz2_table())
        assert s.n == 2
        assert all(s.mul(i, j) == i for i in range(2) for j in range(2))

    def test_nonassociative_rejected(self):
        # oracle: the lexicographically first non-associative 3-element table
        table = oracles.first_nonassociative_table(3)
        expected = oracles.assoc_violation(table)
        with pytest.raises(NotAssociative) as err:
            validate_semigroup(table)
        assert err.value.triple == expected

    def test_out_of_range(self):
        with pytest.raises(OutOfRange) as err:
            validate_semigroup([[0, 2], [1, 1]])
        assert err.value.position == (0, 1)

    def test_not_square(self):
        with pytest.raises(FormatError):
            validate_semigroup([[0, 0]])

    def test_corpus_is_exhaustively_associative(self, corpus):
        for name, m in corpus:
            assert m.n <= 64
            assert oracles.assoc_violation(m.table) is None, name

    def test_valid_tables_never_take_the_exhaustive_scan(self, monkeypatch):
        def refuse(table):
            raise AssertionError("exhaustive scan on a valid table")

        monkeypatch.setattr(core, "_first_violation", refuse)
        with pytest.raises(AssertionError, match="exhaustive scan"):
            validate_semigroup(oracles.first_nonassociative_table(3))
        assert len(standard_corpus()) == 182
        assert full_transformation_monoid(4).n == 256
        group = Monoid(validate_semigroup(oracles.cyclic_table(4)), 0)
        rng = random.Random(0)
        sandwich = tuple(tuple(rng.randrange(4) for _ in range(5)) for _ in range(6))
        assert expand(ReesMatrixSemigroup(group, 5, 6, sandwich)).n == 120

    def test_a_scan_that_finds_nothing_is_a_typed_error(self, monkeypatch):
        # the scan runs only after Light's test failed; if it then finds no
        # triple the fault is monocat's, reported as a theorem violation,
        # which python -O does not strip
        monkeypatch.setattr(core, "_passes_light_test", lambda table: False)
        with pytest.raises(TheoremViolation, match="has a violation"):
            validate_semigroup(oracles.cyclic_table(3))


class TestFindIdentity:
    def test_z2(self):
        assert find_identity(validate_semigroup([[0, 1], [1, 0]])) == 0

    def test_left_zero_has_none(self):
        assert find_identity(validate_semigroup(oracles.lz2_table())) is None

    def test_t2(self):
        # oracle: exhaustive scan over the 4x4 table
        table = oracles.t2_table()
        assert oracles.brute_identity(table) == oracles.T2_ID
        assert find_identity(validate_semigroup(table)) == oracles.T2_ID


class TestAdjoinIdentity:
    def test_left_zero(self):
        s = validate_semigroup(oracles.lz2_table())
        m = adjoin_identity(s)
        assert m.n == 3 and m.identity == 2
        for i in range(2):
            for j in range(2):
                assert m.mul(i, j) == s.mul(i, j)

    def test_always_adds_fresh_element(self):
        z2 = validate_semigroup([[0, 1], [1, 0]])
        m = adjoin_identity(z2)
        assert m.n == 3 and m.identity == 2
        assert oracles.assoc_violation(m.table) is None
        # the old identity keeps its local unit laws but is no longer global
        assert m.mul(0, 1) == 1 and m.mul(0, 2) == 0

    def test_singleton(self):
        m = adjoin_identity(validate_semigroup([[0]]))
        assert m.n == 2 and m.identity == 1
        assert m.mul(0, 0) == 0

    def test_restriction_reproduces_table(self, corpus):
        for name, m in corpus[:20]:
            bigger = adjoin_identity(m.base)
            assert all(
                bigger.table[i][j] == m.table[i][j]
                for i in range(m.n)
                for j in range(m.n)
            ), name


class TestIsGroup:
    def test_z2(self):
        assert is_group(Monoid(validate_semigroup([[0, 1], [1, 0]]), 0))

    def test_t2(self):
        assert not is_group(t2())

    def test_adjoined_left_zero(self):
        assert not is_group(adjoin_identity(validate_semigroup(oracles.lz2_table())))

    def test_agrees_with_inverse_search(self, corpus):
        for name, m in corpus:
            expected = oracles.has_all_inverses(m.table, m.identity)
            assert is_group(m) == expected, name


class TestGeneratedSubsemigroup:
    def test_whole_set_is_closed(self):
        m = t2()
        full = Subset(m.base, tuple(range(4)))
        assert generated_subsemigroup(m, full).members == tuple(range(4))

    def test_swap_generates_the_identity(self):
        m = t2()
        got = generated_subsemigroup(m, (oracles.T2_SWAP,))
        assert got.members == tuple(sorted((oracles.T2_SWAP, oracles.T2_ID)))

    def test_constant_is_idempotent(self):
        m = t2()
        got = generated_subsemigroup(m, (oracles.T2_C0,))
        assert got.members == (oracles.T2_C0,)

    def test_idempotent_operation(self, corpus):
        for name, m in corpus[:25]:
            once = generated_subsemigroup(m, (0,))
            twice = generated_subsemigroup(m, once)
            assert once.members == twice.members, name

    def test_empty_generators(self):
        with pytest.raises(EmptyGenerators):
            generated_subsemigroup(t2(), ())


class TestIdempotents:
    def test_group_has_only_identity(self):
        z2 = validate_semigroup([[0, 1], [1, 0]])
        assert idempotents(z2).members == (0,)

    def test_left_zero_all(self):
        assert idempotents(validate_semigroup(oracles.lz2_table())).members == (0, 1)

    def test_t2(self):
        # oracle: diagonal scan of the table
        table = oracles.t2_table()
        expected = tuple(i for i in range(4) if table[i][i] == i)
        assert expected == (oracles.T2_C0, oracles.T2_ID, oracles.T2_C1)
        assert idempotents(validate_semigroup(table)).members == expected


class TestSubset:
    def test_canonical_form(self):
        s = validate_semigroup(oracles.lz2_table())
        assert Subset(s, (1, 0, 1)).members == (0, 1)

    def test_out_of_range(self):
        s = validate_semigroup(oracles.lz2_table())
        with pytest.raises(BadSubset):
            Subset(s, (0, 5))


class TestMonoid:
    def test_bad_identity(self):
        with pytest.raises(InvalidIdentity):
            Monoid(validate_semigroup(oracles.lz2_table()), 0)


class TestCayleyFormat:
    def test_round_trip_monoid(self):
        m = t2()
        again = parse_cayley(dump_cayley(m))
        assert isinstance(again, Monoid)
        assert again.table == m.table and again.identity == m.identity

    def test_round_trip_semigroup(self):
        s = validate_semigroup(oracles.lz2_table())
        again = parse_cayley(dump_cayley(s))
        assert isinstance(again, FiniteSemigroup)
        assert again.table == s.table

    def test_comments_and_identity_line(self):
        text = "# a group\n2\n0 1\n1 0\n# trailing comment\nidentity 0\n"
        m = parse_cayley(text)
        assert isinstance(m, Monoid) and m.identity == 0

    def test_bad_inputs(self):
        for text in ["", "x", "2\n0 1\n", "2\n0 1\n1 0\njunk 3\n", "1\n0\nidentity q\n",
                     "1\n0\nidentityX 0\n", "1\n0\nidentity 0 junk\n", "1\n0\nidentity\n"]:
            with pytest.raises(FormatError):
                parse_cayley(text)

    def test_wrong_identity_is_a_violation(self):
        with pytest.raises(InvalidIdentity):
            parse_cayley("2\n0 1\n1 0\nidentity 1\n")
