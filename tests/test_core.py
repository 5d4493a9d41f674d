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
    kept_generators,
    orbit_failure,
    orbits,
    parse_cayley,
    sub_semigroup,
    validate_semigroup,
    word_generators,
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

    def test_latin_rows_and_a_column_that_is_not(self):
        # no monoid has this table (each row a permutation makes a finite
        # monoid a group); the identity holds, and column 1 is (1, 0, 0)
        table = [[0, 1, 2], [1, 0, 2], [2, 0, 1]]
        assert all(sorted(row) == [0, 1, 2] for row in table)
        assert not is_group(Monoid(FiniteSemigroup(table), 0))


class TestKeptGenerators:
    """``validate_semigroup`` keeps the generators its Light's test passed on,
    the verdict that a category's Light's test reads."""

    def test_a_validated_table_keeps_its_word_generators(self, corpus):
        for name, m in corpus[::7]:
            s = validate_semigroup(m.table)
            assert kept_generators(s) == tuple(word_generators(s.table)), name
            assert oracles.generated(s.table, kept_generators(s)) == set(range(s.n)), name

    def test_a_parsed_table_keeps_them_on_its_monoid_base(self):
        m = parse_cayley(dump_cayley(t2()))
        assert kept_generators(m.base) == tuple(word_generators(m.table))

    def test_tables_not_validated_here_keep_none(self):
        s = validate_semigroup(oracles.t2_table())
        sub, _ = sub_semigroup(s, [0, 3])
        for derived in (FiniteSemigroup(oracles.t2_table()), adjoin_identity(s).base, sub):
            assert kept_generators(derived) is None


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


class TestOrbits:
    def test_a_group_action(self):
        # Z4 acting on itself by addition has one orbit, its subgroup Z2 =
        # {0, 2} two: the images x*G of each x in order of x
        z4 = oracles.cyclic_table(4)
        assert orbits(range(4), z4) == [(0, 1, 2, 3)]
        assert orbits(range(4), [(row[0], row[2]) for row in z4]) == [(0, 2), (1, 3)]
        assert orbit_failure(range(4), z4) is None

    def test_members_keep_their_ambient_indices(self):
        assert orbits((5, 7, 9), [(7, 5), (5, 7), (9, 9)]) == [(5, 7), (9,)]

    @pytest.mark.parametrize("members, images, first", [
        # the image sets {0, 1} and {1, 2} overlap
        (range(3), [(0, 1), (1, 2), (2, 2)], 0),
        # 1 is not among its own images
        (range(2), [(0, 0), (0, 0)], 1),
        # an image that is no member
        ((0, 1), [(0, 2), (1, 1)], 0),
    ])
    def test_a_failed_test_is_named(self, members, images, first):
        assert orbits(members, images) is None
        assert orbit_failure(members, images) == first


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

    # lines end at LF, CR LF or CR alone: the other characters str.splitlines
    # breaks at stay inside a comment line
    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029"])
    def test_a_comment_line_may_hold_a_line_separator(self, separator):
        m = parse_cayley(f"# page{separator}break\n2\n0 1\n1 0\nidentity 0\n")
        assert isinstance(m, Monoid) and m.table == ((0, 1), (1, 0)) and m.identity == 0

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lines_end_at_lf_crlf_or_cr(self, end):
        m = parse_cayley(end.join(["# a group", "2", "0 1", "1 0", "identity 0", ""]))
        assert m.table == ((0, 1), (1, 0)) and m.identity == 0

    def test_a_row_split_by_a_line_separator_is_one_line(self):
        with pytest.raises(FormatError) as raised:
            parse_cayley("2\n0 1\x0c1 0\n")
        assert str(raised.value) == "expected 2 table rows, found 1"

    def test_bad_inputs(self):
        for text in ["", "x", "2\n0 1\n", "2\n0 1\n1 0\njunk 3\n", "1\n0\nidentity q\n",
                     "1\n0\nidentityX 0\n", "1\n0\nidentity 0 junk\n", "1\n0\nidentity\n"]:
            with pytest.raises(FormatError):
                parse_cayley(text)

    def test_numbers_are_ascii_digits(self):
        for tok in ["0", "00", "-0"]:
            assert parse_cayley(f"1\n{tok}\nidentity {tok}\n").identity == 0
        # 0 and 1 as int() reads them: sign, underscore, Arabic-Indic, fullwidth, bold
        for zero, one in [("+0", "+1"), ("0_0", "0_1"), ("\u0660", "\u0661"),
                          ("\uff10", "\uff11"), ("\U0001d7ce", "\U0001d7cf")]:
            for text in [f"{one}\n0\n", f"1\n{zero}\n", f"1\n0\nidentity {zero}\n"]:
                with pytest.raises(FormatError):
                    parse_cayley(text)
        # the rule is on numbers: any whitespace str.split knows still separates them
        assert parse_cayley("2\n0\u00a01\n1\u20031\n").table == ((0, 1), (1, 1))

    # a row of the entries str(0)..str(n-1) decodes by lookup; any other
    # token is read as int reads it, with the table or the error of the int path
    @pytest.mark.parametrize("token, outcome", [
        ("0", ((0, 1), (1, 0))),
        ("00", ((0, 1), (1, 0))),
        ("-0", ((0, 1), (1, 0))),
        ("007", (OutOfRange, "table entry at (1,1) is not an element index")),
        ("-1", (OutOfRange, "table entry at (1,1) is not an element index")),
        ("2", (OutOfRange, "table entry at (1,1) is not an element index")),
        ("+1", (FormatError, "bad table row: '1 +1'")),
        ("1_0", (FormatError, "bad table row: '1 1_0'")),
        ("\u0660", (FormatError, "bad table row: '1 \u0660'")),
        ("\uff10", (FormatError, "bad table row: '1 \uff10'")),
        ("n", (FormatError, "bad table row: '1 n'")),
    ], ids=["plain", "00", "-0", "007", "-1", "2", "+1", "1_0", "arabic", "fullwidth", "n"])
    def test_a_token_off_the_lookup_reads_as_int_reads_it(self, token, outcome):
        text = f"2\n0 1\n1 {token}\n"
        if isinstance(outcome, tuple) and isinstance(outcome[0], type):
            error, message = outcome
            with pytest.raises(error) as raised:
                parse_cayley(text)
            assert str(raised.value) == message
        else:
            assert parse_cayley(text).table == outcome

    def test_wrong_identity_is_a_violation(self):
        with pytest.raises(InvalidIdentity):
            parse_cayley("2\n0 1\n1 0\nidentity 1\n")
