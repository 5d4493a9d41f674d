import random

import pytest

import oracles
from monocat import core
from monocat.bimodule import regular_bimodule, tensor
from monocat.connectivity import are_connected
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
from monocat.ideals import group_of, kernel
from monocat.rees import ReesMatrixSemigroup, expand
from monocat.twocat import category_from_monoid, standardize


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

    def test_a_label_count_that_is_not_the_size_is_a_format_error(self):
        with pytest.raises(FormatError) as err:
            FiniteSemigroup(oracles.lz2_table(), labels=("a", "b", "c"))
        assert str(err.value) == "3 labels for 2 elements"


def one_entry_mutant(table, rng):
    """``table`` with one entry changed to another element."""
    rows = [list(row) for row in table]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows[i][j] = rng.choice([v for v in range(len(rows)) if v != rows[i][j]])
    return rows


def assert_agrees_with_the_exhaustive_scan(table):
    """``validate_semigroup`` refuses ``table`` exactly when the oracle finds a
    violation, naming the same triple; returns whether it refused."""
    expected = oracles.assoc_violation(table)
    if expected is None:
        validate_semigroup(table)
        return False
    with pytest.raises(NotAssociative) as err:
        validate_semigroup(table)
    assert err.value.triple == expected
    return True


class TestLightTestRowForms:
    """A table of at most 256 elements is tested as byte rows, a larger one
    as tuples; both agree with the exhaustive scan."""

    def test_one_entry_mutants_agree_with_the_exhaustive_scan(self, corpus):
        rng = random.Random(22)
        group = Monoid(validate_semigroup(oracles.cyclic_table(4)), 0)
        sandwich = tuple(tuple(rng.randrange(4) for _ in range(5)) for _ in range(6))
        rees = expand(ReesMatrixSemigroup(group, 5, 6, sandwich)).table
        tables = [m.table for _, m in corpus if m.n > 1] * 3 + [rees] * 20
        refused = [assert_agrees_with_the_exhaustive_scan(one_entry_mutant(t, rng))
                   for t in tables]
        # most mutants break the law, and some do not: both verdicts are reached
        assert len(rees) == 120 and 500 <= sum(refused) < len(refused)

    def test_the_largest_byte_row_table_and_its_mutants(self):
        table = full_transformation_monoid(4).table
        assert len(table) == 256 and validate_semigroup(table)
        for j in (1, 7, 200):  # a changed row 0 fails early, which keeps the oracle short
            mutant = [list(row) for row in table]
            mutant[0][j] = table[0][j] ^ 1
            assert assert_agrees_with_the_exhaustive_scan(mutant)

    def test_a_table_over_256_elements_is_tested_as_tuples(self):
        # bytes() refuses an entry of 256, so the byte form cannot have run
        table = adjoin_identity(full_transformation_monoid(4)).table
        assert len(table) == 257 and validate_semigroup(table)
        mutant = [list(row) for row in table]
        mutant[0][1] = table[0][1] ^ 1
        assert assert_agrees_with_the_exhaustive_scan(mutant)
        assert oracles.assoc_violation(mutant) == (0, 1, 32)


SHAPE = "table must be square and nonempty"


def verdict(table, bound, rows=None, cols=None):
    """``checked_table``'s result for ``table``, or its error type and message
    with the ``OutOfRange`` position."""
    rows = len(table) if rows is None else rows
    cols = len(table[0]) if cols is None else cols
    try:
        return core.checked_table(table, rows, cols, bound, SHAPE)
    except (FormatError, OutOfRange) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


class TestCheckedTableRowForms:
    """Byte rows with a bound of at most 256 are checked by their type and one
    deletion; every other table, and every failure, by the entry scan."""

    def test_one_entry_mutants_agree_with_tuple_rows(self, corpus):
        rng = random.Random(23)
        group = Monoid(validate_semigroup(oracles.cyclic_table(4)), 0)
        sandwich = tuple(tuple(rng.randrange(4) for _ in range(5)) for _ in range(6))
        rees = expand(ReesMatrixSemigroup(group, 5, 6, sandwich)).table
        tables = [m.table for _, m in corpus] + [rees]
        assert len(rees) == 120 and len(tables) == 183
        for table in tables:
            n = len(table)
            result = verdict(list(map(bytes, table)), n)
            assert result == table == verdict(table, n)
            assert all(type(row) is tuple for row in result)
            assert {type(v) for row in result for v in row} == {int}
            i, j = rng.randrange(n), rng.randrange(n)
            for value in (n, n + 1, 255):
                mutant = [list(row) for row in table]
                mutant[i][j] = value
                as_bytes = verdict(list(map(bytes, mutant)), n)
                assert as_bytes == verdict(list(map(tuple, mutant)), n)
                assert as_bytes == (OutOfRange, f"table entry at ({i},{j}) is not an element index",
                                    (i, j))

    def test_the_first_bad_entry_is_named(self):
        rows = [b"\x00\x05\x01", b"\x09\x00\x00", b"\x00\x00\x00"]
        assert verdict(rows, 3)[2] == verdict(list(map(tuple, rows)), 3)[2] == (0, 1)

    @pytest.mark.parametrize("table, bound, rows, cols, expected", [
        # bound above 256: the scan passes entries up to 255
        ([b"\x00\xff", b"\x01\x00"], 300, 2, 2, ((0, 255), (1, 0))),
        ([b"\x00\xff"], 257, 1, 2, ((0, 255),)),
        # mixed byte and tuple rows
        ([b"\x00\x01", (1, 0)], 2, 2, 2, ((0, 1), (1, 0))),
        ([b"\x00\x01", (1, 2)], 2, 2, 2, (OutOfRange, "table entry at (1,1) is not an element index",
                                          (1, 1))),
        ([b"\x00\x02", (1, 0)], 2, 2, 2, (OutOfRange, "table entry at (0,1) is not an element index",
                                          (0, 1))),
        # bool entries in tuple rows are no indices
        ([(0, True), (1, 0)], 2, 2, 2, (OutOfRange, "table entry at (0,1) is not an element index",
                                        (0, 1))),
        ([b"\x00\x01", (False, 0)], 2, 2, 2, (OutOfRange,
                                              "table entry at (1,0) is not an element index",
                                              (1, 0))),
        # a bytearray is no bytes: scanned, with the same result
        ([bytearray(b"\x00\x01"), b"\x01\x00"], 2, 2, 2, ((0, 1), (1, 0))),
        # byte rows of the wrong shape
        ([b"\x00\x01", b"\x01"], 2, 2, 2, (FormatError, SHAPE, None)),
        ([b"\x00\x01"], 2, 2, 2, (FormatError, SHAPE, None)),
        ([], 2, 0, 0, (FormatError, SHAPE, None)),
    ], ids=["bound-300", "bound-257", "mixed", "mixed-bad-tuple", "mixed-bad-bytes", "bool",
            "mixed-bool", "bytearray", "short-row", "missing-row", "empty"])
    def test_other_row_forms_keep_their_result(self, table, bound, rows, cols, expected):
        assert verdict(table, bound, rows, cols) == expected


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

    def test_an_empty_subset_has_no_sub_semigroup(self):
        s = validate_semigroup(oracles.lz2_table())
        for members in ((), Subset(s, ())):
            with pytest.raises(BadSubset) as err:
                sub_semigroup(s, members)
            assert str(err.value) == "cannot restrict to the empty subset"


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

    # the same, at row 0 of C_n, whose entry (0, j) is j: byte rows up to
    # 256 elements, tuple rows above; "007" and "-0" spell the entry they
    # replace, so the table is unchanged
    @pytest.mark.parametrize("n", [8, 120, 256, 257])
    @pytest.mark.parametrize("token, column, error", [
        ("n", 1, OutOfRange),
        ("007", 7, None),
        ("-0", 0, None),
        ("+1", 1, FormatError),
        ("1_0", 1, FormatError),
        ("\u0663", 3, FormatError),
    ], ids=["n", "007", "-0", "+1", "1_0", "arabic-3"])
    def test_one_token_off_the_lookup_at_any_size(self, n, token, column, error):
        table = oracles.cyclic_table(n)
        row = [str(v) for v in table[0]]
        row[column] = str(n) if token == "n" else token
        line = " ".join(row)
        text = "\n".join([str(n), line, *(" ".join(map(str, r)) for r in table[1:])]) + "\n"
        if error is None:
            assert parse_cayley(text).table == tuple(map(tuple, table))
            return
        with pytest.raises(error) as raised:
            parse_cayley(text)
        expected = (f"table entry at (0,{column}) is not an element index" if error is OutOfRange
                    else f"bad table row: {line!r}")
        assert type(raised.value) is error and str(raised.value) == expected

    def test_wrong_identity_is_a_violation(self):
        with pytest.raises(InvalidIdentity):
            parse_cayley("2\n0 1\n1 0\nidentity 1\n")


def _reprs():
    """One value of each class that defines ``__repr__``, with its repr."""
    z2 = Monoid(validate_semigroup(oracles.cyclic_table(2)), 0)
    category = "TwoObjectCategory(|A|=4, |L|=1, |R|=2, |G|=1)"
    cases = [
        (lambda: t2().base, "FiniteSemigroup(n=4)"),
        (t2, "Monoid(n=4, identity=1)"),
        (lambda: Subset(t2().base, (2, 0, 2)), "Subset([0, 2])"),
        (lambda: kernel(t2()), "IdealSubset(two-sided, [0, 3])"),
        (lambda: group_of(t2()), "GroupHandle([0], identity=0)"),
        (lambda: ReesMatrixSemigroup(z2, 2, 1, ((0, 1),)),
         "ReesMatrixSemigroup(|G|=2, I=2, Lambda=1)"),
        (lambda: regular_bimodule(z2), "Bimodule(|A|=2, |X|=2, |B|=2)"),
        (lambda: tensor(regular_bimodule(z2), regular_bimodule(z2)), "TensorSet(classes=2)"),
        (lambda: category_from_monoid(t2()), category),
        (lambda: standardize(category_from_monoid(t2())), f"Standardization(x=0, y=0, {category})"),
        (lambda: are_connected(t2(), t2()), "ConnectivityResult(connected=True)"),
    ]
    return [pytest.param(build, text, id=text.split("(")[0]) for build, text in cases]


@pytest.mark.parametrize("build, text", _reprs())
def test_each_repr_names_the_sizes(build, text):
    assert repr(build()) == text
