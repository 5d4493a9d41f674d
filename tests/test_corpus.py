import pytest

import oracles
from monocat import corpus as corpus_module
from monocat.connectivity import group_of
from monocat.core import closure, find_identity, is_group, parse_cayley
from monocat.corpus import (
    CorpusSpec,
    dump_corpus,
    full_transformation_monoid,
    generate,
    standard_corpus,
)
from monocat.errors import BoundsExceeded, FormatError


class TestFamilies:
    def test_left_zero(self):
        (m,) = generate(CorpusSpec("left_zero", (2,)))
        assert m.n == 3 and m.identity == 2
        assert [row[:2] for row in [list(r) for r in m.table[:2]]] == oracles.lz2_table()

    def test_rectangular_band(self):
        (m,) = generate(CorpusSpec("rectangular_band", (2, 2)))
        assert m.n == 5
        assert [list(r[:4]) for r in m.table[:4]] == oracles.band22_table()

    def test_cyclic_group(self):
        (m,) = generate(CorpusSpec("cyclic_group", (4,)))
        assert is_group(m) and m.table == tuple(tuple(r) for r in oracles.cyclic_table(4))

    def test_symmetric_group_identity_first(self):
        (m,) = generate(CorpusSpec("symmetric_group", (3,)))
        assert m.n == 6 and m.identity == 0 and is_group(m)

    def test_t2_appears_among_pair_generated_submonoids(self):
        subs = generate(CorpusSpec("transformation_submonoids", (2, 2)))
        t2 = full_transformation_monoid(2)
        assert any(m.table == t2.table for m in subs)

    def test_rees_sample_is_deterministic(self):
        spec = CorpusSpec("rees_sample", ("cyclic", 2, 2, 2), seed=9)
        (a,) = generate(spec)
        (b,) = generate(spec)
        assert a.table == b.table
        (c,) = generate(CorpusSpec("rees_sample", ("cyclic", 2, 2, 2), seed=10))
        assert a.n == c.n == 9


class TestBounds:
    def test_too_many_points(self):
        with pytest.raises(BoundsExceeded):
            generate(CorpusSpec("transformation_submonoids", (5, 2)))

    @pytest.mark.parametrize("family, params", [
        ("left_zero", (65,)), ("right_zero", (65,)), ("rectangular_band", (5, 13))])
    def test_band_size_cap(self, family, params):
        with pytest.raises(BoundsExceeded):
            generate(CorpusSpec(family, params))

    def test_symmetric_group_cap_comes_before_the_permutations(self, monkeypatch):
        def refuse(m):
            raise AssertionError("the permutations were listed")

        monkeypatch.setattr("monocat.corpus._symmetric_group", refuse)
        with pytest.raises(BoundsExceeded):
            generate(CorpusSpec("symmetric_group", (5,)))

    def test_a_negative_point_count_is_refused_before_the_permutations(self, monkeypatch):
        # before, permutations(range(-5)) listed one empty permutation, and
        # the spec built a one-element "group" S_0
        def refuse(m):
            raise AssertionError("the permutations were listed")

        monkeypatch.setattr("monocat.corpus._symmetric_group", refuse)
        with pytest.raises(BoundsExceeded):
            generate(CorpusSpec("symmetric_group", (-5,)))

    def test_the_symmetric_group_on_no_points_is_trivial(self):
        (m,) = generate(CorpusSpec("symmetric_group", (0,)))
        assert m.table == ((0,),) and m.identity == 0

    # before, these built an empty table and ended in the constructor's
    # "table must be square and nonempty", which names no parameter
    @pytest.mark.parametrize("family, params", [
        ("cyclic_group", (0,)), ("cyclic_group", (-5,)), ("left_zero", (0,)),
        ("right_zero", (-2,)), ("rectangular_band", (2, 0)), ("rectangular_band", (-1, -1))])
    def test_a_size_below_one_is_refused_before_it_is_built(self, family, params, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr("monocat.corpus.validate_semigroup", refuse)
        with pytest.raises(BoundsExceeded):
            generate(CorpusSpec(family, params))

    @pytest.mark.parametrize("family, size", [("cyclic_group", 1), ("left_zero", 2)])
    def test_the_least_sizes_are_built(self, family, size):
        (m,) = generate(CorpusSpec(family, (1,)))
        assert m.n == size

    def test_a_negative_point_count_is_refused_before_the_maps(self, monkeypatch):
        # before, itertools.product raised a bare ValueError
        def refuse(n):
            raise AssertionError("the maps were listed")

        monkeypatch.setattr("monocat.corpus._full_transformation_table", refuse)
        with pytest.raises(BoundsExceeded):
            full_transformation_monoid(-1)

    def test_the_transformations_of_no_points_are_trivial(self):
        m = full_transformation_monoid(0)
        assert m.table == ((0,),) and m.identity == 0

    def test_group_order_cap(self):
        with pytest.raises(BoundsExceeded):
            generate(CorpusSpec("cyclic_group", (25,)))

    def test_expanded_size_cap(self):
        with pytest.raises(BoundsExceeded):
            generate(CorpusSpec("rees_sample", ("cyclic", 6, 4, 4), seed=0))

    @pytest.mark.parametrize("params", [(4, 2), (4, 3), (3, 10**12), (-1, 2)])
    def test_transformation_generator_sets_are_counted_before_any_is_closed(
            self, params, monkeypatch):
        # (4, 2) has 32,640 generator sets (15 s to close), (4, 3) 2.8 million
        # and (3, 10**12) about 1.3e8: before, all were walked, and -1 points
        # ended in a ValueError
        def refuse(table, seeds):
            raise AssertionError("a generator set was closed")

        monkeypatch.setattr("monocat.corpus.closure", refuse)
        with pytest.raises(BoundsExceeded):
            generate(CorpusSpec("transformation_submonoids", params))

    def test_generator_sets_stop_at_the_monoid_size(self, monkeypatch):
        # T_2 has four maps, so only 11 sets however large the second parameter
        closed = []

        def counted(table, seeds):
            closed.append(seeds)
            return closure(table, seeds)

        monkeypatch.setattr(corpus_module, "closure", counted)
        unbounded = generate(CorpusSpec("transformation_submonoids", (2, 10**12)))
        assert len(closed) == 11
        assert [m.table for m in unbounded] == [
            m.table for m in generate(CorpusSpec("transformation_submonoids", (2, 4)))]

    # a negative point count built S_0 before, and a cyclic order of 0 an empty table
    @pytest.mark.parametrize("params", [("symmetric", 30, 1, 1), ("cyclic", 10**9, 1, 1),
                                        ("symmetric", -1, 2, 2), ("cyclic", 0, 2, 2)])
    def test_rees_sample_group_is_bounded_before_it_is_built(self, params, monkeypatch):
        def refuse(m):
            raise AssertionError("the group was built")

        monkeypatch.setattr("monocat.corpus._symmetric_group", refuse)
        monkeypatch.setattr("monocat.corpus._cyclic_group", refuse)
        with pytest.raises(BoundsExceeded):
            generate(CorpusSpec("rees_sample", params))

    def test_unknown_family(self):
        with pytest.raises(FormatError):
            CorpusSpec("mystery", ())

    def test_fewer_than_pairs_of_generators_are_refused(self):
        with pytest.raises(BoundsExceeded) as err:
            generate(CorpusSpec("transformation_submonoids", (2, 1)))
        assert str(err.value) == "at least pairs of generators are enumerated"

    def test_an_unknown_group_family_is_a_format_error(self):
        with pytest.raises(FormatError) as err:
            generate(CorpusSpec("rees_sample", ("dihedral", 2, 1, 1)))
        assert str(err.value) == "unknown group family 'dihedral'"


class TestStandardCorpus:
    def test_deterministic(self, corpus):
        again = standard_corpus()
        assert [(n, m.table, m.identity) for n, m in corpus] == [
            (n, m.table, m.identity) for n, m in again
        ]

    def test_every_entry_is_a_monoid(self, corpus):
        for name, m in corpus:
            assert find_identity(m.base) == m.identity, name

    def test_large_and_deduplicated(self, corpus):
        assert len(corpus) >= 100
        tables = {(m.identity, m.table) for _, m in corpus}
        assert len(tables) == len(corpus)

    def test_three_point_family_covers_all_classes(self):
        subs = generate(CorpusSpec("transformation_submonoids", (3, 2)))
        groups = sum(1 for m in subs if is_group(m))
        nontrivial = sum(
            1 for m in subs if not is_group(m) and group_of(m).order > 1
        )
        trivial = sum(
            1 for m in subs if not is_group(m) and group_of(m).order == 1
        )
        assert groups >= 1 and nontrivial >= 1 and trivial >= 1


class TestDump:
    def test_files_reload_identically(self, corpus, tmp_path):
        entries = corpus[:8]
        names = dump_corpus(entries, tmp_path)
        assert len(names) == 8
        for fname, (name, m) in zip(names, entries):
            again = parse_cayley((tmp_path / fname).read_text())
            assert again.table == m.table and again.identity == m.identity
