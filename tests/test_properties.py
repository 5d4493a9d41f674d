"""Randomized invariants over generated structures."""

import dataclasses
import random
from itertools import chain
from math import factorial, prod

import pytest
from hypothesis import assume, find, given, settings, strategies as st

import oracles
from monocat import core, rees
from monocat.bimodule import (Bimodule, _orbit_classes, check_bimodule_laws, group_quotient,
                              mult_bijection_check, regular_bimodule)
from monocat.connectivity import (
    are_connected,
    connecting_category,
    group_isomorphism,
    groups_isomorphic,
    table_isomorphism,
)
from monocat.core import (Monoid, Subset, generated_subsemigroup, is_group, sub_semigroup,
                          validate_semigroup, word_generators)
from monocat.corpus import CorpusSpec, full_transformation_monoid, generate, standard_corpus
from monocat.errors import (
    ActionLawViolation,
    AlgebraError,
    BadSubset,
    CommutationViolation,
    FormatError,
    IllDefinedAction,
    IllDefinedComposition,
    NotAssociative,
    OutOfRange,
    UnitLawViolation,
)
from monocat.ideals import (
    GroupHandle,
    IdealSubset,
    canonical_minimal_pair,
    group_of,
    is_simple,
    kernel,
    minimal_left_ideals,
    minimal_right_ideals,
    principal_left_ideal,
    principal_right_ideal,
    principal_two_sided_ideal,
    subset_product,
)
from monocat.rees import ReesMatrixSemigroup, expand, rees_decomposition, verify_rees_iso
from monocat.twocat import (
    COMPOSE_TYPE,
    TwoObjectCategory,
    _search_isomorphism,
    category_isomorphic,
    compose_categories,
    extract_simple,
    karoubi_pair,
    minimal_ideal_correspondence,
    relabel,
    reverse,
    slot_bimodule,
    standardize,
    validate_category,
    verify_category_iso,
)
from test_rees import assert_expands_as_validated

CORPUS = standard_corpus()
SMALL = [m for _, m in CORPUS if m.n <= 8]
T3 = full_transformation_monoid(3)
T4 = full_transformation_monoid(4)


def tables(n):
    return st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )


@given(st.integers(2, 4).flatmap(tables))
def test_validation_agrees_with_the_oracle(table):
    violation = oracles.assoc_violation(table)
    if violation is None:
        s = validate_semigroup(table)
        assert s.table == tuple(tuple(r) for r in table)
    else:
        try:
            validate_semigroup(table)
            raised = None
        except NotAssociative as err:
            raised = err.triple
        assert raised == violation


@given(st.data())
def test_a_changed_corpus_entry_reports_the_oracle_triple(data):
    m = data.draw(st.sampled_from([m for _, m in CORPUS if m.n >= 2]))
    i = data.draw(st.integers(0, m.n - 1))
    j = data.draw(st.integers(0, m.n - 1))
    v = data.draw(st.integers(0, m.n - 1).filter(lambda v: v != m.table[i][j]))
    table = [list(row) for row in m.table]
    table[i][j] = v
    violation = oracles.assoc_violation(table)
    if violation is None:
        validate_semigroup(table)
    else:
        with pytest.raises(NotAssociative) as err:
            validate_semigroup(table)
        assert err.value.triple == violation


def assert_green_structure_matches_the_oracle(s):
    members, generator = oracles.principal_kernel(s.table)
    kern = kernel(s)
    assert (kern.members, kern.generator) == (members, generator)
    for side, found in (("left", minimal_left_ideals(s)), ("right", minimal_right_ideals(s))):
        want = oracles.principal_minimal_ideals(s.table, side)
        assert [(ideal.members, ideal.generator) for ideal in found] == want
    assert is_simple(s) == oracles.principal_is_simple(s.table)


@given(st.data())
def test_green_structure_of_transformation_submonoids(data):
    t, max_gens = data.draw(st.sampled_from([(T3, 4), (T4, 3)]))
    gens = data.draw(st.lists(st.integers(0, t.n - 1), min_size=1, max_size=max_gens))
    for generators in (gens, [t.identity, *gens]):
        sub, _ = sub_semigroup(t, generated_subsemigroup(t, generators))
        assume(sub.n <= 80)
        assert_green_structure_matches_the_oracle(sub)


@given(st.data())
def test_principal_ideals_agree_with_the_oracle(data):
    t, max_gens = data.draw(st.sampled_from([(T3, 4), (T4, 3)]))
    gens = data.draw(st.lists(st.integers(0, t.n - 1), min_size=1, max_size=max_gens))
    if data.draw(st.booleans()):
        gens = [t.identity, *gens]
    sub, _ = sub_semigroup(t, generated_subsemigroup(t, gens))
    assume(sub.n <= 80)
    for a in data.draw(st.lists(st.integers(0, sub.n - 1), min_size=1, max_size=4)):
        for side, principal in (("left", principal_left_ideal), ("right", principal_right_ideal),
                                ("two-sided", principal_two_sided_ideal)):
            ideal = principal(sub, a)
            assert (ideal.members, ideal.side, ideal.generator) == (
                oracles.principal_ideal(sub.table, a, side), side, a)


@given(st.data())
def test_word_generators_generate_the_whole_table(data):
    # monoids and groups, relabelled so that the identity can sit anywhere;
    # on a group this is the sequence the group isomorphism search branches on
    m = data.draw(st.sampled_from([m for _, m in CORPUS] + GROUPS))
    table, _ = _relabelled(m.table, data.draw(st.permutations(range(m.n))))
    gens = word_generators(tuple(map(tuple, table)))
    assert oracles.generated(table, gens) == set(range(m.n))
    for k, g in enumerate(gens):
        # each is the least element outside what the ones before it generate
        assert g == min(set(range(m.n)) - oracles.generated(table, gens[:k]))


@given(
    st.sampled_from([("cyclic", 1), ("cyclic", 2), ("cyclic", 4), ("symmetric", 3)]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 1000),
)
def test_green_structure_of_rees_samples(group, i_count, lambda_count, seed):
    order = 6 if group[0] == "symmetric" else group[1]
    assume(order * i_count * lambda_count <= 64)
    (m,) = generate(CorpusSpec("rees_sample", (*group, i_count, lambda_count), seed=seed))
    assert_green_structure_matches_the_oracle(m.base)
    sub, _ = sub_semigroup(m, kernel(m).subset)
    assert_green_structure_matches_the_oracle(sub)


@given(st.data())
def test_generated_subsemigroup_is_closed_and_idempotent(data):
    m = data.draw(st.sampled_from(SMALL))
    gens = data.draw(st.sets(st.integers(0, m.n - 1), min_size=1, max_size=3))
    closed = generated_subsemigroup(m, tuple(gens))
    assert set(gens) <= set(closed.members)
    for a in closed.members:
        for b in closed.members:
            assert m.mul(a, b) in set(closed.members)
    assert generated_subsemigroup(m, closed).members == closed.members


@given(st.data())
def test_subset_product_is_associative(data):
    m = data.draw(st.sampled_from(SMALL))
    draw_subset = st.sets(st.integers(0, m.n - 1), min_size=1, max_size=m.n)
    x = Subset(m.base, tuple(data.draw(draw_subset)))
    y = Subset(m.base, tuple(data.draw(draw_subset)))
    z = Subset(m.base, tuple(data.draw(draw_subset)))
    left = subset_product(subset_product(x, y), z)
    right = subset_product(x, subset_product(y, z))
    assert left.members == right.members


@given(st.data())
def test_relabelled_tables_are_isomorphic(data):
    m = data.draw(st.sampled_from(SMALL))
    perm = data.draw(st.permutations(range(m.n)))
    inv = [0] * m.n
    for new, old in enumerate(perm):
        inv[old] = new
    shuffled = [
        [inv[m.table[perm[i]][perm[j]]] for j in range(m.n)] for i in range(m.n)
    ]
    witness = table_isomorphism(m.table, shuffled)
    assert witness is not None
    for a in range(m.n):
        for b in range(m.n):
            assert witness[m.table[a][b]] == shuffled[witness[a]][witness[b]]
    if is_group(m):
        original = GroupHandle(Subset(m.base, tuple(range(m.n))), m.identity)
        moved = GroupHandle(
            Subset(validate_semigroup(shuffled), tuple(range(m.n))), inv[m.identity]
        )
        assert groups_isomorphic(original, moved)


@given(
    st.sampled_from([("cyclic", 1), ("cyclic", 2), ("cyclic", 3), ("symmetric", 2)]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 10),
)
def test_random_sandwich_structures_decompose_back(group, i_count, lambda_count, seed):
    spec = CorpusSpec("rees_sample", (*group, i_count, lambda_count), seed=seed)
    (m,) = generate(spec)
    kern = kernel(m)
    assert len(kern.members) == m.n - 1  # everything except the adjoined identity
    sub, _ = sub_semigroup(m, kern.subset)
    assert is_simple(sub)
    rms, mapping = rees_decomposition(sub)
    assert rms.size == sub.n
    again, _ = rees_decomposition(expand(rms))
    assert (again.i_count, again.group.n, again.lambda_count) == (
        rms.i_count, rms.group.n, rms.lambda_count,
    )


# The one isomorphism search, through each of its three wrappers, against
# exhaustive permutation search on small relabelled and perturbed inputs.

def _relabelled(table, perm):
    """The table moved along ``perm``: element ``perm[i]`` becomes ``i``."""
    inv = [0] * len(perm)
    for new, old in enumerate(perm):
        inv[old] = new
    return [[inv[table[perm[i]][perm[j]]] for j in range(len(perm))] for i in range(len(perm))], inv


def _perturbed(data, table):
    """``table`` with one entry changed, or unchanged, as hypothesis chooses."""
    n = len(table)
    if n == 1 or not data.draw(st.booleans()):
        return table
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table = [list(row) for row in table]
    table[i][j] = data.draw(st.integers(0, n - 1))
    return table


def _assert_table_iso(witness, t1, t2):
    n = len(t1)
    assert sorted(witness) == list(range(n))
    assert all(witness[t1[a][b]] == t2[witness[a]][witness[b]] for a in range(n) for b in range(n))


GROUPS = [m for m in SMALL if is_group(m) and m.n <= 6] + [
    Monoid(validate_semigroup(oracles.klein_table()), 0)]
TINY = [m for m in SMALL if m.n <= 6]


@given(st.data())
def test_table_isomorphism_agrees_with_permutation_search(data):
    m = data.draw(st.sampled_from(TINY))
    shuffled, _ = _relabelled(m.table, data.draw(st.permutations(range(m.n))))
    other = _perturbed(data, shuffled)
    witness = table_isomorphism(m.table, other)
    assert (witness is None) == (oracles.perm_isomorphic(m.table, other) is None)
    if witness is not None:
        _assert_table_iso(witness, m.table, other)


@given(st.data())
def test_group_isomorphism_agrees_with_permutation_search(data):
    g = data.draw(st.sampled_from(GROUPS))
    h = data.draw(st.sampled_from([m for m in GROUPS if m.n == g.n]))
    shuffled, inv = _relabelled(h.table, data.draw(st.permutations(range(h.n))))
    hg = GroupHandle(Subset(validate_semigroup(shuffled), tuple(range(h.n))), inv[h.identity])
    gg = GroupHandle(Subset(g.base, tuple(range(g.n))), g.identity)
    witness = group_isomorphism(gg, hg)
    tg, th = gg.abstract_table(), hg.abstract_table()
    assert (witness is None) == (oracles.perm_isomorphic(tg, th) is None)
    if witness is not None:
        _assert_table_iso(witness, tg, th)
        assert witness[gg.position(gg.identity)] == hg.position(hg.identity)


def _small_categories():
    cats = [connecting_category(m) for _, m in CORPUS if m.n <= 6]
    return [c for c in cats if prod(factorial(n) for n in c.sizes().values()) <= 2000]


SMALL_CATEGORIES = _small_categories()


@given(st.data())
def test_category_isomorphic_agrees_with_permutation_search(data):
    cat = data.draw(st.sampled_from(SMALL_CATEGORIES))
    perms = {s: tuple(data.draw(st.permutations(range(n)))) for s, n in cat.sizes().items()}
    moved = relabel(cat, perms)
    if data.draw(st.booleans()):
        (s1, s2), r = data.draw(st.sampled_from(sorted(COMPOSE_TYPE.items())))
        comp = {k: [list(row) for row in t] for k, t in moved.comp.items()}
        i, j = data.draw(st.integers(0, cat.size(s1) - 1)), data.draw(st.integers(0, cat.size(s2) - 1))
        comp[s1 + s2][i][j] = data.draw(st.integers(0, cat.size(r) - 1))
        moved = TwoObjectCategory(moved.a_elems, moved.l_elems, moved.r_elems, moved.g_elems,
                                  moved.a_identity, moved.g_identity, comp)
    expected = any(oracles.perm_category_isomorphic(cat, c) is not None for c in (moved, reverse(moved)))
    assert category_isomorphic(cat, moved) == expected
    maps = _search_isomorphism(cat, moved)
    assert (maps is None) == (oracles.perm_category_isomorphic(cat, moved) is None)
    if maps is not None:
        assert maps["A"][cat.a_identity] == moved.a_identity
        assert maps["G"][cat.g_identity] == moved.g_identity
        for (s1, s2), r in COMPOSE_TYPE.items():
            t1, t2 = cat.comp[s1 + s2], moved.comp[s1 + s2]
            assert all(maps[r][t1[i][j]] == t2[maps[s1][i]][maps[s2][j]]
                       for i in range(cat.size(s1)) for j in range(cat.size(s2)))


BAD_ENTRIES = st.sampled_from([-1, 99, True, False, 1.0, "1", None])


@given(st.data())
def test_table_check_names_the_first_bad_entry(data):
    # every constructor shares one check, which tests the whole table at once and
    # must still name the first bad entry in row-major order
    m = data.draw(st.sampled_from(SMALL))
    table = [list(row) for row in m.table]
    cells = data.draw(st.lists(st.tuples(st.integers(0, m.n - 1), st.integers(0, m.n - 1)),
                               min_size=1, max_size=3))
    for i, j in cells:
        table[i][j] = data.draw(BAD_ENTRIES)
    bad = [(i, j) for i in range(m.n) for j in range(m.n)
           if type(table[i][j]) is not int or not 0 <= table[i][j] < m.n]
    assume(bad)
    with pytest.raises(OutOfRange) as err:
        validate_semigroup(table)
    assert err.value.position == bad[0]


@st.composite
def mutated_tables(draw):
    """``(table, rows, cols, bound)``: a valid table of indices with up to
    three mutations, to bad entries, ragged or empty rows, or fewer rows."""
    rows, cols = draw(st.integers(1, 4)), draw(st.sampled_from(range(5)))
    bound = draw(st.integers(1, 5))
    table = [draw(st.lists(st.integers(0, bound - 1), min_size=cols, max_size=cols))
             for _ in range(rows)]
    bad = st.one_of(st.sampled_from([True, False, 1.0, 0.0, "0", None, [0]]),
                    st.integers(-3, -1), st.integers(bound, bound + 3))
    for _ in range(draw(st.sampled_from([0, 1, 2, 3]))):
        if not table:
            break
        i = draw(st.integers(0, len(table) - 1))
        kind = draw(st.sampled_from(["entry", "entry", "entry", "ragged", "empty", "drop"]))
        if kind == "entry" and table[i]:
            table[i][draw(st.integers(0, len(table[i]) - 1))] = draw(bad)
        elif kind == "ragged":
            table[i] = table[i][:-1] if table[i] and draw(st.booleans()) else table[i] + [0]
        elif kind == "empty":
            table[i] = []
        elif kind == "drop":
            del table[i:]
    table = [draw(st.sampled_from([list, tuple]))(row) for row in table]
    return table, rows, cols, bound


def _table_check(check, case):
    """``check``'s outcome on ``case`` in the form of ``oracles.table_check``."""
    table, rows, cols, bound = case
    try:
        return ("ok", check(table, rows, cols, bound, "wrong shape"))
    except AlgebraError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "position", None))


def _agrees_with_the_row_scan(check, case):
    return _table_check(check, case) == oracles.table_check(*case, "wrong shape")


@settings(max_examples=300)
@given(mutated_tables())
def test_whole_table_check_agrees_with_the_row_scan(case):
    assert _agrees_with_the_row_scan(core.checked_table, case)


def test_a_check_that_skips_the_last_row_is_caught():
    def skips_last_row(table, rows, cols, bound, shape):
        table = tuple(map(tuple, table))
        if not table or len(table) != rows or any(len(row) != cols for row in table):
            raise FormatError(shape)
        p = core._first_non_index(list(chain.from_iterable(table[:-1])), bound)
        if p is not None:
            raise OutOfRange(*divmod(p, cols))
        return table

    find(mutated_tables(), lambda case: not _agrees_with_the_row_scan(skips_last_row, case),
         settings=settings(max_examples=1000))


def _validation_pool():
    small = [m for _, m in CORPUS if m.n <= 8]
    envelopes = [connecting_category(m) for m in small]
    # envelopes at an idempotent outside the kernel: L and R with several orbits
    off_kernel = [karoubi_pair(m, m.identity, e) for m in small for e in range(m.n)
                  if m.table[e][e] == e and e != m.identity and e not in kernel(m).members]
    standardized = [standardize(c).category for m, c in zip(small, envelopes) if not is_group(m)]
    witnesses = [are_connected(a, b).witness for a, b in zip(small, small[1:])]
    return envelopes + off_kernel + standardized + [w for w in witnesses if w is not None]


VALIDATION_POOL = _validation_pool()


@settings(max_examples=200)
@given(st.data())
def test_category_validation_agrees_with_the_oracle(data):
    # Light's test decides, and only a failing category is scanned, so the
    # verdict and the named law or triple must match the exhaustive scan
    cat = data.draw(st.sampled_from(VALIDATION_POOL))
    comp = {k: [list(row) for row in t] for k, t in cat.comp.items()}
    for _ in range(data.draw(st.integers(0, 2))):
        (s1, s2), r = data.draw(st.sampled_from(sorted(COMPOSE_TYPE.items())))
        i, j = data.draw(st.integers(0, cat.size(s1) - 1)), data.draw(st.integers(0, cat.size(s2) - 1))
        comp[s1 + s2][i][j] = data.draw(st.integers(0, cat.size(r) - 1))
    changed = TwoObjectCategory(cat.a_elems, cat.l_elems, cat.r_elems, cat.g_elems,
                                cat.a_identity, cat.g_identity, comp)
    verdict = validate_category(changed)
    assert (verdict.ok, verdict.detail) == oracles.category_verdict(changed)


# The Rees layer and the ideal check work a whole row at a time; the oracles
# keep the loops over single products that they replaced.

REES_GROUPS = [generate(CorpusSpec(family, (k,)))[0]
               for family, k in (("cyclic_group", 1), ("cyclic_group", 2), ("cyclic_group", 3),
                                 ("cyclic_group", 4), ("symmetric_group", 3))]


@st.composite
def rees_structures(draw):
    group = draw(st.sampled_from(REES_GROUPS))
    i_count, lambda_count = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(st.integers(0, group.n - 1), min_size=i_count, max_size=i_count)
    sandwich = draw(st.lists(row, min_size=lambda_count, max_size=lambda_count))
    return ReesMatrixSemigroup(group, i_count, lambda_count, sandwich)


@given(rees_structures())
def test_rees_table_is_the_product_of_triples(rms):
    triples = rms.triples()
    by_mul = tuple(tuple(rms.triple_index(rms.mul(a, b)) for b in triples) for a in triples)
    assert rms.table == by_mul
    assert [list(row) for row in rms.table] == oracles.rees_table(rms)


@given(rees_structures())
def test_each_row_is_the_oracle_row(rms):
    oracle = oracles.rees_table(rms)
    assert all(list(rms.row(k)) == oracle[k] for k in range(rms.size))
    assert "table" not in vars(rms)
    assert rms.table == tuple(map(rms.row, range(rms.size)))


@given(rees_structures(), st.data())
def test_rees_iso_verdict_agrees_with_the_oracle(rms, data):
    s = expand(rms)
    identity = {rms.triple_index(t): t for t in rms.triples()}
    # the same semigroup relabelled, with the mapping carried along
    perm = data.draw(st.permutations(range(s.n)))
    table, inv = _relabelled(s.table, perm)
    moved = {inv[v]: t for v, t in identity.items()}
    cases = [(s.table, identity), (table, moved)]
    if s.n > 1:
        a, b = data.draw(st.lists(st.integers(0, s.n - 1), min_size=2, max_size=2, unique=True))
        for t, mapping in list(cases):
            swapped, merged = dict(mapping), dict(mapping)
            swapped[a], swapped[b] = mapping[b], mapping[a]
            merged[a] = mapping[b]
            # what rees_decomposition builds when two products collide
            dropped = {v: tri for v, tri in mapping.items() if v != a}
            cases += [(t, swapped), (t, merged), (t, dropped)]
    for t, mapping in cases:
        verdict = verify_rees_iso(validate_semigroup(t), rms, mapping)
        assert (verdict.ok, verdict.detail) == oracles.rees_iso_verdict(t, rms, mapping)


@st.composite
def simple_semigroups(draw):
    """A simple semigroup: the kernel of a Rees sample or of a corpus monoid,
    or a Rees matrix semigroup relabelled."""
    kind = draw(st.sampled_from(["rees_sample", "corpus", "relabelled"]))
    if kind == "relabelled":
        s = expand(draw(rees_structures()))
        table, _ = _relabelled(s.table, draw(st.permutations(range(s.n))))
        return validate_semigroup(table)
    if kind == "rees_sample":
        group = draw(st.sampled_from([("cyclic", 1), ("cyclic", 3), ("symmetric", 3)]))
        order = 6 if group[0] == "symmetric" else group[1]
        i_count, lambda_count = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        assume(order * i_count * lambda_count <= 64)
        spec = CorpusSpec("rees_sample", (*group, i_count, lambda_count),
                          seed=draw(st.integers(0, 1000)))
        (m,) = generate(spec)
    else:
        m = draw(st.sampled_from([m for _, m in CORPUS]))
    return sub_semigroup(m, kernel(m).subset)[0]


@given(simple_semigroups())
def test_orbits_agree_with_the_union_find(s):
    left, right = (ideal.members for ideal in canonical_minimal_pair(s))
    gset, t = group_of(s).elements, s.table
    # x*G on L, the Rees I side, and G*y on R, the Lambda side
    reps = []
    for members, images in [(left, [[t[v][g] for g in gset] for v in left]),
                            (right, [[t[g][v] for g in gset] for v in right])]:
        links = [(v, w) for v, row in zip(members, images) for w in row]
        found = core.orbits(members, images)
        assert found == oracles.orbit_classes(s.n, members, links)
        assert all(len(orbit) == len(gset) for orbit in found)
        reps.append(oracles.orbit_reps(s.n, members, links))
    # the decomposition is read at the least member of each orbit
    xs, ys = reps
    rms, _ = rees_decomposition(s)
    assert rms.sandwich == tuple(tuple(gset.index(t[y][x]) for x in xs) for y in ys)


# The decomposition certifies its mapping on Light's generators of an
# associative table; the oracle compares all n^2 products one at a time.

@given(simple_semigroups())
def test_the_certified_decomposition_is_the_exhaustive_one(s):
    certified = rees._decompose(s, core.word_generators(s.table))
    assert certified == rees_decomposition(s)
    rms, mapping = certified
    assert oracles.rees_iso_verdict(s.table, rms, mapping) == (True, None)


@given(rees_structures(), st.data())
def test_the_certificate_fails_with_the_oracle(rms, data):
    # a correct mapping of a relabelled expansion, with the images of a drawn
    # set of elements permuted among themselves, or of every element
    s = expand(rms)
    table, inv = _relabelled(s.table, data.draw(st.permutations(range(s.n))))
    mapping = {inv[rms.triple_index(t)]: t for t in rms.triples()}
    moved = data.draw(st.one_of(st.lists(st.integers(0, s.n - 1), unique=True, max_size=4),
                                st.permutations(range(s.n))))
    images = data.draw(st.permutations([mapping[v] for v in moved]))
    mapping.update(zip(moved, images))
    code = [rms.triple_index(mapping[v]) for v in range(s.n)]
    unbuilt = dataclasses.replace(rms)  # expand built the table of rms
    verdict = rees._multiplicative(table, code, unbuilt, core.word_generators(table))
    assert (verdict.ok, verdict.detail) == oracles.rees_iso_verdict(table, rms, mapping)


# Every Rees structure holds a checked group, so expand trusts its table
# (test_rees.py runs the same oracle on the ten benchmark shapes).

@st.composite
def held_structures(draw):
    """A Rees structure: drawn through the constructor, or the decomposition
    of a corpus kernel."""
    if draw(st.booleans()):
        return draw(rees_structures())
    m = draw(st.sampled_from([m for _, m in CORPUS]))
    return rees_decomposition(sub_semigroup(m, kernel(m).subset)[0])[0]


@given(held_structures())
def test_the_trusted_expansion_is_the_validated_one(rms):
    assert_expands_as_validated(rms)


CORPUS_ENVELOPES = [c for c in (connecting_category(m) for _, m in CORPUS) if c._g_is_group]


def _more_group_envelopes():
    """Envelopes whose G side is a group, of Rees samples and at the
    idempotents outside the kernel, where L and R have several orbits."""
    samples = [generate(CorpusSpec("rees_sample", params, seed=seed))[0]
               for seed, params in enumerate([("cyclic", 2, 3, 2), ("cyclic", 3, 2, 3),
                                              ("symmetric", 3, 2, 2), ("cyclic", 1, 3, 3)])]
    cats = [connecting_category(m) for m in samples]
    cats += [karoubi_pair(m, m.identity, e) for m in SMALL for e in range(m.n)
             if m.table[e][e] == e and e != m.identity]
    return [c for c in cats if c._g_is_group]


GROUP_ENVELOPES = CORPUS_ENVELOPES + _more_group_envelopes()


@given(st.data())
def test_envelope_orbits_agree_with_the_union_find(data):
    cat = data.draw(st.sampled_from(GROUP_ENVELOPES))
    if data.draw(st.booleans()):
        cat = relabel(cat, {s: tuple(data.draw(st.permutations(range(n))))
                            for s, n in cat.sizes().items()})
    lg, gr, gm = cat.comp["LG"], cat.comp["GR"], cat.g_monoid
    nl, nr = cat.size("L"), cat.size("R")
    # x*G on L, G*y on R, and (x*g⁻¹, g*y) on L x R
    for n, images in [(nl, lg), (nr, list(zip(*gr)))]:
        links = [(v, w) for v, row in enumerate(images) for w in row]
        assert core.orbits(range(n), images) == oracles.orbit_classes(n, range(n), links)
    classes = _orbit_classes(lg, gr, gm)
    assert list(classes) == oracles.pair_orbits(lg, gr, gm.table, gm.identity)


@given(st.data())
def test_an_extracted_ideal_passes_the_recovery_oracle(data):
    # extract_simple decides simplicity by is_simple alone; where it returns,
    # the paper's recovery argument holds on S = L*R
    cat = data.draw(st.sampled_from(GROUP_ENVELOPES))
    if data.draw(st.booleans()):
        cat = relabel(cat, {s: tuple(data.draw(st.permutations(range(n))))
                            for s, n in cat.sizes().items()})
    lr = cat.comp["LR"]
    members = extract_simple(cat).members
    assert list(members) == sorted({p for row in lr for p in row})
    assert oracles.recovery_holds(cat.comp["AA"], members, lr[0][0])


def _outcomes(cat):
    """The bijection check, the correspondence and the quotient of ``cat``,
    beside what the union-find oracles make of its tables."""
    comp = {k: [list(row) for row in t] for k, t in cat.comp.items()}
    return ([_check_outcome(mult_bijection_check, cat),
             _check_outcome(minimal_ideal_correspondence, cat), _quotient_outcome(cat)],
            [oracles.bijection_outcome(comp, cat.g_identity), oracles.correspondence_outcome(comp),
             oracles.quotient_outcome(comp, cat.g_identity)])


def test_valid_categories_get_the_union_find_verdicts():
    # every envelope with a group G side, every third also relabelled, the
    # standardizations and the connect witnesses
    rng = random.Random(17)
    pool = GROUP_ENVELOPES + VALIDATION_POOL
    pool += [relabel(c, {s: tuple(rng.sample(range(n), n)) for s, n in c.sizes().items()})
             for c in GROUP_ENVELOPES[::3]]
    checked = 0
    for cat in pool:
        if cat._g_is_group and validate_category(cat):
            ours, theirs = _outcomes(cat)
            assert ours == theirs
            checked += 1
    assert checked >= 400, checked


MUTABLE_TABLES = ("AL", "LG", "LR", "RA", "GR", "RL")


def _check_outcome(check, cat):
    try:
        verdict = check(cat)
    except AlgebraError as exc:
        return type(exc).__name__, str(exc)
    return ("pass", None) if verdict.ok else ("fail", verdict.detail)


def _quotient_outcome(cat):
    try:
        ts = group_quotient(slot_bimodule(cat, "L"), slot_bimodule(cat, "R"), cat.g_monoid)
    except AlgebraError as exc:
        return type(exc).__name__, str(exc)
    return "pass", ts.classes


@settings(max_examples=120)
@given(st.data())
def test_a_mutant_action_is_named_or_gets_the_union_find_verdict(data):
    # the checks as they ran over the union-find, rebuilt in oracles, are the
    # reference: a G that acts as a group gets their verdict and detail; one
    # that does not gets it too, or a failure naming where G does not act;
    # and nothing passes that the union-find failed
    cat = data.draw(st.sampled_from(CORPUS_ENVELOPES))
    key = data.draw(st.sampled_from(MUTABLE_TABLES))
    comp = {k: [list(row) for row in t] for k, t in cat.comp.items()}
    i = data.draw(st.integers(0, len(comp[key]) - 1))
    j = data.draw(st.integers(0, len(comp[key][0]) - 1))
    bound = cat.size(COMPOSE_TYPE[key[0], key[1]])
    assume(bound > 1)
    comp[key][i][j] = data.draw(st.integers(0, bound - 1).filter(lambda v: v != comp[key][i][j]))
    mutant = TwoObjectCategory(cat.a_elems, cat.l_elems, cat.r_elems, cat.g_elems,
                               cat.a_identity, cat.g_identity, comp)
    acts = (oracles.group_acts(comp["LG"], comp["GG"], cat.g_identity, "right")
            and oracles.group_acts(comp["GR"], comp["GG"], cat.g_identity, "left"))
    ours, theirs = _outcomes(mutant)
    for got, expected, named in zip(ours, theirs, ("fail", "fail", "NotAGroupAction")):
        # the quotient oracle names an error by its type alone
        if got == expected or (got[0] == expected[0] and expected[1] is None):
            continue
        assert not acts and got[0] == named, (key, i, j, got, expected)
        assert got[1].startswith("G does not act on "), got
    # pairs whose images are not their union-find class: G does not act, and
    # the bijection check and the quotient, which read the orbits first, say so
    if not oracles.pair_images_are_classes(comp["LG"], comp["GR"], comp["GG"], cat.g_identity):
        assert not acts
        assert ours[0][0] == "fail" and ours[0][1].startswith("G does not act on "), ours[0]
        assert ours[2][0] == "NotAGroupAction", ours[2]


@st.composite
def one_entry_mutants(draw):
    """The table of a simple semigroup with one entry changed, shape-checked
    only."""
    s = draw(simple_semigroups())
    assume(s.n > 1)
    table = [list(row) for row in s.table]
    a, b = draw(st.integers(0, s.n - 1)), draw(st.integers(0, s.n - 1))
    table[a][b] = draw(st.integers(0, s.n - 1).filter(lambda v: v != table[a][b]))
    return core.FiniteSemigroup(table)


@settings(max_examples=240)
@given(one_entry_mutants())
def test_a_mutant_decomposes_or_is_a_typed_error(mutant):
    try:
        rms, mapping = rees_decomposition(mutant)
    except AlgebraError:
        return
    # a mutant that decomposes is verified isomorphic to its expansion
    assert verify_rees_iso(mutant, rms, mapping) and rms.size == mutant.n


@settings(max_examples=200)
@given(st.data())
def test_ideal_check_agrees_with_the_oracle(data):
    m = data.draw(st.sampled_from([m for _, m in CORPUS]))
    # relabelled, so that an adjoined identity is not always the last row
    table, _ = _relabelled(m.table, data.draw(st.permutations(range(m.n))))
    side = data.draw(st.sampled_from(["left", "right", "two-sided"]))
    # a random subset, or a principal ideal with up to two elements toggled
    start = data.draw(st.one_of(
        st.sets(st.integers(0, m.n - 1), min_size=1),
        st.integers(0, m.n - 1).map(lambda a: set(oracles.principal_ideal(table, a, side))),
    ))
    members = start ^ data.draw(st.sets(st.integers(0, m.n - 1), max_size=2))
    assume(members)
    expected = oracles.ideal_escape(table, members, side)
    assert (expected is None) == oracles.is_ideal(table, members, side)
    try:
        IdealSubset(Subset(validate_semigroup(table), tuple(members)), side)
    except BadSubset as exc:
        assert str(exc) == expected
    else:
        assert expected is None


@st.composite
def reindex_cases(draw):
    """A table of up to 8 x 8 values below up to 8, rows and columns to read
    it at (repeats allowed), and an index over the values: a dict (maybe
    missing some), a list, a tuple or a range."""
    n_rows, n_cols, n_values = (draw(st.integers(1, 8)) for _ in range(3))
    row = st.lists(st.integers(0, n_values - 1), min_size=n_cols, max_size=n_cols)
    table = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        table = tuple(map(tuple, table))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=10))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=10))
    values = draw(st.lists(st.integers(-20, 20), min_size=n_values, max_size=n_values))
    kind = draw(st.sampled_from(["dict", "list", "tuple", "range"]))
    if kind == "dict":
        kept = draw(st.one_of(st.just(set(range(n_values))), st.sets(st.integers(0, n_values - 1))))
        index = {v: values[v] for v in kept}
    elif kind == "range":
        start, step = draw(st.integers(-5, 5)), draw(st.sampled_from([-2, -1, 1, 3]))
        index = range(start, start + step * n_values, step)
    else:
        index = list(values) if kind == "list" else tuple(values)
    return table, rows, cols, index


@given(reindex_cases())
def test_reindexed_agrees_with_the_nested_loop(case):
    table, rows, cols, index = case
    try:
        expected = oracles.reindex(table, rows, cols, index)
    except KeyError:
        # a dict raises exactly when the loop meets a value it lacks
        assert isinstance(index, dict)
        with pytest.raises(KeyError):
            core.reindexed(table, rows, cols, index)
    else:
        assert core.reindexed(table, rows, cols, index) == expected


@settings(max_examples=200)
@given(st.data())
def test_sub_semigroup_agrees_with_the_oracle(data):
    m = data.draw(st.sampled_from([m for _, m in CORPUS]))
    table, _ = _relabelled(m.table, data.draw(st.permutations(range(m.n))))
    # a random subset, or a generated one with up to two elements toggled
    start = data.draw(st.one_of(
        st.sets(st.integers(0, m.n - 1), min_size=1),
        st.sets(st.integers(0, m.n - 1), min_size=1, max_size=3).map(
            lambda gens: oracles.generated(table, gens)),
    ))
    members = start ^ data.draw(st.sets(st.integers(0, m.n - 1), max_size=2))
    assume(members)
    expected = oracles.closure_escape(table, members)
    assert (expected is None) == (oracles.generated(table, members) == members)
    try:
        sub, old = sub_semigroup(validate_semigroup(table), members)
    except BadSubset as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert old == tuple(sorted(members))
        assert sub.table == oracles.reindex(table, old, old, {o: i for i, o in enumerate(old)})
        assert sub.labels == tuple(map(str, old))


@given(st.data())
def test_relabel_moves_every_entry(data):
    cat = data.draw(st.sampled_from(SMALL_CATEGORIES))
    perms = {s: tuple(data.draw(st.permutations(range(n)))) for s, n in cat.sizes().items()}
    moved = relabel(cat, perms)
    # the entry at new positions (i, j) is the old entry at (perm[i], perm[j]), renamed
    inv = {s: {old: new for new, old in enumerate(p)} for s, p in perms.items()}
    for (s1, s2), r in COMPOSE_TYPE.items():
        assert moved.comp[s1 + s2] == oracles.reindex(cat.comp[s1 + s2], perms[s1], perms[s2], inv[r])
    for s, p in perms.items():
        assert moved.elems(s) == tuple(cat.elems(s)[i] for i in p)
    assert (moved.a_identity, moved.g_identity) == (inv["A"][cat.a_identity], inv["G"][cat.g_identity])


SMALL_ENVELOPES = [connecting_category(m) for m in SMALL]
LAWFUL_BIMODULES = [regular_bimodule(m) for m in SMALL] + [
    slot_bimodule(c, slot) for c in SMALL_ENVELOPES for slot in "LR"]


def _changed_entries(data, tables, bounds, keys):
    """Copies of ``tables`` with 0-2 entries, of the tables named in
    ``keys``, changed to values below ``bounds[key]``."""
    tables = {k: [list(row) for row in t] for k, t in tables.items()}
    for _ in range(data.draw(st.integers(0, 2))):
        key = data.draw(st.sampled_from(keys))
        t = tables[key]
        i, j = data.draw(st.integers(0, len(t) - 1)), data.draw(st.integers(0, len(t[0]) - 1))
        t[i][j] = data.draw(st.integers(0, bounds[key] - 1))
    return tables


@settings(max_examples=300)
@given(st.data())
def test_bimodule_laws_agree_with_the_oracle(data):
    # the constructor checks shape only, so lawless actions reach the law check;
    # a right action moved along a permutation of X still obeys its own laws,
    # but may no longer commute with the left action
    bm = data.draw(st.sampled_from(LAWFUL_BIMODULES))
    perm = data.draw(st.permutations(range(bm.size)))
    inv = {old: new for new, old in enumerate(perm)}
    right = [[inv[v] for v in bm.right_action[old]] for old in perm]
    actions = _changed_entries(data, {"left": bm.left_action, "right": right},
                               {"left": bm.size, "right": bm.size}, ["left", "right"])
    a, b = bm.left_monoid, bm.right_monoid
    expected = oracles.bimodule_law_failure((a.table, a.identity), (b.table, b.identity),
                                            bm.size, actions["left"], actions["right"])
    try:
        check_bimodule_laws(Bimodule(a, b, bm.size, actions["left"], actions["right"]))
    except (UnitLawViolation, ActionLawViolation, CommutationViolation) as exc:
        witness = exc.element if isinstance(exc, UnitLawViolation) else exc.triple
        assert (type(exc).__name__, getattr(exc, "side", None), witness) == expected
    else:
        assert expected is None


@settings(max_examples=200)
@given(st.data())
def test_composition_agrees_with_the_oracles(data):
    # c1 with up to two entries of AL, LG or LR changed, glued to its own
    # reverse: the library and the exhaustive oracles accept and reject
    # together, with the same error type
    cat = data.draw(st.sampled_from(SMALL_ENVELOPES))
    bounds = {s1 + s2: cat.size(r) for (s1, s2), r in COMPOSE_TYPE.items()}
    comp = _changed_entries(data, cat.comp, bounds, ["AL", "LG", "LR"])
    c1 = TwoObjectCategory(cat.a_elems, cat.l_elems, cat.r_elems, cat.g_elems,
                           cat.a_identity, cat.g_identity, comp)
    expected = oracles.composition_failure(c1, reverse(c1))
    try:
        compose_categories(c1, reverse(c1))
    except (IllDefinedAction, IllDefinedComposition) as exc:
        assert type(exc).__name__ == expected
    else:
        assert expected is None


@settings(max_examples=200)
@given(st.data())
def test_category_iso_check_agrees_with_the_oracle(data):
    # the maps of a relabelling, with two images swapped or one changed, onto
    # the relabelled category with up to two table entries changed: the
    # library and the loop over every pair give the same verdict and name the
    # same first failure
    cat = data.draw(st.sampled_from(SMALL_CATEGORIES))
    perms = {s: tuple(data.draw(st.permutations(range(n)))) for s, n in cat.sizes().items()}
    moved = relabel(cat, perms)
    maps = {s: [p.index(i) for i in range(len(p))] for s, p in perms.items()}
    slot = data.draw(st.sampled_from("ALRG"))
    n = cat.size(slot)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    change = data.draw(st.sampled_from(["none", "swap", "set"]))
    if change == "swap":
        maps[slot][i], maps[slot][j] = maps[slot][j], maps[slot][i]
    elif change == "set":
        maps[slot][i] = j
    bounds = {s1 + s2: cat.size(r) for (s1, s2), r in COMPOSE_TYPE.items()}
    comp = _changed_entries(data, moved.comp, bounds, sorted(bounds))
    target = TwoObjectCategory(moved.a_elems, moved.l_elems, moved.r_elems, moved.g_elems,
                               moved.a_identity, moved.g_identity, comp)
    maps = {s: tuple(m) for s, m in maps.items()}
    verdict = verify_category_iso(cat, target, maps)
    assert (verdict.ok, verdict.detail) == oracles.category_iso_verdict(cat, target, maps)
