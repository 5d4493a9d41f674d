"""Randomized invariants over generated structures."""

from math import factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from monocat.connectivity import (
    are_connected,
    connecting_category,
    group_isomorphism,
    groups_isomorphic,
    table_isomorphism,
)
from monocat.core import Monoid, Subset, generated_subsemigroup, is_group, sub_semigroup, validate_semigroup
from monocat.corpus import CorpusSpec, full_transformation_monoid, generate, standard_corpus
from monocat.errors import BadSubset, NotAssociative, OutOfRange
from monocat.ideals import (
    GroupHandle,
    IdealSubset,
    is_simple,
    kernel,
    minimal_left_ideals,
    minimal_right_ideals,
    subset_product,
)
from monocat.rees import ReesMatrixSemigroup, expand, rees_decomposition, verify_rees_iso
from monocat.twocat import (
    COMPOSE_TYPE,
    TwoObjectCategory,
    _search_isomorphism,
    category_isomorphic,
    relabel,
    reverse,
    standardize,
    validate_category,
)

CORPUS = standard_corpus()
SMALL = [m for _, m in CORPUS if m.n <= 8]
T3 = full_transformation_monoid(3)
T4 = full_transformation_monoid(4)

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")


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
    # every constructor shares one check, which tests whole rows at once and
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


def _validation_pool():
    small = [m for _, m in CORPUS if m.n <= 8]
    envelopes = [connecting_category(m) for m in small]
    standardized = [standardize(c).category for m, c in zip(small, envelopes) if not is_group(m)]
    witnesses = [are_connected(a, b).witness for a, b in zip(small, small[1:])]
    return envelopes + standardized + [w for w in witnesses if w is not None]


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
            cases += [(t, swapped), (t, merged)]
    for t, mapping in cases:
        verdict = verify_rees_iso(validate_semigroup(t), rms, mapping)
        assert (verdict.ok, verdict.detail) == oracles.rees_iso_verdict(t, rms, mapping)


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
