"""Randomized invariants over generated structures."""

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from monocat.connectivity import groups_isomorphic, table_isomorphism
from monocat.core import Subset, generated_subsemigroup, is_group, sub_semigroup, validate_semigroup
from monocat.corpus import CorpusSpec, full_transformation_monoid, generate, standard_corpus
from monocat.errors import NotAssociative
from monocat.ideals import (
    GroupHandle,
    is_simple,
    kernel,
    minimal_left_ideals,
    minimal_right_ideals,
    subset_product,
)
from monocat.rees import expand, rees_decomposition

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
