"""Values derived from checked ones are built without the constructors' checks
(``core.trusted``).  These tests run those checks again on every kind of
derived value, count the checks a command still makes, and pin the lemma
that lets the suite validate one envelope per entry."""

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from monocat import cli, core, ideals
from monocat.bimodule import regular_bimodule, tensor
from monocat.connectivity import are_connected, connecting_category
from monocat.core import Monoid, adjoin_identity, is_group, sub_semigroup, validate_semigroup
from monocat.corpus import CorpusSpec, dump_corpus, generate
from monocat.ideals import GroupHandle, _kernel, group_of
from monocat.rees import expand, rees_decomposition
from monocat.twocat import (compose_categories, relabel, reverse, slot_bimodule, standardize,
                            validate_category)


def assert_rebuilds(site, obj):
    """The checking constructor, run again on the fields of ``obj``, accepts
    them and gives ``obj`` back, labels included (``==`` skips them)."""
    copy = dataclasses.replace(obj)
    assert copy == obj, site
    for f in dataclasses.fields(obj):
        assert getattr(copy, f.name) == getattr(obj, f.name), (site, f.name)


def relabelled_monoid(m: Monoid, perm) -> Monoid:
    """``m`` with element ``i`` renamed ``perm[i]``, validated as loaded input."""
    inv = sorted(range(m.n), key=perm.__getitem__)
    rows = [[perm[m.table[inv[i]][inv[j]]] for j in range(m.n)] for i in range(m.n)]
    return Monoid(validate_semigroup(rows), perm[m.identity])


def derived_values(m: Monoid, rng: random.Random):
    """``(site, value)`` for every kind of value built by ``core.trusted``,
    from the corpus monoid ``m`` and a relabelling of its category."""
    cat = connecting_category(m)
    moved = relabel(cat, {s: tuple(rng.sample(range(n), n)) for s, n in cat.sizes().items()})
    composite = compose_categories(moved, reverse(moved))
    bimodules = [slot_bimodule(c, slot) for c in (cat, moved) for slot in "LR"]
    induced = tensor(slot_bimodule(moved, "L"), slot_bimodule(reverse(moved), "L")).bimodule
    kernel = sub_semigroup(m, _kernel(m.base))[0]
    yield "adjoin_identity", adjoin_identity(m.base)
    yield "adjoin_identity", adjoin_identity(m.base).base
    yield "sub_semigroup", kernel
    yield "karoubi_pair", cat
    yield "a_monoid", cat.a_monoid.base
    yield "g_monoid", moved.g_monoid.base
    yield "reverse", reverse(cat)
    yield "relabel", moved
    yield "compose_categories", composite
    yield from (("slot_bimodule", bm) for bm in bimodules)
    yield "_induced_tensor", induced
    yield "regular_bimodule", regular_bimodule(m)
    yield "GroupHandle.monoid", group_of(m).monoid()
    yield "GroupHandle.monoid", group_of(m).monoid().base
    yield "rees_decomposition", rees_decomposition(kernel)[0]
    yield "expand", expand(rees_decomposition(kernel)[0])
    for handle in (group_of(m), group_of(kernel)):
        yield "group_of", handle
        yield "group_of", handle.subset
    for ideal in (ideals.kernel(m), *ideals.minimal_left_ideals(m),
                  *ideals.minimal_right_ideals(m), *ideals.canonical_minimal_pair(m)):
        yield "_ideal", ideal
        yield "_ideal", ideal.subset


def test_every_derived_value_passes_its_constructor(corpus):
    rng = random.Random(13)
    for _, m in corpus:
        for site, value in derived_values(m, rng):
            assert_rebuilds(site, value)


@pytest.mark.parametrize("params", [(2, 2), (3, 2)])
def test_transformation_submonoids_pass_their_constructors(params):
    for m in generate(CorpusSpec("transformation_submonoids", params)):
        assert_rebuilds("_transformation_submonoids", m)
        assert_rebuilds("_transformation_submonoids", m.base)


@pytest.fixture
def group_checks(monkeypatch):
    """The carrier of every ``GroupHandle`` checked from now on."""
    carriers = []
    original = GroupHandle.__post_init__

    def counting(handle):
        carriers.append(handle.carrier)
        original(handle)

    monkeypatch.setattr(GroupHandle, "__post_init__", counting)
    return carriers


def test_each_kernel_group_is_checked_once_per_carrier(nongroup_corpus, tmp_path, group_checks):
    # a suite entry reads the group of its monoid and of its kernel, and a
    # rees call that of its input and of the expansion; each is checked when
    # ideals keeps it, and read unchecked after (before, 4 checks each)
    for _, m in nongroup_corpus[::25]:
        group_checks.clear()
        assert all(cli._suite_entry(relabelled_monoid(m, range(m.n))).values())
        assert len(group_checks) == 2 and group_checks[0] is not group_checks[1]
    rees = generate(CorpusSpec("rees_sample", ("cyclic", 3, 2, 2), seed=1))[0]
    [name] = dump_corpus([("rees", rees)], tmp_path)
    group_checks.clear()
    assert cli.main(["--quiet", "rees", str(tmp_path / name)]) == 0
    assert len(group_checks) == 2 and group_checks[0] is not group_checks[1]


@pytest.fixture
def table_checks(monkeypatch):
    """The tables ``core.checked_table`` checks from now on, by shape message;
    patched in every monocat module that holds it."""
    checked = []
    original = core.checked_table

    def counting(table, rows, cols, bound, shape):
        checked.append(shape)
        return original(table, rows, cols, bound, shape)

    for name, module in list(sys.modules.items()):
        if name.startswith("monocat") and getattr(module, "checked_table", None) is original:
            monkeypatch.setattr(module, "checked_table", counting)
    return checked


def test_the_suite_checks_each_loaded_table_once(corpus, tmp_path, table_checks):
    entries = corpus[::15]
    assert any(is_group(m) for _, m in entries) and not all(is_group(m) for _, m in entries)
    dump_corpus(entries, tmp_path)
    before = len(table_checks)
    assert cli.main(["--quiet", "suite", str(tmp_path)]) == 0
    assert len(table_checks) - before == len(entries)


def test_connecting_validated_monoids_checks_no_table(table_checks):
    c4 = generate(CorpusSpec("cyclic_group", (4,)))[0]
    rees = generate(CorpusSpec("rees_sample", ("cyclic", 2, 2, 2), seed=1))[0]
    # a relabelling that moves the identity, so the group map is not the identity
    pairs = [(c4, relabelled_monoid(c4, (1, 0, 2, 3))),
             (rees, relabelled_monoid(rees, tuple(range(rees.n))[::-1]))]
    before = len(table_checks)
    outcomes = [are_connected(a, b) for a, b in pairs]
    assert len(table_checks) == before
    assert all(outcomes)
    assert outcomes[0].group_map[0] == 1  # the witness went through relabel


def test_standardizing_an_envelope_gives_it_back(nongroup_corpus):
    # both canonical minimal ideals hold k = min(kernel), so standardize
    # starts at x0 = y0 = k and cuts at k*k⁻¹ = e, the envelope's own idempotent
    for name, m in nongroup_corpus:
        cat = connecting_category(m)
        std = standardize(cat)
        assert std.category == cat, name
        assert cli._suite_entry(m)["standardize_valid"] == validate_category(std.category).ok


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_standardizing_a_relabelled_envelope_gives_it_back(nongroup_corpus, data):
    _, m = data.draw(st.sampled_from(nongroup_corpus))
    moved = relabelled_monoid(m, data.draw(st.permutations(range(m.n))))
    cat = connecting_category(moved)
    assert standardize(cat).category == cat
