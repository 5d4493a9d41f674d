"""The verification battery: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and collects failures before asserting, so every criterion reports even
when one fails.  All identities are integer-exact; there are no
tolerances anywhere.
"""

import itertools
import time

import pytest

from monocat.bimodule import free_action_check, group_quotient, mult_bijection_check
from monocat.connectivity import (
    are_connected,
    group_of,
    groups_isomorphic,
)
from monocat.core import is_group, sub_semigroup
from monocat.ideals import (
    canonical_minimal_pair,
    group_of_intersection,
    is_simple,
    kernel,
    minimal_left_ideals,
    minimal_right_ideals,
    principal_two_sided_ideal,
)
from monocat.rees import expand, rees_decomposition, verify_rees_iso
from monocat.twocat import (
    category_from_simple,
    category_isomorphic,
    compose_categories,
    extract_simple,
    minimal_ideal_correspondence,
    slot_bimodule,
    standardize,
    validate_category,
    verify_category_iso,
)

MODULE_START = time.monotonic()
SUITE_BUDGET_SECONDS = 300
KERNEL_BUDGET_SECONDS = 60
PAIR_TARGET = 1000
TRIPLE_TARGET = 20


def conclude(num, title, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} ({title}): {status}")
    assert not failures, f"{title}: {len(failures)} failure(s); first: {failures[0]}"


@pytest.fixture(scope="module")
def analysis(corpus):
    """Canonical kernel, minimal pair, and group for every corpus monoid."""
    out = {}
    for name, m in corpus:
        kern = kernel(m)
        left, right = canonical_minimal_pair(m)
        handle = group_of_intersection(left, right)
        out[name] = (m, kern, left, right, handle)
    return out


@pytest.fixture(scope="module")
def simple_categories(corpus):
    cats = {}
    for name, m in corpus:
        sub, _ = sub_semigroup(m, kernel(m).subset)
        cats[name] = category_from_simple(sub)
    return cats


@pytest.fixture(scope="module")
def standardizations(nongroup_corpus, corpus_categories):
    return {name: standardize(corpus_categories[name]) for name, _ in nongroup_corpus}


@pytest.fixture(scope="module")
def pair_outcomes(corpus):
    """Connectivity verdicts and witnesses over a deterministic pair set."""
    entries = sorted(corpus, key=lambda e: (e[1].n, e[0]))[:46]
    outcomes = []
    for (na, a), (nb, b) in itertools.combinations(entries, 2):
        outcomes.append((na, a, nb, b, are_connected(a, b)))
    return outcomes


@pytest.fixture(scope="module")
def transitivity_composites(corpus):
    small = [e for e in sorted(corpus, key=lambda x: (x[1].n, x[0])) if e[1].n <= 5]
    composites = []
    for (na, a), (nb, b), (nc, c) in itertools.combinations(small, 3):
        if len(composites) >= TRIPLE_TARGET:
            break
        first = are_connected(a, b)
        second = are_connected(b, c)
        if not (first and second):
            continue
        chained = compose_categories(first.witness, second.witness)
        composites.append((na, nb, nc, a, c, chained))
    return composites


def test_criterion_01_kernel_suite(corpus):
    failures = []
    start = time.monotonic()
    if len(corpus) < 100:
        failures.append(f"corpus has only {len(corpus)} monoids")
    for name, m in corpus:
        kern = kernel(m)
        if len(kern.members) == 0:
            failures.append(f"{name}: empty kernel")
        ideals = {principal_two_sided_ideal(m, a).members for a in range(m.n)}
        minimal = [
            i for i in ideals if not any(o != i and set(o) < set(i) for o in ideals)
        ]
        if len(minimal) != 1:
            failures.append(f"{name}: {len(minimal)} minimal ideals")
        elif minimal[0] != kern.members:
            failures.append(f"{name}: kernel disagrees with the minimal ideal scan")
        sub, _ = sub_semigroup(m, kern.subset)
        if not is_simple(sub):
            failures.append(f"{name}: kernel is not simple")
    elapsed = time.monotonic() - start
    if elapsed >= KERNEL_BUDGET_SECONDS:
        failures.append(f"kernel suite took {elapsed:.1f}s")
    conclude(1, "kernel unique, nonempty, simple", failures)


def test_criterion_02_cardinality_identities(analysis):
    failures = []
    for name, (m, kern, left, right, handle) in analysis.items():
        nl, nr, ng = len(left.members), len(right.members), handle.order
        if nl % ng != 0:
            failures.append(f"{name}: |L|={nl} not a multiple of |G|={ng}")
        if nr % ng != 0:
            failures.append(f"{name}: |R|={nr} not a multiple of |G|={ng}")
        if len(kern.members) * ng != nl * nr:
            failures.append(f"{name}: |kernel|*|G| != |L|*|R|")
    conclude(2, "cardinality identities", failures)


def test_criterion_03_nongroup_bound(analysis):
    failures = []
    equality_names = []
    for name, (m, kern, left, right, handle) in analysis.items():
        if is_group(m):
            continue
        bound = (len(left.members) * len(right.members)) // handle.order + 1
        if m.n < bound:
            failures.append(f"{name}: |A|={m.n} below the bound {bound}")
        if m.n == bound:
            equality_names.append(name)
    if "left_zero(2)" not in equality_names:
        failures.append("the two-element left-zero monoid should attain equality")
    conclude(3, "non-group size bound", failures)


def test_criterion_04_round_trip(nongroup_corpus, corpus_categories):
    failures = []
    for name, m in nongroup_corpus:
        extracted = extract_simple(corpus_categories[name])
        if extracted.members != kernel(m).members:
            failures.append(f"{name}: extracted ideal differs from the kernel")
    conclude(4, "extracted simple ideal equals the kernel", failures)


def test_criterion_05_category_validity(corpus_categories, simple_categories,
                                        standardizations, pair_outcomes,
                                        transitivity_composites):
    failures = []
    batches = [
        ("monoid", corpus_categories.items()),
        ("simple", simple_categories.items()),
        ("standardized", ((n, s.category) for n, s in standardizations.items())),
        ("witness", ((f"{na}|{nb}", o.witness) for na, _, nb, _, o in pair_outcomes if o)),
        ("transitive", ((f"{na}|{nb}|{nc}", cat) for na, nb, nc, _, _, cat in transitivity_composites)),
    ]
    counted = 0
    for kind, items in batches:
        for name, cat in items:
            counted += 1
            verdict = validate_category(cat)
            if not verdict:
                failures.append(f"{kind} {name}: {verdict.detail}")
    if counted < 300:
        failures.append(f"only {counted} categories were constructed")
    conclude(5, "identity and associativity validation", failures)


def test_criterion_06_bijection_and_partitions(corpus_categories, simple_categories,
                                               standardizations, pair_outcomes):
    failures = []
    pools = [
        corpus_categories.items(),
        simple_categories.items(),
        ((n, s.category) for n, s in standardizations.items()),
    ]
    for pool in pools:
        for name, cat in pool:
            if not is_group(cat.g_monoid):
                failures.append(f"{name}: G side is not a group")
                continue
            verdict = mult_bijection_check(cat)
            if not verdict:
                failures.append(f"{name}: {verdict.detail}")
            verdict = free_action_check(cat)
            if not verdict:
                failures.append(f"{name}: {verdict.detail}")
    # witnesses whose far end happens to be a group have a group G side too
    for na, _, nb, _, outcome in pair_outcomes:
        if outcome and is_group(outcome.witness.g_monoid):
            verdict = mult_bijection_check(outcome.witness)
            if not verdict:
                failures.append(f"witness {na}|{nb}: {verdict.detail}")
    checked = 0
    for name, cat in corpus_categories.items():
        if cat.size("L") * cat.size("R") > 64:
            continue
        # the quotient routine itself asserts that the orbit partition equals
        # the tensor partition
        ts = group_quotient(slot_bimodule(cat, "L"), slot_bimodule(cat, "R"),
                            cat.g_monoid)
        if ts.class_count * cat.size("G") != cat.size("L") * cat.size("R"):
            failures.append(f"{name}: orbit count identity fails")
        checked += 1
    if checked < 100:
        failures.append(f"only {checked} orbit/tensor comparisons ran")
    conclude(6, "composition bijection and quotient partitions", failures)


def test_criterion_07_rees_suite(corpus):
    failures = []
    decomposed = 0
    for name, m in corpus:
        kern = kernel(m)
        if len(kern.members) > 16:
            continue
        sub, _ = sub_semigroup(m, kern.subset)
        rms, mapping = rees_decomposition(sub)
        decomposed += 1
        verdict = verify_rees_iso(sub, rms, mapping)
        if not verdict:
            failures.append(f"{name}: {verdict.detail}")
        if rms.i_count != len(minimal_right_ideals(sub)):
            failures.append(f"{name}: I differs from the minimal right ideal count")
        if rms.lambda_count != len(minimal_left_ideals(sub)):
            failures.append(f"{name}: Lambda differs from the minimal left ideal count")
        again, _ = rees_decomposition(expand(rms))
        if (again.i_count, again.group.n, again.lambda_count) != (
                rms.i_count, rms.group.n, rms.lambda_count):
            failures.append(f"{name}: expand/decompose changed the shape")
    if decomposed < 100:
        failures.append(f"only {decomposed} kernels were decomposed")
    conclude(7, "Rees decomposition and round trip", failures)


def test_criterion_08_standardization(nongroup_corpus, corpus_categories,
                                      standardizations):
    failures = []
    distinct_choice_cases = 0
    for name, m in nongroup_corpus:
        cat = corpus_categories[name]
        std = standardizations[name]
        verdict = verify_category_iso(cat, std.category, std.maps)
        if not verdict:
            failures.append(f"{name}: {verdict.detail}")
        alt = standardize(cat, cat.size("L") - 1, cat.size("R") - 1)
        if (alt.x, alt.y) != (std.x, std.y):
            distinct_choice_cases += 1
        composed = {}
        for slot in "ALRG":
            fwd = std.maps[slot]
            inv = [0] * len(fwd)
            for src, dst in enumerate(fwd):
                inv[dst] = src
            composed[slot] = tuple(alt.maps[slot][inv[i]] for i in range(len(fwd)))
        verdict = verify_category_iso(std.category, alt.category, composed)
        if not verdict:
            failures.append(f"{name}: two starting choices disagree: {verdict.detail}")
    if distinct_choice_cases < 1:
        failures.append("no corpus category admitted two distinct starting choices")
    sample = sorted(standardizations)[:8]
    for name in sample:
        if not category_isomorphic(standardizations[name].category,
                                   corpus_categories[name]):
            failures.append(f"{name}: search failed to match the standardization")
    conclude(8, "standardization isomorphisms", failures)


def test_criterion_09_minimal_ideal_correspondence(corpus_categories,
                                                   simple_categories):
    failures = []
    for pool in (corpus_categories, simple_categories):
        for name, cat in pool.items():
            verdict = minimal_ideal_correspondence(cat)
            if not verdict:
                failures.append(f"{name}: {verdict.detail}")
    conclude(9, "slices exhaust the minimal ideals", failures)


def test_criterion_10_connectivity(corpus, pair_outcomes, transitivity_composites):
    failures = []
    if len(pair_outcomes) < PAIR_TARGET:
        failures.append(f"only {len(pair_outcomes)} pairs were tested")
    for na, a, nb, b, outcome in pair_outcomes:
        expected = groups_isomorphic(group_of(a), group_of(b))
        if bool(outcome) != expected:
            failures.append(f"{na} vs {nb}: verdict disagrees with the group comparison")
            continue
        if outcome:
            verdict = validate_category(outcome.witness)
            if not verdict:
                failures.append(f"{na} vs {nb}: witness invalid: {verdict.detail}")
            witness = outcome.witness
            if (witness.comp["AA"], witness.a_identity) != (a.base.table, a.identity):
                failures.append(f"{na} vs {nb}: witness does not end in the first monoid")
            if (witness.comp["GG"], witness.g_identity) != (b.base.table, b.identity):
                failures.append(f"{na} vs {nb}: witness does not end in the second monoid")
    if len(transitivity_composites) < TRIPLE_TARGET:
        failures.append(f"only {len(transitivity_composites)} transitive composites")
    for na, nb, nc, a, c, chained in transitivity_composites:
        verdict = validate_category(chained)
        if not verdict:
            failures.append(f"{na}|{nb}|{nc}: composite invalid: {verdict.detail}")
        if ((chained.comp["AA"], chained.a_identity, chained.comp["GG"], chained.g_identity)
                != (a.base.table, a.identity, c.base.table, c.identity)):
            failures.append(f"{na}|{nb}|{nc}: composite has the wrong end monoids")
    positives = sum(1 for *_, o in pair_outcomes if o)
    if positives == 0 or positives == len(pair_outcomes):
        failures.append("pair set does not exercise both verdicts")
    elapsed = time.monotonic() - MODULE_START
    if elapsed >= SUITE_BUDGET_SECONDS:
        failures.append(f"acceptance suite took {elapsed:.0f}s")
    conclude(10, "connectivity verdicts, witnesses, transitivity", failures)
