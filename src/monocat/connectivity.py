"""Groups of monoids, small-scale isomorphism testing, and connectivity.

Group and table isomorphisms are thin wrappers over the one search in
``core.typed_isomorphism``, on a single slot with a single table.  A group
isomorphism branches only on the greedy generating set of
``core.word_generators``, the one Light's test uses, for tables and categories.

Two monoids are connected exactly when their kernel groups are isomorphic,
as ``ideals.group_of`` hands them out: kept and checked once per semigroup.
A positive verdict is certified by an explicit two-object category whose
endomorphism monoids are the two inputs, built by routing both monoids
through the shared group and gluing.

``are_connected`` computes what it reads of one monoid once per ``Monoid``
object and keeps it in the object's ``__dict__`` (``core._kept``): the
kernel group, its isomorphism facts (profile, own table, identity position,
element orders, branch order) and, from the first positive verdict on, the
connecting category and its reverse.  Nothing kept refers back to the
monoid, and only ``are_connected`` reads the kept categories; the public
functions build fresh objects on every call.  The group comparison, the
gluing and the checks of the witness run on every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Monoid, _kept, is_group, typed_isomorphism, word_generators
from .errors import GroupTooLarge
from .ideals import GroupHandle, group_of
from .twocat import (
    TwoObjectCategory,
    category_from_monoid,
    compose_categories,
    groupoid_from_group,
    relabel,
    reverse,
)

ISO_BOUND = 64


@dataclass(frozen=True)
class GroupInvariantProfile:
    """Cheap isomorphism invariants used to prune the search."""

    order: int
    element_orders: tuple[int, ...]
    abelian: bool
    center_size: int


def _element_orders(table, e: int) -> list[int]:
    """The order of every element of a group table with identity ``e``."""
    orders = []
    for g in range(len(table)):
        k, x = 1, g
        while x != e:
            x = table[x][g]
            k += 1
        orders.append(k)
    return orders


@dataclass(frozen=True)
class _GroupFacts:
    """What the isomorphism search reads of one group: its profile, its own
    table with the identity's position, the order of each element, and the
    positions the search branches on."""

    profile: GroupInvariantProfile
    table: tuple[tuple[int, ...], ...]
    identity: int
    orders: tuple[int, ...]
    generators: tuple[int, ...]


def _group_facts(g: GroupHandle) -> _GroupFacts:
    t = g.abstract_table()
    n = len(t)
    e = g.position(g.identity)
    orders = tuple(_element_orders(t, e))
    center = sum(1 for i in range(n) if all(t[i][j] == t[j][i] for j in range(n)))
    # each generator is the least element outside the subgroup of the ones
    # before it; propagation reaches every other element, so only they
    # branch, and the identity, fixed first, is skipped if it is one
    return _GroupFacts(GroupInvariantProfile(n, tuple(sorted(orders)), center == n, center),
                       t, e, orders, tuple(word_generators(t)))


def profile(g: GroupHandle) -> GroupInvariantProfile:
    return _group_facts(g).profile


def _table_isomorphism(t1, t2, keys1, keys2, fixed, order) -> Optional[tuple[int, ...]]:
    """:func:`typed_isomorphism` on one slot with a single product table."""
    found = typed_isomorphism({(0, 0): 0}, {(0, 0): t1}, {(0, 0): t2},
                              {0: keys1}, {0: keys2}, fixed, [(0, i) for i in order])
    return None if found is None else found[0]


def _check_bound(g: GroupHandle, h: GroupHandle) -> None:
    if g.order > ISO_BOUND or h.order > ISO_BOUND:
        raise GroupTooLarge(max(g.order, h.order), ISO_BOUND)


def group_isomorphism(g: GroupHandle, h: GroupHandle) -> Optional[tuple[int, ...]]:
    """A position-level isomorphism witness, or None.

    Exhaustive over generator images (matched by element order), with every
    choice propagated through the products; correct up to the documented
    bound ``ISO_BOUND``, beyond which it refuses.
    """
    _check_bound(g, h)
    return _profiled_isomorphism(_group_facts(g), _group_facts(h))[1]


def _profiled_isomorphism(fg: _GroupFacts, fh: _GroupFacts):
    """The profiles of two groups, and the least isomorphism between them."""
    profiles = (fg.profile, fh.profile)
    if profiles[0] != profiles[1]:
        return profiles, None
    return profiles, _table_isomorphism(fg.table, fh.table, fg.orders, fh.orders,
                                        [(0, fg.identity, fh.identity)], fg.generators)


def groups_isomorphic(g: GroupHandle, h: GroupHandle) -> bool:
    return group_isomorphism(g, h) is not None


def table_isomorphism(t1, t2) -> Optional[tuple[int, ...]]:
    """A relabelling making two magma tables equal, or None.

    Backtracking with product propagation, matching elements by the sizes
    of their row and column images and by idempotency; meant for desk-scale
    tables (semigroup isomorphism checks in tests and reports).
    """
    t1 = tuple(tuple(r) for r in t1)
    t2 = tuple(tuple(r) for r in t2)

    def keys(t):
        return [(len(set(row)), len(set(col)), t[i][i] == i)
                for i, (row, col) in enumerate(zip(t, zip(*t)))]

    return _table_isomorphism(t1, t2, keys(t1), keys(t2), (), range(len(t1)))


@dataclass(frozen=True, repr=False)
class ConnectivityResult:
    """The verdict, its witness and group map, and the two groups compared."""

    connected: bool
    witness: Optional[TwoObjectCategory]
    group_map: Optional[tuple[int, ...]]
    groups: tuple[GroupHandle, GroupHandle]
    profiles: tuple[GroupInvariantProfile, GroupInvariantProfile]

    def __bool__(self) -> bool:
        return self.connected

    def __repr__(self):
        return f"ConnectivityResult(connected={self.connected})"


def connecting_category(a: Monoid) -> TwoObjectCategory:
    """The category tying a monoid to its group: envelope or groupoid."""
    if is_group(a):
        return groupoid_from_group(a)
    return category_from_monoid(a)


def _kernel_facts(a: Monoid) -> _GroupFacts:
    return _group_facts(_kept(a, "_kernel_group", group_of))


def _categories(a: Monoid) -> tuple[TwoObjectCategory, TwoObjectCategory]:
    """The connecting category of ``a`` and its reverse."""
    c = connecting_category(a)
    return c, reverse(c)


def are_connected(a: Monoid, b: Monoid) -> ConnectivityResult:
    """Decide connectivity and certify positives with a witness category.

    The verdict is isomorphism of the two kernel groups.  On success the
    witness is the composite of the category of ``a`` with the reversed
    category of ``b``, the latter relabelled through the group isomorphism
    so the middle monoids agree on the nose.  Its end monoids are ``a`` and
    ``b`` literally, by construction: the composite takes ``AA`` and the A
    identity from ``a``'s category, cut at ``e1 = 1`` and so all of ``a``,
    and ``GG`` and the G identity from ``b``'s, reversed and relabelled on
    A alone.
    """
    groups = (_kept(a, "_kernel_group", group_of), _kept(b, "_kernel_group", group_of))
    _check_bound(*groups)
    profiles, iso = _profiled_isomorphism(_kept(a, "_group_facts", _kernel_facts),
                                          _kept(b, "_group_facts", _kernel_facts))
    if iso is None:
        return ConnectivityResult(False, None, None, groups, profiles)
    # kept from the first positive verdict on; read here only, never changed
    ca = _kept(a, "_connecting", _categories)[0]
    dual = _kept(b, "_connecting", _categories)[1]
    aligned = relabel(dual, {"A": iso}) if iso != tuple(range(len(iso))) else dual
    return ConnectivityResult(True, compose_categories(ca, aligned), iso, groups, profiles)
