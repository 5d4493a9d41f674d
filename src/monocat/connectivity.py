"""Groups of monoids, small-scale isomorphism testing, and connectivity.

Group and table isomorphisms are thin wrappers over the one search in
``core.typed_isomorphism``, on a single slot with a single table.  A group
isomorphism branches only on the greedy generating set of
``core.word_generators``, the one Light's test uses.

Two monoids are connected exactly when their kernel groups, which ``ideals``
keeps on each semigroup, are isomorphic; a positive verdict is certified by
an explicit two-object category whose endomorphism monoids are the two
inputs, built by routing both monoids through the shared group and gluing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Monoid, Subset, is_group, typed_isomorphism, word_generators
from .errors import GroupTooLarge, require
from .ideals import GroupHandle, _group
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


def group_of(a: Monoid) -> GroupHandle:
    """The group ``L ∩ R`` in a monoid's kernel (the monoid itself if it is
    a group), for the canonically first minimal left and right ideals;
    well-defined up to isomorphism."""
    elements, identity = _group(a.base)
    return GroupHandle(Subset(a.base, elements), identity)


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


def profile(g: GroupHandle) -> GroupInvariantProfile:
    t = g.abstract_table()
    n = len(t)
    orders = tuple(sorted(_element_orders(t, g.position(g.identity))))
    center = sum(1 for i in range(n) if all(t[i][j] == t[j][i] for j in range(n)))
    return GroupInvariantProfile(n, orders, center == n, center)


def _table_isomorphism(t1, t2, keys1, keys2, fixed, order) -> Optional[tuple[int, ...]]:
    """:func:`typed_isomorphism` on one slot with a single product table."""
    found = typed_isomorphism({(0, 0): 0}, {(0, 0): t1}, {(0, 0): t2},
                              {0: keys1}, {0: keys2}, fixed, [(0, i) for i in order])
    return None if found is None else found[0]


def group_isomorphism(g: GroupHandle, h: GroupHandle) -> Optional[tuple[int, ...]]:
    """A position-level isomorphism witness, or None.

    Exhaustive over generator images (matched by element order), with every
    choice propagated through the products; correct up to the documented
    bound ``ISO_BOUND``, beyond which it refuses.
    """
    return _profiled_isomorphism(g, h)[1]


def _profiled_isomorphism(g: GroupHandle, h: GroupHandle):
    """The profiles of both groups, and :func:`group_isomorphism` of them."""
    if g.order > ISO_BOUND or h.order > ISO_BOUND:
        raise GroupTooLarge(max(g.order, h.order), ISO_BOUND)
    profiles = (profile(g), profile(h))
    if profiles[0] != profiles[1]:
        return profiles, None
    tg, th = g.abstract_table(), h.abstract_table()
    eg, eh = g.position(g.identity), h.position(h.identity)
    # each generator is the least element outside the subgroup of the ones
    # before it; propagation reaches every other element, so only they
    # branch, and the identity, fixed first, is skipped if it is one
    return profiles, _table_isomorphism(tg, th, _element_orders(tg, eg), _element_orders(th, eh),
                                        [(0, eg, eh)], word_generators(tg))


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


def are_connected(a: Monoid, b: Monoid) -> ConnectivityResult:
    """Decide connectivity and certify positives with a witness category.

    The verdict is isomorphism of the two kernel groups.  On success the
    witness is the composite of the category of ``a`` with the reversed
    category of ``b``, the latter relabelled through the group isomorphism
    so the middle monoids agree on the nose; its end monoids equal ``a``
    and ``b`` literally.
    """
    groups = (group_of(a), group_of(b))
    profiles, iso = _profiled_isomorphism(*groups)
    if iso is None:
        return ConnectivityResult(False, None, None, groups, profiles)
    ca = connecting_category(a)
    dual = reverse(connecting_category(b))
    aligned = relabel(dual, {"A": iso}) if iso != tuple(range(len(iso))) else dual
    witness = compose_categories(ca, aligned)
    require(witness.comp["AA"] == a.base.table and witness.a_identity == a.identity)
    require(witness.comp["GG"] == b.base.table and witness.g_identity == b.identity)
    return ConnectivityResult(True, witness, iso, groups, profiles)
