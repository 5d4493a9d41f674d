"""Principal and minimal ideals, kernels, simplicity, and intersection groups.

The kernel ``K`` of a finite semigroup is ``S¹zS¹`` for ``z`` the product of
all its elements: ``z`` lies in every two-sided ideal, so this ideal is the
least one, found in ``O(n^2)`` steps.  The minimal left (right) ideals are
the distinct principal ideals ``S¹x`` (``xS¹``) for ``x`` in ``K``, found in
``O(n |K|)`` steps, and ``S`` is simple exactly when ``K == S``.

Each ``FiniteSemigroup`` object computes four parts of this structure once,
each when first read, and keeps them on itself (``_kept``): the kernel and
the minimal left and right ideals as member tuples, and the group
``L ∩ R`` of the canonical pair as ``(elements, identity)``, checked once
by ``GroupHandle`` when it is kept.  Only ints and tuples are kept, so
nothing kept refers back to the semigroup.  The public readers (``kernel``,
the minimal ideals, ``group_of``) wrap the kept parts with ``core.trusted``
and do not check them again; other modules read the tuples.

``two_sided_multiples`` is the one ``S¹aS¹``: ``S¹a`` with the rows of its
members added (Howie, *Fundamentals of Semigroup Theory*, §2.1), used by the
kernel and ``principal_two_sided_ideal`` alone; ``twocat.extract_simple``
decides simplicity by ``is_simple``.  The two-sided identity test is
``core.identity_failure``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import (FiniteSemigroup, Monoid, SemigroupLike, Subset, Table, _kept, as_semigroup,
                   identity_failure, is_index, reindexed, row_picker, trusted)
from .errors import BadSubset, CarrierMismatch, EmptyIdeal, NotAGroup

LEFT = "left"
RIGHT = "right"
TWO_SIDED = "two-sided"


@dataclass(frozen=True, repr=False)
class IdealSubset:
    """A nonempty subset that absorbs multiplication from the tagged side(s)."""

    subset: Subset
    side: str
    generator: Optional[int] = None

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT, TWO_SIDED):
            raise BadSubset(f"unknown side {self.side!r}")
        members = self.subset.members
        if not members:
            raise EmptyIdeal("ideals are nonempty by convention")
        t = self.subset.carrier.table
        inside = set(members)
        left = self.side in (LEFT, TWO_SIDED)
        right = self.side in (RIGHT, TWO_SIDED)
        # every product is checked a row at a time: the members' columns of
        # each row on the left side, the members' rows on the right side
        if ((not left or all(map(inside.issuperset, map(row_picker(members), t))))
                and (not right or all(map(inside.issuperset, map(t.__getitem__, members))))):
            return
        # only a subset that escapes is scanned, to name the first escape
        for a in members:
            for s in range(len(t)):
                if left and t[s][a] not in inside:
                    raise BadSubset(f"not a left ideal: {s}*{a} escapes")
                if right and t[a][s] not in inside:
                    raise BadSubset(f"not a right ideal: {a}*{s} escapes")

    @property
    def members(self) -> tuple[int, ...]:
        return self.subset.members

    @property
    def carrier(self) -> FiniteSemigroup:
        return self.subset.carrier

    def __repr__(self):
        return f"IdealSubset({self.side}, {list(self.members)})"


@dataclass(frozen=True, repr=False)
class GroupHandle:
    """A subset of a carrier that forms a group under the carrier product."""

    subset: Subset
    identity: int

    def __post_init__(self):
        members = self.subset.members
        if not members:
            raise NotAGroup("empty subset")
        if self.identity not in members:
            raise NotAGroup(f"identity {self.identity} is not a member")
        t = self.subset.carrier.table
        inside = set(members)
        e = self.identity
        for g in members:
            if t[e][g] != g or t[g][e] != g:
                raise NotAGroup(f"{e} is not an identity for {g}")
            for h in members:
                if t[g][h] not in inside:
                    raise NotAGroup(f"not closed: {g}*{h} escapes")
            if not any(t[g][h] == e and t[h][g] == e for h in members):
                raise NotAGroup(f"{g} has no inverse")

    @property
    def carrier(self) -> FiniteSemigroup:
        return self.subset.carrier

    @property
    def elements(self) -> tuple[int, ...]:
        return self.subset.members

    @property
    def order(self) -> int:
        return len(self.subset.members)

    def position(self, ambient: int) -> int:
        return self.elements.index(ambient)

    def abstract_table(self) -> tuple[tuple[int, ...], ...]:
        """The group's own table, over positions in ``elements``."""
        return self._abstract_table

    @cached_property
    def _abstract_table(self) -> tuple[tuple[int, ...], ...]:
        els = self.elements
        return reindexed(self.carrier.table, els, els, {g: i for i, g in enumerate(els)})

    def monoid(self) -> Monoid:
        # the constructor has checked closure and the identity on the elements
        labels = tuple(self.carrier.label(g) for g in self.elements)
        base = trusted(FiniteSemigroup, table=self.abstract_table(), labels=labels)
        return trusted(Monoid, base=base, identity=self.position(self.identity))

    def __repr__(self):
        return f"GroupHandle({list(self.elements)}, identity={self.identity})"


def _left_multiples(t: Table, a: int) -> set[int]:
    """``S¹a``: ``a`` and every ``s*a``."""
    return {a, *(row[a] for row in t)}


def _right_multiples(t: Table, a: int) -> set[int]:
    """``aS¹``: ``a`` and every ``a*s``."""
    return {a, *t[a]}


def _principal(s: SemigroupLike, a: int, multiples, side: str) -> IdealSubset:
    """The ideal ``multiples(table, a)`` on ``side``, for an element index ``a``."""
    s = as_semigroup(s)
    if not is_index(a, s.n):
        raise BadSubset(f"generator {a!r} is not an element index")
    return IdealSubset(Subset(s, tuple(multiples(s.table, a))), side, generator=a)


def principal_left_ideal(s: SemigroupLike, a: int) -> IdealSubset:
    """``{a} ∪ {s*a : s in S}``, the smallest left ideal containing ``a``."""
    return _principal(s, a, _left_multiples, LEFT)


def principal_right_ideal(s: SemigroupLike, a: int) -> IdealSubset:
    return _principal(s, a, _right_multiples, RIGHT)


def two_sided_multiples(t: Table, a: int) -> set[int]:
    """``S¹aS¹``: ``S¹a`` with the rows of its members added."""
    left = _left_multiples(t, a)
    return left.union(*map(t.__getitem__, left))


def principal_two_sided_ideal(s: SemigroupLike, a: int) -> IdealSubset:
    """``{a} ∪ Sa ∪ aS ∪ SaS``, the smallest two-sided ideal containing ``a``."""
    return _principal(s, a, two_sided_multiples, TWO_SIDED)


def _kernel(s: FiniteSemigroup) -> tuple[int, ...]:
    return _kept(s, "_kernel", _kernel_members)


def _minimal(s: FiniteSemigroup, side: str) -> tuple[tuple[int, ...], ...]:
    return _kept(s, "_minimal_" + side, _minimal_ideals, side)


def _group(s: FiniteSemigroup) -> tuple[tuple[int, ...], int]:
    return _kept(s, "_group", _group_part)


def _kernel_members(s: FiniteSemigroup) -> tuple[int, ...]:
    """The members of ``S¹zS¹``, ``z`` the product of all elements, sorted."""
    t = s.table
    z = 0
    for x in range(1, s.n):
        z = t[z][x]
    return tuple(sorted(two_sided_multiples(t, z)))


def _minimal_ideals(s: FiniteSemigroup, side: str) -> tuple[tuple[int, ...], ...]:
    """The distinct principal ideals of the kernel's members.  They partition
    the kernel and are met in order of their smallest member, so the tuple
    is already in canonical subset order.  One ``S¹x`` per ideal is built,
    where ``core.orbits`` would need one per member of the kernel."""
    multiples = _left_multiples if side == LEFT else _right_multiples
    found = []
    covered: set[int] = set()
    for x in _kernel(s):
        if x not in covered:
            members = multiples(s.table, x)
            covered |= members
            found.append(tuple(sorted(members)))
    return tuple(found)


def _group_part(s: FiniteSemigroup) -> tuple[tuple[int, ...], int]:
    handle = group_handle_from_subset(s, set(_minimal(s, LEFT)[0]) & set(_minimal(s, RIGHT)[0]))
    return handle.elements, handle.identity


def _ideal(s: FiniteSemigroup, members: tuple[int, ...], side: str) -> IdealSubset:
    """A kept member tuple as an ideal, its smallest member the generator."""
    # kept tuples are sorted S¹x, xS¹ or S¹zS¹: ideals when the table is associative
    return trusted(IdealSubset, subset=trusted(Subset, carrier=s, members=members), side=side,
                   generator=members[0])


def minimal_left_ideals(s: SemigroupLike) -> list[IdealSubset]:
    """All minimal left ideals of an associative table, in canonical subset order."""
    s = as_semigroup(s)
    return [_ideal(s, members, LEFT) for members in _minimal(s, LEFT)]


def minimal_right_ideals(s: SemigroupLike) -> list[IdealSubset]:
    """All minimal right ideals of an associative table, in canonical subset order."""
    s = as_semigroup(s)
    return [_ideal(s, members, RIGHT) for members in _minimal(s, RIGHT)]


def canonical_minimal_pair(s: SemigroupLike) -> tuple[IdealSubset, IdealSubset]:
    """The canonically first minimal left and minimal right ideals of an associative table."""
    s = as_semigroup(s)
    return _ideal(s, _minimal(s, LEFT)[0], LEFT), _ideal(s, _minimal(s, RIGHT)[0], RIGHT)


def kernel(m: SemigroupLike) -> IdealSubset:
    """The unique minimal two-sided ideal of a finite monoid (or semigroup),
    with its smallest member as generator; the table is assumed associative."""
    s = as_semigroup(m)
    return _ideal(s, _kernel(s), TWO_SIDED)


def group_of(a: SemigroupLike) -> GroupHandle:
    """The group ``L ∩ R`` in a monoid's kernel (the monoid itself if it is
    a group), for the canonically first minimal left and right ideals;
    well-defined up to isomorphism."""
    s = as_semigroup(a)
    elements, identity = _group(s)
    # GroupHandle checked these sorted elements when _group_part kept them
    return trusted(GroupHandle, subset=trusted(Subset, carrier=s, members=elements),
                   identity=identity)


def is_simple(s: SemigroupLike) -> bool:
    """True iff the kernel is the whole semigroup."""
    s = as_semigroup(s)
    return len(_kernel(s)) == s.n


def subset_product(x: Subset, y: Subset) -> Subset:
    """``{a*b : a in x, b in y}`` inside the common carrier."""
    if x.carrier != y.carrier:
        raise CarrierMismatch("subset product requires a common carrier")
    t = x.carrier.table
    return Subset(x.carrier, tuple({t[a][b] for a in x.members for b in y.members}))


def group_handle_from_subset(carrier: FiniteSemigroup, members) -> GroupHandle:
    """Build a group handle, discovering the identity inside ``members``.

    The identity is the unique solution of ``e*z == z`` for the
    smallest-index ``z``; existence and the group axioms are then verified
    exhaustively, raising ``NotAGroup`` on any failure.
    """
    subset = Subset(carrier, tuple(members))
    if len(subset) == 0:
        raise NotAGroup("empty subset")
    t, els = carrier.table, subset.members
    identity = next((e for e in els if t[e][els[0]] == els[0]
                     and identity_failure(t, e, els) is None), None)
    if identity is None:
        raise NotAGroup("no identity element in the subset")
    return GroupHandle(subset, identity)


def group_of_intersection(left: IdealSubset, right: IdealSubset) -> GroupHandle:
    """``L ∩ R`` as a group, for minimal ideals ``L`` (left) and ``R`` (right).

    A failed group axiom signals that the inputs were not minimal ideals of a
    simple semigroup (or of a kernel).  A group ``L ∩ R`` is always ``R*L``,
    so that is not checked: every ``r*l`` lies in ``R`` (a right ideal) and
    in ``L`` (a left ideal), and every ``g`` in ``L ∩ R`` is ``e*g`` with
    the group's identity ``e`` in ``R`` and ``g`` in ``L``.
    """
    if left.carrier != right.carrier:
        raise CarrierMismatch("intersection requires a common carrier")
    if left.side != LEFT or right.side != RIGHT:
        raise NotAGroup(f"expected a (left, right) pair, got ({left.side}, {right.side})")
    inter = set(left.members) & set(right.members)
    if not inter:
        raise NotAGroup("the ideals do not intersect")
    return group_handle_from_subset(left.carrier, inter)
