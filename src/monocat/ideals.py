"""Principal and minimal ideals, kernels, simplicity, and intersection groups.

The kernel ``K`` of a finite semigroup is ``S¹zS¹`` for ``z`` the product of
all its elements: ``z`` lies in every two-sided ideal, so this ideal is the
least one, found in ``O(n^2)`` steps.  The minimal left (right) ideals are
the distinct principal ideals ``S¹x`` (``xS¹``) for ``x`` in ``K``, found in
``O(n |K|)`` steps, and ``S`` is simple exactly when ``K == S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import (FiniteSemigroup, Monoid, SemigroupLike, Subset, Table, as_semigroup,
                   group_inverses, row_picker)
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

    def __len__(self):
        return len(self.subset)

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
        pos = {g: i for i, g in enumerate(els)}
        t = self.carrier.table
        return tuple(tuple(pos[t[g][h]] for h in els) for g in els)

    def monoid(self) -> Monoid:
        labels = tuple(self.carrier.label(g) for g in self.elements)
        return Monoid(FiniteSemigroup(self.abstract_table(), labels), self.position(self.identity))

    @cached_property
    def _inverses(self) -> tuple[int, ...]:
        return group_inverses(self.abstract_table(), self.position(self.identity))

    def inverse_position(self, i: int) -> int:
        return self._inverses[i]

    def __repr__(self):
        return f"GroupHandle({list(self.elements)}, identity={self.identity})"


def _left_multiples(t: Table, a: int) -> set[int]:
    """``S¹a``: ``a`` and every ``s*a``."""
    return {a, *(row[a] for row in t)}


def _right_multiples(t: Table, a: int) -> set[int]:
    """``aS¹``: ``a`` and every ``a*s``."""
    return {a, *t[a]}


def principal_left_ideal(s: SemigroupLike, a: int) -> IdealSubset:
    """``{a} ∪ {s*a : s in S}``, the smallest left ideal containing ``a``."""
    s = as_semigroup(s)
    return IdealSubset(Subset(s, tuple(_left_multiples(s.table, a))), LEFT, generator=a)


def principal_right_ideal(s: SemigroupLike, a: int) -> IdealSubset:
    s = as_semigroup(s)
    return IdealSubset(Subset(s, tuple(_right_multiples(s.table, a))), RIGHT, generator=a)


def principal_two_sided_ideal(s: SemigroupLike, a: int) -> IdealSubset:
    """``{a} ∪ Sa ∪ aS ∪ SaS``, the smallest two-sided ideal containing ``a``."""
    s = as_semigroup(s)
    t = s.table
    members = {a}
    for x in range(s.n):
        members.add(t[x][a])
        members.add(t[a][x])
    for x in range(s.n):
        xa = t[x][a]
        row = t[xa]
        for y in range(s.n):
            members.add(row[y])
    return IdealSubset(Subset(s, tuple(members)), TWO_SIDED, generator=a)


def _kernel_members(s: FiniteSemigroup) -> tuple[int, ...]:
    """The members of ``S¹zS¹``, ``z`` the product of all elements, sorted."""
    t = s.table
    z = 0
    for x in range(1, s.n):
        z = t[z][x]
    left = _left_multiples(t, z)
    members = set(left)
    for a in left:
        members.update(t[a])
    return tuple(sorted(members))


def _minimal_ideals(s: FiniteSemigroup, side: str) -> list[IdealSubset]:
    """The distinct principal ideals of the kernel's members.  They partition
    the kernel and are met in order of their smallest member, which becomes
    the generator, so the list is already in canonical subset order."""
    multiples = _left_multiples if side == LEFT else _right_multiples
    found = []
    covered: set[int] = set()
    for x in _kernel_members(s):
        if x not in covered:
            members = multiples(s.table, x)
            covered |= members
            found.append(IdealSubset(Subset(s, tuple(members)), side, generator=x))
    return found


def minimal_left_ideals(s: SemigroupLike) -> list[IdealSubset]:
    """All minimal left ideals, in canonical subset order."""
    return _minimal_ideals(as_semigroup(s), LEFT)


def minimal_right_ideals(s: SemigroupLike) -> list[IdealSubset]:
    return _minimal_ideals(as_semigroup(s), RIGHT)


def canonical_minimal_pair(s: SemigroupLike) -> tuple[IdealSubset, IdealSubset]:
    """The canonically first minimal left and minimal right ideals."""
    return minimal_left_ideals(s)[0], minimal_right_ideals(s)[0]


def kernel(m: SemigroupLike) -> IdealSubset:
    """The unique minimal two-sided ideal of a finite monoid (or semigroup),
    with its smallest member as generator."""
    s = as_semigroup(m)
    members = _kernel_members(s)
    return IdealSubset(Subset(s, members), TWO_SIDED, generator=members[0])


def is_simple(s: SemigroupLike) -> bool:
    """True iff the kernel is the whole semigroup."""
    s = as_semigroup(s)
    return len(_kernel_members(s)) == s.n


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
    t = carrier.table
    z = subset.members[0]
    candidates = [e for e in subset.members if t[e][z] == z]
    identity = None
    for e in candidates:
        if all(t[e][g] == g and t[g][e] == g for g in subset.members):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element in the subset")
    return GroupHandle(subset, identity)


def group_of_intersection(left: IdealSubset, right: IdealSubset) -> GroupHandle:
    """``L ∩ R`` as a group, for minimal ideals ``L`` (left) and ``R`` (right).

    Also verifies ``R*L == L ∩ R``; any failed axiom signals that the inputs
    were not minimal ideals of a simple semigroup (or of a kernel).
    """
    if left.carrier != right.carrier:
        raise CarrierMismatch("intersection requires a common carrier")
    if left.side != LEFT or right.side != RIGHT:
        raise NotAGroup(f"expected a (left, right) pair, got ({left.side}, {right.side})")
    inter = sorted(set(left.members) & set(right.members))
    if not inter:
        raise NotAGroup("the ideals do not intersect")
    handle = group_handle_from_subset(left.carrier, inter)
    rl = subset_product(right.subset, left.subset)
    if rl.members != tuple(inter):
        raise NotAGroup(f"R*L = {list(rl.members)} differs from the intersection {inter}")
    return handle
