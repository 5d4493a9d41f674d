"""Rees matrix semigroups: construction, expansion, and decomposition.

A Rees matrix semigroup over a group ``G`` with index sets ``I`` and
``Lambda`` and sandwich matrix ``P : Lambda x I -> G`` multiplies triples by
``(i, g, l)(j, h, m) = (i, g * P[l][j] * h, m)``.  Every finite simple
semigroup decomposes this way; the decomposition here picks deterministic
representatives (the least element of each ``G``-orbit, from the shared
``core.partition``) and verifies the isomorphism exhaustively.

Side convention (fixed once, here): ``I`` counts the minimal right ideals
and ``Lambda`` counts the minimal left ideals of the decomposed semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .check import Check, PASSED, failed
from .core import (FiniteSemigroup, Monoid, SemigroupLike, as_semigroup, checked_table,
                   find_identity, is_group, is_int, partition, validate_semigroup)
from .errors import DecompositionFailure, FormatError, NotAGroup, NotSimple
from .ideals import canonical_minimal_pair, group_of_intersection, is_simple

Triple = tuple[int, int, int]


@dataclass(frozen=True, repr=False)
class ReesMatrixSemigroup:
    """Structure data ``(G, I, Lambda, P)`` with an abstract group table."""

    group: Monoid
    i_count: int
    lambda_count: int
    sandwich: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_group(self.group):
            raise NotAGroup("the structure monoid must be a group")
        counts = (self.i_count, self.lambda_count)
        if not all(is_int(k) and k > 0 for k in counts):
            raise FormatError("index counts must be positive integers")
        object.__setattr__(self, "sandwich", checked_table(
            self.sandwich, self.lambda_count, self.i_count, self.group.n,
            "sandwich matrix must be Lambda x I"))

    @property
    def size(self) -> int:
        return self.i_count * self.group.n * self.lambda_count

    def triples(self) -> list[Triple]:
        """All elements ``(i, g, l)`` in lexicographic order."""
        return [
            (i, g, l)
            for i in range(self.i_count)
            for g in range(self.group.n)
            for l in range(self.lambda_count)
        ]

    def triple_index(self, t: Triple) -> int:
        i, g, l = t
        return (i * self.group.n + g) * self.lambda_count + l

    def mul(self, t1: Triple, t2: Triple) -> Triple:
        i, g, l = t1
        j, h, m = t2
        gt = self.group.table
        return (i, gt[gt[g][self.sandwich[l][j]]][h], m)

    def __repr__(self):
        return f"ReesMatrixSemigroup(|G|={self.group.n}, I={self.i_count}, Lambda={self.lambda_count})"


def expand(rms: ReesMatrixSemigroup) -> FiniteSemigroup:
    """The full product table over the triples, validated and checked simple."""
    triples = rms.triples()
    index = {t: k for k, t in enumerate(triples)}
    table = tuple(
        tuple(index[rms.mul(t1, t2)] for t2 in triples) for t1 in triples
    )
    labels = tuple(f"({i},{g},{l})" for (i, g, l) in triples)
    s = validate_semigroup(table, labels)
    if not is_simple(s):
        raise NotSimple("a Rees matrix semigroup must be simple")
    return s


def rees_decomposition(s: SemigroupLike):
    """Decompose a finite simple semigroup into Rees matrix form.

    Picks the canonically first minimal left ideal ``L`` and minimal right
    ideal ``R``, forms the group ``G = L ∩ R``, and chooses the smallest
    ambient index in every orbit of the ``G``-action as representative
    (right action on ``L`` for the ``I`` side, left action on ``R`` for the
    ``Lambda`` side).  Sandwich entries are ``P[l][i] = y_l * x_i``.

    Returns ``(rms, mapping)`` where ``mapping[element] == (i, g, l)`` with
    ``element == x_i * g * y_l``; the mapping is verified to be a semigroup
    isomorphism onto ``expand(rms)``.
    """
    s = as_semigroup(s)
    if not is_simple(s):
        raise NotSimple("only simple semigroups admit this decomposition")
    left, right = canonical_minimal_pair(s)
    handle = group_of_intersection(left, right)
    t = s.table
    gset = handle.elements
    xs = _orbit_reps(s.n, left.members, ((v, t[v][g]) for v in left.members for g in gset))
    ys = _orbit_reps(s.n, right.members, ((v, t[g][v]) for v in right.members for g in gset))
    group = handle.monoid()
    gpos = {g: k for k, g in enumerate(gset)}
    rows = []
    for y in ys:
        row = []
        for x in xs:
            p = t[y][x]
            if p not in gpos:
                raise DecompositionFailure(f"{y}*{x} = {p} lands outside the group")
            row.append(gpos[p])
        rows.append(tuple(row))
    rms = ReesMatrixSemigroup(group, i_count=len(xs), lambda_count=len(ys), sandwich=tuple(rows))
    mapping: dict[int, Triple] = {}
    for i, x in enumerate(xs):
        for k, g in enumerate(gset):
            xg = t[x][g]
            for l, y in enumerate(ys):
                v = t[xg][y]
                if v in mapping:
                    raise DecompositionFailure(
                        f"element {v} is reached by {mapping[v]} and {(i, k, l)}"
                    )
                mapping[v] = (i, k, l)
    if len(mapping) != s.n:
        raise DecompositionFailure(f"covered {len(mapping)} of {s.n} elements")
    verdict = verify_rees_iso(s, rms, mapping)
    if not verdict:
        raise DecompositionFailure(verdict.detail)
    return rms, mapping


def _orbit_reps(n: int, members, links) -> list[int]:
    """The least element of each orbit in ``members``, given the ``links``
    from each member to its images; in increasing order."""
    inside = set(members)
    return [cls[0] for cls in partition(n, links) if cls[0] in inside]


def verify_rees_iso(s: SemigroupLike, rms: ReesMatrixSemigroup, mapping) -> Check:
    """Exhaustively check that ``mapping`` is an isomorphism onto the triples."""
    s = as_semigroup(s)
    if s.n != rms.size:
        return failed(f"|S| = {s.n} but the triple space has size {rms.size}")
    if sorted(mapping) != list(range(s.n)):
        return failed("mapping is not defined on exactly the elements of S")
    images = set()
    for v, tri in mapping.items():
        i, g, l = tri
        if not (0 <= i < rms.i_count and 0 <= g < rms.group.n and 0 <= l < rms.lambda_count):
            return failed(f"image {tri} of {v} is not a valid triple")
        images.add(tri)
    if len(images) != s.n:
        return failed("mapping is not injective")
    t = s.table
    for a in range(s.n):
        row = t[a]
        ma = mapping[a]
        for b in range(s.n):
            if mapping[row[b]] != rms.mul(ma, mapping[b]):
                return failed(f"not multiplicative at ({a},{b})")
    return PASSED


def rees_to_json_dict(rms: ReesMatrixSemigroup) -> dict:
    return {
        "group_table": [list(row) for row in rms.group.table],
        "I": rms.i_count,
        "Lambda": rms.lambda_count,
        "P": [list(row) for row in rms.sandwich],
    }


def rees_from_json_dict(d: dict) -> ReesMatrixSemigroup:
    try:
        group_sg = validate_semigroup(d["group_table"])
        e = find_identity(group_sg)
        if e is None:
            raise NotAGroup("the group table has no identity")
        return ReesMatrixSemigroup(Monoid(group_sg, e), d["I"], d["Lambda"], d["P"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad Rees structure payload: {exc}") from None
