"""Finite semigroups and monoids presented by explicit Cayley tables.

Conventions used throughout the package:

* ``table[i][j]`` is the product ``i * j``, read left to right.
* Elements are their positions ``0..n-1``; derived subsets always keep the
  ambient indices, so subset equality is plain tuple equality.
* Validation is eager.  Constructing a ``FiniteSemigroup`` checks closure
  and associativity; every operation below assumes validated inputs and
  never re-checks them.
* Associativity is decided by Light's test (Clifford & Preston, *The
  Algebraic Theory of Semigroups* I, §1.2): with ``A`` a set of elements
  whose left-bracketed words reach every element, it suffices to check
  ``(x*a)*y == x*(a*y)`` for ``a`` in ``A``, in ``O(n^2 |A|)`` steps.  Only
  a table that fails it is scanned exhaustively, so that the reported
  triple is the lexicographically first violation.
* The mechanisms the other modules share live here, once each:
  ``checked_table`` (shape, type and range of a table of indices),
  ``row_picker`` (a row read at given positions), ``closure``,
  ``partition`` (union-find classes), ``group_inverses`` and
  ``typed_isomorphism`` (the one isomorphism search).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Union

from .errors import (
    BadSubset,
    EmptyGenerators,
    FormatError,
    InvalidIdentity,
    NotAssociative,
    OutOfRange,
    TheoremViolation,
)

Table = tuple[tuple[int, ...], ...]


def is_int(v) -> bool:
    """True iff ``v`` is an ``int`` and not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_index(v, bound: int) -> bool:
    """True iff ``v`` is an ``int`` (not a ``bool``) in ``[0, bound)``."""
    return is_int(v) and 0 <= v < bound


def _first_non_index(row, bound: int) -> Optional[int]:
    """The position of the first entry of ``row`` that is not an index below
    ``bound``, or None.  A row of plain ints is checked whole, at C speed;
    only a row that fails is scanned entry by entry."""
    if not row or (set(map(type, row)) == {int} and min(row) >= 0 and max(row) < bound):
        return None
    return next((j for j, v in enumerate(row) if not is_index(v, bound)), None)


def row_picker(indices):
    """``row -> tuple(row[i] for i in indices)`` at C speed, for a nonempty
    ``indices``; unlike ``itemgetter``, one index still gives a 1-tuple."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


def checked_table(table, rows: int, cols: int, bound: int, shape: str) -> Table:
    """``table`` as tuples, checked to be a nonempty ``rows x cols`` table of
    indices below ``bound``.

    A wrong shape raises ``FormatError(shape)``; a bad entry raises
    ``OutOfRange`` at the first bad position in row-major order.
    """
    table = tuple(map(tuple, table))
    if not table or len(table) != rows or any(len(row) != cols for row in table):
        raise FormatError(shape)
    for i, row in enumerate(table):
        j = _first_non_index(row, bound)
        if j is not None:
            raise OutOfRange(i, j)
    return table


@dataclass(frozen=True, repr=False)
class FiniteSemigroup:
    """An associative magma on ``{0..n-1}`` given by its full product table."""

    table: Table
    labels: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def __post_init__(self):
        n = len(self.table)
        table = checked_table(self.table, n, n, n, "table must be square and nonempty")
        object.__setattr__(self, "table", table)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != n:
                raise FormatError(f"{len(labels)} labels for {n} elements")
            object.__setattr__(self, "labels", labels)
        if not _passes_light_test(table):
            raise NotAssociative(*_first_violation(table))

    @property
    def n(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def __repr__(self):
        return f"FiniteSemigroup(n={self.n})"


def _left_word_generators(table: Table) -> list[int]:
    """Generators, chosen greedily by index, whose left-bracketed words
    ``(..((a1*a2)*a3)..)*ak`` reach every element; ``O(n |A|)`` steps."""
    n = len(table)
    reached = [False] * n
    words: list[int] = []
    gens: list[int] = []
    for x in range(n):
        if reached[x]:
            continue
        gens.append(x)
        frontier = [x]
        frontier += [table[w][x] for w in words]
        for y in frontier:  # grows while it is walked
            if not reached[y]:
                reached[y] = True
                words.append(y)
                frontier += map(table[y].__getitem__, gens)
    return gens


def _passes_light_test(table: Table) -> bool:
    """Light's test: ``(x*a)*y == x*(a*y)`` for all ``x, y`` and generators ``a``.

    Exact: the middles ``a`` for which the identity holds are closed under
    the product, so they contain every left-bracketed word in the generators.
    For each ``a`` the rows ``(x*a)*_`` and ``x*(a*_)`` are compared for all
    ``x`` at once.
    """
    if len(table) == 1:
        return True  # itemgetter of one index returns a value, not a 1-tuple
    row_of = table.__getitem__
    for a in _left_word_generators(table):
        through_a = itemgetter(*table[a])
        if list(map(row_of, map(itemgetter(a), table))) != list(map(through_a, table)):
            return False
    return True


def _first_violation(table: Table) -> tuple[int, int, int]:
    """The lexicographically first ``(i, j, k)`` with ``(i*j)*k != i*(j*k)``.

    Only called on a table that failed Light's test, so one exists.
    """
    n = len(table)
    for i in range(n):
        row_i = table[i]
        for j in range(n):
            row_ij = table[row_i[j]]
            row_j = table[j]
            for k in range(n):
                if row_ij[k] != row_i[row_j[k]]:
                    return i, j, k
    raise TheoremViolation("a table that fails Light's test has a violation")


@dataclass(frozen=True, repr=False)
class Monoid:
    """A finite semigroup together with its (unique) two-sided identity."""

    base: FiniteSemigroup
    identity: int

    def __post_init__(self):
        t = self.base.table
        e = self.identity
        if not is_index(e, self.base.n):
            raise InvalidIdentity(e, e)
        for i in range(self.base.n):
            if t[e][i] != i or t[i][e] != i:
                raise InvalidIdentity(e, i)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def table(self) -> Table:
        return self.base.table

    def mul(self, i: int, j: int) -> int:
        return self.base.table[i][j]

    def label(self, i: int) -> str:
        return self.base.label(i)

    def __repr__(self):
        return f"Monoid(n={self.n}, identity={self.identity})"


@dataclass(frozen=True, repr=False)
class Subset:
    """A canonical (sorted, duplicate-free) set of element indices of a carrier."""

    carrier: FiniteSemigroup
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
        j = _first_non_index(members, self.carrier.n)
        if j is not None:
            raise BadSubset(f"member {members[j]!r} is not an element index")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, i: int) -> bool:
        return i in set(self.members)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __repr__(self):
        return f"Subset({list(self.members)})"


SemigroupLike = Union[FiniteSemigroup, Monoid]


def as_semigroup(s: SemigroupLike) -> FiniteSemigroup:
    return s.base if isinstance(s, Monoid) else s


def validate_semigroup(table, labels=None) -> FiniteSemigroup:
    """Validate closure and associativity of a square product table."""
    return FiniteSemigroup(table, labels)


def find_identity(s: SemigroupLike) -> Optional[int]:
    """The unique two-sided identity, or None when there is none."""
    s = as_semigroup(s)
    t = s.table
    for e in range(s.n):
        if all(t[e][i] == i and t[i][e] == i for i in range(s.n)):
            return e
    return None


def adjoin_identity(s: SemigroupLike) -> Monoid:
    """Add a fresh two-sided identity as element ``n``, even if one exists.

    Old indices and products are untouched, so subsets of ``s`` remain
    meaningful in the result.
    """
    s = as_semigroup(s)
    n = s.n
    rows = [row + (i,) for i, row in enumerate(s.table)]
    rows.append(tuple(range(n + 1)))
    labels = s.labels + ("1",) if s.labels is not None else None
    return Monoid(FiniteSemigroup(tuple(rows), labels), n)


def is_group(m: Monoid) -> bool:
    """True iff the table is a Latin square (with the monoid's identity)."""
    t = m.table
    full = list(range(m.n))
    for i in range(m.n):
        if sorted(t[i]) != full:
            return False
        if sorted(t[j][i] for j in range(m.n)) != full:
            return False
    return True


def generated_subsemigroup(s: SemigroupLike, gens: Union[Subset, Iterable[int]]) -> Subset:
    """Smallest subset containing ``gens`` and closed under the product."""
    s = as_semigroup(s)
    members = tuple(gens.members if isinstance(gens, Subset) else gens)
    if not members:
        raise EmptyGenerators("at least one generator is required")
    seed = Subset(s, members)  # validates the indices
    return Subset(s, tuple(closure(s.table, seed.members)))


def closure(table: Table, seeds: Iterable[int]) -> set[int]:
    """The least superset of ``seeds`` closed under the product of ``table``.

    A worklist: each new element is multiplied, on both sides, by itself and
    every element found before it, so each product is formed once.
    """
    found = list(dict.fromkeys(seeds))
    closed = set(found)
    for i, a in enumerate(found):  # grows while it is walked
        row = table[a]
        for b in found[: i + 1]:
            for p in (row[b], table[b][a]):
                if p not in closed:
                    closed.add(p)
                    found.append(p)
    return closed


def partition(n: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The classes of the equivalence on ``range(n)`` generated by ``links``.

    A union-find.  Each class is sorted, and the classes are ordered by
    their least member.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for x, y in links:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(v)
    return list(classes.values())


def group_inverses(table: Table, identity: int) -> tuple[int, ...]:
    """``inv[g]``, the ``h`` with ``g*h == identity``, for a group table."""
    return tuple(row.index(identity) for row in table)


def typed_isomorphism(types, tables1, tables2, keys1, keys2, fixed, order):
    """A slot-wise bijection between two structures of typed tables, or None.

    ``types`` maps a pair of slots ``(s1, s2)`` to the slot of their
    products, and ``tables1[s1, s2][i][j]`` is the position of ``i*j`` in
    that slot (likewise ``tables2``).  ``keys1[s][i]`` is an invariant of
    element ``i`` of slot ``s``; only elements with equal keys are matched.
    The pairs ``(s, i, v)`` in ``fixed`` are assigned first, then the search
    branches on the ``(s, i)`` of ``order`` in turn, trying images in index
    order.  Every assignment is propagated through the products of all
    assigned pairs, so a branch dies as soon as two products disagree.

    Returns ``{s: images}`` with ``images[i]`` the image of element ``i``;
    the first map found is the least in that order.
    """
    if any(sorted(keys1[s]) != sorted(keys2[s]) for s in keys1):
        return None
    img = {s: [None] * len(k) for s, k in keys1.items()}
    used = {s: [False] * len(k) for s, k in keys1.items()}
    trail: list[tuple] = []
    # for each slot: (other factor's slot, product slot, rows of both tables
    # indexed by this slot's element); a table whose right factor is the
    # slot enters transposed
    links: dict = {s: [] for s in keys1}
    for (s1, s2), r in types.items():
        t1, t2 = tables1[s1, s2], tables2[s1, s2]
        links[s1].append((s2, r, t1, t2))
        links[s2].append((s1, r, tuple(zip(*t1)), tuple(zip(*t2))))

    def assign(s0, i0, v0) -> bool:
        queue = [(s0, i0, v0)]
        while queue:
            s, i, v = queue.pop()
            current = img[s][i]
            if current is not None:
                if current != v:
                    return False
                continue
            if used[s][v] or keys1[s][i] != keys2[s][v]:
                return False
            img[s][i] = v
            used[s][v] = True
            trail.append((s, i))
            for other, r, t1, t2 in links[s]:
                row1, row2, target = t1[i], t2[v], img[r]
                for j, w in enumerate(img[other]):
                    if w is not None:
                        p, q = row1[j], row2[w]
                        if target[p] is None:
                            queue.append((r, p, q))
                        elif target[p] != q:
                            return False
        return True

    def backtrack(k: int) -> bool:
        while k < len(order) and img[order[k][0]][order[k][1]] is not None:
            k += 1
        if k == len(order):
            return True
        s, i = order[k]
        for v in range(len(keys2[s])):
            if used[s][v] or keys2[s][v] != keys1[s][i]:
                continue
            mark = len(trail)
            if assign(s, i, v) and backtrack(k + 1):
                return True
            while len(trail) > mark:
                s_, i_ = trail.pop()
                used[s_][img[s_][i_]] = False
                img[s_][i_] = None
        return False

    if not all(assign(s, i, v) for s, i, v in fixed) or not backtrack(0):
        return None
    return {s: tuple(images) for s, images in img.items()}


def idempotents(s: SemigroupLike) -> Subset:
    s = as_semigroup(s)
    return Subset(s, tuple(i for i in range(s.n) if s.table[i][i] == i))


def sub_semigroup(s: SemigroupLike, members: Union[Subset, Iterable[int]]):
    """Restrict the table to a closed subset.

    Returns ``(semigroup, index_map)`` where ``index_map[new] == old``; the
    restriction keeps the ambient labels so reports stay readable.
    """
    s = as_semigroup(s)
    subset = members if isinstance(members, Subset) else Subset(s, tuple(members))
    if len(subset) == 0:
        raise BadSubset("cannot restrict to the empty subset")
    old = subset.members
    pos = {o: i for i, o in enumerate(old)}
    rows = []
    for a in old:
        row = []
        for b in old:
            p = s.table[a][b]
            if p not in pos:
                raise BadSubset(f"subset is not closed: {a}*{b} = {p} escapes")
            row.append(pos[p])
        rows.append(tuple(row))
    labels = tuple(s.label(o) for o in old)
    return FiniteSemigroup(tuple(rows), labels), old


def parse_cayley(text: str) -> SemigroupLike:
    """Parse the plain-text table format.

    Line 1 is ``n``; the next ``n`` lines are the table rows; an optional
    trailing line of exactly the two tokens ``identity k`` promotes the
    result to a ``Monoid``.  Lines starting with ``#`` are comments.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("no content")
    try:
        n = int(lines[0])
    except ValueError:
        raise FormatError(f"expected an element count, got {lines[0]!r}") from None
    if n <= 0:
        raise FormatError("element count must be positive")
    if len(lines) < n + 1:
        raise FormatError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1 : n + 1]:
        try:
            row = tuple(map(int, ln.split()))
        except ValueError:
            raise FormatError(f"bad table row: {ln!r}") from None
        if len(row) != n:
            raise FormatError(f"row {ln!r} has {len(row)} entries, expected {n}")
        rows.append(row)
    identity = None
    rest = lines[n + 1 :]
    if rest:
        tokens = rest[0].split()
        if len(rest) != 1 or tokens[0] != "identity":
            raise FormatError(f"unexpected trailing content: {rest[0]!r}")
        try:
            (identity,) = map(int, tokens[1:])
        except ValueError:
            raise FormatError(f"bad identity line: {rest[0]!r}") from None
    s = validate_semigroup(rows)
    if identity is None:
        return s
    return Monoid(s, identity)


def dump_cayley(s: SemigroupLike) -> str:
    """Serialize a semigroup or monoid in the plain-text table format."""
    base = as_semigroup(s)
    out = [str(base.n)]
    out.extend(" ".join(str(v) for v in row) for row in base.table)
    if isinstance(s, Monoid):
        out.append(f"identity {s.identity}")
    return "\n".join(out) + "\n"
