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
)

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, repr=False)
class FiniteSemigroup:
    """An associative magma on ``{0..n-1}`` given by its full product table."""

    table: Table
    labels: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def __post_init__(self):
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        n = len(table)
        if n == 0:
            raise FormatError("a semigroup needs at least one element")
        for i, row in enumerate(table):
            if len(row) != n:
                raise FormatError(f"row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise OutOfRange(i, j)
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
    raise AssertionError("a table that fails Light's test has a violation")


@dataclass(frozen=True, repr=False)
class Monoid:
    """A finite semigroup together with its (unique) two-sided identity."""

    base: FiniteSemigroup
    identity: int

    def __post_init__(self):
        t = self.base.table
        e = self.identity
        if not 0 <= e < self.base.n:
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
        n = self.carrier.n
        for m in members:
            if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m < n:
                raise BadSubset(f"member {m!r} is not an element index")

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
    if not table or any(len(row) != len(table) for row in table):
        raise FormatError("table must be square and nonempty")
    return FiniteSemigroup(tuple(tuple(row) for row in table), labels)


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
    t = s.table
    closed = set(seed.members)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            row = t[a]
            for b in list(closed):
                p = row[b]
                if p not in closed:
                    closed.add(p)
                    changed = True
    return Subset(s, tuple(closed))


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
    trailing ``identity k`` line promotes the result to a ``Monoid``.
    Lines starting with ``#`` are comments.
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
            row = tuple(int(tok) for tok in ln.split())
        except ValueError:
            raise FormatError(f"bad table row: {ln!r}") from None
        if len(row) != n:
            raise FormatError(f"row {ln!r} has {len(row)} entries, expected {n}")
        rows.append(row)
    identity = None
    rest = lines[n + 1 :]
    if rest:
        if len(rest) != 1 or not rest[0].startswith("identity"):
            raise FormatError(f"unexpected trailing content: {rest[0]!r}")
        try:
            identity = int(rest[0].split()[1])
        except (IndexError, ValueError):
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
