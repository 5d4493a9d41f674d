"""Finite semigroups and monoids presented by explicit Cayley tables.

Conventions used throughout the package:

* ``table[i][j]`` is the product ``i * j``, read left to right.
* Elements are their positions ``0..n-1``; derived subsets always keep the
  ambient indices, so subset equality is plain tuple equality.
* Input is validated once, at the boundary; what is derived from it is
  trusted.  The public constructors check shape, for outside input (a
  ``bytes`` row is in 0..255 by its type, so ``checked_table`` checks only
  the bound on the rows ``parse_cayley`` decodes), and every loader calls
  ``validate_semigroup``: ``parse_cayley``, the CLI's
  bimodule loader, ``rees.rees_from_json_dict`` and the ``corpus``
  families.  The constructor of ``rees.ReesMatrixSemigroup`` is the
  boundary for Rees structures: it checks the group, so a Rees product
  over it is associative and expanded unchecked.  A value the library
  derives from checked values is built by the private ``trusted``, which
  sets the fields without the constructor's checks; each caller says why
  those checks cannot fail.
* Associativity is decided by Light's test (Clifford & Preston, *The
  Algebraic Theory of Semigroups* I, §1.2): with ``A`` a set of elements
  whose left-bracketed words reach every element, it suffices to check
  ``(x*a)*y == x*(a*y)`` for ``a`` in ``A``, in ``O(n^2 |A|)`` steps, as
  byte rows for a table of at most 256 elements (same rows, same verdict).  Only
  a table that fails it is scanned exhaustively, by ``first_violation``, so
  that the reported triple is the lexicographically first violation.
* A ``FiniteSemigroup`` base keeps what is worked out from its table once
  (``_kept``), in its ``__dict__`` and as bools, ints and tuples only, so
  that nothing kept refers back to a semigroup or a category:
  ``validate_semigroup`` keeps the generators its Light's test passed on
  (read by ``kept_generators``; set there alone, never on a derived or
  wrapped table), ``is_group`` whether the table is a Latin square,
  ``ideals`` the kernel, the minimal ideals and the group, and
  ``twocat.karoubi_pair`` the slots and tables of each envelope cut from
  it.  A category whose ``AA`` table is such a base's own table skips the
  ``AAA`` pattern of its Light's test.
* The mechanisms the other modules share live here, once each:
  ``checked_table`` (shape, type and range of a table of indices),
  ``row_picker`` (a row read at given positions), ``reindexed`` (a table
  read at new positions and renamed: sub-semigroups, group tables, envelope
  and relabelled categories, the Rees sandwich), ``closure``,
  ``partition`` (the union-find classes of the tensor), ``orbits`` (a group
  action's orbits, exact for any input), ``group_inverses``,
  ``identity_failure`` (the two-sided identity test), ``word_generators``
  (the generators of Light's test and of group isomorphisms),
  ``typed_isomorphism`` (the one search),
  ``light_test`` (the one Light's test, over the typed tables of a semigroup or
  a category) and ``first_violation`` (the one scan for a failed associativity
  law, over those of a semigroup, a category or a bimodule's actions).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional, Union

from .errors import (
    BadSubset,
    EmptyGenerators,
    FormatError,
    InvalidIdentity,
    NotAssociative,
    OutOfRange,
    require,
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


def reindexed(table, rows, cols, index) -> Table:
    """``index[table[a][b]]`` for ``a`` in ``rows`` and ``b`` in ``cols``, for
    nonempty ``rows`` and ``cols``: a table read at new positions, its
    entries renamed, a row at a time at C speed: each picked row becomes a
    ``row_picker`` over ``index``.  ``index`` is a dict, list, tuple or
    range; a dict raises ``KeyError`` for a value it lacks."""
    pick = row_picker(cols)
    return tuple(row_picker(pick(table[a]))(index) for a in rows)


def checked_table(table, rows: int, cols: int, bound: int, shape: str) -> Table:
    """``table`` as tuples, checked to be a nonempty ``rows x cols`` table of
    indices below ``bound``.

    A wrong shape raises ``FormatError(shape)``; a bad entry raises
    ``OutOfRange`` at the first bad position in row-major order.  The
    entries are checked as one flat row, whole at C speed when they pass.
    Rows that are all ``bytes``, with ``bound <= 256``, hold ints in 0..255
    by their type, so only ``< bound`` is checked, by deleting those bytes;
    any failure falls through to the scan, which names the position.
    """
    table = tuple(table)
    if (bound <= 256 and set(map(type, table)) == {bytes} and len(table) == rows
            and set(map(len, table)) == {cols}
            and not b"".join(table).translate(None, bytes(range(bound)))):
        return tuple(map(tuple, table))
    table = tuple(map(tuple, table))
    if not table or len(table) != rows or any(len(row) != cols for row in table):
        raise FormatError(shape)
    p = _first_non_index(list(chain.from_iterable(table)), bound)
    if p is not None:
        raise OutOfRange(*divmod(p, cols))
    return table


def trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` set as
    given, without ``__post_init__``: for values derived from checked ones.

    Every field is passed, in the canonical form the constructor would make
    of it (tuples of tuples of ints, ``str`` label tuples, tuple elements).
    Loaders and the public constructors never use it.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, repr=False)
class FiniteSemigroup:
    """A product table on ``{0..n-1}``; :func:`validate_semigroup` checks its laws."""

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

    @property
    def n(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def __repr__(self):
        return f"FiniteSemigroup(n={self.n})"


def word_generators(table: Table) -> list[int]:
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


def _passes_light_test(table: Table) -> Optional[tuple[int, ...]]:
    """Light's test on a semigroup table: one slot, one pattern, the generators
    of :func:`word_generators`; returns them when it passes, else None."""
    gens = tuple(word_generators(table))
    return gens if light_test({"SS": table}, {"S": gens}, {"S": [("SS",) * 4]}) else None


def _first_violation(table: Table) -> tuple[int, int, int]:
    """The lexicographically first ``(i, j, k)`` with ``(i*j)*k != i*(j*k)``
    in a table that failed Light's test."""
    found = first_violation({("S", "S"): "S"}, {"SS": table}, {"S": len(table)}, ["SSS"])
    require(found is not None, "a table that fails Light's test has a violation")
    return found[1:]


@dataclass(frozen=True, repr=False)
class Monoid:
    """A finite semigroup together with its (unique) two-sided identity."""

    base: FiniteSemigroup
    identity: int

    def __post_init__(self):
        t = self.base.table
        e = self.identity
        if not is_index(e, self.base.n):
            raise FormatError(f"identity {e!r} is not an element index")
        bad = identity_failure(t, e, range(self.base.n))
        if bad is not None:
            raise InvalidIdentity(e, bad)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def table(self) -> Table:
        return self.base.table

    def mul(self, i: int, j: int) -> int:
        return self.base.table[i][j]

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

    def __repr__(self):
        return f"Subset({list(self.members)})"


SemigroupLike = Union[FiniteSemigroup, Monoid]


def as_semigroup(s: SemigroupLike) -> FiniteSemigroup:
    return s.base if isinstance(s, Monoid) else s


def validate_semigroup(table, labels=None) -> FiniteSemigroup:
    """Validate closure and associativity of a square product table.

    The result keeps the generators its Light's test passed on, the verdict
    that :func:`kept_generators` reads; this is the one place it is set.
    """
    s = FiniteSemigroup(table, labels)
    gens = _passes_light_test(s.table)
    if not gens:
        raise NotAssociative(*_first_violation(s.table))
    vars(s)["_generators"] = gens
    return s


def kept_generators(s: FiniteSemigroup) -> Optional[tuple[int, ...]]:
    """The generators ``s`` passed Light's test on in :func:`validate_semigroup`,
    or None for a semigroup that was not validated there (a derived or
    wrapped table): a table that has them is associative."""
    return vars(s).get("_generators")


def identity_failure(table: Table, e: int, members: Iterable[int]) -> Optional[int]:
    """The first of ``members`` that ``e`` does not fix on both sides, or None."""
    row_e = table[e]
    for i in members:
        if row_e[i] != i or table[i][e] != i:
            return i
    return None


def find_identity(s: SemigroupLike) -> Optional[int]:
    """The unique two-sided identity, or None when there is none."""
    s = as_semigroup(s)
    return next((e for e in range(s.n) if identity_failure(s.table, e, range(s.n)) is None), None)


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
    # each row of a checked table gains its own index, below n + 1, and the
    # new row is the identity's, so n is a two-sided identity
    return trusted(Monoid, base=trusted(FiniteSemigroup, table=tuple(rows), labels=labels),
                   identity=n)


def _kept(s, part: str, compute, *args):
    """``compute(s, *args)``, computed once per object and kept in its
    ``__dict__``, as ``functools.cached_property`` keeps a value."""
    kept = vars(s)
    if part not in kept:
        kept[part] = compute(s, *args)
    return kept[part]


def is_group(m: Monoid) -> bool:
    """True iff the monoid's table is a Latin square.  The identity is never
    read, so the verdict is the base's, kept there."""
    return _kept(as_semigroup(m), "_latin", _is_latin)


def _is_latin(s: FiniteSemigroup) -> bool:
    t = s.table
    full = list(range(s.n))
    for i in range(s.n):
        if sorted(t[i]) != full:
            return False
        if sorted(t[j][i] for j in range(s.n)) != full:
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
    their least member.  For the tensor, whose middle monoid need not be a
    group; a group's orbits come from :func:`orbits`.
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


def orbits(members, images) -> Optional[list[tuple]]:
    """A group's orbits on ``members`` as sorted tuples by least member, from
    each member's row of ``images`` (``x·G`` or ``G·x``); None unless each
    member is among its images and the distinct image sets have sizes summing
    to ``|members|``.  Every group action passes, and then those sets are the
    classes ``partition`` makes of the links from each member to its images."""
    rows = list(map(frozenset, images))
    distinct = set(rows)
    if (sum(map(len, distinct)) != len(members)
            or not all(map(frozenset.__contains__, rows, members))):
        return None
    return sorted(map(tuple, map(sorted, distinct)))


def orbit_failure(members, images):
    """The least member, for :func:`orbits`' arguments, that is not among its
    images or has one that is no member or has other images; None exactly
    when :func:`orbits` passes."""
    rows = dict(zip(members, map(frozenset, images)))
    return next((x for x in sorted(rows)
                 if x not in rows[x] or any(rows.get(y) != rows[x] for y in rows[x])), None)


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

    A map found with ``order`` naming every element is an isomorphism and
    needs no second check.  ``fixed`` (a category's identities) is assigned
    first and kept.  An image is taken only while unused in its slot, and
    equal sorted keys give equal slot sizes, so the map is a bijection.
    Each assignment sets or checks the image of its product with every
    assigned element of each slot it composes with, in either factor
    position and with itself, so the later of any two elements checks
    their product in every table.
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


def first_violation(types, tables, sizes, triples):
    """The first ``(pattern, i, j, k)`` with ``(i*j)*k != i*(j*k)``, or None.

    ``types[s1, s2]`` is the slot of ``x*y`` for ``x`` in slot ``s1`` and
    ``y`` in slot ``s2``, ``tables[s1 + s2][i][j]`` is the position of
    ``i*j`` in it, and ``sizes[s]`` is the size of slot ``s``.  The slot
    triples ``(s1, s2, s3)`` are scanned in the order of ``triples``, each in
    lexicographic order of ``(i, j, k)``; ``pattern`` is ``s1 + s2 + s3``.
    """
    for s1, s2, s3 in triples:
        t12, t23 = tables[s1 + s2], tables[s2 + s3]
        t12_3, t1_23 = tables[types[s1, s2] + s3], tables[s1 + types[s2, s3]]
        for i in range(sizes[s1]):
            row12, row1 = t12[i], t1_23[i]
            for j in range(sizes[s2]):
                left, row23 = t12_3[row12[j]], t23[j]
                for k in range(sizes[s3]):
                    if left[k] != row1[row23[k]]:
                        return s1 + s2 + s3, i, j, k
    return None


def light_test(tables, gens, patterns) -> bool:
    """Light's test over the typed tables of :func:`first_violation`:
    ``(x*a)*z == x*(a*z)`` for each generator ``a`` in ``gens[s]`` and each
    pattern in ``patterns[s]``, given as the keys ``(s1 s2, s12 s3, s2 s3,
    s1 s23)`` of its four tables, comparing the rows for all ``x`` at once.

    A square pattern (one table in all four roles: ``SSS``, ``AAA``, ``GGG``)
    of at most 256 elements compares the same rows as bytes: ``x*(a*z)`` over
    all ``z`` is row ``a`` translated through row ``x``.  ``bytes.translate``
    maps bytes only, and a small non-square table pays more to convert than
    it saves, so the rest compare tuples.

    Exact when the generators and any identities compose to every element,
    since the middles ``a`` for which the law holds are closed under the product.
    """
    rows = {}  # a square table's key -> its byte rows, and those padded to 256
    for s, middle in patterns.items():
        for a in gens[s]:
            for k12, k12_3, k23, k1_23 in middle:
                t = tables[k12]
                if k12 == k12_3 == k23 == k1_23 and len(t) <= 256:
                    if k12 not in rows:
                        b = list(map(bytes, t))
                        rows[k12] = b, [r.ljust(256, b"\0") for r in b]
                    b, padded = rows[k12]
                    left = map(b.__getitem__, map(itemgetter(a), t))
                    if list(left) != list(map(b[a].translate, padded)):
                        return False
                elif (list(map(tables[k12_3].__getitem__, map(itemgetter(a), t)))
                        != list(map(row_picker(tables[k23][a]), tables[k1_23]))):
                    return False
    return True


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
    old, t = subset.members, s.table
    pos = {o: i for i, o in enumerate(old)}
    try:
        rows = reindexed(t, old, old, pos)
    except KeyError:
        # only a subset that escapes is scanned, to name the first escape
        a, b = next((a, b) for a in old for b in old if t[a][b] not in pos)
        raise BadSubset(f"subset is not closed: {a}*{b} = {t[a][b]} escapes") from None
    labels = tuple(s.label(o) for o in old)
    # reindexed through pos has refused an escape, so every entry is below |old|
    return trusted(FiniteSemigroup, table=rows, labels=labels), old


# a number of the text formats and of corpus parameters: ASCII digits with an
# optional minus; int() alone also reads "+1", "1_0" and other scripts' digits
INT_TOKEN = re.compile(r"-?[0-9]+")


def parse_cayley(text: str) -> SemigroupLike:
    """Parse the plain-text table format.

    Line 1 is ``n``; the next ``n`` lines are the table rows; an optional
    trailing line of exactly the two tokens ``identity k`` promotes the
    result to a ``Monoid``.  Lines starting with ``#`` are comments.  A line
    ends at LF, CR LF or CR alone, and every number is an ``INT_TOKEN``.
    A row of canonical tokens decodes by lookup, as bytes for at most 256
    elements; the constructor still checks every row.
    """
    # str.splitlines would also end a line at \x0b, \x0c, \x1c-\x1e, \x85,
    # \u2028 and \u2029, which a comment line may hold
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [ln.strip() for ln in text.split("\n")]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("no content")

    def ints(tokens: list[str]):
        if not all(map(INT_TOKEN.fullmatch, tokens)):
            raise ValueError(tokens)
        return map(int, tokens)

    try:
        (n,) = ints(lines[0].split())
    except ValueError:
        raise FormatError(f"expected an element count, got {lines[0]!r}") from None
    if n <= 0:
        raise FormatError("element count must be positive")
    if len(lines) < n + 1:
        raise FormatError(f"expected {n} table rows, found {len(lines) - 1}")
    # a row of the entries str(0)..str(n-1) decodes by lookup; a row with
    # any other token ("007", "-0", "+1", "n", ...) is read or refused by int
    decode = {str(i): i for i in range(n)}.__getitem__
    decoded = bytes if n <= 256 else tuple
    rows = []
    for ln in lines[1 : n + 1]:
        tokens = ln.split()
        try:
            row = decoded(map(decode, tokens))
        except KeyError:
            try:
                row = tuple(ints(tokens))
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
            (identity,) = ints(tokens[1:])
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
