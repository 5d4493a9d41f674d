"""Bimodules over finite monoids, tensor products, and orbit quotients.

The tensor product of a right ``B``-set with a left ``B``-set is the
quotient of the pair set by the equivalence *generated by*
``(x*b, y) ~ (x, b*y)``; the classes come from the one union-find of
``core.partition``, over pairs coded as ``x*|Y| + y``.  When ``B`` is a
group the generated relation coincides with the orbit relation
``(x, y) ~ (x*g⁻¹, g*y)``, whose classes ``core.orbits`` finds on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product, starmap

from .check import Check, PASSED, failed
from .core import (Monoid, checked_table, first_violation, group_inverses, is_group, is_int,
                   orbit_failure, orbits, partition, row_picker, trusted)
from .errors import (
    ActionLawViolation,
    CommutationViolation,
    EmptyBimodule,
    FormatError,
    GSideNotGroup,
    IllDefinedAction,
    IllDefinedComposition,
    MonoidMismatch,
    NotAGroup,
    NotAGroupAction,
    TheoremViolation,
    UnitLawViolation,
)

Pair = tuple[int, int]


@dataclass(frozen=True, repr=False)
class Bimodule:
    """A finite set with commuting left and right monoid actions.

    ``left_action[a][x]`` is ``a*x`` and ``right_action[x][b]`` is ``x*b``.
    Construction checks shapes, types and ranges; the action laws are
    verified by :func:`validate_bimodule`, the entry point for untrusted
    tables.
    """

    left_monoid: Monoid
    right_monoid: Monoid
    size: int
    left_action: tuple[tuple[int, ...], ...]
    right_action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_int(self.size):
            raise FormatError(f"bimodule size {self.size!r} is not an integer")
        if self.size <= 0:
            raise EmptyBimodule("bimodules are nonempty by standing assumption")
        na, nx, nb = self.left_monoid.n, self.size, self.right_monoid.n
        object.__setattr__(self, "left_action", checked_table(
            self.left_action, na, nx, nx, "left action must be |A| x |X|"))
        object.__setattr__(self, "right_action", checked_table(
            self.right_action, nx, nb, nx, "right action must be |X| x |B|"))

    def __repr__(self):
        return f"Bimodule(|A|={self.left_monoid.n}, |X|={self.size}, |B|={self.right_monoid.n})"


def check_bimodule_laws(bm: Bimodule) -> None:
    """Raise on the first failed law: the unit laws, then the left action law
    ``(a*a2)*x``, the right action law ``(x*b)*b2`` and the commutation
    ``(a*x)*b``, each at its first triple by ``core.first_violation``."""
    la, ra = bm.left_action, bm.right_action
    ea, eb = bm.left_monoid.identity, bm.right_monoid.identity
    for x in range(bm.size):
        if la[ea][x] != x:
            raise UnitLawViolation("left", x)
        if ra[x][eb] != x:
            raise UnitLawViolation("right", x)
    # the slots: X, with A acting on the left and B on the right
    types = {("A", "A"): "A", ("A", "X"): "X", ("X", "B"): "X", ("B", "B"): "B"}
    tables = {"AA": bm.left_monoid.table, "AX": la, "XB": ra, "BB": bm.right_monoid.table}
    sizes = {"A": bm.left_monoid.n, "X": bm.size, "B": bm.right_monoid.n}
    found = first_violation(types, tables, sizes, ("AAX", "XBB", "AXB"))
    if found is None:
        return
    pattern, i, j, k = found
    if pattern == "AAX":
        raise ActionLawViolation("left", i, j, k)
    if pattern == "XBB":
        raise ActionLawViolation("right", j, k, i)
    raise CommutationViolation(i, j, k)


def validate_bimodule(left_monoid: Monoid, right_monoid: Monoid, size: int,
                      left_action, right_action) -> Bimodule:
    """Build a bimodule from untrusted tables, checking every law exhaustively."""
    bm = Bimodule(left_monoid, right_monoid, size, left_action, right_action)
    check_bimodule_laws(bm)
    return bm


def regular_bimodule(m: Monoid) -> Bimodule:
    """A monoid acting on itself by multiplication on both sides."""
    # the monoid's checked table has the shape of both actions
    return trusted(Bimodule, left_monoid=m, right_monoid=m, size=m.n,
                   left_action=m.table, right_action=m.table)


@dataclass(frozen=True, repr=False)
class TensorSet:
    """A partition of a pair set, with the induced outer actions.

    ``classes`` lists each equivalence class as a sorted tuple of pairs;
    classes are ordered by their smallest pair, which also serves as the
    canonical representative in ``reps``.  ``bimodule`` carries the induced
    actions of the outer monoids on class indices.
    """

    classes: tuple[tuple[Pair, ...], ...]
    reps: tuple[Pair, ...]
    bimodule: Bimodule

    @cached_property
    def _index(self) -> dict[Pair, int]:
        return {pair: ci for ci, cls in enumerate(self.classes) for pair in cls}

    def class_of(self, x: int, y: int) -> int:
        return self._index[(x, y)]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def __repr__(self):
        return f"TensorSet(classes={self.class_count})"


def _orbit_classes(xg, gy, group: Monoid) -> tuple[tuple[Pair, ...], ...]:
    """The orbits of ``group`` on ``X x Y`` under ``(x, y) ~ (x*g⁻¹, g*y)``,
    for the actions ``xg[x][g]`` and ``gy[g][y]``; else ``NotAGroupAction``
    at the first bad member of L, else of R, else a pair."""
    xs, ys = list(map(row_picker(group_inverses(group.table, group.identity)), xg)), list(zip(*gy))
    pairs = list(product(range(len(xs)), range(len(ys))))
    classes = orbits(pairs, starmap(zip, product(xs, ys)))
    if classes is None:
        for slot, members, images in (("L", range(len(xs)), xg), ("R", range(len(ys)), ys),
                                      ("L x R", pairs, starmap(zip, product(xs, ys)))):
            if (bad := orbit_failure(members, images)) is not None:
                raise NotAGroupAction(slot, bad)
    return tuple(classes)


def _induced_tensor(x: Bimodule, y: Bimodule, classes) -> TensorSet:
    index = {pair: ci for ci, cls in enumerate(classes) for pair in cls}
    a, c = x.left_monoid, y.right_monoid
    left_rows = []
    for ai in range(a.n):
        act = x.left_action[ai]
        row = []
        for cls in classes:
            images = {index[(act[p], q)] for (p, q) in cls}
            if len(images) != 1:
                raise IllDefinedAction(f"left action of {ai} splits class of {cls[0]}")
            row.append(images.pop())
        left_rows.append(tuple(row))
    right_rows = []
    for cls in classes:
        row = []
        for bi in range(c.n):
            images = {index[(p, y.right_action[q][bi])] for (p, q) in cls}
            if len(images) != 1:
                raise IllDefinedAction(f"right action of {bi} splits class of {cls[0]}")
            row.append(images.pop())
        right_rows.append(tuple(row))
    # every entry is a class index from ``index``, and there is a class
    bm = trusted(Bimodule, left_monoid=a, right_monoid=c, size=len(classes),
                 left_action=tuple(left_rows), right_action=tuple(right_rows))
    reps = tuple(cls[0] for cls in classes)
    return TensorSet(classes, reps, bm)


def tensor(x: Bimodule, y: Bimodule) -> TensorSet:
    """Quotient ``X x Y`` by the relation generated by ``(x*b, y) ~ (x, b*y)``.

    The factors must share the middle monoid; the induced outer actions are
    computed and checked to be independent of representatives.
    """
    if x.right_monoid != y.left_monoid:
        raise MonoidMismatch("tensor factors must share the middle monoid")
    nx, ny = x.size, y.size
    ra, la = x.right_action, y.left_action
    # the classes of the codes x*|Y| + y of pairs, ordered by their smallest pair
    classes = tuple(tuple(divmod(v, ny) for v in cls) for cls in partition(nx * ny, (
        (ra[p][bi] * ny + q, p * ny + la[bi][q])
        for p in range(nx) for bi in range(x.right_monoid.n) for q in range(ny)
    )))
    return _induced_tensor(x, y, classes)


def group_quotient(left: Bimodule, right: Bimodule, g: Monoid) -> TensorSet:
    """Quotient ``L x R`` by the orbit relation ``(x, y) ~ (x*g⁻¹, g*y)``.

    Requires ``g`` to be a group acting on the right of ``left`` and on the
    left of ``right``, or ``NotAGroupAction`` names where it does not.  The
    orbit partition is checked to coincide with the tensor partition.
    """
    if not is_group(g):
        raise NotAGroup("the quotient is by a group action")
    if left.right_monoid != g or right.left_monoid != g:
        raise MonoidMismatch("both factors must carry the action of the same group")
    orbit_classes = _orbit_classes(left.right_action, right.left_action, g)
    ts = tensor(left, right)
    if orbit_classes != ts.classes:
        raise TheoremViolation("orbit partition differs from the tensor partition")
    return ts


def mult_bijection_check(cat) -> Check:
    """Verify that composition induces a bijection ``L x R / G -> L*R``.

    ``cat`` is a two-object category whose G-side must be a group.  A false
    result names where G does not act, or the first collision; on success
    the exact counting identity ``|L*R| * |G| == |L| * |R|`` is also verified.
    """
    if not cat._g_is_group:
        raise GSideNotGroup("the bijection check needs a group on the G side")
    lr, nl, nr, ng = cat.comp["LR"], len(cat.l_elems), len(cat.r_elems), len(cat.g_elems)
    try:
        classes = _orbit_classes(cat.comp["LG"], cat.comp["GR"], cat.g_monoid)
    except NotAGroupAction as exc:
        return failed(str(exc))
    seen: dict[int, Pair] = {}
    for cls in classes:
        values = {lr[x][y] for (x, y) in cls}
        if len(values) != 1:
            raise IllDefinedComposition(f"composition splits the class of {cls[0]}")
        v = values.pop()
        if v in seen:
            return failed(f"classes of {seen[v]} and {cls[0]} both compose to {v}")
        seen[v] = cls[0]
    # the classes cover L x R, so their distinct values are all of L*R
    if len(seen) * ng != nl * nr:
        return failed(f"|L*R|*|G| = {len(seen) * ng} differs from |L|*|R| = {nl * nr}")
    return PASSED


def free_action_check(cat) -> Check:
    """Check that the G side acts freely on both bimodules of a category."""
    ng = len(cat.g_elems)
    for side, slot, images in (("right", "L", cat.comp["LG"]),
                               ("left", "R", zip(*cat.comp["GR"]))):
        bad = next((x for x, row in enumerate(images) if len(set(row)) != ng), None)
        if bad is not None:
            return failed(f"{side} action on {slot} is not free at element {bad}")
    return PASSED
