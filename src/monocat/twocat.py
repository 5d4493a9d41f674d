"""Two-object categories presented by four hom-sets and eight typed tables.

The hom-sets sit in a 2x2 layout

    ( A  L )
    ( R  G )

with ``A`` and ``G`` the two endomorphism monoids and ``L``, ``R`` the two
bimodules.  Juxtaposition ``x*y`` follows the block-product typing, giving
exactly eight composition tables (``AA->A``, ``AL->L``, ``LG->L``,
``LR->A``, ``RA->R``, ``GR->R``, ``RL->G``, ``GG->G``) and sixteen
well-typed associativity patterns.

Side convention (fixed once, here): ``L`` is the slot on which ``A`` acts
from the left and ``G`` from the right; for envelope categories built from
a monoid ``M`` with idempotents ``e1``, ``e2`` this means
``L = e1*M*e2`` and ``R = e2*M*e1``.  Hom-set elements keep their ambient
indices as labels, so cross-module comparisons are literal set equalities.

Tables are checked with ``core.checked_table``, orbits come from
``core.partition`` and isomorphisms from ``core.typed_isomorphism``.
:func:`validate_category` decides associativity with Light's test over a
generating set of morphisms, as ``core`` does for semigroups, and scans
every composable triple only when that test fails, to name the first bad
one.  An envelope from :func:`karoubi_pair` is valid by construction and is
not validated there; :func:`compose_categories` validates its result once.
Theorems about the constructions are checked with ``errors.require``, which
``python -O`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .bimodule import Bimodule, tensor
from .check import Check, PASSED, failed
from .core import (
    FiniteSemigroup,
    Monoid,
    Subset,
    adjoin_identity,
    as_semigroup,
    checked_table,
    group_inverses,
    is_group,
    is_index,
    partition,
    row_picker,
    sub_semigroup,
    typed_isomorphism,
)
from .errors import (
    AIsGroup,
    AlgebraError,
    EmptyBimodule,
    FormatError,
    GSideNotGroup,
    IllDefinedComposition,
    IsAGroup,
    MiddleMonoidMismatch,
    NotAGroup,
    NotIdempotent,
    NotSimple,
    TheoremViolation,
    require,
)
from .ideals import (
    LEFT,
    RIGHT,
    TWO_SIDED,
    IdealSubset,
    canonical_minimal_pair,
    group_handle_from_subset,
    group_of_intersection,
    is_simple,
    kernel,
    minimal_left_ideals,
    minimal_right_ideals,
    principal_two_sided_ideal,
    subset_product,
)

SLOTS = ("A", "L", "R", "G")

COMPOSE_TYPE = {
    ("A", "A"): "A",
    ("A", "L"): "L",
    ("L", "G"): "L",
    ("L", "R"): "A",
    ("R", "A"): "R",
    ("G", "R"): "R",
    ("R", "L"): "G",
    ("G", "G"): "G",
}

TABLE_KEYS = ("AA", "AL", "LG", "LR", "RA", "GR", "RL", "GG")


def triple_patterns() -> list[tuple[str, str, str]]:
    """All well-typed slot triples; there are exactly sixteen."""
    pats = []
    for (s1, s2) in COMPOSE_TYPE:
        for s3 in SLOTS:
            if (s2, s3) in COMPOSE_TYPE:
                pats.append((s1, s2, s3))
    return sorted(pats)


@dataclass(frozen=True, repr=False)
class TwoObjectCategory:
    """Four hom-sets with the eight typed composition tables.

    ``comp[key][i][j]`` is the position of ``i*j`` in the result slot for
    ``key`` in :data:`TABLE_KEYS`.  Construction checks shapes, types and
    index ranges only; semantic validity (identity laws and all sixteen
    associativity patterns) is the job of :func:`validate_category`, so
    deliberately corrupted tables remain representable for diagnostics.
    """

    a_elems: tuple
    l_elems: tuple
    r_elems: tuple
    g_elems: tuple
    a_identity: int
    g_identity: int
    comp: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("a_elems", "l_elems", "r_elems", "g_elems"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.l_elems or not self.r_elems:
            raise EmptyBimodule("both bimodule slots must be nonempty")
        for key in TABLE_KEYS:
            if key not in self.comp:
                raise FormatError(f"missing composition table {key}")
        sizes = self.sizes()
        comp = {
            s1 + s2: checked_table(self.comp[s1 + s2], sizes[s1], sizes[s2], sizes[r],
                                   f"table {s1 + s2} must be |{s1}| x |{s2}|")
            for (s1, s2), r in COMPOSE_TYPE.items()
        }
        object.__setattr__(self, "comp", comp)
        if not is_index(self.a_identity, sizes["A"]) or not is_index(self.g_identity, sizes["G"]):
            raise FormatError("identity positions must be element indices")

    def elems(self, slot: str) -> tuple:
        return getattr(self, slot.lower() + "_elems")

    def size(self, slot: str) -> int:
        return len(self.elems(slot))

    def sizes(self) -> dict[str, int]:
        return {s: self.size(s) for s in SLOTS}

    def compose(self, s1: str, s2: str, i: int, j: int) -> int:
        return self.comp[s1 + s2][i][j]

    @cached_property
    def a_monoid(self) -> Monoid:
        labels = tuple(str(x) for x in self.a_elems)
        return Monoid(FiniteSemigroup(self.comp["AA"], labels), self.a_identity)

    @cached_property
    def g_monoid(self) -> Monoid:
        labels = tuple(str(x) for x in self.g_elems)
        return Monoid(FiniteSemigroup(self.comp["GG"], labels), self.g_identity)

    def __repr__(self):
        s = self.sizes()
        return f"TwoObjectCategory(|A|={s['A']}, |L|={s['L']}, |R|={s['R']}, |G|={s['G']})"


def validate_category(c: TwoObjectCategory) -> Check:
    """Check the identity laws and all sixteen associativity patterns.

    Associativity is decided by Light's test over a generating set of
    morphisms (:func:`_passes_light_test`); only a category that fails it is
    scanned over every composable triple.  Returns a truthy check; on
    failure the detail names the first violated law, or the first triple
    in the order of :func:`triple_patterns` together with its pattern.
    """
    ea, eg = c.a_identity, c.g_identity
    aa, al, lg, lr, ra, gr, rl, gg = (c.comp[k] for k in TABLE_KEYS)
    for i in range(c.size("A")):
        if aa[ea][i] != i or aa[i][ea] != i:
            return failed(f"A identity law fails at A element {i}")
    for i in range(c.size("G")):
        if gg[eg][i] != i or gg[i][eg] != i:
            return failed(f"G identity law fails at G element {i}")
    for x in range(c.size("L")):
        if al[ea][x] != x:
            return failed(f"A identity law fails on L at {x}")
        if lg[x][eg] != x:
            return failed(f"G identity law fails on L at {x}")
    for y in range(c.size("R")):
        if ra[y][ea] != y:
            return failed(f"A identity law fails on R at {y}")
        if gr[eg][y] != y:
            return failed(f"G identity law fails on R at {y}")
    if _passes_light_test(c):
        return PASSED
    return _first_violation(c)


# for each slot: the (slot, product slot) pairs of the slots composable after
# it, and of those composable before it
_AFTER = {s: tuple((t, r) for (p, t), r in COMPOSE_TYPE.items() if p == s) for s in SLOTS}
_BEFORE = {s: tuple((p, r) for (p, t), r in COMPOSE_TYPE.items() if t == s) for s in SLOTS}
# for each middle slot s2: the tables (s1 s2, s12 s3, s2 s3, s1 s23) of its four patterns
_PATTERNS_BY_MIDDLE = {
    s: tuple((s1 + s2, COMPOSE_TYPE[s1, s2] + s3, s2 + s3, s1 + COMPOSE_TYPE[s2, s3])
             for (s1, s2, s3) in triple_patterns() if s2 == s)
    for s in SLOTS
}


def _word_generators(c: TwoObjectCategory) -> dict[str, list[int]]:
    """Morphisms, chosen greedily by slot and index, whose composable
    left-bracketed words ``(..((a1*a2)*a3)..)*ak`` reach every morphism but
    the two identities, which need no generator: words through an identity
    add nothing."""
    comp = c.comp
    reached = {s: [False] * c.size(s) for s in SLOTS}
    reached["A"][c.a_identity] = reached["G"][c.g_identity] = True
    words: dict[str, list[int]] = {s: [] for s in SLOTS}
    gens: dict[str, list[int]] = {s: [] for s in SLOTS}
    after = {s: [(r, comp[s + t], gens[t]) for t, r in _AFTER[s]] for s in SLOTS}
    before = {s: [(r, comp[p + s], words[p]) for p, r in _BEFORE[s]] for s in SLOTS}
    for s in SLOTS:
        reached_s, gens_s, before_s = reached[s], gens[s], before[s]
        for x in range(len(reached_s)):
            if reached_s[x]:
                continue
            gens_s.append(x)
            # chunks (slot, positions) of new words: x, then every word times x
            frontier = [(s, (x,))]
            frontier += [(r, list(map(itemgetter(x), map(table.__getitem__, found))))
                         for r, table, found in before_s if found]
            for t, ys in frontier:  # grows while it is walked
                seen, found, links = reached[t], words[t], after[t]
                for y in ys:
                    if not seen[y]:
                        seen[y] = True
                        found.append(y)
                        frontier += [(r, list(map(table[y].__getitem__, g)))
                                     for r, table, g in links if g]
    return gens


def _passes_light_test(c: TwoObjectCategory) -> bool:
    """Light's test: ``(x*a)*z == x*(a*z)`` for every generator ``a`` of
    :func:`_word_generators` and all composable ``x``, ``z``.

    Exact once the identity laws hold.  Call ``m`` a good middle when the
    identity holds for every composable ``x`` and ``z``; as for
    ``core._passes_light_test``, good middles are closed under composition,
    and the identities are good middles by the identity laws, so every
    morphism is one.  For each generator and pattern the rows
    ``(x*a)*_`` and ``x*(a*_)`` are compared for all ``x`` at once.
    """
    comp = c.comp
    gens = _word_generators(c)
    for s2, patterns in _PATTERNS_BY_MIDDLE.items():
        for a in gens[s2]:
            for k12, k12_3, k23, k1_23 in patterns:
                if (list(map(comp[k12_3].__getitem__, map(itemgetter(a), comp[k12])))
                        != list(map(row_picker(comp[k23][a]), comp[k1_23]))):
                    return False
    return True


def _first_violation(c: TwoObjectCategory) -> Check:
    """The first violated triple, scanning every pattern exhaustively.

    Only called on a category that failed Light's test, so one exists.
    """
    for (s1, s2, s3) in triple_patterns():
        r12 = COMPOSE_TYPE[(s1, s2)]
        r23 = COMPOSE_TYPE[(s2, s3)]
        t12 = c.comp[s1 + s2]
        t12_3 = c.comp[r12 + s3]
        t23 = c.comp[s2 + s3]
        t1_23 = c.comp[s1 + r23]
        n1, n2, n3 = c.size(s1), c.size(s2), c.size(s3)
        for i in range(n1):
            row12 = t12[i]
            row1 = t1_23[i]
            for j in range(n2):
                left_row = t12_3[row12[j]]
                row23 = t23[j]
                for k in range(n3):
                    if left_row[k] != row1[row23[k]]:
                        return failed(
                            f"associativity pattern {s1}{s2}{s3} fails at ({i},{j},{k})"
                        )
    raise TheoremViolation("a category that fails Light's test has a violation")


def karoubi_pair(m: Monoid, e1: int, e2: int) -> TwoObjectCategory:
    """The two-object envelope category cut out by two idempotents.

    Hom-sets are the ambient subsets ``e1*M*e1``, ``e1*M*e2``, ``e2*M*e1``
    and ``e2*M*e2`` with composition inherited from the product of ``m``;
    ``e1`` and ``e2`` become the two identities.
    """
    t = m.table
    for e in (e1, e2):
        if not 0 <= e < m.n or t[e][e] != e:
            raise NotIdempotent(e)

    def box(p, q):
        return tuple(sorted({t[t[p][x]][q] for x in range(m.n)}))

    sets = {"A": box(e1, e1), "L": box(e1, e2), "R": box(e2, e1), "G": box(e2, e2)}
    pos = {s: {v: i for i, v in enumerate(sets[s])} for s in SLOTS}
    comp = {}
    for (s1, s2), r in COMPOSE_TYPE.items():
        lookup = pos[r]
        comp[s1 + s2] = tuple(
            tuple(lookup[t[a][b]] for b in sets[s2]) for a in sets[s1]
        )
    return TwoObjectCategory(
        a_elems=sets["A"],
        l_elems=sets["L"],
        r_elems=sets["R"],
        g_elems=sets["G"],
        a_identity=pos["A"][e1],
        g_identity=pos["G"][e2],
        comp=comp,
    )


def groupoid_from_group(m: Monoid) -> TwoObjectCategory:
    """Two isomorphic objects over a group: all four hom-sets are the group."""
    if not is_group(m):
        raise NotAGroup("the groupoid construction needs a group")
    return karoubi_pair(m, m.identity, m.identity)


def category_from_simple(s) -> TwoObjectCategory:
    """Build the envelope category of a simple semigroup.

    Adjoins a fresh identity, picks the canonical minimal left/right ideals
    ``L`` and ``R``, and cuts the category at the new identity and the
    identity of the intersection group ``G = L ∩ R``.
    """
    s = as_semigroup(s)
    if not is_simple(s):
        raise NotSimple("the construction starts from a simple semigroup")
    m = adjoin_identity(s)
    left, right = canonical_minimal_pair(s)
    handle = group_of_intersection(left, right)
    c = karoubi_pair(m, m.identity, handle.identity)
    require(c.g_elems == handle.elements)
    require(c.l_elems == left.members and c.r_elems == right.members)
    prod = subset_product(Subset(m.base, left.members), Subset(m.base, right.members))
    require(prod.members == tuple(range(s.n)), "L*R must recover the simple semigroup")
    require(s.n * handle.order == len(left.members) * len(right.members))
    return c


def category_from_monoid(a: Monoid) -> TwoObjectCategory:
    """Cut the envelope category of a non-group monoid at its kernel group.

    Uses ``e1 = 1`` and ``e2`` the identity of ``G = L ∩ R`` for the
    canonical minimal ideals ``L``, ``R`` (which coincide with those of the
    kernel).  Group inputs are refused: the analogous object is the
    groupoid, built by :func:`groupoid_from_group`.
    """
    if is_group(a):
        raise IsAGroup("group input; use groupoid_from_group instead")
    kern = kernel(a)
    left, right = canonical_minimal_pair(a.base)
    handle = group_of_intersection(left, right)
    kernset = set(kern.members)
    require(set(left.members) <= kernset and set(right.members) <= kernset)
    require(a.identity not in kernset, "a non-group monoid never meets its kernel at 1")
    c = karoubi_pair(a, a.identity, handle.identity)
    require(c.a_elems == tuple(range(a.n)))
    require(c.l_elems == left.members and c.r_elems == right.members)
    require(c.g_elems == handle.elements)
    lr = c.comp["LR"]
    one = c.a_elems.index(a.identity)
    require(all(one not in row for row in lr), "no bimodule pair may compose to the identity")
    require(a.n >= (len(left.members) * len(right.members)) // handle.order + 1)
    return c


def slot_bimodule(c: TwoObjectCategory, slot: str) -> Bimodule:
    """The L or R hom-set as a bimodule over the two endomorphism monoids."""
    if slot == "L":
        return Bimodule(c.a_monoid, c.g_monoid, c.size("L"), c.comp["AL"], c.comp["LG"])
    if slot == "R":
        return Bimodule(c.g_monoid, c.a_monoid, c.size("R"), c.comp["GR"], c.comp["RA"])
    raise ValueError(f"no bimodule slot {slot!r}")


def extract_simple(c: TwoObjectCategory) -> IdealSubset:
    """``S = L*R`` inside the A-side monoid, verified simple two ways.

    Simplicity is checked both by the recovery argument (the canonical
    composite lies in every principal two-sided ideal of ``S``) and
    independently by the principal-ideal scan on the restricted table.
    The exact identity ``|S| * |G| == |L| * |R|`` is checked.
    """
    gm = c.g_monoid
    if not is_group(gm):
        raise GSideNotGroup("extraction needs a group on the G side")
    nl, nr = c.size("L"), c.size("R")
    if nl == 0 or nr == 0:
        raise EmptyBimodule("extraction needs nonempty bimodules")
    lr = c.comp["LR"]
    members = tuple(sorted({lr[u][v] for u in range(nl) for v in range(nr)}))
    am = c.a_monoid
    ideal = IdealSubset(Subset(am.base, members), TWO_SIDED, generator=None)
    sub, old = sub_semigroup(am.base, members)
    require(is_simple(sub))
    pos = {o: i for i, o in enumerate(old)}
    recovered = pos[lr[0][0]]
    require(all(recovered in principal_two_sided_ideal(sub, a).members for a in range(sub.n)))
    require(len(members) * c.size("G") == nl * nr)
    return ideal


def is_reduced(c: TwoObjectCategory) -> bool:
    """False iff some pair composes to both identities, i.e. the objects are isomorphic."""
    lr, rl = c.comp["LR"], c.comp["RL"]
    for u in range(c.size("L")):
        row = lr[u]
        for v in range(c.size("R")):
            if row[v] == c.a_identity and rl[v][u] == c.g_identity:
                return False
    return True


def ideal_slices(c: TwoObjectCategory, x: int, y: int):
    """The minimal ideals ``L_y = L*y`` and ``R_x = x*R`` with their group.

    ``x`` and ``y`` are positions in the L and R slots.  Returns
    ``(L_y, R_x, G_xy)`` as subsets of the A-side monoid;  ``G_xy = x*G*y``
    is checked to equal ``R_x ∩ L_y`` and to be a group, and
    ``L_y * R_x`` is checked to recover the extracted simple ideal.
    """
    gm = c.g_monoid
    if not is_group(gm):
        raise GSideNotGroup("ideal slices need a group on the G side")
    am = c.a_monoid
    lr, lg = c.comp["LR"], c.comp["LG"]
    nl, nr, ng = c.size("L"), c.size("R"), c.size("G")
    l_y = tuple(sorted({lr[u][y] for u in range(nl)}))
    r_x = tuple(sorted({lr[x][v] for v in range(nr)}))
    g_xy = tuple(sorted({lr[lg[x][g]][y] for g in range(ng)}))
    require(g_xy == tuple(sorted(set(l_y) & set(r_x))), "x*G*y must be the slice intersection")
    left = IdealSubset(Subset(am.base, l_y), LEFT, generator=None)
    right = IdealSubset(Subset(am.base, r_x), RIGHT, generator=None)
    require(l_y in [i.members for i in minimal_left_ideals(am.base)])
    require(r_x in [i.members for i in minimal_right_ideals(am.base)])
    handle = group_handle_from_subset(am.base, g_xy)
    simple = tuple(sorted({lr[u][v] for u in range(nl) for v in range(nr)}))
    require(subset_product(left.subset, right.subset).members == simple)
    return left, right, handle


def minimal_ideal_correspondence(c: TwoObjectCategory) -> Check:
    """Check that the slices exhaust the minimal ideals, orbit by orbit.

    ``{L*y : y}`` must equal the set of minimal left ideals of the A-side
    monoid, and the orbit set ``G\\R`` must biject onto it; symmetrically for
    ``{x*R : x}`` and the orbits of ``L`` under the right ``G``-action.
    """
    gm = c.g_monoid
    if not is_group(gm):
        raise GSideNotGroup("the correspondence needs a group on the G side")
    am = c.a_monoid
    lr, lg, gr = c.comp["LR"], c.comp["LG"], c.comp["GR"]
    nl, nr, ng = c.size("L"), c.size("R"), c.size("G")
    # per side: the slice of each element of the slot that indexes it, and
    # the links from each such element to its images under G
    sides = (
        ("left", "R", "L*y for y", minimal_left_ideals,
         [tuple(sorted({row[y] for row in lr})) for y in range(nr)],
         ((y, gr[g][y]) for y in range(nr) for g in range(ng))),
        ("right", "L", "x*R for x", minimal_right_ideals,
         [tuple(sorted(set(row))) for row in lr],
         ((x, lg[x][g]) for x in range(nl) for g in range(ng))),
    )
    for side, slot, slice_name, minimal_ideals, slices, links in sides:
        minimal = {i.members for i in minimal_ideals(am.base)}
        for k, sl in enumerate(slices):
            if sl not in minimal:
                return failed(f"{slice_name}={k} is not a minimal {side} ideal")
        if set(slices) != minimal:
            missing = minimal - set(slices)
            return failed(f"minimal {side} ideal {sorted(next(iter(missing)))} is not a slice")
        orbits = partition(len(slices), links)
        if len(orbits) != len(minimal):
            return failed(
                f"{len(orbits)} orbits on {slot} but {len(minimal)} minimal {side} ideals"
            )
        rep_slices = set()
        for orb in orbits:
            on_orbit = {slices[v] for v in orb}
            if len(on_orbit) != 1:
                return failed(f"slice is not constant on the orbit of {min(orb)}")
            rep_slices.add(on_orbit.pop())
        if len(rep_slices) != len(orbits):
            return failed(f"two distinct orbits yield the same minimal {side} ideal")
    return PASSED


@dataclass(frozen=True, repr=False)
class Standardization:
    """A standardized category with the explicit isomorphism onto it."""

    category: TwoObjectCategory
    a_map: tuple[int, ...]
    l_map: tuple[int, ...]
    r_map: tuple[int, ...]
    g_map: tuple[int, ...]
    x: int
    y: int

    @property
    def maps(self) -> dict[str, tuple[int, ...]]:
        return {"A": self.a_map, "L": self.l_map, "R": self.r_map, "G": self.g_map}

    def __repr__(self):
        return f"Standardization(x={self.x}, y={self.y}, {self.category!r})"


def standardize(c: TwoObjectCategory, x0: int = 0, y0: int = 0) -> Standardization:
    """Rewrite a category onto subsets of its own A-side monoid.

    Starting from any ``x0`` in L and ``y0`` in R, the R-side choice is
    corrected to ``y = (y0*x0)⁻¹ * y0`` so that ``y*x0`` is the G identity.
    The result is the envelope category of the A-side monoid at the
    idempotent ``x0*y``, together with the slot maps ``u -> u*y``,
    ``v -> x0*v`` and ``g -> x0*g*y``, verified to be a category
    isomorphism.
    """
    gm = c.g_monoid
    if not is_group(gm):
        raise GSideNotGroup("standardization needs a group on the G side")
    am = c.a_monoid
    if is_group(am):
        raise AIsGroup("standardization is for categories whose A side is not a group")
    lr, lg, gr, rl = c.comp["LR"], c.comp["LG"], c.comp["GR"], c.comp["RL"]
    nl, nr, ng = c.size("L"), c.size("R"), c.size("G")
    if not (0 <= x0 < nl and 0 <= y0 < nr):
        raise FormatError("starting positions out of range")
    g0 = rl[y0][x0]
    x, y = x0, gr[group_inverses(gm.table, gm.identity)[g0]][y0]
    require(rl[y][x] == c.g_identity)
    e2 = lr[x][y]
    cp = karoubi_pair(am, c.a_identity, e2)
    l_y = tuple(sorted({lr[u][y] for u in range(nl)}))
    r_x = tuple(sorted({lr[x][v] for v in range(nr)}))
    g_xy = tuple(sorted({lr[lg[x][g]][y] for g in range(ng)}))
    require(cp.l_elems == l_y and cp.r_elems == r_x and cp.g_elems == g_xy)
    a_map = tuple(range(am.n))
    l_map = tuple(cp.l_elems.index(lr[u][y]) for u in range(nl))
    r_map = tuple(cp.r_elems.index(lr[x][v]) for v in range(nr))
    g_map = tuple(cp.g_elems.index(lr[lg[x][g]][y]) for g in range(ng))
    std = Standardization(cp, a_map, l_map, r_map, g_map, x=x, y=y)
    verdict = verify_category_iso(c, cp, std.maps)
    if not verdict:
        raise AlgebraError(f"standardization maps fail to commute: {verdict.detail}")
    return std


def compose_categories(c1: TwoObjectCategory, c2: TwoObjectCategory) -> TwoObjectCategory:
    """Glue two categories along a shared middle monoid.

    ``c1`` ends in the same monoid ``B`` that ``c2`` starts with (literal
    table equality).  The new bimodules are the tensor classes
    ``L1 (x)_B L2`` and ``R2 (x)_B R1``; the two cross compositions send
    ``[l (x) l2] * [r2 (x) r]`` to ``l*((l2*r2)*r)`` and symmetrically, and
    are checked to be independent of the representatives.
    """
    if c1.comp["GG"] != c2.comp["AA"] or c1.g_identity != c2.a_identity:
        raise MiddleMonoidMismatch("the shared endomorphism monoid must match exactly")
    ts_l = tensor(slot_bimodule(c1, "L"), slot_bimodule(c2, "L"))
    ts_r = tensor(slot_bimodule(c2, "R"), slot_bimodule(c1, "R"))
    l_elems = tuple((c1.l_elems[p], c2.l_elems[q]) for (p, q) in ts_l.reps)
    r_elems = tuple((c2.r_elems[p], c1.r_elems[q]) for (p, q) in ts_r.reps)
    comp = {
        "AA": c1.comp["AA"],
        "AL": ts_l.bimodule.left_action,
        "LG": ts_l.bimodule.right_action,
        "LR": _glued(ts_l.classes, ts_r.classes, c1.comp["LR"], c1.comp["GR"], c2.comp["LR"], "L*R"),
        "RA": ts_r.bimodule.right_action,
        "GR": ts_r.bimodule.left_action,
        "RL": _glued(ts_r.classes, ts_l.classes, c2.comp["RL"], c2.comp["AL"], c1.comp["RL"], "R*L"),
        "GG": c2.comp["GG"],
    }
    c = TwoObjectCategory(
        a_elems=c1.a_elems,
        l_elems=l_elems,
        r_elems=r_elems,
        g_elems=c2.g_elems,
        a_identity=c1.a_identity,
        g_identity=c2.g_identity,
        comp=comp,
    )
    verdict = validate_category(c)
    if not verdict:
        raise IllDefinedComposition(f"composite fails validation: {verdict.detail}")
    return c


def _glued(xs, ys, outer, mid, inner, name: str) -> tuple[tuple[int, ...], ...]:
    """The composite ``outer[x0][mid[inner[x1][y0]][y1]]`` of tensor classes
    ``[x0 (x) x1]`` and ``[y0 (x) y1]``, checked to be independent of the
    representatives; ``L*R`` and ``R*L`` of a composite both have this form."""
    rows = []
    for cx in xs:
        row = []
        for cy in ys:
            values = {outer[x0][mid[inner[x1][y0]][y1]] for (x0, x1) in cx for (y0, y1) in cy}
            if len(values) != 1:
                raise IllDefinedComposition(
                    f"{name} composition depends on representatives at {cx[0]}, {cy[0]}")
            row.append(values.pop())
        rows.append(tuple(row))
    return tuple(rows)


def reverse(c: TwoObjectCategory) -> TwoObjectCategory:
    """Swap the two objects: A and G trade places, L and R trade places."""
    comp = {
        "AA": c.comp["GG"],
        "AL": c.comp["GR"],
        "LG": c.comp["RA"],
        "LR": c.comp["RL"],
        "RA": c.comp["LG"],
        "GR": c.comp["AL"],
        "RL": c.comp["LR"],
        "GG": c.comp["AA"],
    }
    return TwoObjectCategory(
        a_elems=c.g_elems,
        l_elems=c.r_elems,
        r_elems=c.l_elems,
        g_elems=c.a_elems,
        a_identity=c.g_identity,
        g_identity=c.a_identity,
        comp=comp,
    )


def relabel(c: TwoObjectCategory, perms: dict[str, tuple[int, ...]]) -> TwoObjectCategory:
    """Permute hom-set positions: ``perm[i]`` is the old position moved to ``i``."""
    full = {}
    inv = {}
    for s in SLOTS:
        perm = tuple(perms.get(s, range(c.size(s))))
        if sorted(perm) != list(range(c.size(s))):
            raise FormatError(f"bad permutation for slot {s}")
        full[s] = perm
        inverse = [0] * len(perm)
        for new, old in enumerate(perm):
            inverse[old] = new
        inv[s] = inverse
    comp = {}
    for (s1, s2), r in COMPOSE_TYPE.items():
        old = c.comp[s1 + s2]
        p1, p2, ir = full[s1], full[s2], inv[r]
        comp[s1 + s2] = tuple(
            tuple(ir[old[p1[i]][p2[j]]] for j in range(c.size(s2)))
            for i in range(c.size(s1))
        )
    elems = {s: tuple(c.elems(s)[full[s][i]] for i in range(c.size(s))) for s in SLOTS}
    return TwoObjectCategory(
        a_elems=elems["A"],
        l_elems=elems["L"],
        r_elems=elems["R"],
        g_elems=elems["G"],
        a_identity=inv["A"][c.a_identity],
        g_identity=inv["G"][c.g_identity],
        comp=comp,
    )


def verify_category_iso(c1: TwoObjectCategory, c2: TwoObjectCategory,
                        maps: dict[str, tuple[int, ...]]) -> Check:
    """Exhaustively check a quadruple of slot bijections for functoriality."""
    for s in SLOTS:
        m = maps[s]
        if len(m) != c1.size(s) or c2.size(s) != c1.size(s):
            return failed(f"slot {s}: map size mismatch")
        if sorted(m) != list(range(c2.size(s))):
            return failed(f"slot {s}: map is not a bijection")
    if maps["A"][c1.a_identity] != c2.a_identity:
        return failed("the A identity is not preserved")
    if maps["G"][c1.g_identity] != c2.g_identity:
        return failed("the G identity is not preserved")
    for (s1, s2), r in COMPOSE_TYPE.items():
        t1, t2 = c1.comp[s1 + s2], c2.comp[s1 + s2]
        m1, m2, mr = maps[s1], maps[s2], maps[r]
        for i in range(c1.size(s1)):
            row = t1[i]
            trow = t2[m1[i]]
            for j in range(c1.size(s2)):
                if mr[row[j]] != trow[m2[j]]:
                    return failed(f"table {s1}{s2}: maps do not commute at ({i},{j})")
    return PASSED


def _element_keys(c: TwoObjectCategory, slot: str) -> list[tuple]:
    keys = []
    for i in range(c.size(slot)):
        feats = []
        for (s1, s2), r in COMPOSE_TYPE.items():
            t = c.comp[s1 + s2]
            if s1 == slot:
                feats.append(len({t[i][j] for j in range(c.size(s2))}))
            if s2 == slot:
                feats.append(len({t[x][i] for x in range(c.size(s1))}))
        if slot == "A":
            feats.append(c.comp["AA"][i][i] == i)
            feats.append(i == c.a_identity)
        elif slot == "G":
            feats.append(c.comp["GG"][i][i] == i)
            feats.append(i == c.g_identity)
        keys.append(tuple(feats))
    return keys


def _search_isomorphism(c1: TwoObjectCategory, c2: TwoObjectCategory):
    maps = typed_isomorphism(
        COMPOSE_TYPE,
        {pair: c1.comp["".join(pair)] for pair in COMPOSE_TYPE},
        {pair: c2.comp["".join(pair)] for pair in COMPOSE_TYPE},
        {s: _element_keys(c1, s) for s in SLOTS},
        {s: _element_keys(c2, s) for s in SLOTS},
        [("A", c1.a_identity, c2.a_identity), ("G", c1.g_identity, c2.g_identity)],
        [(s, i) for s in sorted(SLOTS, key=c1.size) for i in range(c1.size(s))],
    )
    if maps is not None:
        verdict = verify_category_iso(c1, c2, maps)
        if not verdict:
            raise TheoremViolation(f"the isomorphism found is not one: {verdict.detail}")
    return maps


def category_isomorphic(c1: TwoObjectCategory, c2: TwoObjectCategory) -> bool:
    """Search for an isomorphism, including the object-swapped orientation."""
    if _search_isomorphism(c1, c2) is not None:
        return True
    return _search_isomorphism(c1, reverse(c2)) is not None


def _labels_to_json(labels):
    def conv(x):
        if isinstance(x, tuple):
            return [conv(v) for v in x]
        return x

    return [conv(x) for x in labels]


def _labels_from_json(labels):
    def conv(x):
        if isinstance(x, list):
            return tuple(conv(v) for v in x)
        return x

    return tuple(conv(x) for x in labels)


def category_to_json_dict(c: TwoObjectCategory) -> dict:
    return {
        "hom_sizes": {s: c.size(s) for s in SLOTS},
        "a_identity": c.a_identity,
        "g_identity": c.g_identity,
        "labels": {s: _labels_to_json(c.elems(s)) for s in SLOTS},
        "tables": {k: [list(row) for row in c.comp[k]] for k in TABLE_KEYS},
    }


def category_from_json_dict(d: dict) -> TwoObjectCategory:
    try:
        labels = d["labels"]
        tables = d["tables"]
        return TwoObjectCategory(
            a_elems=_labels_from_json(labels["A"]),
            l_elems=_labels_from_json(labels["L"]),
            r_elems=_labels_from_json(labels["R"]),
            g_elems=_labels_from_json(labels["G"]),
            a_identity=d["a_identity"],
            g_identity=d["g_identity"],
            comp={k: tables[k] for k in TABLE_KEYS},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad category payload: {exc}") from None
