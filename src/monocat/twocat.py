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

The constructor checks tables with ``core.checked_table``; the categories
derived here (:func:`karoubi_pair`, :func:`reverse`, :func:`relabel`, the
composite) and the end monoids and slot bimodules are built by
``core.trusted`` without it.  The G-orbits on L and R come from
``core.orbits`` and isomorphisms from ``core.typed_isomorphism``.
:func:`validate_category` decides associativity with ``core.light_test``, the
test of tables, over generators from ``core.word_generators`` of A and G and
one L (R) generator per ``A*x*G`` (``G*y*A``); only when it fails does
``core.first_violation`` scan every composable triple.  It is a category's one
law check, after which ``a_monoid`` and ``g_monoid`` are trusted: a
:func:`karoubi_pair` envelope is valid by construction, and
:func:`compose_categories` validates its result once.  An envelope or
groupoid cut from a loaded monoid has the monoid's validated table as its
``AA`` table (and as ``GG`` for a groupoid), so :func:`validate_category`
skips the ``AAA`` (``GGG``) pattern that the loader's Light's test decided.
Each category works out its four slot sizes once, decides once whether its
G side is a group, and finds the set ``L*R`` of composites once, for every
check that reads them.
Theorems about the constructions are checked with ``errors.require``, which
``python -O`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .bimodule import Bimodule, tensor
from .check import Check, PASSED, failed
from .core import (
    FiniteSemigroup,
    Monoid,
    Subset,
    adjoin_identity,
    as_semigroup,
    checked_table,
    first_violation,
    group_inverses,
    identity_failure,
    is_group,
    is_index,
    is_int,
    kept_generators,
    light_test,
    orbit_failure,
    orbits,
    reindexed,
    row_picker,
    sub_semigroup,
    trusted,
    typed_isomorphism,
    word_generators,
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
    NotAGroupAction,
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
    _group,
    _kept,
    _kernel,
    _minimal,
    group_handle_from_subset,
    is_simple,
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

# the slot each slot becomes when the two objects trade places
_SWAP = {"A": "G", "L": "R", "R": "L", "G": "A"}


def triple_patterns() -> list[tuple[str, str, str]]:
    """All well-typed slot triples; there are exactly sixteen."""
    return sorted((s1, s2, s3) for (s1, s2) in COMPOSE_TYPE for s3 in SLOTS
                  if (s2, s3) in COMPOSE_TYPE)


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
        sizes = self._sizes
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
        return self._sizes[slot]

    def sizes(self) -> dict[str, int]:
        return dict(self._sizes)

    @cached_property
    def _sizes(self) -> dict[str, int]:
        """The four slot sizes, worked out once; the slots never change."""
        return {s: len(self.elems(s)) for s in SLOTS}

    # the category's shape check covers the table; the identity check stays,
    # since the category may not have been validated
    @cached_property
    def a_monoid(self) -> Monoid:
        base = trusted(FiniteSemigroup, table=self.comp["AA"], labels=tuple(map(str, self.a_elems)))
        return Monoid(base, self.a_identity)

    @cached_property
    def g_monoid(self) -> Monoid:
        base = trusted(FiniteSemigroup, table=self.comp["GG"], labels=tuple(map(str, self.g_elems)))
        return Monoid(base, self.g_identity)

    @cached_property
    def _g_is_group(self) -> bool:
        """Whether the G side is a group, decided once for every check that needs one."""
        return is_group(self.g_monoid)

    @cached_property
    def _composites(self) -> tuple[int, ...]:
        """``L*R``, the A-side positions of all composites, sorted."""
        return tuple(sorted({p for row in self.comp["LR"] for p in row}))

    def __repr__(self):
        s = self.sizes()
        return f"TwoObjectCategory(|A|={s['A']}, |L|={s['L']}, |R|={s['R']}, |G|={s['G']})"


def _category(a_elems, l_elems, r_elems, g_elems, a_identity, g_identity, comp):
    """A category derived from checked ones, built by ``core.trusted``: the
    callers pass tuples of elements and tables in their checked shapes."""
    return trusted(TwoObjectCategory, a_elems=a_elems, l_elems=l_elems, r_elems=r_elems,
                   g_elems=g_elems, a_identity=a_identity, g_identity=g_identity, comp=comp)


def validate_category(c: TwoObjectCategory) -> Check:
    """Check the identity laws and all sixteen associativity patterns.

    Associativity is decided by ``core.light_test`` over the generating set
    of :func:`_word_generators`; only a category that fails it is
    scanned over every composable triple.  Returns a truthy check; on
    failure the detail names the first violated law, or the first triple
    in the order of :func:`triple_patterns` together with its pattern.

    **A pattern decided at load is not tested again** (:func:`_decided`).
    When the ``AA`` table is, as an object, the table of a base that
    ``core.validate_semigroup`` passed, ``AAA`` holds for every triple, and
    so does ``GGG`` when the ``GG`` table is that table too (a groupoid).
    Light's test then skips those patterns and takes that slot's generators
    from the ones kept on the base, which are ``word_generators`` of the same
    table.  It stays exact.  Call a morphism ``b`` good when ``(x*b)*z ==
    x*(b*z)`` for every composable ``x`` and ``z``.  A generator that passes
    the tested patterns of its slot is good, since a skipped pattern holds
    for all triples; the identities are good by the identity laws, checked
    first.  For good ``b`` and ``c``, ``(x*(b*c))*z = ((x*b)*c)*z =
    (x*b)*(c*z) = x*(b*(c*z)) = x*((b*c)*z)``, each step a triple whose
    middle is ``b`` or ``c``, so ``b*c`` is good.  The generators and the
    identities compose to every morphism, so every morphism is good.  The
    scan that names a failure is unchanged, over all sixteen patterns.
    """
    ea, eg = c.a_identity, c.g_identity
    aa, al, lg, lr, ra, gr, rl, gg = (c.comp[k] for k in TABLE_KEYS)
    for slot, table, e in (("A", aa, ea), ("G", gg, eg)):
        bad = identity_failure(table, e, range(len(table)))
        if bad is not None:
            return failed(f"{slot} identity law fails at {slot} element {bad}")
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
    decided = _decided(c)
    patterns = _PATTERNS_BY_MIDDLE if not decided else {
        s: tuple(p for p in middle if s not in decided or p != (s + s,) * 4)
        for s, middle in _PATTERNS_BY_MIDDLE.items()}
    if light_test(c.comp, _word_generators(c, decided), patterns):
        return PASSED
    return _first_violation(c)


def _decided(c: TwoObjectCategory) -> dict[str, tuple[int, ...]]:
    """The end slots whose associativity was decided at load, each with the
    generators kept for it: ``A``, and ``G`` too, whose table is the table of
    the validated base of the ``a_monoid`` set by :func:`category_from_monoid`
    or :func:`groupoid_from_group`.  Read through ``vars``, so that no
    ``a_monoid`` is built on a category that has none (a composite, a JSON
    category): such a category, like one on an unvalidated base, has no
    slot decided."""
    a = vars(c).get("a_monoid")
    gens = None if a is None else kept_generators(a.base)
    if gens is None:
        return {}
    return {s: gens for s in ("A", "G") if c.comp[s + s] is a.base.table}


# for each middle slot s2: the tables (s1 s2, s12 s3, s2 s3, s1 s23) of its four patterns
_PATTERNS_BY_MIDDLE = {
    s: tuple((s1 + s2, COMPOSE_TYPE[s1, s2] + s3, s2 + s3, s1 + COMPOSE_TYPE[s2, s3])
             for (s1, s2, s3) in triple_patterns() if s2 == s)
    for s in SLOTS
}


def _word_generators(c: TwoObjectCategory, decided=None) -> dict[str, list[int]]:
    """Morphisms that compose, with the two identities, to every morphism.

    A and G take ``core.word_generators`` of their tables without the
    identity, which adds nothing to a word; a slot in ``decided`` (see
    :func:`_decided`) takes the generators kept for its table instead.
    L takes each least ``x`` not yet reached and reaches ``A*x*G``, so
    every ``l`` in L is ``(a*x)*g``; R likewise, with ``G*y*A``.  The sets
    ``A*x*G`` overlap, so this is a greedy cover, not a partition, and not
    for ``core.orbits``.  Light's
    test over them is exact for every category, valid or not: good middles
    are closed under composition, and the identities are good middles by the
    identity laws, which :func:`validate_category` checks first.
    """
    comp, decided = c.comp, decided or {}
    gens = {s: [x for x in decided.get(s) or word_generators(comp[s + s]) if x != e]
            for s, e in (("A", c.a_identity), ("G", c.g_identity))}
    for s, act, orbit in (("L", comp["AL"], comp["LG"]), ("R", comp["GR"], comp["RA"])):
        gens[s], covered = [], set()
        for x in range(c.size(s)):
            if x not in covered:
                gens[s].append(x)
                covered.update(*map(orbit.__getitem__, {row[x] for row in act}))
    return gens


def _first_violation(c: TwoObjectCategory) -> Check:
    """The first violated triple of a category that failed Light's test, in
    the order of :func:`triple_patterns`."""
    found = first_violation(COMPOSE_TYPE, c.comp, c.sizes(), triple_patterns())
    require(found is not None, "a category that fails Light's test has a violation")
    pattern, i, j, k = found
    return failed(f"associativity pattern {pattern} fails at ({i},{j},{k})")


def karoubi_pair(m: Monoid, e1: int, e2: int) -> TwoObjectCategory:
    """The two-object envelope category cut out by two idempotents.

    Hom-sets are the ambient subsets ``e1*M*e1``, ``e1*M*e2``, ``e2*M*e1``
    and ``e2*M*e2`` with composition inherited from the product of ``m``;
    ``e1`` and ``e2`` become the two identities.

    The envelope is built once per base and pair: its four slot tuples and
    eight tables are kept on ``m.base`` (``ideals._kept``), as tuples only,
    so a later call, such as ``standardize`` on an envelope, gets the same
    tables back.  A table whose three slots are all of ``M`` is ``m``'s own
    table, so the envelope at ``e1 = 1`` has it as its ``AA`` table.
    """
    t = m.table
    for e in (e1, e2):
        if not is_index(e, m.n) or t[e][e] != e:
            raise NotIdempotent(e)
    sets, tables = _kept(m.base, f"_envelope_{e1}_{e2}", _envelope, e1, e2)
    # every entry is m's own or comes from a pos dict; e1 = e1*e1*e1 is in A, e2 in G
    return _category(*sets, sets[0].index(e1), sets[3].index(e2), dict(zip(TABLE_KEYS, tables)))


def _envelope(base: FiniteSemigroup, e1: int, e2: int):
    """The slot tuples of :func:`karoubi_pair` in the order of :data:`SLOTS`
    and its tables in the order of :data:`TABLE_KEYS`."""
    t, n = base.table, base.n

    def box(p, q):
        return tuple(sorted({t[t[p][x]][q] for x in range(n)}))

    sets = {"A": box(e1, e1), "L": box(e1, e2), "R": box(e2, e1), "G": box(e2, e2)}
    pos = {s: {v: i for i, v in enumerate(sets[s])} for s in SLOTS}
    # a slot of n sorted positions is range(n), and t read there is t itself
    tables = tuple(t if len(sets[s1]) == len(sets[s2]) == len(sets[r]) == n
                   else reindexed(t, sets[s1], sets[s2], pos[r])
                   for (s1, s2), r in COMPOSE_TYPE.items())
    return tuple(sets[s] for s in SLOTS), tables


def groupoid_from_group(m: Monoid) -> TwoObjectCategory:
    """Two isomorphic objects over a group: all four hom-sets are the group.

    Each slot is ``m`` at its own positions, so every table is ``m``'s own,
    and the end monoid ``a_monoid`` is ``m`` on its own base, as in
    :func:`category_from_monoid`.
    """
    if not is_group(m):
        raise NotAGroup("the groupoid construction needs a group")
    c = karoubi_pair(m, m.identity, m.identity)
    vars(c)["a_monoid"] = trusted(Monoid, base=m.base, identity=m.identity)
    return c


def category_from_simple(s) -> TwoObjectCategory:
    """Build the envelope category of a simple semigroup.

    Adjoins a fresh identity and cuts the monoid's envelope with
    :func:`category_from_monoid`: at the new identity and the identity of
    the group ``G = L ∩ R`` of the canonical minimal ideals ``L``, ``R``.
    """
    s = as_semigroup(s)
    if not is_simple(s):
        raise NotSimple("the construction starts from a simple semigroup")
    c = category_from_monoid(adjoin_identity(s))
    require(c._composites == tuple(range(s.n)), "L*R must recover the simple semigroup")
    require(s.n * c.size("G") == c.size("L") * c.size("R"))
    return c


def category_from_monoid(a: Monoid) -> TwoObjectCategory:
    """Cut the envelope category of a non-group monoid at its kernel group.

    Uses ``e1 = 1`` and ``e2`` the identity of ``G = L ∩ R`` for the
    canonical minimal ideals ``L``, ``R`` of the kernel, as ``ideals`` keeps
    them.  The end monoid ``a_monoid`` is ``a`` on its own base, whose kept
    ideals it shares; the base refers to neither ``a`` nor the category.
    The checks establish that ``1`` lies outside the kernel, that the slots
    are the kept ``L``, ``R`` and ``G`` (so no pair of ``L`` and ``R``
    composes to ``1``), and the bound ``|a| >= |L|*|R|/|G| + 1``, which the
    suite reports as ``nongroup_bound``.  Group inputs are refused: the
    analogous object is the groupoid, built by :func:`groupoid_from_group`.
    """
    if is_group(a):
        raise IsAGroup("group input; use groupoid_from_group instead")
    left, right = _minimal(a.base, LEFT)[0], _minimal(a.base, RIGHT)[0]
    elements, identity = _group(a.base)
    require(a.identity not in _kernel(a.base), "a non-group monoid never meets its kernel at 1")
    c = karoubi_pair(a, a.identity, identity)
    require(c.a_elems == tuple(range(a.n)))
    # A is a at its own positions
    vars(c)["a_monoid"] = trusted(Monoid, base=a.base, identity=a.identity)
    require((c.l_elems, c.r_elems, c.g_elems) == (left, right, elements))
    # so no l*r is the identity: the minimal left ideal L lies in the kernel,
    # an ideal, which holds every l*r and not 1
    require(a.n >= (len(left) * len(right)) // len(elements) + 1)
    return c


def slot_bimodule(c: TwoObjectCategory, slot: str) -> Bimodule:
    """The L or R hom-set as a bimodule over the two endomorphism monoids."""
    # the category's shape check covers both actions
    if slot == "L":
        return trusted(Bimodule, left_monoid=c.a_monoid, right_monoid=c.g_monoid,
                       size=c.size("L"), left_action=c.comp["AL"], right_action=c.comp["LG"])
    if slot == "R":
        return trusted(Bimodule, left_monoid=c.g_monoid, right_monoid=c.a_monoid,
                       size=c.size("R"), left_action=c.comp["GR"], right_action=c.comp["RA"])
    raise FormatError(f"no bimodule slot {slot!r}")


def extract_simple(c: TwoObjectCategory) -> IdealSubset:
    """``S = L*R`` inside the A-side monoid of a valid category, verified simple.

    Simplicity is checked once, by :func:`ideals.is_simple` on the
    restricted table.  That also settles the paper's recovery argument (the
    canonical composite lies in every principal two-sided ideal ``S¹aS¹``
    of ``S``): on an associative table, a simple ``S`` is its kernel, the
    least two-sided ideal, so every ``S¹aS¹`` is all of ``S``.  The exact
    identity ``|S| * |G| == |L| * |R|`` is checked.
    """
    if not c._g_is_group:
        raise GSideNotGroup("extraction needs a group on the G side")
    members = c._composites
    am = c.a_monoid
    ideal = IdealSubset(Subset(am.base, members), TWO_SIDED, generator=None)
    require(is_simple(sub_semigroup(am.base, members)[0]))
    require(len(members) * c.size("G") == c.size("L") * c.size("R"))
    return ideal


def is_reduced(c: TwoObjectCategory) -> bool:
    """False iff some pair composes to both identities, i.e. the objects are isomorphic."""
    rl, ea, eg = c.comp["RL"], c.a_identity, c.g_identity
    return not any(p == ea and rl[v][u] == eg
                   for u, row in enumerate(c.comp["LR"]) for v, p in enumerate(row))


def _slices(c: TwoObjectCategory, x: int, y: int):
    """``(L*y, x*R, x*G*y)`` as sorted A-side subsets, for ``x`` in L and ``y`` in R."""
    lr, lg = c.comp["LR"], c.comp["LG"]
    return (tuple(sorted({row[y] for row in lr})),
            tuple(sorted(set(lr[x]))),
            tuple(sorted({lr[xg][y] for xg in lg[x]})))


def ideal_slices(c: TwoObjectCategory, x: int, y: int):
    """The minimal ideals ``L_y = L*y`` and ``R_x = x*R`` with their group.

    ``x`` and ``y`` are positions in the L and R slots.  Returns
    ``(L_y, R_x, G_xy)`` as subsets of the A-side monoid;  ``G_xy = x*G*y``
    is checked to equal ``R_x ∩ L_y`` and to be a group, and
    ``L_y * R_x`` is checked to recover the extracted simple ideal.
    """
    if not c._g_is_group:
        raise GSideNotGroup("ideal slices need a group on the G side")
    if not (is_index(x, c.size("L")) and is_index(y, c.size("R"))):
        raise FormatError("slice positions out of range")
    am = c.a_monoid
    l_y, r_x, g_xy = _slices(c, x, y)
    require(g_xy == tuple(sorted(set(l_y) & set(r_x))), "x*G*y must be the slice intersection")
    left = IdealSubset(Subset(am.base, l_y), LEFT, generator=None)
    right = IdealSubset(Subset(am.base, r_x), RIGHT, generator=None)
    require(l_y in _minimal(am.base, LEFT) and r_x in _minimal(am.base, RIGHT))
    handle = group_handle_from_subset(am.base, g_xy)
    require(subset_product(left.subset, right.subset).members == c._composites)
    return left, right, handle


def minimal_ideal_correspondence(c: TwoObjectCategory) -> Check:
    """Check that the slices exhaust the minimal ideals, orbit by orbit.

    ``{L*y : y}`` must equal the set of minimal left ideals of the A-side
    monoid, and the orbit set ``G\\R`` must biject onto it; symmetrically for
    ``{x*R : x}`` and the orbits of ``L`` under the right ``G``-action,
    from ``core.orbits``; a failed check names where G does not act.
    """
    if not c._g_is_group:
        raise GSideNotGroup("the correspondence needs a group on the G side")
    am = c.a_monoid
    lr, columns = c.comp["LR"], list(zip(*c.comp["GR"]))
    # per side: the slice of each element of the slot that indexes it, and
    # its images under G, a column of GR or a row of LG
    sides = (
        (LEFT, "R", "L*y for y", [tuple(sorted(set(col))) for col in zip(*lr)], columns),
        (RIGHT, "L", "x*R for x", [tuple(sorted(set(row))) for row in lr], c.comp["LG"]),
    )
    for side, slot, slice_name, slices, images in sides:
        minimal = set(_minimal(am.base, side))
        for k, sl in enumerate(slices):
            if sl not in minimal:
                return failed(f"{slice_name}={k} is not a minimal {side} ideal")
        missing = minimal.difference(slices)
        if missing:
            return failed(f"minimal {side} ideal {sorted(next(iter(missing)))} is not a slice")
        found = orbits(range(len(slices)), images)
        if found is None:
            return failed(str(NotAGroupAction(slot, orbit_failure(range(len(slices)), images))))
        if len(found) != len(minimal):
            return failed(f"{len(found)} orbits on {slot} but {len(minimal)} minimal {side} ideals")
        # equal counts and a slice constant on each orbit make orbits <-> ideals a bijection
        for orb in found:
            if len({slices[v] for v in orb}) != 1:
                return failed(f"slice is not constant on the orbit of {orb[0]}")
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
    isomorphism.  On an envelope, :func:`karoubi_pair` hands back the tables
    it kept when the envelope was built, so the envelope is built once, and
    the check skips each table that is the same object on both sides under
    identity maps, ``AA`` at least.
    """
    if not c._g_is_group:
        raise GSideNotGroup("standardization needs a group on the G side")
    gm, am = c.g_monoid, c.a_monoid
    if is_group(am):
        raise AIsGroup("standardization is for categories whose A side is not a group")
    lr, lg, gr, rl = c.comp["LR"], c.comp["LG"], c.comp["GR"], c.comp["RL"]
    nl, nr, ng = c.size("L"), c.size("R"), c.size("G")
    if not (is_index(x0, nl) and is_index(y0, nr)):
        raise FormatError("starting positions out of range")
    g0 = rl[y0][x0]
    x, y = x0, gr[group_inverses(gm.table, gm.identity)[g0]][y0]
    require(rl[y][x] == c.g_identity)
    e2 = lr[x][y]
    cp = karoubi_pair(am, c.a_identity, e2)
    require((cp.l_elems, cp.r_elems, cp.g_elems) == _slices(c, x, y))
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
    # the L and R entries are tensor class indices, the others those of c1
    # and c2; the tensor classes of nonempty bimodules are nonempty
    c = _category(c1.a_elems, l_elems, r_elems, c2.g_elems, c1.a_identity, c2.g_identity, comp)
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
    comp = {s1 + s2: c.comp[_SWAP[s1] + _SWAP[s2]] for s1, s2 in COMPOSE_TYPE}
    # the input's checked tables, each under the name of its swapped shape
    return _category(*(c.elems(_SWAP[s]) for s in SLOTS), c.g_identity, c.a_identity, comp)


def relabel(c: TwoObjectCategory, perms: dict[str, tuple[int, ...]]) -> TwoObjectCategory:
    """Permute hom-set positions: ``perm[i]`` is the old position moved to ``i``."""
    unknown = next((s for s in perms if s not in SLOTS), None)
    if unknown is not None:
        raise FormatError(f"no slot {unknown!r}")
    full = {}
    inv = {}
    for s in SLOTS:
        perm = tuple(perms.get(s, range(c.size(s))))
        if not all(map(is_int, perm)) or sorted(perm) != list(range(c.size(s))):
            raise FormatError(f"bad permutation for slot {s}")
        full[s] = perm
        inv[s] = sorted(range(len(perm)), key=perm.__getitem__)  # inv[perm[i]] == i
    comp = {s1 + s2: reindexed(c.comp[s1 + s2], full[s1], full[s2], inv[r])
            for (s1, s2), r in COMPOSE_TYPE.items()}
    elems = (row_picker(full[s])(c.elems(s)) for s in SLOTS)
    # each entry and identity is renamed by a checked permutation's inverse
    return _category(*elems, inv["A"][c.a_identity], inv["G"][c.g_identity], comp)


def verify_category_iso(c1: TwoObjectCategory, c2: TwoObjectCategory,
                        maps: dict[str, tuple[int, ...]]) -> Check:
    """Exhaustively check a quadruple of slot bijections for functoriality.

    A table that is one object in both categories, with identity maps on its
    three slots, commutes trivially and is skipped; every other product is
    compared.
    """
    for s in SLOTS:
        if s not in maps:
            return failed(f"slot {s}: no map")
        m = maps[s]
        if len(m) != c1.size(s) or c2.size(s) != c1.size(s):
            return failed(f"slot {s}: map size mismatch")
        if not all(map(is_int, m)) or sorted(m) != list(range(c2.size(s))):
            return failed(f"slot {s}: map is not a bijection")
    if maps["A"][c1.a_identity] != c2.a_identity:
        return failed("the A identity is not preserved")
    if maps["G"][c1.g_identity] != c2.g_identity:
        return failed("the G identity is not preserved")
    for (s1, s2), r in COMPOSE_TYPE.items():
        t1, t2 = c1.comp[s1 + s2], c2.comp[s1 + s2]
        m1, m2, mr = maps[s1], maps[s2], maps[r]
        if t1 is t2 and all(list(m) == list(range(len(m))) for m in (m1, m2, mr)):
            continue  # one table, every map the identity: each product is its own image
        width = range(c1.size(s2))
        for i in range(c1.size(s1)):
            row = t1[i]
            trow = t2[m1[i]]
            for j in width:
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
        if slot in ("A", "G"):
            feats += [c.comp[slot + slot][i][i] == i,
                      i == (c.a_identity if slot == "A" else c.g_identity)]
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
    return any(_search_isomorphism(c1, c) is not None for c in (c2, reverse(c2)))


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
        c = TwoObjectCategory(*(_labels_from_json(labels[s]) for s in SLOTS), d["a_identity"],
                              d["g_identity"], {k: tables[k] for k in TABLE_KEYS})
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # labels nest freely
        raise FormatError(f"bad category payload: {exc}") from None
    stated = d.get("hom_sizes", c._sizes)  # optional; True == 1 and 3.0 == 3 in Python
    if stated != c._sizes or not all(map(is_int, stated.values())):
        raise FormatError(f"bad category payload: hom_sizes must be the label counts {c.sizes()}")
    return c
