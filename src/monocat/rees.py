"""Rees matrix semigroups: construction, expansion, and decomposition.

A Rees matrix semigroup over a group ``G`` with index sets ``I`` and
``Lambda`` and sandwich matrix ``P : Lambda x I -> G`` multiplies triples by
``(i, g, l)(j, h, m) = (i, g * P[l][j] * h, m)``.  Every finite simple
semigroup decomposes this way; the decomposition here picks deterministic
representatives (the least element of each ``G``-orbit, from ``core.orbits``)
and certifies the isomorphism.
The sandwich ``P[l][i] = y_l * x_i`` is the table read at ``ys`` and ``xs``
through ``core.reindexed``; in an associative table no entry can leave
``G``, since ``y_l`` lies in the right ideal ``R``, ``x_i`` in the left
ideal ``L``, and ``R*L = L ∩ R``.  ``G`` is ``ideals.group_of``, the group
``ideals`` keeps and checked once.

**Every ``ReesMatrixSemigroup`` holds a checked group.**  Its constructor is
the boundary for Rees structures: it runs ``is_group`` (a Latin square) and
then ``core.validate_semigroup`` on the ``|G|``-sized group table, since a
loop that is no group is a Latin square too.  ``_decompose`` builds its
structure with ``core.trusted``: ``GroupHandle`` checked the identity,
closure and inverses of ``G``, which is associative when ``S`` is, as it is
for the round trip and the suite, whose tables were validated when loaded.
The public ``rees_decomposition``, whose input need not be associative,
checks the group of the structure it returns.  A Rees product over a group
is an associative, completely simple semigroup (Howie, *Fundamentals of
Semigroup Theory*, ch. 3), so ``expand``, the one expansion, builds its
table with ``core.trusted`` and checks neither associativity nor
simplicity; ``rees_round_trip`` expands with it too.

The mapping sends ``x_i * g * y_l`` to ``(i, g, l)``; ``code`` sends each
element to the ``triple_index`` of its triple and is read straight off the
order in which the products are enumerated.  A mapping that misses an element
is refused before any product is compared.  ``_multiplicative`` is the one
product check: ``code[a*b] == code[a]*code[b]`` for every ``a`` and each
``b`` in a set ``gens``, a column of ``S`` against a column of
``ReesMatrixSemigroup.table`` at a time, whole at C speed; only on a failure
does it rescan all ``n^2`` products to name the first that differs.

**Why a generating set is enough** (the argument behind Light's test,
Clifford & Preston I, §1.2).  Let ``B`` be the set of ``b`` at which
``code`` is multiplicative for every ``a``.  If ``b`` and ``c`` are in
``B``, then ``code[a*(b*c)] = code[(a*b)*c] = (code[a]*code[b])*code[c]
= code[a]*code[b*c]``, so ``b*c`` is in ``B``: the first step needs ``S``
associative, the last the Rees table associative.  By induction on the
length of a left-bracketed word, ``B`` holds every element once it holds
generators whose words reach every element.  The Rees table is associative
by the invariant above.  ``S`` is associative only when its loader made it
so, hence the callers:

- ``rees_decomposition`` (public) and ``verify_rees_iso`` pass every
  element, since their input may be a shape-checked table that is not
  associative;
- ``rees_round_trip`` passes ``core.word_generators`` of its input (for a
  loaded input, the set its Light's test passed on,
  ``core.kept_generators``), which passed the loader's Light's test, and
  their images for the expansion, a Rees product over a checked group;
- ``cli._suite_entry`` passes them for the kernel of a loaded monoid.

``tests/test_source.py`` keeps the set short at these two callers alone,
a ``FiniteSemigroup`` built in ``expand`` alone, and a trusted
``ReesMatrixSemigroup`` in ``_decompose`` alone.  Each structure builds
its product table over ``triple_index`` positions once, row by row from
the group table and the sandwich matrix (see ``ReesMatrixSemigroup.table``).

Side convention (fixed once, here): ``I`` counts the minimal right ideals
and ``Lambda`` counts the minimal left ideals of the decomposed semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .check import Check, PASSED, failed
from .core import (FiniteSemigroup, Monoid, SemigroupLike, Table, as_semigroup,
                   checked_table, find_identity, is_group, is_index, is_int, kept_generators,
                   orbit_failure, orbits, reindexed, row_picker, trusted, validate_semigroup,
                   word_generators)
from .errors import DecompositionFailure, FormatError, NotAGroup, NotAGroupAction, NotSimple
from .ideals import LEFT, RIGHT, _minimal, group_of, is_simple

Triple = tuple[int, int, int]


@dataclass(frozen=True, repr=False)
class ReesMatrixSemigroup:
    """Structure data ``(G, I, Lambda, P)`` with an abstract group table,
    checked to be a group: a Latin square (else ``NotAGroup``), then
    associative (else ``NotAssociative``)."""

    group: Monoid
    i_count: int
    lambda_count: int
    sandwich: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_group(self.group):
            raise NotAGroup("the structure monoid must be a group")
        validate_semigroup(self.group.table)
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

    @cached_property
    def table(self) -> Table:
        """The product table over ``triple_index`` positions.

        The products of ``(i, g, l)`` with the triples ``(j, _, _)`` are the
        ``(i, x*h, m)`` for ``x = g * P[l][j]``, in order of ``(h, m)``: a
        block that depends on ``i`` and ``x`` only and is made of runs of
        ``Lambda`` consecutive indices.  Each row joins ``I`` such blocks.
        """
        gt, n_g, n_l = self.group.table, self.group.n, self.lambda_count
        rows = []
        for i in range(self.i_count):
            runs = [range((i * n_g + k) * n_l, (i * n_g + k + 1) * n_l) for k in range(n_g)]
            block = [tuple(chain.from_iterable(map(runs.__getitem__, times_x))) for times_x in gt]
            for times_g in gt:
                for p_l in self.sandwich:
                    rows.append(tuple(chain.from_iterable(
                        map(block.__getitem__, map(times_g.__getitem__, p_l)))))
        return tuple(rows)

    def __repr__(self):
        return f"ReesMatrixSemigroup(|G|={self.group.n}, I={self.i_count}, Lambda={self.lambda_count})"


def _triple_labels(rms: ReesMatrixSemigroup) -> tuple[str, ...]:
    return tuple(f"({i},{g},{l})" for (i, g, l) in rms.triples())


def expand(rms: ReesMatrixSemigroup) -> FiniteSemigroup:
    """The full product table over the triples: a Rees product over the
    checked group of ``rms``, associative and completely simple (see the
    module docstring), so neither Light's test nor a kernel is computed."""
    # the table's rows and entries index the triples
    return trusted(FiniteSemigroup, table=rms.table, labels=_triple_labels(rms))


def rees_decomposition(s: SemigroupLike):
    """Decompose a finite simple semigroup into Rees matrix form.

    Reads the canonically first minimal ideals ``L``, ``R`` and their group
    ``G = L ∩ R`` as ``ideals`` keeps them, and chooses the smallest
    ambient index in every orbit of the ``G``-action as representative
    (right action on ``L`` for the ``I`` side, left action on ``R`` for the
    ``Lambda`` side).  Sandwich entries are ``P[l][i] = y_l * x_i``.

    Returns ``(rms, mapping)`` where ``mapping[element] == (i, g, l)`` with
    ``element == x_i * g * y_l``; the mapping is verified to be a semigroup
    isomorphism onto ``expand(rms)`` at every product, and the group of
    ``rms`` is checked associative, since ``s`` may be a table that is not
    associative.  A loop, a Latin square that is no group, raises
    ``NotAssociative``.
    """
    s = as_semigroup(s)
    rms, mapping = _decompose(s, range(s.n))
    validate_semigroup(rms.group.table)
    return rms, mapping


def _decompose(s: FiniteSemigroup, gens):
    """The decomposition of :func:`rees_decomposition`, its mapping certified
    multiplicative at the right factors ``gens`` (see the module docstring:
    a generating set is enough only when ``s`` is associative)."""
    if not is_simple(s):
        raise NotSimple("only simple semigroups admit this decomposition")
    left, right = _minimal(s, LEFT)[0], _minimal(s, RIGHT)[0]
    handle = group_of(s)
    gset, t = handle.elements, s.table
    in_g, on_r = row_picker(gset), row_picker(right)
    reps = []  # the least member of each orbit x*G on L, and G*y on R
    for slot, members, images in (("L", left, [in_g(t[x]) for x in left]),
                                  ("R", right, list(zip(*(on_r(t[g]) for g in gset))))):
        found = orbits(members, images)
        if found is None:
            raise DecompositionFailure(str(NotAGroupAction(slot, orbit_failure(members, images))))
        reps.append([orbit[0] for orbit in found])
    xs, ys = reps
    position = {g: k for k, g in enumerate(gset)}
    try:
        # y*x lies in R*L, which is G when the table is associative
        sandwich = reindexed(t, ys, xs, position)
    except KeyError:
        l, i = next((l, i) for l, y in enumerate(ys) for i, x in enumerate(xs)
                    if t[y][x] not in position)
        raise DecompositionFailure(
            f"sandwich entry ({l}, {i}) = {ys[l]}*{xs[i]} = {t[ys[l]][xs[i]]} "
            "is not in G") from None
    # ideals checked the group when it kept it, associative when s is (else
    # rees_decomposition checks it), and the sandwich entries index gset
    rms = trusted(ReesMatrixSemigroup, group=handle.monoid(), i_count=len(xs),
                  lambda_count=len(ys), sandwich=sandwich)
    if s.n != rms.size:
        raise DecompositionFailure(f"|S| = {s.n} but the triple space has size {rms.size}")
    # x_i*g*y_l, in the order of the triples (i, g, l): entry k is the element
    # at triple_index k, so code, its inverse, maps each element to its triple
    elements = list(chain.from_iterable(
        map(row_picker(ys), (t[t[x][g]] for x in xs for g in gset))))
    if len(set(elements)) != s.n:  # two triples reach one element and leave another unmapped
        raise DecompositionFailure("mapping is not defined on exactly the elements of S")
    code = sorted(range(s.n), key=elements.__getitem__)
    verdict = _multiplicative(t, code, rms.table, gens)
    if not verdict:
        raise DecompositionFailure(verdict.detail)
    return rms, dict(zip(elements, rms.triples()))


def rees_round_trip(s: SemigroupLike):
    """``(rms, mapping, again)``: the decomposition ``(rms, mapping)`` of
    ``s``, and ``again``, the decomposition of ``expand(rms)``.

    Precondition: ``s`` is associative, as every loader makes it.  The group
    of ``rms`` is then a group of ``s``, so ``rms`` holds a checked group.
    The first decomposition is certified on ``word_generators`` of ``s``
    (for a loaded ``s``, the ones its Light's test passed on, kept on it),
    the second on their images: ``mapping`` is then an isomorphism, so it
    sends each left-bracketed word over them to the same word over the
    images, and those words reach every element of the expansion.
    """
    s = as_semigroup(s)
    gens = kept_generators(s) or word_generators(s.table)
    rms, mapping = _decompose(s, gens)
    again, _ = _decompose(expand(rms), [rms.triple_index(mapping[g]) for g in gens])
    return rms, mapping, again


def verify_rees_iso(s: SemigroupLike, rms: ReesMatrixSemigroup, mapping) -> Check:
    """Exhaustively check that ``mapping`` is an isomorphism onto the triples.

    With ``code[v]`` the position of ``mapping[v]``, the check is
    :func:`_multiplicative` at every element of ``s``.  A key that is not an
    element, or an image that is not a triple of indices, fails the check.
    """
    s = as_semigroup(s)
    if s.n != rms.size:
        return failed(f"|S| = {s.n} but the triple space has size {rms.size}")
    if set(map(type, mapping)) - {int}:
        stray = next(v for v in mapping if not is_int(v))
        return failed(f"mapping key {stray!r} is not an element of S")
    if sorted(mapping) != list(range(s.n)):
        return failed("mapping is not defined on exactly the elements of S")
    bounds = (rms.i_count, rms.group.n, rms.lambda_count)
    code = [0] * s.n
    for v, tri in mapping.items():
        if not (isinstance(tri, (tuple, list)) and len(tri) == 3
                and all(map(is_index, tri, bounds))):
            return failed(f"image {tri!r} of {v} is not a valid triple")
        code[v] = rms.triple_index(tri)
    if len(set(code)) != s.n:
        return failed("mapping is not injective")
    return _multiplicative(s.table, code, rms.table, range(s.n))


def _multiplicative(t: Table, code: list[int], table: Table, gens) -> Check:
    """Whether ``code[a*b] == code[a]*code[b]`` for every ``a`` and each ``b``
    in ``gens``, with ``t`` the table of ``S`` and ``table`` the product
    table over ``triple_index`` positions: column ``b`` of ``t`` read through
    ``code`` against column ``code[b]`` of ``table`` at the rows ``code``,
    whole at C speed.  A failure is rescanned over all ``n^2`` products to
    name the lexicographically first ``(a, b)`` that differs.
    """
    coded = code.__getitem__
    at_code = row_picker(code)(table)
    for b in gens:
        if list(map(coded, map(itemgetter(b), t))) != list(map(itemgetter(code[b]), at_code)):
            a, b = next((a, b) for a, row in enumerate(t) for b, ab in enumerate(row)
                        if code[ab] != at_code[a][code[b]])
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
