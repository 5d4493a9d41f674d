"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (full subset enumeration, permutation
search, every principal ideal, every triple) and shares no code with the
package, so a test that compares the two is a genuine cross-check.
"""

import itertools
from types import SimpleNamespace


def assoc_violation(table):
    """First (i, j, k) with (i*j)*k != i*(j*k), scanning lexicographically."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return (i, j, k)
    return None


def first_nonassociative_table(n):
    """The lexicographically first non-associative n x n table."""
    for flat in itertools.product(range(n), repeat=n * n):
        table = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if assoc_violation(table) is not None:
            return table
    raise AssertionError(f"no non-associative table of size {n}")


def brute_identity(table):
    n = len(table)
    for e in range(n):
        if all(table[e][i] == i and table[i][e] == i for i in range(n)):
            return e
    return None


def has_all_inverses(table, e):
    n = len(table)
    return all(
        any(table[g][h] == e and table[h][g] == e for h in range(n))
        for g in range(n)
    )


def is_ideal(table, members, side):
    """Absorption check for an explicit member set."""
    n = len(table)
    inside = set(members)
    for a in inside:
        for s in range(n):
            if side in ("left", "two-sided") and table[s][a] not in inside:
                return False
            if side in ("right", "two-sided") and table[a][s] not in inside:
                return False
    return True


def all_nonempty_ideals(table, side):
    """Every nonempty ideal, by full subset enumeration (small tables only)."""
    n = len(table)
    assert n <= 12, "subset enumeration oracle is for small tables"
    out = []
    for bits in range(1, 1 << n):
        members = frozenset(i for i in range(n) if bits >> i & 1)
        if is_ideal(table, members, side):
            out.append(members)
    return out


def brute_minimal_ideals(table, side):
    """Minimal elements among *all* nonempty ideals, canonically sorted."""
    ideals = all_nonempty_ideals(table, side)
    minimal = [
        i for i in ideals if not any(o < i for o in ideals)
    ]
    return sorted(tuple(sorted(i)) for i in minimal)


def brute_kernel(table):
    """The least two-sided ideal, from the full enumeration."""
    minimal = brute_minimal_ideals(table, "two-sided")
    assert len(minimal) == 1
    return minimal[0]


# Mid-size oracles: the principal-ideal enumeration the package used before
# its kernel became S¹zS¹.  Cubic, but not limited to n <= 12.  Ideals are
# (members, generator) pairs, generator the first index that yields them.

def principal_ideal(table, a, side):
    """``S¹a``, ``aS¹`` or ``S¹aS¹`` as a sorted tuple."""
    n = len(table)
    members = {a}
    if side in ("left", "two-sided"):
        members |= {table[x][a] for x in range(n)}
    if side in ("right", "two-sided"):
        members |= {table[a][x] for x in range(n)}
    if side == "two-sided":
        members |= {table[table[x][a]][y] for x in range(n) for y in range(n)}
    return tuple(sorted(members))


def principal_minimal_ideals(table, side):
    """Minimal principal ideals with generators, in canonical subset order."""
    by_set = {}
    for a in range(len(table)):
        by_set.setdefault(principal_ideal(table, a, side), a)
    keys = list(by_set)
    minimal = [k for k in keys if not any(o != k and set(o) < set(k) for o in keys)]
    return [(k, by_set[k]) for k in sorted(minimal)]


def principal_kernel(table):
    """The least principal two-sided ideal with its generator; it must be
    unique and contained in every other principal ideal."""
    minimal = principal_minimal_ideals(table, "two-sided")
    assert len(minimal) == 1, f"expected a unique minimal ideal, found {len(minimal)}"
    least = set(minimal[0][0])
    assert all(least <= set(principal_ideal(table, a, "two-sided")) for a in range(len(table)))
    return minimal[0]


def recovery_holds(table, members, recovered):
    """The paper's recovery argument on ``S = members``: ``recovered`` lies in
    ``S¹aS¹`` for every ``a`` in ``S``, each product taken inside ``S``."""
    for a in members:
        left = {a} | {table[s][a] for s in members}
        if recovered not in left | {table[x][s] for x in left for s in members}:
            return False
    return True


def principal_is_simple(table):
    """True iff every principal two-sided ideal is everything."""
    full = tuple(range(len(table)))
    return all(principal_ideal(table, a, "two-sided") == full for a in range(len(table)))


def generated(table, gens):
    """The subsemigroup generated by ``gens``: all pairwise products are
    added until none is new."""
    found = set(gens)
    while True:
        more = {table[a][b] for a in found for b in found} - found
        if not more:
            return found
        found |= more


def reindex(table, rows, cols, index):
    """``index[table[a][b]]`` for ``a`` in ``rows`` and ``b`` in ``cols``, one
    entry at a time; a missing value raises whatever ``index`` raises."""
    out = []
    for a in rows:
        row = []
        for b in cols:
            row.append(index[table[a][b]])
        out.append(tuple(row))
    return tuple(out)


def closure_escape(table, members):
    """The ``BadSubset`` message for the first product of two members, in
    row-major order over the sorted members, that is not a member; None when
    ``members`` is closed (the loop ``sub_semigroup`` ran over every product
    before it read whole rows)."""
    inside = sorted(set(members))
    for a in inside:
        for b in inside:
            p = table[a][b]
            if p not in inside:
                return f"subset is not closed: {a}*{b} = {p} escapes"
    return None


def perm_isomorphic(t1, t2):
    """A permutation making the tables equal, by full search (n <= 7)."""
    n = len(t1)
    if len(t2) != n:
        return None
    assert n <= 7
    for perm in itertools.permutations(range(n)):
        if all(
            perm[t1[i][j]] == t2[perm[i]][perm[j]]
            for i in range(n)
            for j in range(n)
        ):
            return perm
    return None


def group_axioms_hold(table, members, identity):
    inside = set(members)
    if identity not in inside:
        return False
    for g in inside:
        if table[identity][g] != g or table[g][identity] != g:
            return False
        if any(table[g][h] not in inside for h in inside):
            return False
        if not any(table[g][h] == identity and table[h][g] == identity for h in inside):
            return False
    return True


# Hand-built reference structures (kept independent of the package's corpus).

def t2_maps():
    """Maps on two points in lexicographic order: c0, id, swap, c1."""
    return [(0, 0), (0, 1), (1, 0), (1, 1)]


def t2_table():
    """Full transformation table on two points, f*g = apply f then g."""
    maps = t2_maps()
    index = {f: i for i, f in enumerate(maps)}
    return [
        [index[(g[f[0]], g[f[1]])] for g in maps] for f in maps
    ]


T2_C0 = 0
T2_ID = 1
T2_SWAP = 2
T2_C1 = 3


def lz2_table():
    return [[0, 0], [1, 1]]


def rz2_table():
    return [[0, 1], [0, 1]]


def band22_table():
    """2x2 rectangular band, elements (i, l) in lexicographic order."""
    pairs = [(i, l) for i in range(2) for l in range(2)]
    index = {p: k for k, p in enumerate(pairs)}
    return [
        [index[(i, m)] for (j, m) in pairs] for (i, l) in pairs
    ]


def cyclic_table(m):
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def klein_table():
    return [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def perm_category_isomorphic(c1, c2):
    """Slot permutations making two two-object categories equal, by full
    search over every product of per-slot permutations (tiny categories)."""
    slots = ("A", "L", "R", "G")
    types = {"AA": "A", "AL": "L", "LG": "L", "LR": "A",
             "RA": "R", "GR": "R", "RL": "G", "GG": "G"}
    sizes = {s: len(c1.comp[s + s] if s in "AG" else c1.comp["LR" if s == "L" else "RL"])
             for s in slots}
    if sizes != {s: len(c2.comp[s + s] if s in "AG" else c2.comp["LR" if s == "L" else "RL"])
                 for s in slots}:
        return None
    for perms in itertools.product(*(itertools.permutations(range(sizes[s])) for s in slots)):
        f = dict(zip(slots, perms))
        if f["A"][c1.a_identity] != c2.a_identity or f["G"][c1.g_identity] != c2.g_identity:
            continue
        if all(
            f[r][c1.comp[key][i][j]] == c2.comp[key][f[key[0]][i]][f[key[1]][j]]
            for key, r in types.items()
            for i in range(sizes[key[0]])
            for j in range(sizes[key[1]])
        ):
            return f
    return None


CATEGORY_TYPES = {"AA": "A", "AL": "L", "LG": "L", "LR": "A",
                  "RA": "R", "GR": "R", "RL": "G", "GG": "G"}


def karoubi_envelope(table, e1, e2):
    """``(hom_sets, comp, a_identity, g_identity)`` of the envelope category
    cut out of ``table`` by the idempotents ``e1`` and ``e2``: the hom-sets
    ``p*M*q`` as sorted ambient indices, and each composition table by the
    per-entry comprehension ``karoubi_pair`` used before it read whole rows."""
    n = len(table)

    def box(p, q):
        return tuple(sorted({table[table[p][x]][q] for x in range(n)}))

    sets = {"A": box(e1, e1), "L": box(e1, e2), "R": box(e2, e1), "G": box(e2, e2)}
    comp = {}
    for key, r in CATEGORY_TYPES.items():
        lookup = {v: i for i, v in enumerate(sets[r])}
        comp[key] = tuple(tuple(lookup[table[a][b]] for b in sets[key[1]]) for a in sets[key[0]])
    return sets, comp, sets["A"].index(e1), sets["G"].index(e2)


def category_sizes(c):
    """The four slot sizes of a two-object category, read off its tables."""
    return {"A": len(c.comp["AA"]), "L": len(c.comp["LR"]),
            "R": len(c.comp["RL"]), "G": len(c.comp["GG"])}


def identity_law_failure(c):
    """The first identity law a two-object category breaks, as the detail
    ``validate_category`` names it, or None."""
    sizes = category_sizes(c)
    ea, eg = c.a_identity, c.g_identity
    aa, al, lg, gg, ra, gr = (c.comp[k] for k in ("AA", "AL", "LG", "GG", "RA", "GR"))
    for i in range(sizes["A"]):
        if aa[ea][i] != i or aa[i][ea] != i:
            return f"A identity law fails at A element {i}"
    for i in range(sizes["G"]):
        if gg[eg][i] != i or gg[i][eg] != i:
            return f"G identity law fails at G element {i}"
    for x in range(sizes["L"]):
        if al[ea][x] != x:
            return f"A identity law fails on L at {x}"
        if lg[x][eg] != x:
            return f"G identity law fails on L at {x}"
    for y in range(sizes["R"]):
        if ra[y][ea] != y:
            return f"A identity law fails on R at {y}"
        if gr[eg][y] != y:
            return f"G identity law fails on R at {y}"
    return None


def category_verdict(c):
    """``(ok, detail)`` for a two-object category, by exhaustive scan: the
    identity laws, then the sixteen associativity patterns in sorted order
    over every composable triple (the scan ``validate_category`` made
    before it used Light's test)."""
    sizes = category_sizes(c)
    law = identity_law_failure(c)
    if law is not None:
        return False, law
    patterns = sorted((k[0], k[1], s3) for k in CATEGORY_TYPES for s3 in "ALRG"
                      if k[1] + s3 in CATEGORY_TYPES)
    for s1, s2, s3 in patterns:
        r12, r23 = CATEGORY_TYPES[s1 + s2], CATEGORY_TYPES[s2 + s3]
        for i in range(sizes[s1]):
            for j in range(sizes[s2]):
                for k in range(sizes[s3]):
                    left = c.comp[r12 + s3][c.comp[s1 + s2][i][j]][k]
                    right = c.comp[s1 + r23][i][c.comp[s2 + s3][j][k]]
                    if left != right:
                        return False, f"associativity pattern {s1}{s2}{s3} fails at ({i},{j},{k})"
    return True, None


def category_generators(c):
    """``{slot: morphisms}`` that compose, with the two identities, to every
    morphism of ``c``: each morphism, slot by slot in the order A, L, R, G
    and in index order, that the closure of those before it has not reached
    (the closure of :func:`generates_every_morphism`, grown as it goes)."""
    sizes = category_sizes(c)
    found = [("A", c.a_identity), ("G", c.g_identity)]
    reached = set(found)
    gens = {s: [] for s in "ALRG"}
    done = 0
    for s in "ALRG":
        for x in range(sizes[s]):
            if (s, x) in reached:
                continue
            gens[s].append(x)
            found.append((s, x))
            reached.add((s, x))
            while done < len(found):
                first = found[done]
                for second in found[: done + 1]:
                    for (p, u), (q, v) in ((first, second), (second, first)):
                        if p + q in CATEGORY_TYPES:
                            product = (CATEGORY_TYPES[p + q], c.comp[p + q][u][v])
                            if product not in reached:
                                reached.add(product)
                                found.append(product)
                done += 1
    return gens


def light_category_verdict(c):
    """``(ok, detail)`` for a two-object category by the full Light's test:
    the identity laws, then ``(x*a)*z == x*(a*z)`` in all sixteen patterns
    for each ``a`` of :func:`category_generators` in the middle slot and
    every composable ``x`` and ``z``.  A category that fails it gets the
    detail of the exhaustive :func:`category_verdict`."""
    sizes = category_sizes(c)
    law = identity_law_failure(c)
    if law is not None:
        return False, law
    gens = category_generators(c)
    patterns = sorted((k[0], k[1], s3) for k in CATEGORY_TYPES for s3 in "ALRG"
                      if k[1] + s3 in CATEGORY_TYPES)
    for s1, s2, s3 in patterns:
        r12, r23 = CATEGORY_TYPES[s1 + s2], CATEGORY_TYPES[s2 + s3]
        for a in gens[s2]:
            for i in range(sizes[s1]):
                for k in range(sizes[s3]):
                    if (c.comp[r12 + s3][c.comp[s1 + s2][i][a]][k]
                            != c.comp[s1 + r23][i][c.comp[s2 + s3][a][k]]):
                        exhaustive = category_verdict(c)
                        if exhaustive[0]:
                            raise AssertionError(f"Light's test failed at {s1}{s2}{s3} "
                                                 "on a category the scan passes")
                        return exhaustive
    return True, None


def generates_every_morphism(c, gens):
    """Whether ``gens[slot]`` and the two identities compose to every
    morphism of ``c``: their closure under every composable product, each
    new morphism composed on both sides with itself and every earlier one."""
    sizes = category_sizes(c)
    found = [("A", c.a_identity), ("G", c.g_identity)]
    found += [(s, x) for s in "ALRG" for x in gens.get(s, ())]
    reached = set(found)
    for i, first in enumerate(found):
        for second in found[: i + 1]:
            for (s, x), (t, y) in ((first, second), (second, first)):
                if s + t in CATEGORY_TYPES:
                    product = (CATEGORY_TYPES[s + t], c.comp[s + t][x][y])
                    if product not in reached:
                        reached.add(product)
                        found.append(product)
    return reached == {(s, x) for s in "ALRG" for x in range(sizes[s])}


def category_iso_verdict(c1, c2, maps):
    """``(ok, detail)`` for slot maps between two categories, by a loop over
    every pair of every typed table: sizes, bijections and identities first,
    then the tables in ``CATEGORY_TYPES`` order, each in ``(i, j)`` order, as
    ``verify_category_iso`` reports them."""
    sizes1, sizes2 = ({s: len(c.comp[k]) for s, k in zip("ALRG", ("AA", "LR", "RL", "GG"))}
                      for c in (c1, c2))
    for s in "ALRG":
        m = maps[s]
        if len(m) != sizes1[s] or sizes2[s] != sizes1[s]:
            return False, f"slot {s}: map size mismatch"
        if sorted(m) != list(range(sizes2[s])):
            return False, f"slot {s}: map is not a bijection"
    if maps["A"][c1.a_identity] != c2.a_identity:
        return False, "the A identity is not preserved"
    if maps["G"][c1.g_identity] != c2.g_identity:
        return False, "the G identity is not preserved"
    for key, r in CATEGORY_TYPES.items():
        for i in range(sizes1[key[0]]):
            for j in range(sizes1[key[1]]):
                left = maps[r][c1.comp[key][i][j]]
                right = c2.comp[key][maps[key[0]][i]][maps[key[1]][j]]
                if left != right:
                    return False, f"table {key}: maps do not commute at ({i},{j})"
    return True, None


def table_check(table, rows, cols, bound, shape):
    """What ``core.checked_table`` does with ``table``, by the row-at-a-time
    scan it ran before it checked whole tables: ``("ok", tuples)``,
    ``("FormatError", shape, None)`` for a wrong shape, or ``("OutOfRange",
    message, (i, j))`` at the first entry in row-major order that is not an
    int (a bool is not one) in ``[0, bound)``."""
    table = tuple(map(tuple, table))
    if not table or len(table) != rows or any(len(row) != cols for row in table):
        return ("FormatError", shape, None)
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < bound:
                return ("OutOfRange", f"table entry at ({i},{j}) is not an element index", (i, j))
    return ("ok", table)


def ideal_escape(table, members, side):
    """The ``BadSubset`` message for the first product that leaves
    ``members`` (members in increasing order, then the other factor, the
    left product before the right one), or None for an ideal; the loop
    ``IdealSubset`` ran over every product before it checked whole rows."""
    n = len(table)
    inside = set(members)
    for a in sorted(inside):
        for s in range(n):
            if side in ("left", "two-sided") and table[s][a] not in inside:
                return f"not a left ideal: {s}*{a} escapes"
            if side in ("right", "two-sided") and table[a][s] not in inside:
                return f"not a right ideal: {a}*{s} escapes"
    return None


# Rees matrix semigroups, read from the structure data of a
# ``ReesMatrixSemigroup`` (group table, index counts, sandwich matrix).

def rees_triples(rms):
    """All triples ``(i, g, l)`` in lexicographic order."""
    return list(itertools.product(range(rms.i_count), range(len(rms.group.table)),
                                  range(rms.lambda_count)))


def rees_mul(rms, t1, t2):
    """``(i, g, l)(j, h, m) = (i, g * P[l][j] * h, m)``."""
    (i, g, l), (j, h, m) = t1, t2
    gt = rms.group.table
    return (i, gt[gt[g][rms.sandwich[l][j]]][h], m)


def rees_table(rms):
    """The product table over the triples, one product at a time (the
    table ``expand`` built before the structure cached its own)."""
    triples = rees_triples(rms)
    index = {t: k for k, t in enumerate(triples)}
    return [[index[rees_mul(rms, a, b)] for b in triples] for a in triples]


def rees_iso_verdict(table, rms, mapping):
    """``(ok, detail)`` of ``verify_rees_iso``, by its old per-product loop."""
    n = len(table)
    size = rms.i_count * len(rms.group.table) * rms.lambda_count
    if n != size:
        return False, f"|S| = {n} but the triple space has size {size}"
    if sorted(mapping) != list(range(n)):
        return False, "mapping is not defined on exactly the elements of S"
    for v, tri in mapping.items():
        i, g, l = tri
        if not (0 <= i < rms.i_count and 0 <= g < len(rms.group.table) and 0 <= l < rms.lambda_count):
            return False, f"image {tri} of {v} is not a valid triple"
    if len(set(mapping.values())) != n:
        return False, "mapping is not injective"
    for a in range(n):
        for b in range(n):
            if mapping[table[a][b]] != rees_mul(rms, mapping[a], mapping[b]):
                return False, f"not multiplicative at ({a},{b})"
    return True, None


def _least_in_class(n, links):
    """``root[v]``, the least element of the class of ``v`` in the
    equivalence on ``range(n)`` that ``links`` generate: a union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in links:
        rx, ry = find(x), find(y)
        parent[max(rx, ry)] = min(rx, ry)  # a root is the least of its class
    return [find(v) for v in range(n)]


def orbit_reps(n, members, links):
    """The least element of each class of the equivalence on ``range(n)``
    that ``links`` generate, for the classes whose least element is in
    ``members``; in increasing order.  The union-find by which the Rees
    decomposition found its ``G``-orbits before the one sweep."""
    root, inside = _least_in_class(n, links), set(members)
    return [v for v in range(n) if root[v] == v and v in inside]


def orbit_classes(n, members, links):
    """The classes of the same union-find whose least element is in
    ``members``, each a sorted tuple, in increasing order of that element."""
    by_root = {}
    for v, r in enumerate(_least_in_class(n, links)):
        by_root.setdefault(r, []).append(v)
    return [tuple(by_root[r]) for r in orbit_reps(n, members, links)]


def group_acts(action, group_table, identity, side):
    """Whether ``action`` satisfies the laws of a group action: ``x*e == x``
    and ``(x*g)*h == x*(g*h)`` for ``action[x][g]`` on the right, or
    ``e*y == y`` and ``g*(h*y) == (g*h)*y`` for ``action[g][y]`` on the left."""
    ng = len(group_table)
    if side == "right":
        return all(row[identity] == x and all(action[row[g]][h] == row[group_table[g][h]]
                                              for g in range(ng) for h in range(ng))
                   for x, row in enumerate(action))
    return all(action[identity][y] == y
               and all(action[g][action[h][y]] == action[group_table[g][h]][y]
                       for g in range(ng) for h in range(ng))
               for y in range(len(action[0])))


def pair_orbits(lg, gr, gg, identity):
    """The union-find classes of ``L x R`` under ``(x, y) ~ (x*g⁻¹, g*y)``,
    as sorted tuples of pairs ordered by their least pair."""
    nl, nr, ng = len(lg), len(gr[0]), len(gg)
    inv = [next(h for h in range(ng) if gg[g][h] == identity) for g in range(ng)]
    links = [(x * nr + y, lg[x][inv[g]] * nr + gr[g][y])
             for x in range(nl) for g in range(ng) for y in range(nr)]
    return [tuple(divmod(v, nr) for v in cls)
            for cls in orbit_classes(nl * nr, range(nl * nr), links)]


def pair_images_are_classes(lg, gr, gg, identity):
    """Whether the images ``(x*g⁻¹, g*y)`` of each pair are exactly its class
    in :func:`pair_orbits`, as they are for a group action."""
    ng = len(gg)
    inv = [next(h for h in range(ng) if gg[g][h] == identity) for g in range(ng)]
    return all(set(cls) == {(lg[x][inv[g]], gr[g][y]) for g in range(ng)}
               for cls in pair_orbits(lg, gr, gg, identity) for (x, y) in cls)


def bijection_outcome(comp, g_identity):
    """``mult_bijection_check`` on a category's tables by the union-find it
    ran before ``core.orbits``: ``("pass", None)``, ``("fail", detail)`` or
    ``("IllDefinedComposition", message)``."""
    lr, nl, nr, ng = comp["LR"], len(comp["LR"]), len(comp["RL"]), len(comp["GG"])
    seen = {}
    for cls in pair_orbits(comp["LG"], comp["GR"], comp["GG"], g_identity):
        values = {lr[x][y] for (x, y) in cls}
        if len(values) != 1:
            return "IllDefinedComposition", f"composition splits the class of {cls[0]}"
        v = values.pop()
        if v in seen:
            return "fail", f"classes of {seen[v]} and {cls[0]} both compose to {v}"
        seen[v] = cls[0]
    if len(seen) * ng != nl * nr:
        return "fail", f"|L*R|*|G| = {len(seen) * ng} differs from |L|*|R| = {nl * nr}"
    return "pass", None


def correspondence_outcome(comp):
    """``minimal_ideal_correspondence`` on a category's tables as it ran before
    ``core.orbits``, with the minimal ideals of A from the principal-ideal
    enumeration: ``("pass", None)`` or ``("fail", detail)``."""
    lr, lg, gr = comp["LR"], comp["LG"], comp["GR"]
    nl, nr, ng = len(lr), len(comp["RL"]), len(comp["GG"])
    sides = (
        ("left", "R", "L*y for y", [tuple(sorted({row[y] for row in lr})) for y in range(nr)],
         [(y, gr[g][y]) for y in range(nr) for g in range(ng)]),
        ("right", "L", "x*R for x", [tuple(sorted(set(row))) for row in lr],
         [(x, lg[x][g]) for x in range(nl) for g in range(ng)]),
    )
    for side, slot, slice_name, slices, links in sides:
        minimal = {members for members, _ in principal_minimal_ideals(comp["AA"], side)}
        for k, sl in enumerate(slices):
            if sl not in minimal:
                return "fail", f"{slice_name}={k} is not a minimal {side} ideal"
        missing = minimal.difference(slices)
        if missing:
            return "fail", f"minimal {side} ideal {sorted(next(iter(missing)))} is not a slice"
        orbits = orbit_classes(len(slices), range(len(slices)), links)
        if len(orbits) != len(minimal):
            return "fail", (f"{len(orbits)} orbits on {slot} but {len(minimal)} "
                            f"minimal {side} ideals")
        for orb in orbits:
            if len({slices[v] for v in orb}) != 1:
                return "fail", f"slice is not constant on the orbit of {orb[0]}"
    return "pass", None


def quotient_outcome(comp, g_identity):
    """``group_quotient`` of a category's L and R bimodules by G as it ran
    before ``core.orbits``: ``("pass", classes)``, or the name of the error
    it raised with None: ``IllDefinedAction`` from the tensor, or
    ``TheoremViolation`` when the orbits differ from the tensor classes."""
    nl, nr, na = len(comp["LR"]), len(comp["RL"]), len(comp["AA"])
    orbits = pair_orbits(comp["LG"], comp["GR"], comp["GG"], g_identity)
    classes = tensor_classes(comp["LG"], comp["GR"], nl, nr, len(comp["GG"]))
    if induced_actions(classes, comp["AL"], comp["RA"], na, na) is None:
        return "IllDefinedAction", None
    if orbits != classes:
        return "TheoremViolation", None
    return "pass", tuple(classes)


def bimodule_law_failure(left_monoid, right_monoid, size, left_action, right_action):
    """What ``check_bimodule_laws`` raises, by the unit loop and the three
    triple loops it ran before it shared the one associativity scan:
    ``("UnitLawViolation", side, x)``, ``("ActionLawViolation", side,
    triple)`` or ``("CommutationViolation", None, triple)``; None when every
    law holds.  The monoids are ``(table, identity)`` pairs."""
    la, ra = left_action, right_action
    (ta, ea), (tb, eb) = left_monoid, right_monoid
    for x in range(size):
        if la[ea][x] != x:
            return "UnitLawViolation", "left", x
        if ra[x][eb] != x:
            return "UnitLawViolation", "right", x
    for a in range(len(ta)):
        for a2 in range(len(ta)):
            composed = la[ta[a][a2]]
            inner = la[a2]
            outer = la[a]
            for x in range(size):
                if composed[x] != outer[inner[x]]:
                    return "ActionLawViolation", "left", (a, a2, x)
    for x in range(size):
        row = ra[x]
        for b in range(len(tb)):
            xb_row = ra[row[b]]
            tb_row = tb[b]
            for b2 in range(len(tb)):
                if ra[x][tb_row[b2]] != xb_row[b2]:
                    return "ActionLawViolation", "right", (b, b2, x)
    for a in range(len(ta)):
        act = la[a]
        for x in range(size):
            ax_row = ra[act[x]]
            x_row = ra[x]
            for b in range(len(tb)):
                if ax_row[b] != act[x_row[b]]:
                    return "CommutationViolation", None, (a, x, b)
    return None


def tensor_classes(ra, la, nx, ny, nb):
    """The classes of ``X x Y`` under the equivalence generated by
    ``(x*b, y) ~ (x, b*y)``, grown one link at a time until nothing merges;
    each class sorted, the classes ordered by their smallest pair."""
    cls = {(x, y): {(x, y)} for x in range(nx) for y in range(ny)}
    for x in range(nx):
        for b in range(nb):
            for y in range(ny):
                p, q = (ra[x][b], y), (x, la[b][y])
                if cls[p] is not cls[q]:
                    merged = cls[p] | cls[q]
                    for pair in merged:
                        cls[pair] = merged
    return sorted({tuple(sorted(c)) for c in cls.values()})


def induced_actions(classes, left, right, na, nc):
    """The outer actions on tensor classes, ``(left_rows, right_rows)``, with
    every member of every class checked (the split check ``tensor`` runs);
    None when an action splits a class.  ``left[a][x]`` acts on the first
    factor, ``right[y][c]`` on the second."""
    index = {pair: ci for ci, cls in enumerate(classes) for pair in cls}
    left_rows, right_rows = [], [[] for _ in classes]
    for a in range(na):
        row = []
        for cls in classes:
            images = {index[(left[a][p], q)] for (p, q) in cls}
            if len(images) != 1:
                return None
            row.append(images.pop())
        left_rows.append(row)
    for ci, cls in enumerate(classes):
        for c in range(nc):
            images = {index[(p, right[q][c])] for (p, q) in cls}
            if len(images) != 1:
                return None
            right_rows[ci].append(images.pop())
    return left_rows, right_rows


def glued(xs, ys, outer, mid, inner):
    """``outer[x0][mid[inner[x1][y0]][y1]]`` over every member of classes
    ``[x0 (x) x1]`` and ``[y0 (x) y1]``; None when some entry depends on the
    members (the exhaustive gluing of ``compose_categories``)."""
    rows = []
    for cx in xs:
        row = []
        for cy in ys:
            values = {outer[x0][mid[inner[x1][y0]][y1]] for (x0, x1) in cx for (y0, y1) in cy}
            if len(values) != 1:
                return None
            row.append(values.pop())
        rows.append(row)
    return rows


def composition_failure(c1, c2):
    """The error type ``compose_categories(c1, c2)`` raises, or None when it
    succeeds, for categories sharing the middle monoid: ``"IllDefinedAction"``
    when an outer action splits a tensor class, ``"IllDefinedComposition"``
    when a gluing depends on representatives or the composite fails
    :func:`category_verdict`."""
    n1, n2 = ({s: len(c.comp[k]) for s, k in zip("ALRG", ("AA", "LR", "RL", "GG"))}
              for c in (c1, c2))
    ls = tensor_classes(c1.comp["LG"], c2.comp["AL"], n1["L"], n2["L"], n1["G"])
    rs = tensor_classes(c2.comp["RA"], c1.comp["GR"], n2["R"], n1["R"], n2["A"])
    on_l = induced_actions(ls, c1.comp["AL"], c2.comp["LG"], n1["A"], n2["G"])
    on_r = induced_actions(rs, c2.comp["GR"], c1.comp["RA"], n2["G"], n1["A"])
    if on_l is None or on_r is None:
        return "IllDefinedAction"
    lr = glued(ls, rs, c1.comp["LR"], c1.comp["GR"], c2.comp["LR"])
    rl = glued(rs, ls, c2.comp["RL"], c2.comp["AL"], c1.comp["RL"])
    if lr is None or rl is None:
        return "IllDefinedComposition"
    composite = SimpleNamespace(
        comp={"AA": c1.comp["AA"], "AL": on_l[0], "LG": on_l[1], "LR": lr,
              "RA": on_r[1], "GR": on_r[0], "RL": rl, "GG": c2.comp["GG"]},
        a_identity=c1.a_identity, g_identity=c2.g_identity)
    ok, _ = category_verdict(composite)
    return None if ok else "IllDefinedComposition"
