"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (full subset enumeration, permutation
search, every principal ideal, every triple) and shares no code with the
package, so a test that compares the two is a genuine cross-check.
"""

import itertools


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


def principal_is_simple(table):
    """True iff every principal two-sided ideal is everything."""
    full = tuple(range(len(table)))
    return all(principal_ideal(table, a, "two-sided") == full for a in range(len(table)))


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


def category_verdict(c):
    """``(ok, detail)`` for a two-object category, by exhaustive scan: the
    identity laws, then the sixteen associativity patterns in sorted order
    over every composable triple (the scan ``validate_category`` made
    before it used Light's test)."""
    sizes = {"A": len(c.comp["AA"]), "L": len(c.comp["LR"]),
             "R": len(c.comp["RL"]), "G": len(c.comp["GG"])}
    ea, eg = c.a_identity, c.g_identity
    aa, al, lg, gg, ra, gr = (c.comp[k] for k in ("AA", "AL", "LG", "GG", "RA", "GR"))
    for i in range(sizes["A"]):
        if aa[ea][i] != i or aa[i][ea] != i:
            return False, f"A identity law fails at A element {i}"
    for i in range(sizes["G"]):
        if gg[eg][i] != i or gg[i][eg] != i:
            return False, f"G identity law fails at G element {i}"
    for x in range(sizes["L"]):
        if al[ea][x] != x:
            return False, f"A identity law fails on L at {x}"
        if lg[x][eg] != x:
            return False, f"G identity law fails on L at {x}"
    for y in range(sizes["R"]):
        if ra[y][ea] != y:
            return False, f"A identity law fails on R at {y}"
        if gr[eg][y] != y:
            return False, f"G identity law fails on R at {y}"
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
