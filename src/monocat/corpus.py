"""Deterministic families of test monoids.

Every family is bit-deterministic in its parameters and seed.  Transformation
maps compose left to right: ``f*g`` applies ``f`` first, so
``(f*g)(p) = g(f(p))``, matching the package-wide product convention.
Generated submonoids are closed with ``core.closure``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, factorial, prod
from pathlib import Path

from .core import (FiniteSemigroup, Monoid, adjoin_identity, closure, dump_cayley, reindexed,
                   trusted, validate_semigroup)
from .errors import BoundsExceeded, FormatError
from .rees import ReesMatrixSemigroup, expand

MAX_POINTS = 4
MAX_GROUP_ORDER = 24
MAX_SIZE = 64
MAX_GENERATOR_SETS = 25_000

# each family with the types of its parameters; ``rees_sample`` starts with
# the name of its group family
FAMILIES = {
    "left_zero": (int,),
    "right_zero": (int,),
    "rectangular_band": (int, int),
    "cyclic_group": (int,),
    "symmetric_group": (int,),
    "transformation_submonoids": (int, int),
    "rees_sample": (str, int, int, int),
}


@dataclass(frozen=True)
class CorpusSpec:
    """A family name with its parameters; identical specs generate identical output."""

    family: str
    params: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FormatError(f"unknown family {self.family!r}")
        object.__setattr__(self, "params", tuple(self.params))

    def name(self) -> str:
        inner = ",".join(str(p) for p in self.params)
        if self.family == "rees_sample":
            inner += f";seed={self.seed}"
        return f"{self.family}({inner})"


def _left_zero(k: int) -> Monoid:
    table = [[i] * k for i in range(k)]
    return adjoin_identity(validate_semigroup(table))


def _right_zero(k: int) -> Monoid:
    table = [list(range(k)) for _ in range(k)]
    return adjoin_identity(validate_semigroup(table))


def _rectangular_band(p: int, q: int) -> Monoid:
    # elements (i, l) in lexicographic order; (i, l)(j, m) = (i, m)
    index = {(i, l): i * q + l for i in range(p) for l in range(q)}
    table = [
        [index[(i, m)] for (j, m) in sorted(index)]
        for (i, l) in sorted(index)
    ]
    labels = tuple(f"({i},{l})" for (i, l) in sorted(index))
    return adjoin_identity(validate_semigroup(table, labels))


def _cyclic_group(m: int) -> Monoid:
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return Monoid(validate_semigroup(table), 0)


def _symmetric_group(m: int) -> Monoid:
    perms = list(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(q[p[x]] for x in range(m))] for q in perms] for p in perms
    ]
    labels = tuple("".join(map(str, p)) for p in perms)
    return Monoid(validate_semigroup(table, labels), 0)


def _bounded_group(family: str, m: int) -> Monoid:
    """The cyclic group of order ``m`` or the symmetric group on ``m`` points,
    refused before it is built when its order exceeds ``MAX_GROUP_ORDER``,
    ``m`` is a negative number of points or a cyclic order below 1."""
    if family == "symmetric" and m < 0:
        raise BoundsExceeded("a symmetric group on at least 0 points")
    if family == "cyclic" and m < 1:
        raise BoundsExceeded("a cyclic group of order at least 1")
    # the order is at least m, so a large m is refused before m! is computed
    if m > MAX_GROUP_ORDER or (family == "symmetric" and factorial(m) > MAX_GROUP_ORDER):
        raise BoundsExceeded(f"group order at most {MAX_GROUP_ORDER}")
    return _cyclic_group(m) if family == "cyclic" else _symmetric_group(m)


def _full_transformation_table(n: int):
    maps = list(itertools.product(range(n), repeat=n))
    index = {f: i for i, f in enumerate(maps)}
    table = [
        [index[tuple(g[f[x]] for x in range(n))] for g in maps] for f in maps
    ]
    return maps, table


def full_transformation_monoid(n: int) -> Monoid:
    """All maps on ``n`` points under left-to-right composition."""
    if not 0 <= n <= MAX_POINTS:
        raise BoundsExceeded(f"between 0 and {MAX_POINTS} points")
    maps, table = _full_transformation_table(n)
    labels = tuple("".join(map(str, f)) for f in maps)
    identity = maps.index(tuple(range(n)))
    return Monoid(validate_semigroup(table, labels), identity)


def _transformation_submonoids(n: int, max_gens: int) -> list[Monoid]:
    if not 0 <= n <= MAX_POINTS:
        raise BoundsExceeded(f"between 0 and {MAX_POINTS} points")
    if max_gens < 2:
        raise BoundsExceeded("at least pairs of generators are enumerated")
    # the sets, of at most |T_n| = n^n members, are counted before any is closed
    top = min(max_gens, n**n)
    sets = sum(comb(n**n, k) for k in range(2, top + 1))
    if sets > MAX_GENERATOR_SETS:
        raise BoundsExceeded(f"{sets} generator sets exceed {MAX_GENERATOR_SETS}")
    maps, table = _full_transformation_table(n)
    identity = maps.index(tuple(range(n)))
    monoids: list[Monoid] = []
    seen_tables: set = set()
    for k in range(2, top + 1):
        for gens in itertools.combinations(range(len(maps)), k):
            elems = sorted(closure(table, (identity, *gens)))
            sub = reindexed(table, elems, elems, {e: i for i, e in enumerate(elems)})
            if sub in seen_tables:
                continue
            seen_tables.add(sub)
            labels = tuple("".join(map(str, maps[e])) for e in elems)
            # a closure of T_n's checked table that holds its identity
            base = trusted(FiniteSemigroup, table=sub, labels=labels)
            monoids.append(trusted(Monoid, base=base, identity=elems.index(identity)))
    return monoids


def _rees_sample(group_family: str, group_param: int, i_count: int,
                 lambda_count: int, seed: int) -> Monoid:
    if group_family not in ("cyclic", "symmetric"):
        raise FormatError(f"unknown group family {group_family!r}")
    group = _bounded_group(group_family, group_param)
    size = i_count * group.n * lambda_count
    if size > MAX_SIZE:
        raise BoundsExceeded(f"expanded size {size} exceeds {MAX_SIZE}")
    rng = random.Random(seed)
    sandwich = tuple(
        tuple(rng.randrange(group.n) for _ in range(i_count))
        for _ in range(lambda_count)
    )
    rms = ReesMatrixSemigroup(group, i_count, lambda_count, sandwich)
    return adjoin_identity(expand(rms))


def generate(spec: CorpusSpec) -> list[Monoid]:
    """Expand a family spec into validated monoids, deduplicated by table."""
    fam, p = spec.family, spec.params
    kinds = FAMILIES[fam]
    if len(p) != len(kinds):
        raise FormatError(f"{fam} takes {len(kinds)} parameter(s), got {len(p)}")
    for v, kind in zip(p, kinds):
        if type(v) is not kind:
            raise FormatError(f"{fam} parameter {v!r} is not of type {kind.__name__}")
    # the bands have prod(p) elements before their identity is adjoined
    if fam in ("left_zero", "right_zero", "rectangular_band"):
        if min(p) < 1:
            raise BoundsExceeded(f"{fam} parameters of at least 1")
        if prod(p) > MAX_SIZE:
            raise BoundsExceeded(f"size {prod(p)} exceeds {MAX_SIZE}")
    if fam == "left_zero":
        return [_left_zero(*p)]
    if fam == "right_zero":
        return [_right_zero(*p)]
    if fam == "rectangular_band":
        return [_rectangular_band(*p)]
    if fam in ("cyclic_group", "symmetric_group"):
        return [_bounded_group(fam.split("_")[0], *p)]
    if fam == "transformation_submonoids":
        return _transformation_submonoids(*p)
    return [_rees_sample(*p, seed=spec.seed)]


STANDARD_SPECS = (
    CorpusSpec("left_zero", (2,)),
    CorpusSpec("left_zero", (3,)),
    CorpusSpec("left_zero", (4,)),
    CorpusSpec("right_zero", (2,)),
    CorpusSpec("right_zero", (3,)),
    CorpusSpec("right_zero", (4,)),
    CorpusSpec("rectangular_band", (2, 2)),
    CorpusSpec("rectangular_band", (2, 3)),
    CorpusSpec("rectangular_band", (3, 2)),
    CorpusSpec("rectangular_band", (3, 3)),
    CorpusSpec("cyclic_group", (1,)),
    CorpusSpec("cyclic_group", (2,)),
    CorpusSpec("cyclic_group", (3,)),
    CorpusSpec("cyclic_group", (4,)),
    CorpusSpec("cyclic_group", (5,)),
    CorpusSpec("cyclic_group", (6,)),
    CorpusSpec("symmetric_group", (2,)),
    CorpusSpec("symmetric_group", (3,)),
    CorpusSpec("rees_sample", ("cyclic", 2, 2, 2), seed=1),
    CorpusSpec("rees_sample", ("cyclic", 2, 1, 2), seed=2),
    CorpusSpec("rees_sample", ("cyclic", 3, 2, 1), seed=3),
    CorpusSpec("rees_sample", ("cyclic", 2, 2, 3), seed=4),
    CorpusSpec("rees_sample", ("symmetric", 3, 2, 1), seed=5),
    CorpusSpec("transformation_submonoids", (2, 2)),
    CorpusSpec("transformation_submonoids", (3, 2)),
)


def standard_corpus() -> list[tuple[str, Monoid]]:
    """The named corpus used by the verification suite, table-deduplicated."""
    out: list[tuple[str, Monoid]] = []
    seen: set = set()
    for spec in STANDARD_SPECS:
        monoids = generate(spec)
        for idx, m in enumerate(monoids):
            key = (m.identity, m.table)
            if key in seen:
                continue
            seen.add(key)
            name = spec.name() if len(monoids) == 1 else f"{spec.name()}[{idx}]"
            out.append((name, m))
    return out


def dump_corpus(entries: list[tuple[str, Monoid]], outdir) -> list[str]:
    """Write one table file per structure; returns the file names."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for i, (name, m) in enumerate(entries):
        safe = "".join(ch if ch.isalnum() else "_" for ch in name).strip("_")
        fname = f"{i:03d}_{safe}.cayley"
        (outdir / fname).write_text(f"# {name}\n" + dump_cayley(m))
        names.append(fname)
    return names
