"""The four benchmark workloads: seeded inputs, the timed calls, their checks.

Each workload builds its base structures in ``setup`` and writes the
inputs of one round of calls in ``make_round``.  Every later round gets a
fresh seeded relabelling, so no call sees a table an earlier call saw,
except in ``connect_pairs``, whose point is that every monoid of the pool
meets every other one.  The seed only makes inputs; monocat receives just
the generated tables and files.  The expected answers come from how each
input was built, never from the code under test.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path
from typing import Callable, NamedTuple, Optional


class Call(NamedTuple):
    """One public call: ``run`` is timed, ``check`` returns a failure reason or None."""

    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    items: int
    inputs: tuple  # fingerprints of the input structures


def relabel(table, identity, rng: random.Random):
    """The table under a random renaming of its elements (and the renamed identity)."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)  # perm[old] == new
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    rows = []
    for i in range(n):
        row = table[inv[i]]
        rows.append(tuple(perm[row[inv[j]]] for j in range(n)))
    return tuple(rows), (None if identity is None else perm[identity])


def cayley_text(table, identity) -> str:
    """The plain-text table format read by ``monocat``."""
    lines = [str(len(table))]
    lines.extend(" ".join(map(str, row)) for row in table)
    if identity is not None:
        lines.append(f"identity {identity}")
    return "\n".join(lines) + "\n"


def fingerprint(table, identity) -> int:
    return hash((table, identity))


def _report(path: Path) -> dict:
    return json.loads(path.read_text())


class Workload:
    """Shared round bookkeeping; subclasses build inputs and calls."""

    name = ""

    def __init__(self, m, seed: int, workdir: Path, small: bool = False):
        self.m = m  # namespace holding the monocat modules
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.invariants: dict = {}

    def reset(self) -> None:
        """Start a set-up afresh; repeated set-ups give identical inputs."""
        self.rng = random.Random(self.seed)
        self.round_no = 0
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def make_round(self) -> list[Call]:
        """Write the inputs of the next round and return its calls."""
        self.round_no += 1
        previous = self.workdir / f"round{self.round_no - 1}"
        if previous.exists():
            shutil.rmtree(previous)
        directory = self.workdir / f"round{self.round_no}"
        directory.mkdir(parents=True)
        return self.calls(directory)

    def final_calls(self) -> list[Call]:
        """Calls made once per run, after the timed rounds."""
        return []

    def build(self) -> None:
        """Build the base structures (the set-up, together with the first round)."""
        raise NotImplementedError

    def calls(self, directory: Path) -> list[Call]:
        raise NotImplementedError

    def _cli(self, argv: list[str]) -> int:
        return self.m.cli.main(["--quiet", *argv])


class CorpusSuite(Workload):
    """``monocat suite`` over the relabelled standard corpus; one call is one pass."""

    name = "corpus_suite"

    def build(self):
        entries = self.m.corpus.standard_corpus()
        if self.small:
            entries = entries[:24]
        self.base = [(m.table, m.identity) for _, m in entries]

    def calls(self, directory):
        inputs = directory / "in"
        inputs.mkdir()
        prints = []
        for k, (table, identity) in enumerate(self.base):
            table, identity = relabel(table, identity, self.rng)
            (inputs / f"{k:03d}.cayley").write_text(cayley_text(table, identity))
            prints.append(fingerprint(table, identity))
        report = directory / "report.json"
        count = len(self.base)

        def check(code):
            if code != 0:
                return f"exit code {code}"
            r = _report(report)
            res = r["results"]
            failing = [name for name, e in res["entries"].items() if not e.get("passed")]
            if r["status"] != "ok" or res["count"] != count or res["passed"] != count or failing:
                return f"suite: {res['passed']}/{res['count']} passed, failing {failing[:5]}"
            self.invariants = {"files": count, "passed": res["passed"],
                               "elements": sum(len(t) for t, _ in self.base)}
            return None

        run = lambda: self._cli(["--json", str(report), "suite", str(inputs)])  # noqa: E731
        return [Call(run, check, count, tuple(prints))]


class T4Battery(Workload):
    """``monocat suite`` on one relabelled full transformation monoid T_4."""

    name = "t4_battery"

    def build(self):
        self.points = 3 if self.small else 4
        t = self.m.corpus.full_transformation_monoid(self.points)
        self.base = (t.table, t.identity)
        # T_n: the kernel is the n constant maps; each constant is a minimal
        # left ideal, together they form the one minimal right ideal, G = 1
        n = self.points
        self.expect = {"kernel": n, "L": 1, "R": n, "G": 1, "lefts": n, "rights": 1}

    def calls(self, directory):
        inputs = directory / "in"
        inputs.mkdir()
        table, identity = relabel(*self.base, self.rng)
        self.file = inputs / "t.cayley"
        self.file.write_text(cayley_text(table, identity))
        report = directory / "report.json"

        def check(code):
            if code != 0:
                return f"exit code {code}"
            res = _report(report)["results"]
            if res["count"] != 1 or res["passed"] != 1:
                return f"suite entry failed: {res['entries']}"
            return None

        run = lambda: self._cli(["--json", str(report), "suite", str(inputs)])  # noqa: E731
        return [Call(run, check, 1, (fingerprint(table, identity),))]

    def final_calls(self):
        """``monocat kernel`` on the last input, checked against the known structure."""
        report = self.workdir / "kernel.json"
        path = self.file

        def check(code):
            if code != 0:
                return f"exit code {code}"
            res = _report(report)["results"]
            got = {**res["sizes"], "lefts": len(res["minimal_left_ideals"]),
                   "rights": len(res["minimal_right_ideals"])}
            if got != self.expect:
                return f"kernel structure {got}, expected {self.expect}"
            self.invariants = {"n": res["n"], **got}
            return None

        run = lambda: self._cli(["--json", str(report), "kernel", str(path)])  # noqa: E731
        return [Call(run, check, 1, ())]


# (corpus family, parameters, kernel group known by construction)
POOL = (
    *(("cyclic_group", (k,), f"C{k}") for k in range(1, 7)),
    ("symmetric_group", (2,), "C2"),
    ("symmetric_group", (3,), "S3"),
    *(("left_zero", (k,), "C1") for k in (2, 3, 4)),
    *(("right_zero", (k,), "C1") for k in (2, 3, 4)),
    *(("rectangular_band", pq, "C1") for pq in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))),
    *(("transformation", (k,), "C1") for k in (1, 2, 3)),
    *(("rees_sample", ("cyclic", 2, i, l), "C2")
      for i, l in ((2, 2), (1, 2), (2, 3), (3, 3), (4, 1), (1, 4))),
    *(("rees_sample", ("cyclic", 3, i, l), "C3") for i, l in ((2, 1), (2, 2), (3, 3), (1, 3), (3, 1))),
    *(("rees_sample", ("symmetric", 3, i, l), "S3")
      for i, l in ((2, 1), (1, 2), (2, 2), (3, 3), (1, 3), (3, 1))),
)


class ConnectPairs(Workload):
    """``are_connected`` on every pair of a pool of monoids with known groups.

    One call is one pair: the verdict, and ``validate_category`` on the
    witness of a positive verdict.  Each monoid meets every other one, so
    this is the workload whose inputs repeat.
    """

    name = "connect_pairs"

    def build(self):
        core, corpus = self.m.core, self.m.corpus
        specs = POOL[::4] if self.small else POOL
        self.pool = []
        for family, params, group in specs:
            if family == "transformation":
                monoid = corpus.full_transformation_monoid(*params)
            else:
                seed = self.rng.randrange(2**31)
                monoid = corpus.generate(corpus.CorpusSpec(family, params, seed=seed))[0]
            table, identity = relabel(monoid.table, monoid.identity, self.rng)
            relabelled = core.Monoid(core.validate_semigroup(table), identity)
            self.pool.append((relabelled, group, fingerprint(table, identity)))
        order = list(range(len(self.pool)))
        self.rng.shuffle(order)  # which monoid of a pair comes first
        self.pairs = [(order[i], order[j]) for i in range(len(order)) for j in range(i + 1, len(order))]
        self.rng.shuffle(self.pairs)
        self.invariants = {"pool": len(self.pool), "pairs": len(self.pairs),
                           "elements": sorted(m.n for m, _, _ in self.pool)}

    def calls(self, directory):
        self.invariants["positive"] = 0  # counted again by every round
        out = []
        for i, j in self.pairs:
            a, ga, fa = self.pool[i]
            b, gb, fb = self.pool[j]
            out.append(Call(self._runner(a, b), self._checker(a, b, ga == gb), 1, (fa, fb)))
        return out

    def _runner(self, a, b):
        def run():
            outcome = self.m.connectivity.are_connected(a, b)
            verdict = self.m.twocat.validate_category(outcome.witness) if outcome.connected else None
            return outcome, verdict
        return run

    def _checker(self, a, b, expected: bool):
        def check(result):
            outcome, verdict = result
            if outcome.connected != expected:
                return f"verdict {outcome.connected} for n={a.n}, n={b.n}, expected {expected}"
            if not expected:
                return None if outcome.witness is None else "negative verdict carries a witness"
            w = outcome.witness
            if not verdict.ok:
                return f"witness invalid: {verdict.detail}"
            if (w.comp["AA"], w.a_identity, w.comp["GG"], w.g_identity) != (
                    a.table, a.identity, b.table, b.identity):
                return "witness end monoids differ from the inputs"
            self.invariants["positive"] += 1
            return None
        return check


# (group family, group parameter, I, Lambda); sizes 36..120, past the corpus MAX_SIZE of 64.
# Ten files, two of them with 64 and two with 120 elements: the median and the
# 90th percentile of a round's call times then each fall on one size, not on the
# gap between two sizes.
REES = (
    ("symmetric", 3, 2, 3),
    ("cyclic", 4, 3, 3),
    ("cyclic", 4, 3, 4),
    ("symmetric", 3, 3, 3),
    ("cyclic", 4, 4, 4),
    ("cyclic", 4, 2, 8),
    ("cyclic", 4, 4, 5),
    ("symmetric", 3, 4, 4),
    ("symmetric", 3, 4, 5),
    ("cyclic", 4, 5, 6),
)


class ReesRoundtrip(Workload):
    """``monocat rees`` on expanded Rees matrix semigroups; one call is one file."""

    name = "rees_roundtrip"

    def build(self):
        corpus, rees = self.m.corpus, self.m.rees
        self.base = []
        for family, param, i_count, lambda_count in (REES[:2] if self.small else REES):
            group = corpus.generate(corpus.CorpusSpec(f"{family}_group", (param,)))[0]
            sandwich = tuple(tuple(self.rng.randrange(group.n) for _ in range(i_count))
                             for _ in range(lambda_count))
            s = rees.expand(rees.ReesMatrixSemigroup(group, i_count, lambda_count, sandwich))
            self.base.append((s.table, {"I": i_count, "Lambda": lambda_count,
                                        "group_order": group.n}))
        self.invariants = {"sizes": [len(t) for t, _ in self.base]}

    def calls(self, directory):
        out = []
        for k, (table, expect) in enumerate(self.base):
            table, _ = relabel(table, None, self.rng)
            path = directory / f"{k}.cayley"
            path.write_text(cayley_text(table, None))
            report = directory / f"{k}.json"
            run = (lambda p=path, r=report:  # noqa: E731
                   self._cli(["--json", str(r), "rees", str(p)]))
            out.append(Call(run, self._checker(report, expect), 1, (fingerprint(table, None),)))
        return out

    @staticmethod
    def _checker(report, expect):
        def check(code):
            if code != 0:
                return f"exit code {code}"
            res = _report(report)["results"]
            got = {key: res[key] for key in expect}
            if got != expect or res["decomposed_kernel"] or not res["isomorphism_verified"]:
                return (f"rees {got}, expected {expect}; decomposed_kernel "
                        f"{res['decomposed_kernel']}, verified {res['isomorphism_verified']}")
            return None
        return check


WORKLOADS = {w.name: w for w in (CorpusSuite, T4Battery, ConnectPairs, ReesRoundtrip)}
