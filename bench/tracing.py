"""Outside-in span recorder for the traced benchmark run.

The recorder wraps, from outside the package, every public function and
every dataclass ``__post_init__`` of the monocat modules named in
``LAYERS``.  A wrapper is rebound under every name in every ``monocat.*``
namespace that holds the original, because ``from .ideals import kernel``
binds a name of its own.  Each span keeps its name, start, end and parent;
the spans stay in memory and are summarised (and optionally written out)
when the run ends.  Nothing inside monocat is changed on disk.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# the package modules, in report order; ``corpus`` only runs during set-up
LAYERS = ("core", "ideals", "twocat", "bimodule", "rees", "connectivity", "cli", "corpus")

# named groups of spans that can repeat work, with how to key the work done
PRINCIPAL = ("ideals.principal_left_ideal", "ideals.principal_right_ideal",
             "ideals.principal_two_sided_ideal")
STRUCTURE = ("ideals.kernel", "ideals.minimal_left_ideals", "ideals.minimal_right_ideals")
COUNTED = frozenset(("core.FiniteSemigroup", "twocat.validate_category", *PRINCIPAL, *STRUCTURE))

SETUP = "bench.setup"
CALL = "bench.call"


class Tracer:
    """Records spans around calls into monocat while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")  # span -> index into names
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._root = None  # name of the benchmark root span currently open
        self._patches: list[tuple[object, str, object]] = []
        # distinct-work counters over the calls: group -> [calls, set of work keys]
        self.work: dict[str, list] = {}
        self._fingerprints: dict[int, tuple[object, int]] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a benchmark root span (set-up or one call) around a block."""
        idx = self._open(name)
        self._root = name
        try:
            yield
        finally:
            self._close(idx)
            self._root = None

    def _count(self, group: str, key) -> None:
        entry = self.work.get(group)
        if entry is None:
            entry = self.work[group] = [0, set()]
        entry[0] += 1
        entry[1].add(key)

    def _fingerprint(self, carrier) -> int:
        """Hash of a carrier's table, cached per object (kept alive, so ids stay unique)."""
        carrier = getattr(carrier, "base", carrier)
        hit = self._fingerprints.get(id(carrier))
        if hit is None:
            hit = self._fingerprints[id(carrier)] = (carrier, hash(carrier.table))
        return hit[1]

    def _work_key(self, name: str, args, result):
        """(group, key) of the work done by a span whose name is in ``COUNTED``."""
        if name == "core.FiniteSemigroup":
            return name, hash(args[0].table)
        if name in PRINCIPAL:
            return "ideals.principal", (self._fingerprint(result.carrier), result.side,
                                        hash(result.members))
        if name in STRUCTURE:
            return "ideals.structure", (name, self._fingerprint(args[0]))
        c = args[0]  # twocat.validate_category
        return name, hash((tuple(sorted(c.comp.items())), c.a_identity, c.g_identity))

    def _wrap(self, name: str, fn):
        tracer = self
        counted = name in COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counted and tracer._root == CALL:
                tracer._count(*tracer._work_key(name, args, result))
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and constructors of every layer module."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"monocat.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    originals[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif (inspect.isclass(value) and value.__module__ == module.__name__
                      and "__post_init__" in vars(value)):
                    hook = vars(value)["__post_init__"]
                    self._patch(value, "__post_init__", self._wrap(f"{layer}.{attr}", hook))
        for module_name, module in list(sys.modules.items()):
            if module_name != "monocat" and not module_name.startswith("monocat."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Call count, self time and total time per span name, and the roots' time.

        Spans are grouped by the benchmark root they ran under (set-up or
        call).  Self time is a span's duration minus the durations of its
        direct children; children nest inside their parent because the run
        is single-threaded.
        """
        count = len(self.start)
        child = [0.0] * count
        root = [0] * count
        for i in range(count):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        phases: dict[str, dict[str, list]] = {SETUP: {}, CALL: {}}
        for i in range(count):
            phase = phases.get(self.names[self.name_of[root[i]]])
            if phase is None or self.parent[i] < 0:
                continue
            total = self.end[i] - self.start[i]
            row = phase.setdefault(self.names[self.name_of[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += total - child[i]
            row[2] += total
        roots = {SETUP: 0.0, CALL: 0.0}
        for i in range(count):
            if self.parent[i] < 0 and self.names[self.name_of[i]] in roots:
                roots[self.names[self.name_of[i]]] += self.end[i] - self.start[i]
        return {"spans": count, "phases": phases, "root_s": roots,
                "work": {g: (calls, len(keys)) for g, (calls, keys) in self.work.items()}}

    def write(self, path) -> None:
        """Write every span as ``[name, start, end, parent]`` rows."""
        rows = ([self.names[self.name_of[i]], round(self.start[i], 7), round(self.end[i], 7),
                 self.parent[i]] for i in range(len(self.start)))
        with open(path, "w") as fh:
            fh.write('{"spans": [\n')
            for k, row in enumerate(rows):
                fh.write(("," if k else "") + json.dumps(row) + "\n")
            fh.write("]}\n")
