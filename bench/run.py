"""Run one monocat benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; monocat is imported from ``src/``.
Workloads: corpus_suite, t4_battery, connect_pairs, rees_roundtrip (see
``bench/README.md``), or ``all`` to run each of them in turn.  Every call
is single-threaded and closed-loop: the next call starts when the previous
one has returned.  The timed part runs whole rounds of calls until their
summed time reaches ``--seconds``.  Untraced runs report every time at the
host's reference speed, measured by a fixed loop between calls
(``hostspeed.py``), so that drift in the speed of a shared host cancels.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sets up once
with monocat's layers wrapped (``tracing.py``), then alternates untraced and
traced rounds, and reports per-layer metrics from the traced ones.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.  The exit code is 1 if any call gave a wrong answer, 2 on a usage
error or when there is no monocat source to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from hostspeed import NOMINAL_S, HostSpeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated and its median reported: at least SETUP_MIN times, and
# until a fifth of --seconds (at most SETUP_SECONDS) is spent, at most SETUP_MAX times
SETUP_MIN, SETUP_SECONDS, SETUP_MAX = 5, 3.0, 50
# the reference loop runs between calls once this much call time has passed
SEGMENT_S = 0.25
LAYERS = tracing.LAYERS[:-1]  # the seven layers a call runs through


def load_monocat(root: Path):
    """Import the monocat modules from ``root/src``, or return None if absent."""
    src = root / "src"
    if not (src / "monocat" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import monocat  # noqa: F401
    import monocat.cli  # noqa: F401
    return types.SimpleNamespace(**{name: sys.modules[f"monocat.{name}"]
                                    for name in tracing.LAYERS})


def environment(root: Path) -> dict:
    return {"python": platform.python_version(), "commit": _commit(root),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def _commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Calls attempted and failed, and how many input structures repeat."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.structures = 0
        self.repeated = 0
        self._seen: set = set()

    def call(self, call, tracer=None) -> float:
        """Make one call, check its answer, and return its duration in seconds."""
        self.attempted += 1
        for fp in call.inputs:
            self.structures += 1
            self.repeated += fp in self._seen
            self._seen.add(fp)
        raised = False
        start = perf_counter()
        try:
            if tracer is None:
                out = call.run()
            else:
                with tracer.span(tracing.CALL):
                    out = call.run()
        except Exception:  # a crash in monocat is a failed call, not a crashed run
            traceback.print_exc()
            raised = True
        elapsed = perf_counter() - start
        try:
            reason = "raised an exception" if raised else call.check(out)
        except Exception as exc:  # e.g. a missing or malformed report
            reason = f"check raised {exc!r}"
        if reason is not None:
            self.failed += 1
            print(f"FAILED: {reason}", file=sys.stderr)
        return elapsed


def measure(workload, calls, seconds: float, tally: Tally, host: HostSpeed):
    """Run whole rounds until the summed call time reaches ``seconds``.

    Returns every call time at the host's reference speed, and the items
    per second of each round at that speed.  The reference loop runs
    between calls once ``SEGMENT_S`` of call time has passed, and at the
    end of each round.  A round's rate, not the run's total, is the sample:
    the median of them ignores the rounds a burst of load on the host
    slowed down more than the loop saw.
    """
    rounds: list[list[tuple[float, float]]] = []  # (start, measured seconds) of each call
    items: list[int] = []
    spent = since_sample = 0.0  # measured call time
    host.sample()
    while True:
        timed = []
        for k, call in enumerate(calls):
            start = perf_counter()
            elapsed = tally.call(call)
            timed.append((start, elapsed))
            spent += elapsed
            since_sample += elapsed
            if since_sample >= SEGMENT_S or k == len(calls) - 1:
                host.sample()
                since_sample = 0.0
        rounds.append(timed)
        items.append(sum(call.items for call in calls))
        if spent >= seconds:
            break
        calls = workload.make_round()
    times: list[float] = []
    rates: list[float] = []
    for timed, n in zip(rounds, items):
        scaled = [host.seconds(start, elapsed) for start, elapsed in timed]
        times.extend(scaled)
        rates.append(n / sum(scaled))
    return times, rates


def measure_traced(workload, calls, seconds: float, tally: Tally, tracer) -> float:
    """Alternate untraced and traced rounds until their summed call time reaches ``seconds``.

    Returns the tracing overhead: traced time per item over untraced time
    per item.  Alternating rounds cancels drift in the speed of the host.
    """
    spent = {False: [0.0, 0], True: [0.0, 0]}  # traced? -> [seconds, items]
    traced = False
    while True:
        if traced:
            with tracer:
                elapsed = sum(tally.call(call, tracer) for call in calls)
        else:
            elapsed = sum(tally.call(call) for call in calls)
        spent[traced][0] += elapsed
        spent[traced][1] += sum(call.items for call in calls)
        if traced and spent[False][0] + spent[True][0] >= seconds:
            (traced_s, traced_n), (plain_s, plain_n) = spent[True], spent[False]
            return (traced_s / traced_n) / (plain_s / plain_n)
        traced = not traced
        calls = workload.make_round()


def set_up(workload, seconds: float, host: HostSpeed):
    """Repeat the set-up; return its median time at reference speed and the first round's calls."""
    budget = min(SETUP_SECONDS, seconds / 5)
    timed: list[tuple[float, float]] = []  # (start, measured seconds)
    host.sample()
    while len(timed) < SETUP_MIN or (
            sum(t for _, t in timed) < budget and len(timed) < SETUP_MAX):
        workload.reset()
        start = perf_counter()
        workload.build()
        calls = workload.make_round()
        timed.append((start, perf_counter() - start))
        host.sample()
    return statistics.median(host.seconds(*t) for t in timed), calls


def p90(times: list[float]) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def run_workload(m, name: str, seed: int, seconds: float, trace: bool, root: Path = ROOT,
                 small: bool = False, adjust=None) -> dict:
    """Run a workload on the monocat modules ``m`` and return its full record.

    ``small`` shrinks every input (for the benchmark's own smoke test) and
    ``adjust``, if given, is applied to the workload after set-up.
    """
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        workload = WORKLOADS[name](m, seed, workdir, small=small)
        tally = Tally()
        if not trace:
            host = HostSpeed()
            setup_s, calls = set_up(workload, seconds, host)
        else:
            tracer = tracing.Tracer()
            workload.reset()
            with tracer, tracer.span(tracing.SETUP):
                workload.build()
                calls = workload.make_round()
        if adjust is not None:
            adjust(workload)
        if not trace:
            times, rates = measure(workload, calls, seconds, tally, host)
        else:
            overhead = measure_traced(workload, calls, seconds, tally, tracer)
        for call in workload.final_calls():
            tally.call(call)
        repeat_share = tally.repeated / max(tally.structures, 1)
        if not trace:
            metrics = {
                "setup_s": (setup_s, "s"),
                "items_per_s": (statistics.median(rates), "1/s"),
                "call_p50_ms": (1000 * statistics.median(times), "ms"),
                "call_p90_ms": (1000 * p90(times), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
        else:
            metrics = layer_metrics(tracer.summary(), overhead, repeat_share)
            tracer.write(scratch / f"spans-{name}-seed{seed}.json")
        return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                "env": environment(root), "samples": None if trace else len(times),
                "rounds": None if trace else len(rates),
                "reference_s": None if trace else host.median_s(),
                "repeat_share": repeat_share,
                "invariants": workload.invariants, "correct": tally.failed == 0,
                "attempted": tally.attempted, "failed": tally.failed,
                "fail_ratio": tally.failed / tally.attempted,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(summary: dict, overhead: float, repeat_share: float) -> dict:
    """The per-layer metrics of a traced run, as ``name -> (value, unit)``."""
    calls = summary["phases"][tracing.CALL]
    setup = summary["phases"][tracing.SETUP]
    work = summary["work"]

    def spans(rows, prefix):
        return [row for name, row in rows.items() if name == prefix or name.startswith(prefix + ".")]

    def self_s(rows, prefix):
        return sum(r[1] for r in spans(rows, prefix))

    def total_s(name):
        return calls.get(name, (0, 0.0, 0.0))[2]

    def count(*names):
        return sum(calls.get(n, (0,))[0] for n in names)

    def distinct(group):
        attempted, useful = work.get(group, (0, 0))
        return useful / attempted if attempted else 1.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s(calls, layer), "s")
        out[f"{layer}.calls"] = (sum(r[0] for r in spans(calls, layer)), "count")
    out.update({
        "corpus.self_s": (self_s(setup, "corpus"), "s"),
        "corpus.calls": (sum(r[0] for r in spans(setup, "corpus")), "count"),
        "ideals.IdealSubset.self_s": (self_s(calls, "ideals.IdealSubset"), "s"),
        "ideals.IdealSubset.calls": (count("ideals.IdealSubset"), "count"),
        "ideals.is_simple.total_s": (total_s("ideals.is_simple"), "s"),
        "ideals.principal.calls": (count(*tracing.PRINCIPAL), "count"),
        "ideals.principal.distinct_ratio": (distinct("ideals.principal"), "1"),
        "ideals.kernel.calls": (count("ideals.kernel"), "count"),
        "ideals.minimal.calls": (count("ideals.minimal_left_ideals", "ideals.minimal_right_ideals"),
                                 "count"),
        "ideals.structure.distinct_ratio": (distinct("ideals.structure"), "1"),
        "core.FiniteSemigroup.self_s": (self_s(calls, "core.FiniteSemigroup"), "s"),
        "core.FiniteSemigroup.calls": (count("core.FiniteSemigroup"), "count"),
        "core.FiniteSemigroup.distinct_ratio": (distinct("core.FiniteSemigroup"), "1"),
        "setup.core.FiniteSemigroup.self_s": (self_s(setup, "core.FiniteSemigroup"), "s"),
        "setup.ideals.is_simple.total_s": (setup.get("ideals.is_simple", (0, 0.0, 0.0))[2], "s"),
        "twocat.validate_category.self_s": (self_s(calls, "twocat.validate_category"), "s"),
        "twocat.validate_category.calls": (count("twocat.validate_category"), "count"),
        "twocat.validate_category.distinct_ratio": (distinct("twocat.validate_category"), "1"),
        "twocat.karoubi_pair.total_s": (total_s("twocat.karoubi_pair"), "s"),
        "bimodule.tensor.self_s": (self_s(calls, "bimodule.tensor"), "s"),
        "bimodule.tensor.calls": (count("bimodule.tensor"), "count"),
        "connectivity.group_isomorphism.total_s": (total_s("connectivity.group_isomorphism"), "s"),
        "connectivity.group_isomorphism.calls": (count("connectivity.group_isomorphism"), "count"),
        "rees.rees_decomposition.total_s": (total_s("rees.rees_decomposition"), "s"),
        "rees.verify_rees_iso.self_s": (self_s(calls, "rees.verify_rees_iso"), "s"),
        "trace.calls_s": (summary["root_s"][tracing.CALL], "s"),
        "trace.spans": (summary["spans"], "count"),
        "trace.overhead_ratio": (overhead, "1"),
        "inputs.repeat_share": (repeat_share, "1"),
    })
    return out


def print_record(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}"
          f"  trace {record['trace']}")
    print(f"env python {env['python']}  commit {env['commit']}  nproc {env['nproc']}"
          f"  platform {env['platform']}")
    samples = "" if record["samples"] is None else (
        f" ({record['samples']} timed samples in {record['rounds']} rounds)")
    print(f"calls {record['attempted']}{samples}  failed "
          f"{record['failed']}  fail_ratio {record['fail_ratio']:g} (1)  repeated inputs "
          f"{100 * record['repeat_share']:.1f} %")
    if record["reference_s"] is not None:
        print(f"times are at reference speed: measured times x {NOMINAL_S} s / the reference "
              f"loop's mean time just before and after them (median {record['reference_s']:.5f} s "
              "over this run)")
    print(f"invariants {json.dumps(record['invariants'], sort_keys=True)}")
    metrics = record["metrics"]
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    if record["trace"]:
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS) or 1.0
        shares = ", ".join(f"{layer} {100 * metrics[f'{layer}.self_s']['value'] / total:.1f} %"
                           for layer in LAYERS)
        print(f"self-time shares of traced calls: {shares}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                                 str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    m = load_monocat(ROOT)
    if m is None:
        print(f"error: no monocat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run_workload(m, args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
