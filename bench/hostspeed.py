"""A reference loop that tracks how fast the host runs Python right now.

On a shared virtual machine the speed of the host drifts by up to about 2x
over minutes, and every timing moves with it.  The benchmark times this
fixed loop between calls and reports each timing at the host's reference
speed: the measured seconds times ``NOMINAL_S`` over the loop's time around
them.  The loop does not touch monocat, so a change to monocat moves the
reported numbers exactly as it moves the measured ones.

    python3 bench/hostspeed.py      # time the loop 50 times
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

# the loop's median time on a 2-core x86-64 virtual machine under CPython 3.11;
# it only fixes the unit, so reported times stay close to measured ones
NOMINAL_S = 0.02
SIZE, STARTS = 44, 44


def _table(seed: int = 0) -> tuple:
    rng = random.Random(seed)
    return tuple(tuple(rng.randrange(SIZE) for _ in range(SIZE)) for _ in range(SIZE))


TABLE = _table()


def reference_s() -> float:
    """Time one pass of the loop: closures of elements under a random table.

    It does the kind of work monocat does (tuple indexing, small-int sets and
    frozensets), so contention for the host slows both alike.  The same loop
    on a 120-element table, the size of the largest Rees inputs, tracked the
    host worse: over six paired 25-second runs of ``rees_roundtrip`` it left
    ``items_per_s`` a spread of 0.11, against 0.05 with this table.
    """
    table = TABLE
    start = perf_counter()
    for a in range(STARTS):
        seen = {a}
        todo = [a]
        while todo:
            x = todo.pop()
            row = table[x]
            for y in range(SIZE):
                for z in (row[y], table[y][x]):
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
        frozenset(seen)
    return perf_counter() - start


class HostSpeed:
    """Samples of the reference loop over a run, to put intervals at reference speed.

    ``sample`` times the loop and notes when; ``seconds`` scales a measured
    interval by ``NOMINAL_S`` over the mean time of the two loops that
    bracket it.  The host switches between fast and slow spells within
    seconds, so the nearest loops track it best.  Over six 30-second runs of
    ``corpus_suite`` on a 2-core x86-64 virtual machine, they kept the
    spread of the 90th percentile to 0.05, where the median loop time within
    2 s of a call gave 0.11 and the median over the whole run 0.14.
    """

    def __init__(self):
        self.mids: list[float] = []  # when each loop ran, in perf_counter seconds
        self.took: list[float] = []  # how long it took

    def sample(self) -> None:
        start = perf_counter()
        took = reference_s()
        self.mids.append(start + took / 2)
        self.took.append(took)

    def median_s(self) -> float:
        return statistics.median(self.took)

    def seconds(self, start: float, elapsed: float) -> float:
        """The interval ``[start, start + elapsed]`` in seconds at reference speed.

        It needs a sample taken before the interval and one taken after it.
        """
        before = bisect.bisect_left(self.mids, start) - 1
        after = bisect.bisect_left(self.mids, start + elapsed)
        if before < 0 or after == len(self.mids):
            raise ValueError("no reference loop on both sides of the interval")
        return elapsed * 2 * NOMINAL_S / (self.took[before] + self.took[after])


if __name__ == "__main__":
    times = [reference_s() for _ in range(50)]
    print(f"reference loop: median {statistics.median(times):.5f} s, "
          f"min {min(times):.5f} s, max {max(times):.5f} s over {len(times)} passes")
