"""A fixed probe of the host's speed, timed while the benchmark measures.

The shared 2-core host this benchmark was built on switches between a fast and
a slow state, often within seconds and sometimes for minutes: a fixed
pure-Python loop takes 30-45% longer in the slow state, with no steal time to
show for it. Raw wall times of the same code therefore spread between runs by
more than a regression bound. The probe below, which never changes, slows
with the host about as crosscut does: over 90 s of interleaved calls on one
CPU, its slow-state time was 1.57 times its fast-state time, against 1.63 for
a `homology` command and 1.84 for `maximal_members`.

A probe only tracks the state it runs in, so it is timed during the work it
scales: `Sampler` runs it from a timer signal every INTERVAL_S of a pass, in
the pass's own process, and run.py times it right after each cold start. A
time is then scaled to the speed at which the probe takes REFERENCE_S:

    scaled = raw * REFERENCE_S / mean(probe seconds during the raw interval)

A change to crosscut moves the scaled time as it moves the raw time: the probe
calls no crosscut code, and the garbage collector is off while it runs, so the
program's heap does not slow the probe. On faces, five 40 s runs on that host
spread by 10% of their median raw and by 3.8% scaled; within one of them the
raw passes took 4.85 to 8.18 s and the scaled ones 4.30 to 4.66 s.

The probe does the kinds of work crosscut's inner loops do: a depth-first walk
over product-free subsets with tuples and bit masks followed by a maximality
scan over a set of masks, clique search on sets, tuple faces into a dict, and
sparse integer column updates on dicts of dicts.
"""

from __future__ import annotations

import gc
import random
import signal
import time

# Probe time inside a pass on a 2-core 2.1 GHz Xeon VM with Python 3.11.7 in
# its fast state, so that scaled times there read about as raw ones.
REFERENCE_S = 0.005
INTERVAL_S = 0.25

_SEED = 20220624
_WALK_N = 11
_GRAPH_N = 40
_COLUMNS = 150


class Probe:
    """Holds the probe's inputs; `seconds()` times one run of the probe."""

    def __init__(self) -> None:
        rng = random.Random(_SEED)
        self._neighbors = {v: set() for v in range(_GRAPH_N)}
        for u in range(_GRAPH_N):
            for v in range(u + 1, _GRAPH_N):
                if rng.random() < 0.3:
                    self._neighbors[u].add(v)
                    self._neighbors[v].add(u)
        self._columns = [
            [(rng.randrange(100), rng.choice((1, -1, 2))) for _ in range(4)] for _ in range(_COLUMNS)
        ]

    def _work(self) -> int:
        masks = [0]

        def walk(elems: tuple[int, ...], mask: int, start: int) -> None:
            for x in range(start, _WALK_N + 1):
                if any(a * b == x for a in elems for b in elems if a < b) or x * x in elems:
                    continue
                grown = elems + (x,)
                masks.append(mask | 1 << (x - 1))
                walk(grown, masks[-1], x + 1)

        walk((), 0, 2)
        member = set(masks)
        maximal = [
            m for m in masks if all(m >> i & 1 or (m | 1 << i) not in member for i in range(_WALK_N))
        ]
        neighbors = self._neighbors
        found: list[frozenset[int]] = []

        def bk(r: set[int], p: set[int], x: set[int]) -> None:
            if not p and not x:
                found.append(frozenset(r))
                return
            pivot = max(sorted(p | x), key=lambda u: len(p & neighbors[u]))
            for v in sorted(p - neighbors[pivot]):
                bk(r | {v}, p & neighbors[v], x & neighbors[v])
                p = p - {v}
                x = x | {v}

        bk(set(), set(neighbors), set())
        faces: dict[tuple[int, ...], int] = {}
        for clique in found:
            t = tuple(sorted(clique))
            for k in range(len(t)):
                faces[t[:k] + t[k + 1 :]] = k
        cols = [dict(col) for col in self._columns]
        for src, dst in zip(cols, cols[1:]):
            for i, v in src.items():
                new = dst.get(i, 0) - v
                if new:
                    dst[i] = new
                elif i in dst:
                    del dst[i]
        return len(maximal) + len(faces) + sum(map(len, cols))

    def seconds(self) -> float:
        """One timed run of the probe, with the garbage collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


class Sampler:
    """Within `with`, times the probe every INTERVAL_S of wall time.

    `samples` holds the probe times and `busy_s` the time spent in the timer
    handler, which the caller takes off the wall time it measured.
    """

    def __init__(self, probe: Probe) -> None:
        self._probe = probe
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(self._probe.seconds())
        self.busy_s += time.perf_counter() - start

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
