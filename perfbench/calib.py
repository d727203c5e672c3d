"""Host-speed reference for perfbench/run.py.

Other tenants of a shared host slow its CPU in phases that last from seconds
to minutes; on the 2-core KVM guest the benchmark was written on, the median
of one 40-second run of the sim-dense command read anywhere from 1.5 s to
2.3 s. A fixed reference kernel, timed in a pass just before each command,
slows down with it. Over eight such runs the quartile spread of the median
run was 0.33 as measured, 0.16 when the run's median was divided by the
run's median kernel pass, and 0.03 when each run was divided by the pass
just before it, which is what run.py does.

The kernel is a frozen miniature of the simulator's inner step, and is not
scnnsim code, so a change to the program never moves it: for each
(PE, channel) pair it forms the Cartesian product of a compressed weight
vector and an activation vector, computes each product's output coordinate
and scatter-adds the products into an accumulator (NumPy broadcasting,
`np.add.at` and `np.bincount`, driven from a Python loop). Its inputs come
from a fixed seed, never the workload seed.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# Median kernel time on the host the benchmark was written on (2-core KVM
# guest, Intel Xeon, Python 3.11, NumPy 2.4). run.py multiplies each
# command's time by NOMINAL_S over the kernel pass timed just before it, so
# times read in seconds at that host's speed. The constant only sets the unit; it must never change,
# or times stop being comparable with earlier measurements.
NOMINAL_S = 0.28

PES, CHANNELS = 16, 96
WEIGHTS, ACTS = 120, 40          # nonzeros per compressed vector
KC, EX, EY, R = 16, 8, 8, 3      # accumulator channels and extent, filter size
BANKS = 32


class Reference:
    def __init__(self, seed: int = 20170814) -> None:
        rng = np.random.default_rng(seed)
        self.pairs = [
            (
                rng.integers(1, 127, WEIGHTS), rng.integers(0, KC, WEIGHTS),
                rng.integers(0, R, WEIGHTS), rng.integers(0, R, WEIGHTS),
                rng.integers(1, 127, ACTS), rng.integers(0, EX, ACTS),
                rng.integers(0, EY, ACTS),
            )
            for _ in range(PES * CHANNELS)
        ]
        self.checksum: int | None = None
        self.run()  # warm-up: first-call costs are not host speed

    def run(self) -> float:
        """Seconds one pass of the kernel took. Raises if the kernel's result
        differs from its first pass."""
        t0 = perf_counter_ns()
        acc = np.zeros((KC, EX + R - 1, EY + R - 1), dtype=np.int64)
        peak = 0
        for wv, wk, wr, ws, av, xs, ys in self.pairs:
            xo = (xs[None, :] - wr[:, None] + R - 1).reshape(-1)
            yo = (ys[None, :] - ws[:, None] + R - 1).reshape(-1)
            prods = (wv[:, None] * av[None, :]).reshape(-1)
            k = np.broadcast_to(wk[:, None], (WEIGHTS, ACTS)).reshape(-1)
            np.add.at(acc, (k, xo, yo), prods)
            lin = (k * (EX + R - 1) + xo) * (EY + R - 1) + yo
            peak += int(np.bincount(lin % BANKS, minlength=BANKS).max())
        t1 = perf_counter_ns()
        checksum = int(acc.sum()) + peak
        if self.checksum is None:
            self.checksum = checksum
        elif checksum != self.checksum:
            raise RuntimeError(f"reference kernel gave {checksum}, expected {self.checksum}")
        return (t1 - t0) / 1e9
