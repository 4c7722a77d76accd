"""Host-speed probe: a fixed kernel that does not use ``repro``.

Other tenants of a shared host slow every process on it, in bursts of
seconds and at times for minutes. The benchmark times this kernel next to
its calls and scales its timings by the kernel's fastest time, so that a
slowdown lasting a whole run cancels.

The kernel runs in a process of its own (``python -m bench.hostspeed``):
each line read from stdin times it once and answers with the seconds it
took. A separate process keeps the kernel's memory out of the workload's
peak RSS and out of the worker processes it forks, and keeps the
workload's heap, threads and garbage out of the kernel's time.
"""

from __future__ import annotations

import sys
import time

import numpy as np

RANK = 32


class Kernel:
    """The three kinds of work a ``cstf`` call does, on fixed inputs.

    A gather, multiply and segmented sum over a sorted COO tensor
    (memory-bound, like MTTKRP), small Cholesky solves (like the UPDATE),
    and a plain Python loop (interpreter overhead). The large arrays are
    allocated once, so every pass does the same work on the same memory.
    """

    def __init__(self):
        rng = np.random.default_rng(20240901)
        nnz, rows = 30_000, 2000
        idx = rng.integers(0, rows, size=(3, nnz))
        self._idx = idx[:, np.argsort(idx[0], kind="stable")]
        self._starts = np.flatnonzero(np.r_[True, np.diff(self._idx[0]) != 0])
        self._vals = rng.random((nnz, 1))
        self._factors = [rng.random((rows, RANK)) for _ in range(3)]
        self._rows = [np.zeros((nnz, RANK)) for _ in range(2)]
        self._out = np.zeros((len(self._starts), RANK))
        g = rng.random((RANK, RANK))
        self._gram = g @ g.T + RANK * np.eye(RANK)
        self._rhs = rng.random((RANK, 400))

    def run(self) -> None:
        a, b = self._rows
        np.take(self._factors[1], self._idx[1], axis=0, out=a)
        np.take(self._factors[2], self._idx[2], axis=0, out=b)
        np.multiply(a, b, out=a)
        np.multiply(a, self._vals, out=a)
        np.add.reduceat(a, self._starts, axis=0, out=self._out)
        for _ in range(40):
            low = np.linalg.cholesky(self._gram)
            np.linalg.solve(low, self._rhs)
        acc = 0
        for i in range(30_000):
            acc += i * i % 7

    def time(self) -> float:
        """One timed pass, after an untimed one that warms the caches (which
        the benchmark's call before it evicted)."""
        self.run()
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


def main() -> int:
    kernel = Kernel()
    for _ in sys.stdin:
        sys.stdout.write(f"{kernel.time()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
