"""Host-speed sampler: times a fixed computation at a steady pace.

Runs as its own process, pinned to the program's CPU (see
:class:`perfbench.common.SpeedProbe`).  Every :data:`INTERVAL_S` it
times :func:`reference_work`, which takes about 0.35 ms on an idle
host, and keeps the start and the duration.  The shared host this
benchmark was built on switches each vCPU between two speeds about
1.6x apart every few seconds, so the samples give the CPU's speed at
any moment of the run.  The duration is the sampler's own CPU time,
which slows with the CPU but not while the sampler waits for a CPU
busy with the program.  When its standard input closes it writes every
sample, one ``start duration`` pair a line, and exits.
"""

import select
import sys
import time

import numpy as np

#: Pause between samples.  A sample preempts the program for about
#: 0.4 ms, so the program loses under 1% of its CPU.
INTERVAL_S = 0.05


def reference_work() -> float:
    """A fixed mix of small NumPy reductions and interpreter work."""
    row = np.arange(64, dtype=np.float64)
    total = 0.0
    for i in range(60):
        total += float(np.sum(row * i)) + len(str(i) * 3)
    return total


def main() -> None:
    reference_work()
    samples = []
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start, cpu = time.perf_counter(), time.thread_time()
        reference_work()
        samples.append((start, time.thread_time() - cpu))
    sys.stdout.write("".join(f"{t!r} {d!r}\n" for t, d in samples))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
