"""Host-speed reference: times measured on a shared host, scaled to a
nominal host speed.

    python perfbench/hostclock.py OUT     # the sampler; HostClock starts it

Other tenants of a shared host slow its cores for seconds to minutes at
a time: over six back-to-back runs a cold sweep's wall time has drifted
by 50% while the program stayed the same. The slowdown shows in process
CPU time as well as in wall time, so neither is steady on its own. What
is steadier is the ratio of a measured time to the time a fixed piece
of Python work takes at the same moment.

So while a run measures, a separate sampler process times
:func:`reference`, a fixed pure-Python loop, every :data:`PERIOD`
seconds, and records the loop's CPU time (CPU time, not wall time, so a
sample is not inflated when the program's own processes hold both
cores). A time measured over ``[t0, t1]`` is reported as

    measured * NOMINAL_S / median(reference samples over [t0, t1])

that is, in seconds on a host where the reference loop takes
:data:`NOMINAL_S`. The sampler adds about 2% load on one core.

It cannot tell a slower program from a slower host when the program
itself competes with the sampler for a core -- by running more processes
than the farm width, for example. The report prints the raw wall times
beside the scaled ones for that reason.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Seconds between reference samples.
PERIOD = 0.05
#: A window with fewer samples than this is widened to the samples
#: nearest its middle.
MIN_SAMPLES = 5
#: CPU seconds of :func:`reference` on the nominal host: about its
#: median on a quiet 2.1 GHz Xeon vCPU under CPython 3.
NOMINAL_S = 1.3e-3


def reference(n: int = 3000) -> int:
    """The fixed work: integer arithmetic and dict traffic, the kind of
    code the simulator and the farm spend their time in."""
    table: dict[int, int] = {}
    state = 0
    for i in range(n):
        state = (state * 31 + i) & 0xFFFFFFFF
        table[state & 1023] = i
        if state & 7 == 3:
            state ^= table.get(i & 1023, 0)
    return state


class HostClock:
    """The sampler process, started on entry and stopped on exit.

    Timestamps are ``time.monotonic()``, which every process on the host
    shares, so times measured in other processes can be scaled too."""

    def __init__(self, out: Path):
        self.out = out
        self.process: subprocess.Popen | None = None
        self._times: list[float] = []
        self._costs: list[float] = []

    def __enter__(self) -> "HostClock":
        self.process = subprocess.Popen(
            [sys.executable, __file__, str(self.out)])
        # the first measured interval needs samples around it
        deadline = time.monotonic() + 10.0
        while len(self._costs) < MIN_SAMPLES:
            if self.process.poll() is not None or \
                    time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("host clock sampler did not start")
            time.sleep(PERIOD)
            self._load()
        return self

    def __exit__(self, *exc) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        self.process.wait()

    def _load(self) -> None:
        samples = []
        if self.out.exists():
            for line in self.out.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:   # the last line may be cut short
                    samples.append((float(fields[0]), float(fields[1])))
        samples.sort()
        self._times = [t for t, _ in samples]
        self._costs = [c for _, c in samples]

    def scale(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the median reference time sampled in
        ``[t0, t1]``, or at the :data:`MIN_SAMPLES` samples nearest its
        middle when fewer fall inside."""
        if not self._times or self._times[-1] < t1:
            self._load()
        if len(self._costs) < MIN_SAMPLES:
            raise RuntimeError(f"host clock has {len(self._costs)} samples")
        lo = bisect.bisect_left(self._times, t0)
        hi = bisect.bisect_right(self._times, t1)
        if hi - lo < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            lo = hi = bisect.bisect_left(self._times, mid)
            while hi - lo < MIN_SAMPLES:
                take_left = lo > 0 and (
                    hi == len(self._times)
                    or mid - self._times[lo - 1] <= self._times[hi] - mid)
                if take_left:
                    lo -= 1
                else:
                    hi += 1
        return NOMINAL_S / statistics.median(self._costs[lo:hi])

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds``, measured over ``[t0, t1]``, at nominal speed."""
        return seconds * self.scale(t0, t1)


def timed_reference() -> float:
    """Wall seconds of one :func:`reference` call, for a process that
    interleaves it with its own units of work (see :func:`paired`)."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def paired(refs: list[float]) -> list[float]:
    """Scale factors for units of work, each followed in the same process
    by a :func:`timed_reference` call (``refs``): ``NOMINAL_S`` over the
    median of the :data:`MIN_SAMPLES` references centred on each unit.

    A sampler on the other core does not see how fast the core a
    single-threaded process runs on is: that differs between the cores
    of a shared host, and stays with the process."""
    half = MIN_SAMPLES // 2
    return [NOMINAL_S / statistics.median(refs[max(0, i - half):i + half + 1])
            for i in range(len(refs))]


def sample(out: Path) -> None:
    """Append ``<monotonic mid-time> <CPU seconds>`` lines to ``out``
    until the parent process goes away or sends SIGTERM."""
    parent = os.getppid()
    with open(out, "w") as handle:
        while os.getppid() == parent:
            time.sleep(PERIOD)
            start, cpu = time.monotonic(), time.process_time()
            reference()
            cpu = time.process_time() - cpu
            handle.write(f"{(start + time.monotonic()) / 2:.6f} "
                         f"{cpu:.9f}\n")
            handle.flush()


if __name__ == "__main__":
    sample(Path(sys.argv[1]))
