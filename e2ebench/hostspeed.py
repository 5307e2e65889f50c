"""Host speed: a fixed reference loop timed between slices of measured work.

The shared host this benchmark is sized for switches its CPU speed
between regimes about 35-40% apart, each lasting from seconds to
minutes, and CPU time moves with wall time.  A raw 30-second median
then measures the regime more than the program.  So every slice of
measured work (at least ``SLICE_S`` of it) is bracketed by runs of a
fixed pure-Python reference loop, and its host time is scaled by
``REF_S`` over the mean of the two reference times around it: the time
the slice would take on a host that runs the reference loop in
``REF_S``.  The reference loop is the benchmark's own code, so a change
to the program moves the scaled times exactly as it moves the raw ones.

Set-up time is mostly module import in a fresh interpreter, which the
regimes slow less than the reference loop.  It is scaled instead by an
import reference: a fresh interpreter importing a fixed set of
installed modules, timed by this file when run as a script.
"""

import sys
import time

#: iterations of the reference loop
REF_N = 60_000
#: the reference loop's nominal time, about its median on the 2-vCPU
#: reference host; scaled times are seconds at this speed
REF_S = 0.015
#: least measured work between two reference runs
SLICE_S = 0.25
#: modules the import reference imports, none of them the program's
IMPORT_REF_MODULES = ("numpy", "json", "argparse", "hashlib", "dataclasses", "statistics")
#: the import reference's nominal time, about its median on the same host
IMPORT_REF_S = 0.15


def reference_loop(n: int = REF_N) -> int:
    """Interpreter-bound work of a fixed size: dict, str, int and sort."""
    d: dict = {}
    acc = 0
    for i in range(n):
        k = i & 255
        d[k] = d.get(k, 0) + i
        acc += len(str(i))
    return acc + sorted(d.values())[0]


def time_reference() -> float:
    """Wall seconds of one run of the reference loop."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scale(before: float, after: float, nominal: float = REF_S) -> float:
    """Factor from raw host seconds to seconds at the reference speed."""
    return nominal / (0.5 * (before + after))


def time_import_reference() -> float:
    """Seconds a fresh interpreter takes to import ``IMPORT_REF_MODULES``."""
    import subprocess

    out = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return float(out.split()[-1])


class Pacer:
    """Times rounds in slices, with the reference loop run between slices.

    A workload calls :meth:`tick` between its units; once a slice holds
    ``SLICE_S`` of work the pacer closes it, runs the reference and
    opens the next.  Reference time is kept out of the round's times.
    """

    def __init__(self, cpu_now) -> None:
        self.cpu_now = cpu_now
        time_reference()  # the first run specialises the loop's bytecode
        self.ref = time_reference()

    def start_round(self) -> None:
        self.wall = self.cpu = self.scaled_wall = self.scaled_cpu = 0.0
        self.refs = [self.ref]
        self._open()

    def tick(self) -> None:
        if time.perf_counter() - self.t0 >= SLICE_S:
            self._close()
            self._open()

    def end_round(self) -> dict:
        """The round's raw and scaled wall and CPU seconds."""
        self._close()
        return {
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "scaled_wall_s": self.scaled_wall,
            "scaled_cpu_s": self.scaled_cpu,
            "slices": len(self.refs) - 1,
            "ref_s": sorted(self.refs)[len(self.refs) // 2],
        }

    def _open(self) -> None:
        self.c0 = self.cpu_now()
        self.t0 = time.perf_counter()

    def _close(self) -> None:
        wall = time.perf_counter() - self.t0
        cpu = self.cpu_now() - self.c0
        before, self.ref = self.ref, time_reference()
        self.refs.append(self.ref)
        k = scale(before, self.ref)
        self.wall += wall
        self.cpu += cpu
        self.scaled_wall += k * wall
        self.scaled_cpu += k * cpu


if __name__ == "__main__":
    import importlib

    t0 = time.perf_counter()
    for name in IMPORT_REF_MODULES:
        importlib.import_module(name)
    print(time.perf_counter() - t0)
