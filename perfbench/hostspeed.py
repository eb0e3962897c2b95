"""Host-speed reference for wall times measured on a shared machine.

On a shared host the CPU speed seen by one process drifts by tens of percent
within a minute, and every process on the host drifts together.  Timing one
identical lift in 6-second windows over a minute gave window medians from
0.057 s to 0.099 s, while the same op divided by a reference loop timed
between ops stayed within 4 %.  So the end-to-end times are reported at a
nominal host speed: each op's wall time is multiplied by
``REF_NOMINAL_S / median(recent reference times)``.  The reference is a fixed
computation owned by the bench, timed every ``REF_EVERY_S`` seconds; no
change to the package can make it faster or slower.  An op is scaled by the
mean of the factors just before and just after it, and set-up by the
references taken before and after set-up.  Raw wall times are reported next
to the normalized ones.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time
from collections import deque
from statistics import median

REF_NOMINAL_S = 0.005     # median reference time over 40 runs on a 2-vCPU x86-64 VM
REF_EVERY_S = 0.1
REF_WINDOW = 5

IMPORT_NOMINAL_S = 0.6    # median of reference_import on the same VM
IMPORT_EVERY_S = 3.0
IMPORT_WINDOW = 3


def reference_loop() -> float:
    """Wall time of a fixed small-float Python computation, GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        y = [0.1, 0.2, 0.3]
        acc = 0.0
        for i in range(3000):
            k = [y[j] + 0.5 * math.sin(y[j] + i * 1e-3) for j in range(3)]
            acc += k[0] * k[1] - k[2]
            y = [v * 0.999 for v in k]
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def reference_import() -> float:
    """Wall time of a fresh interpreter importing numpy and scipy.linalg."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


class HostSpeed:
    """Rolling median of reference times; ``factor()`` maps wall to nominal time."""

    def __init__(self, probe=reference_loop, nominal: float = REF_NOMINAL_S,
                 every: float = REF_EVERY_S, window: int = REF_WINDOW):
        self.probe, self.nominal, self.every, self.window = probe, nominal, every, window
        self.recent: deque = deque(maxlen=window)
        self.samples: list = []
        self._last = -math.inf
        self.refresh()

    @classmethod
    def for_cli(cls) -> "HostSpeed":
        return cls(reference_import, IMPORT_NOMINAL_S, IMPORT_EVERY_S, IMPORT_WINDOW)

    def _sample(self):
        t = self.probe()
        self.recent.append(t)
        self.samples.append(t)
        self._last = time.perf_counter()

    def refresh(self):
        for _ in range(self.window):
            self._sample()

    def factor(self) -> float:
        """Nominal over wall time now; samples once per ``every`` seconds elapsed."""
        due = int((time.perf_counter() - self._last) / self.every)
        for _ in range(min(due, self.window)):
            self._sample()
        return self.nominal / median(self.recent)

    def overall_factor(self) -> float:
        return self.nominal / median(self.samples)
