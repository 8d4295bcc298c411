"""Machine-speed calibration for timing on a shared box.

On a box shared with other tenants the speed of one core drifts by up to 2x
over stretches of seconds, so raw wall times of identical calls differ by
+-25 % between runs a minute apart.  ``Speed`` runs a fixed NumPy kernel
(no library code) every ``EVERY_S`` seconds between calls and rescales each
call's wall time by how slow the kernel ran around it:

    rescaled = wall * REF_S / kernel_time(at the call's midpoint)

``REF_S`` is the kernel's time at full speed on a 2-core Intel Xeon
(Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread), so rescaled
times read as wall seconds on that box when nothing else runs on it.  A
change to the library moves the calls and not the kernel, so it moves the
rescaled times in full.
"""

from __future__ import annotations

import bisect

REF_S = 0.0135
EVERY_S = 0.5


class Speed:
    def __init__(self, clock):
        import numpy as np

        self._np = np
        self._clock = clock
        rng = np.random.default_rng(0)
        self._mats = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in (4, 8, 16, 32) for _ in range(6)
        ]
        self.times = []  # kernel midpoints
        self.kernel_s = []  # kernel wall times
        self.sample()

    def _kernel(self) -> None:
        np = self._np
        for _ in range(6):
            for m in self._mats:
                np.linalg.norm(m, 2)
                np.linalg.solve(m, m @ m)

    def sample(self) -> None:
        t0 = self._clock()
        self._kernel()
        t1 = self._clock()
        self.times.append(0.5 * (t0 + t1))
        self.kernel_s.append(t1 - t0)

    def maybe_sample(self) -> None:
        if self._clock() - self.times[-1] >= EVERY_S:
            self.sample()

    def slowdown(self, at: float) -> float:
        """Kernel time at ``at`` over REF_S, interpolated between samples."""
        i = bisect.bisect_left(self.times, at)
        if i == 0:
            k = self.kernel_s[0]
        elif i == len(self.times):
            k = self.kernel_s[-1]
        else:
            t0, t1 = self.times[i - 1], self.times[i]
            k0, k1 = self.kernel_s[i - 1], self.kernel_s[i]
            k = k0 + (k1 - k0) * (at - t0) / (t1 - t0)
        return k / REF_S

    def rescale(self, start: float, seconds: float) -> float:
        return seconds / self.slowdown(start + 0.5 * seconds)
