"""Host-speed calibration: wall times scaled by reference work timed beside them.

The machine this benchmark was written on, a 2-vCPU share of a 2.1 GHz
Xeon host, changes speed all the time: a fixed pure-Python loop there
takes anywhere from 1x to 3x its best time within seconds, and its mean
time over 20 s windows spread 15% between the quartiles of 11 windows,
with no steal time reported. No run length makes wall times of such a host agree
within a few percent.

The changes hit the library and fixed reference work alike, so the
benchmark times reference work, independent of the library, beside the
library's. Each measured wall time is multiplied by the reference's
nominal time over the mean of the reference times just before and just
after it: the result is the time at the reference speed.

- An op in the benchmark's process is scaled by a chunk: pure-Python
  Fraction and dict work like the library's inner loops, REF_S nominal.
  Ops shorter than CHUNK_EVERY_S share their chunks in groups, so the
  chunks add at most a tenth to a run.
- A fresh process (set-up probe, cold CLI run) is scaled by a reference
  process: a fresh interpreter that runs one chunk, REF_PROCESS_S nominal.
  Process start-up follows the host's state differently from a loop in a
  warm process; measured on the machine above, the median of 16 cold CLI
  runs spread 11% unscaled, 9% scaled by chunks and 3% scaled by
  reference processes.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# nominal seconds of a chunk and of a reference process: about their
# median times on the machine above
REF_S = 0.01
REF_PROCESS_S = 0.08
# wall seconds of library calls between two chunks
CHUNK_EVERY_S = 0.1


def chunk():
    """The fixed reference work: 2,400 Fraction additions and dict updates."""
    total = Fraction(0)
    table = {}
    for i in range(1, 2400):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i
    return total, len(table)


def time_chunk():
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


def time_process():
    """Wall seconds of a fresh interpreter that runs one chunk."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


class Calibrated:
    """Collects wall times and hands them on scaled to the reference speed.

    `start` times a reference. `add` queues one wall time for a list;
    when the queued times reach CHUNK_EVERY_S, or on `close`, a reference
    is timed and every queued time is appended to its list, scaled by the
    references on either side of the group. `refs` keeps every reference
    time; `total` is the seconds handed on plus the references' nominal
    time, the calibrated length of what was timed.
    """

    def __init__(self, timer=time_chunk, ref_s=REF_S):
        self.timer = timer
        self.ref_s = ref_s
        self.refs = []
        self.total = 0.0
        self._group = []
        self._group_s = 0.0

    def start(self):
        """Time a fresh reference for the next group; close any queued one."""
        if self._group:
            self.close()
        else:
            self._time_ref()

    def add(self, sink, seconds):
        self._group.append((sink, seconds))
        self._group_s += seconds
        if self._group_s >= CHUNK_EVERY_S:
            self.close()

    def close(self):
        """Time a reference and scale the queued times; none queued: no-op."""
        if not self._group:
            return
        before = self.refs[-1]
        scale = 2 * self.ref_s / (before + self._time_ref())
        for sink, seconds in self._group:
            sink.append(seconds * scale)
            self.total += seconds * scale
        self._group = []
        self._group_s = 0.0

    def _time_ref(self):
        self.refs.append(self.timer())
        self.total += self.ref_s
        return self.refs[-1]


if __name__ == "__main__":
    chunk()
