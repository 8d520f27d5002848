"""CPU time and resident memory of the Ray process tree, read from /proc.

The benchmark measures its own process, the raylet and every process the
raylet starts (the Ray workers).  psutil is not a dependency, so this reads
``/proc/<pid>/stat`` directly.

Ray starts extra workers while tasks block and ends idle ones later, so a
worker can exit between two readings.  A background thread therefore
samples every ``INTERVAL_S`` seconds and remembers the last CPU reading of every
process it has seen; a process's CPU after its last sample is lost, which
bounds the error by one interval per exiting worker.
"""

from __future__ import annotations

import os
import threading

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")
INTERVAL_S = 0.2  # background sampling period


def read_stats() -> dict[tuple[int, int], tuple[str, int, int, int]]:
    """(pid, start time) -> (comm, ppid, utime+stime ticks, rss pages)."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                raw = f.read().decode("ascii", "replace")
        except OSError:  # the process ended between listdir and open
            continue
        lp, rp = raw.index("("), raw.rindex(")")
        # fields[0] is field 3 of proc(5); utime=14, stime=15, starttime=22, rss=24
        fields = raw[rp + 2 :].split()
        key = (int(name), int(fields[19]))
        out[key] = (raw[lp + 1 : rp], int(fields[1]), int(fields[11]) + int(fields[12]), int(fields[21]))
    return out


class RayProcs:
    """Sums CPU seconds and RSS over this process, the raylet and its descendants."""

    def __init__(self):
        self.pid = os.getpid()
        self._ticks: dict[tuple[int, int], int] = {}  # every member process seen
        self._peak_pages = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _members(self, stats) -> list[tuple[int, int]]:
        children: dict[int, list[tuple[int, int]]] = {}
        for key, (_, ppid, _, _) in stats.items():
            children.setdefault(ppid, []).append(key)
        stack = [k for k, v in stats.items() if v[0] == "raylet"]
        members = {k for k in stats if k[0] == self.pid}
        while stack:
            key = stack.pop()
            if key not in members:
                members.add(key)
                stack.extend(children.get(key[0], ()))
        return list(members)

    def _sample(self) -> None:
        stats = read_stats()
        members = self._members(stats)
        with self._lock:
            for key in members:
                self._ticks[key] = stats[key][2]
            self._peak_pages = max(self._peak_pages, sum(stats[k][3] for k in members))

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def cpu_s(self) -> float:
        """CPU seconds used so far by every member process seen."""
        self._sample()
        with self._lock:
            return sum(self._ticks.values()) / _TICK

    def reset_peak(self) -> None:
        with self._lock:
            self._peak_pages = 0

    @property
    def peak_rss_mb(self) -> float:
        """Highest summed RSS sampled since the last ``reset_peak``."""
        with self._lock:
            return self._peak_pages * _PAGE / 1e6

    def __enter__(self) -> "RayProcs":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
