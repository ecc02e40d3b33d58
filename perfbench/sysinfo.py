"""Environment evidence and memory sampling for the end-to-end benchmark.

Everything here only *reads* the process environment: the benchmark must
not pin BLAS threads or set any ``REPRO_*`` knob, because those are the
program's choices.  The thread count reported is whatever the loaded BLAS
library says it will use.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

#: Symbols that report the OpenBLAS thread count, per build flavour.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "mkl_get_max_threads",
)


def blas_threads() -> int | None:
    """Threads the BLAS library loaded by NumPy will use, as it reports."""
    import numpy  # noqa: F401  - loads the BLAS library into the process

    libraries = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.rsplit(None, 1)[-1]
            name = Path(path).name.lower()
            if path.startswith("/") and ("blas" in name or "mkl" in name):
                libraries.add(path)
    for path in sorted(libraries):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def environment() -> dict:
    """The machine facts every result must carry."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "repro_env": sorted(key for key in os.environ if key.startswith("REPRO_")),
    }


class StealMeter:
    """Share of CPU time the hypervisor gave to other guests, from ``/proc/stat``.

    Not a metric of the program: it tells a run slowed by a busy host apart
    from one slowed by the code.
    """

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> tuple[int, int]:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
        steal = fields[7] if len(fields) > 7 else 0
        return steal, sum(fields[:8])

    def percent(self) -> float:
        steal, total = self._read()
        elapsed = total - self._start[1]
        return 100.0 * (steal - self._start[0]) / elapsed if elapsed else 0.0


def _children(pid: int) -> list[int]:
    """Direct child processes of ``pid`` (forked from any of its threads)."""
    children: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(child) for child in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return children


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE_BYTES
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return 0


class RssSampler:
    """Peak resident memory of this process plus its child processes.

    ``exclude`` names child processes that belong to the benchmark rather
    than to the program (the dataset converter).

    ``sample()`` reads ``/proc`` once per call (tens of microseconds), so the
    workloads call it at batch boundaries of the timed part.  The peak is
    the largest sum seen; pages a child shares with this process count once
    per process, the way ``top`` shows them.
    """

    def __init__(self, exclude: set[int] = frozenset()) -> None:
        #: Child processes that are the benchmark's helpers, not the program's.
        self.exclude = set(exclude)
        self.peak_bytes = 0
        self.samples = 0

    def sample(self) -> None:
        pid = os.getpid()
        children = [child for child in _children(pid) if child not in self.exclude]
        total = _rss_bytes(pid) + sum(_rss_bytes(child) for child in children)
        self.samples += 1
        if total > self.peak_bytes:
            self.peak_bytes = total

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1 << 20)
