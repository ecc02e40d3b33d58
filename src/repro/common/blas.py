"""Pin the BLAS library NumPy loaded to a thread count, through ctypes.

The process pools in :mod:`repro.codecs.parallel` run one worker per core.
Each worker's pixel and forward paths call into BLAS (one sgemm per
component), and OpenBLAS starts one thread per CPU by default, so ``n``
workers plus the parent's train step would run ``n × cpu_count`` BLAS
threads on ``cpu_count`` cores.  A pool worker therefore calls
:func:`limit_threads` once at startup.  The parent is never pinned: its
BLAS belongs to the caller's own code.

``threadpoolctl`` is not a dependency, so this is its minimal core: find
the BLAS shared objects mapped into the process (``/proc/self/maps``) and
call the ``*_set_num_threads`` symbol of whichever flavour each one is.
Nothing happens when no such symbol is found.  The call works the same in
a forked child (the library is already mapped) and in a spawned one (NumPy
is imported first, which maps it).
"""

from __future__ import annotations

import ctypes
from pathlib import Path

__all__ = ["limit_threads", "thread_count"]

#: ``(set, get)`` symbol pairs, one per BLAS build flavour: NumPy's wheel
#: (64-bit-integer scipy-openblas), SciPy's wheel (32-bit scipy-openblas),
#: plain OpenBLAS with and without the 64-bit suffix, and MKL.
_FLAVOURS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)


def _mapped_blas_paths() -> list[str]:
    import numpy  # noqa: F401  - maps NumPy's BLAS into the process

    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.rsplit(None, 1)[-1]
                name = Path(path).name.lower()
                if path.startswith("/") and ("blas" in name or "mkl_rt" in name):
                    paths.add(path)
    except OSError:  # no procfs (not Linux): nothing to pin
        return []
    return sorted(paths)


def _controls() -> list[tuple]:
    """``(set, get)`` ctypes functions of every settable BLAS in the process."""
    controls = []
    for path in _mapped_blas_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _FLAVOURS:
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is not None and getter is not None:
                setter.restype = None
                setter.argtypes = [ctypes.c_int]
                getter.restype = ctypes.c_int
                getter.argtypes = []
                controls.append((setter, getter))
                break
    return controls


def thread_count() -> int:
    """Threads NumPy's BLAS will use, as it reports; 0 if none is settable."""
    controls = _controls()
    return max((int(getter()) for _, getter in controls), default=0)


def limit_threads(n_threads: int) -> int:
    """Set every settable BLAS in this process to ``n_threads`` threads.

    Returns the thread count the libraries report afterwards, or 0 when no
    settable BLAS was found (nothing was changed).
    """
    controls = _controls()
    for setter, _ in controls:
        setter(int(n_threads))
    return max((int(getter()) for _, getter in controls), default=0)
