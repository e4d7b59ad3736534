"""Process set-up shared by the benchmark's entry points: thread pinning, the
import of voxtag from this checkout's sources, and the environment stamp.

Nothing here imports numpy at module level, so `pin_threads()` can run before
numpy starts its thread pools.
"""

import glob
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "VOXTAG_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result may be printed."""


def pin_threads():
    """Pin numeric-library threads to one. Call before numpy is imported."""
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_voxtag():
    """Import voxtag from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "voxtag", "__init__.py")):
        raise BenchError(f"no voxtag sources under {SRC}")
    sys.path.insert(0, SRC)
    import voxtag
    if os.path.dirname(os.path.abspath(voxtag.__file__)) != os.path.join(SRC, "voxtag"):
        raise BenchError(f"voxtag imported from {voxtag.__file__}, not {SRC}")
    return voxtag


def _openblas():
    import ctypes
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                get.restype = ctypes.c_int
                return os.path.basename(path), get()
    return None, None


def blas_info():
    """(library name and version, threads it reports or None if unknown)."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    lib, threads = _openblas()
    return (f"{name} ({lib})" if lib else name), threads


def check_pinned():
    """Refuse to run unless every thread variable is 1 and the BLAS agrees."""
    loose = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if loose:
        raise BenchError(f"threads not pinned: {', '.join(loose)}")
    _, threads = blas_info()
    if threads not in (None, 1):
        raise BenchError(f"BLAS reports {threads} threads, expected 1")


def git_sha():
    """Commit of the checkout read from .git without running git, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def stamp(**extra):
    """Environment of a result: code, interpreter, libraries and machine."""
    import numpy as np
    blas, threads = blas_info()
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": affinity, "cpu_count": os.cpu_count(),
            "machine": platform.machine(), **extra}
