"""Builds, caches and loads the C step kernels of ``_step.c``.

The first kernel call of a process loads the shared object that gcc built
from this source, with these flags, for this CPU, linked with the
``libnpyrandom.a`` that numpy ships for its C random API; when the cache
holds none, gcc builds it first.  The Monte Carlo normals are numpy's
ziggurat: ``normals`` runs its fast path inline, on tables that the first
call of a process reads off numpy's ``random_standard_normal``, and hands
every other draw to that function, so the stream is numpy's bit for bit.
The cache lives in ``$XDG_CACHE_HOME/asianpde`` (by default
``~/.cache/asianpde``).  A build is written to a temporary file and
renamed into place, so builds that run at the same time (in separate
processes, or the first kernel calls of two ``run_table`` threads) never
load a partial file.

Every array of the step kernels reaches them through :func:`dims`, which
checks the layout that the kernels' indices assume and C cannot check for
itself, with the one halo width :data:`HALO`; each kernel call makes the
records it passes.  The argument types of the Monte Carlo kernels check
their arrays: ``averages``, which the library calls, and ``normals``, the
draws alone, which only the pins of their stream call.  ``averages``
exponentiates through numpy's own float64 ``exp`` loop, which
:func:`library` finds in ``np.exp`` when it loads the kernels and keeps as
``numpy_exp``; a numpy without one is refused there with an ``OSError``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

SOURCE = Path(__file__).with_name("_step.c")
# numpy's C random library, linked in so that the Monte Carlo normals come
# from numpy's own ziggurat; found by path, since importing numpy.random
# would cost every valuation about 2.5 MB and 14 ms
ARCHIVE = Path(np.__file__).with_name("random") / "lib" / "libnpyrandom.a"
# gcc picks 32-byte vectors on AVX-512 CPUs unless told otherwise; 64-byte
# ones give the same bytes and cut a 2-iteration step at 102x121 from about
# 0.28 to 0.21 ms.  Only x86 gcc takes the option.
VECTOR_WIDTH = "-mprefer-vector-width=512"


def _flags() -> tuple[str, ...]:
    """gcc's flags for this machine.  -ffp-contract=off and no -ffast-math
    keep every operation as written, which bit-identity needs; -march=native
    is why the cache key names the CPU."""
    width = (VECTOR_WIDTH,) if platform.machine() in ("x86_64", "AMD64") else ()
    numpy = f"-I{np.get_include()}"  # for numpy/random/bitgen.h and numpy/ufuncobject.h
    return ("-O3", "-march=native", *width, "-ffp-contract=off", "-shared", "-fPIC", numpy)


FLAGS = _flags()

HALO = 2  # the corrective stencils and the FCT limiter read two cells deep
_PTR, _INT, _REAL = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
_DIMS = (_PTR,) + (_INT,) * 4  # what dims() returns: address, extents, halo, row length
_ROWS = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
# what march writes: the failing field's max |C_x| and max |C_y|, and 1.0 if
# it was a corrective field
MARCH_RESULT = ctypes.c_double * 3
# what antidiffusive and limit write: max |C_x| and max |C_y| of their field
MAXIMA = ctypes.c_double * 2
# numpy's float64 exp loop and its data, which float64_loop finds and averages calls
LOOP = _PTR * 2
# the paths that averages walks at once; its work array holds 2 LANES rows
LANES = 8
# in each thread of run_table's pool, the event that the table sets as it unwinds
POOL = threading.local()


def stop_if_unwound() -> None:
    """Raise in a pool thread of an unwound table; march and the MC loop call it before each C call."""
    stop = getattr(POOL, "stop", None)
    if stop is not None and stop.is_set():
        raise RuntimeError("stopped: the table running this job unwound")


# kernel -> (argument types, return type); without a return type ctypes reads
# every result as a C int, silently
ARGTYPES = {
    "upwind": (_DIMS + (_PTR,) * 2, _INT),
    "antidiffusive": (_DIMS + (_PTR,) * 4 + (_REAL, MAXIMA), None),
    "limit": (_DIMS + (_PTR,) * 6 + (_REAL, MAXIMA), None),
    "courant_x": (_DIMS + (_PTR,) + (_REAL,) * 4, _REAL),
    "fill_scalar": (_DIMS, None),
    "fill_faces": (_DIMS, None),
    "max_abs": (_DIMS, _REAL),
    "wrap": (_DIMS + (_INT,) * 2, None),
    "march": (_DIMS + (_PTR,) * 8 + (_INT,) * 7 + (_REAL,) * 5 + (MARCH_RESULT,), _INT),
    "normals": ((_ROWS, _INT, _INT, ctypes.c_uint64, _INT), None),
    "averages": ((_ROWS, _INT, _INT, _ROWS, _INT, ctypes.c_uint64, _INT, _INT, _ROWS, LOOP), None),
    "float64_loop": ((ctypes.py_object, LOOP), _INT),
}


def _cpu() -> str:
    """The CPU that -march=native builds for: its feature flags where Linux lists them."""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("flags"):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def python_include() -> str:
    """gcc's flag for the directory of ``Python.h``, which numpy's
    ``ufuncobject.h`` includes.  Only a build needs it: ``sysconfig`` would
    cost every start about 2 ms and 0.2 MB, so the cache key names the
    Python build (``sys.version``) in its place."""
    import sysconfig

    return f"-I{sysconfig.get_path('include')}"


def build_path() -> Path:
    """The cached build of this source, these flags, this CPU, this Python
    and numpy's :data:`ARCHIVE`, so that a Python or numpy upgrade rebuilds."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    try:
        archive = ARCHIVE.read_bytes()
    except OSError:
        raise OSError(f"the step kernels link numpy's C random library {ARCHIVE}, which cannot be read") from None
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(archive)
    key.update("\0".join(("", *FLAGS, _cpu(), sys.version)).encode())
    return Path(cache) / "asianpde" / f"step-{key.hexdigest()[:16]}.so"


def _build(path: Path) -> None:
    import subprocess  # only a cold cache needs it: 3 ms off every start

    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError(f"the step kernels need gcc to build {path}, and no gcc is on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    os.close(fd)
    try:
        command = [gcc, *FLAGS, python_include(), "-o", tmp, str(SOURCE), str(ARCHIVE), "-lm"]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(f"gcc could not build the step kernels into {path}:\n{done.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def library() -> ctypes.CDLL:
    """The loaded kernels, built first if the cache lacks them."""
    path = build_path()
    if not path.exists():
        _build(path)
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in ARGTYPES.items():
        kernel = getattr(lib, name)
        kernel.argtypes, kernel.restype = argtypes, restype
    lib.numpy_exp = LOOP()
    if lib.float64_loop(np.exp, lib.numpy_exp):
        raise OSError(f"numpy {np.__version__} has no float64 loop of exp for the Monte Carlo averages to call")
    return lib


def dims(a: np.ndarray, least: int) -> tuple[ctypes.c_void_p, int, int, int, int]:
    """``(address, n0, n1, HALO, row length)`` of ``a`` for a kernel over its
    ``n0 x n1`` real elements and the ring of :data:`HALO` around them.

    Raises :class:`ConfigurationError` unless ``a`` is a 2D float64 array of
    rows with unit stride that do not overlap, with at least ``least`` real
    elements per axis inside that ring.
    """
    if a.dtype != np.float64 or a.ndim != 2:
        raise ConfigurationError(f"need a 2D float64 array, got {a.ndim}D {a.dtype}")
    (rows, cols), (row_bytes, step) = a.shape, a.strides
    if step != 8 or row_bytes % 8 or row_bytes < 8 * cols:
        raise ConfigurationError(f"need rows of adjacent elements that do not overlap, got strides {a.strides}")
    if min(rows, cols) - 2 * HALO < least:
        raise ConfigurationError(
            f"need at least {least} real elements per axis inside a halo of {HALO}, got shape {a.shape}"
        )
    return a.ctypes.data_as(_PTR), rows - 2 * HALO, cols - 2 * HALO, HALO, row_bytes // 8


def writable(a: np.ndarray, record: tuple) -> tuple:
    """``record``, the :func:`dims` of ``a``, for a kernel that writes ``a``."""
    if not a.flags.writeable:
        raise ConfigurationError("need a writable array, got a read-only one")
    return record
