"""Builds, caches and loads the C step kernels of ``_step.c``.

The first kernel call of a process loads the shared object that gcc built
from this source, with these flags, for this CPU; when the cache holds none,
gcc builds it first.  The cache lives in ``$XDG_CACHE_HOME/asianpde`` (by
default ``~/.cache/asianpde``).  A build is written to a temporary file and
renamed into place, so processes that build at the same time (the spawned
workers of ``run_table``) never load a partial file.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_step.c")
# -ffp-contract=off and no -ffast-math keep every operation as written, which
# bit-identity needs; -march=native is why the cache key names the CPU
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

_PTR, _INT, _REAL = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
_DIMS = (_INT,) * 4  # nx, ny, halo, row length
ARGTYPES = {
    "upwind": (_PTR,) * 5 + _DIMS,
    "antidiffusive": (_PTR,) * 5 + _DIMS + (_REAL,),
    "limit": (_PTR,) * 7 + _DIMS + (_REAL,),
    "courant_x": (_PTR,) * 2 + _DIMS + (_REAL,) * 4,
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


def build_path() -> Path:
    """The cached build of this source, these flags and this CPU."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join(("", *FLAGS, _cpu())).encode())
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
        done = subprocess.run([gcc, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True, text=True)
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
    for name, argtypes in ARGTYPES.items():
        kernel = getattr(lib, name)
        kernel.argtypes, kernel.restype = argtypes, None
    return lib
