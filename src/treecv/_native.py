"""The compiled per-point kernels of the exact `Pegasos` and `LsqSgd` types.

`_kernels.c` feeds stacked models of either type point by point, bit for
bit as their `_update_point` does; its header says how.  This module
builds and loads it with the standard library alone:

* it compiles the source once with the system C compiler, `cc`, into a
  per-user cache (`$XDG_CACHE_HOME/treecv`, else `~/.cache/treecv`),
  under a name keyed by the source, the flags and the BLAS library that
  holds numpy's ddot.  The file is written under a temporary name and
  renamed into place, so concurrent processes and forked workers never
  load a partial one;
* it hands the kernels `scipy_cblas_ddot64_`, the BLAS ddot that
  `ndarray.dot` calls, resolved from numpy's own extension module;
* it feeds a pinned probe through both the kernels and `_update_point`
  and keeps the kernels only if every bit agrees.

`kernels()` does this at most once per process, on first use, and gives
None when any step fails: no compiler, no ddot symbol, an unwritable
cache, a failed compile or a mismatch.  The learners then keep their
Python path, and `reason()` says why.
"""

from __future__ import annotations

import ctypes
import os
from importlib import resources

import numpy as np

SOURCE = "_kernels.c"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
DDOT = "scipy_cblas_ddot64_"


class _Unavailable(Exception):
    """Why the kernels cannot be used in this process."""


class Kernels:
    """The loaded kernels `pegasos_feed` and `lsqsgd_feed`, each called as
    (m, d, parameter, three state arrays, x, y, counts), every array as a
    pointer to its C-contiguous data (see `_kernels.c`)."""

    def __init__(self, lib: ctypes.CDLL, ddot: int):
        lib.set_ddot.argtypes = [ctypes.c_void_p]
        lib.set_ddot.restype = None
        lib.set_ddot(ddot)
        for name in ("pegasos_feed", "lsqsgd_feed"):
            fn = getattr(lib, name)
            fn.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_double] + [ctypes.c_void_p] * 6
            fn.restype = ctypes.c_int
            setattr(self, name, fn)
        self.lib = lib  # the functions are valid while the library is loaded


def _numpy_ddot() -> tuple[int, str]:
    """The address of the ddot `ndarray.dot` calls, and the path of the
    library that defines it."""
    from numpy._core import _multiarray_umath

    umath = _multiarray_umath.__file__
    try:
        address = ctypes.cast(getattr(ctypes.CDLL(umath), DDOT), ctypes.c_void_p).value
    except (AttributeError, OSError):
        raise _Unavailable(f"numpy's {os.path.basename(umath)} has no {DDOT}") from None

    class DlInfo(ctypes.Structure):
        _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                    ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]

    info = DlInfo()
    try:
        found = ctypes.CDLL(None).dladdr(ctypes.c_void_p(address), ctypes.byref(info))
    except (AttributeError, OSError, TypeError):  # no dladdr: key the cache by numpy's module
        found = 0
    return address, os.fsdecode(info.fname) if found and info.fname else umath


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "treecv")


def _build(source: bytes, blas: str) -> str:
    """The path of the compiled source, compiling it if the cache lacks it."""
    # imported here, so that a process that never builds the kernels loads none of them
    import hashlib
    import shutil
    import subprocess
    import tempfile

    key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(), os.fsencode(blas)]))
    path = os.path.join(_cache_dir(), f"kernels-{key.hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path
    cc = shutil.which("cc")
    if cc is None:
        raise _Unavailable("no C compiler: `cc` is not on PATH")
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, partial = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
        os.close(fd)
    except OSError as err:
        raise _Unavailable(f"kernel cache {os.path.dirname(path)} is not writable: {err}") from None
    try:
        done = subprocess.run([cc, *FLAGS, "-o", partial, "-x", "c", "-", "-lm"], input=source,
                              capture_output=True, timeout=300)
        if done.returncode:
            raise _Unavailable(f"{cc} failed: {done.stderr.decode(errors='replace').strip()}")
        os.replace(partial, path)
    except (OSError, subprocess.SubprocessError) as err:
        raise _Unavailable(f"cannot compile {SOURCE} with {cc}: {err}") from None
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return path


def _probe(kernels: Kernels) -> str | None:
    """Where the kernels and `_update_point` disagree on a pinned probe,
    or None.  It covers widths 0, 1, 2 and 20, ragged runs, an empty
    run, a t = 0 restart from a nonzero iterate, a -0.0 iterate at width
    1 and `LsqSgd` projections."""
    from .core import IncrementalLearner
    from .learners import LOCKSTEP, LsqSgd, Pegasos

    counts = np.array([3, 0, 7, 5], dtype=np.int64)
    rows = int(counts.sum())
    for d in (0, 1, 2, 20):
        x = np.sin(np.arange(rows * d) * 0.7 + 0.3).reshape(rows, d) * 4.0
        y = np.where(np.arange(rows) % 3, 1.0, -1.0)
        for proto in (Pegasos(d, 0.05), LsqSgd(d, 0.3)):
            trained = proto.fresh()
            IncrementalLearner.update(trained, x[:4], y[:4])
            restart, signed = trained.clone(), trained.clone()
            restart.t = 0
            if d:
                (signed.v if type(proto) is Pegasos else signed.w)[0] = -0.0
            models = [proto.fresh(), trained, restart, signed]
            stack_type = LOCKSTEP[type(proto)]
            stack = stack_type(proto, [np.array([getattr(model, name) for model in models])
                                       for name in stack_type.fields])
            if not stack.feed_rows(kernels, x, y, counts):
                return f"{type(proto).__name__} at d={d} raised a floating-point flag"
            first = 0
            for i, model in enumerate(models):
                IncrementalLearner.update(model, x[first:first + counts[i]],
                                          y[first:first + counts[i]])
                first += counts[i]
                fed = stack.model(i)
                for name in stack_type.fields:
                    if (np.asarray(getattr(fed, name)).tobytes()
                            != np.asarray(getattr(model, name)).tobytes()):
                        return f"{type(proto).__name__}.{name} of model {i} differs at d={d}"
    return None


def _load() -> Kernels:
    try:
        source = (resources.files(__package__) / SOURCE).read_bytes()
    except OSError as err:
        raise _Unavailable(f"cannot read {SOURCE}: {err}") from None
    ddot, blas = _numpy_ddot()
    path = _build(source, blas)
    try:
        return Kernels(ctypes.CDLL(path), ddot)
    except (OSError, AttributeError) as err:
        raise _Unavailable(f"cannot load {path}: {err}") from None


def _resolve() -> tuple[Kernels | None, str | None]:
    """The checked kernels and None, or None and why they cannot be used."""
    try:
        loaded = _load()
    except _Unavailable as err:
        return None, str(err)
    mismatch = _probe(loaded)
    if mismatch is not None:
        return None, f"self-check against _update_point failed: {mismatch}"
    return loaded, None


_resolved: tuple[Kernels | None, str | None] | None = None


def kernels() -> Kernels | None:
    """The compiled kernels, or None when this process cannot use them.
    The first call builds, loads and checks them; later calls reuse the
    outcome."""
    global _resolved
    if _resolved is None:
        _resolved = _resolve()
    return _resolved[0]


def reason() -> str | None:
    """Why `kernels()` gives None, or None when the kernels are loaded."""
    kernels()
    return _resolved[1]
