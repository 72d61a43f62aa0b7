"""Build and load the compiled learner kernel (_kernel.c) through ctypes.

The kernel plays episodes for all three tabular learners (advantage,
hoeffding-stage and classic-qucb); the Learner struct's mode says whose
observe it repeats.  The struct's last fields are the per-call values:
u_index and count, set before each call, and the counter increments and
error fields that the call fills.

load() compiles _kernel.c with the C compiler found on PATH (cc, else gcc)
the first time any interpreter needs it, and caches the shared library
under the user's cache directory ($XDG_CACHE_HOME, else ~/.cache, in a
stageq folder).  The file name carries a hash of the C source, the
compiler flags and the Python/platform tag, so an edited source or another
interpreter builds its own copy.  A build writes to a temporary file and
renames it into place under an exclusive lock, so interpreters started
together load one complete library and only the first one compiles.

The flags keep the kernel's floating point bit for bit equal to Python's:
-O2 with -ffp-contract=off, so that no a*b + c is fused into one rounding,
and never -ffast-math.  When no compiler is found or the build fails,
load() returns None and the learners run their Python observe, which
gives the same results more slowly.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")

c_int64, c_double, c_void_p = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class Learner(ctypes.Structure):
    """The kernel's view of one learner; the layout of Learner in _kernel.c."""

    _fields_ = ([(name, c_int64) for name in ("S", "A", "H")]
                + [(name, c_void_p) for name in (
                    "q", "v", "vref", "rew", "n", "nchk", "mu_chk", "ups_chk",
                    "sig_chk", "mu_ref", "sig_ref", "n_state", "ref_fixed",
                    "greedy", "end_idx", "ends", "lower", "bbar")]
                + [("n_max", c_int64)]
                + [(name, c_double) for name in ("n0", "c1", "c2", "iota")]
                + [("mode", c_int64)]
                + [(name, c_double) for name in ("cb", "h3iota")]
                + [(name, c_void_p) for name in (
                    "path_s", "path_a", "path_next", "path_r",
                    "cum", "mdp_rew", "u", "starts")]
                + [(name, c_int64) for name in (
                    "u_index", "count", "stage_ends", "q_updates", "refs_fixed",
                    "ref_wins", "used", "bad_n", "bad_index")])


# Learner.mode: whose observe the kernel repeats (the enum in _kernel.c)
MODE_HOEFFDING_STAGE, MODE_ADVANTAGE, MODE_CLASSIC_QUCB = range(3)

_UNSET = object()
_lib = _UNSET


def load():
    """The kernel library with its prototypes set, or None without one.

    Builds at most once per interpreter; later calls return the same object.
    """
    global _lib
    if _lib is _UNSET:
        _lib = _open()
    return _lib


def library_path() -> Path:
    """Where the library built from this source, flags and interpreter lives."""
    # zlib and platform are imported with NumPy already; hashlib would add
    # its own import to every interpreter's first learner
    import platform
    import zlib
    tag = (sys.implementation.cache_tag, sys.platform, platform.machine())
    key = zlib.crc32(SOURCE.read_bytes() + repr((FLAGS, tag)).encode())
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(cache) / "stageq" / f"kernel-{key:08x}.so"


def _open():
    import shutil
    try:
        path = library_path()
        if not path.exists():
            cc = shutil.which("cc") or shutil.which("gcc")
            if cc is None:
                return None
            _build(cc, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError):   # RuntimeError: no home directory
        return None
    lib.stageq_learner_size.argtypes = []
    lib.stageq_learner_size.restype = c_int64
    if lib.stageq_learner_size() != ctypes.sizeof(Learner):
        raise RuntimeError(f"{path}: Learner struct layout differs from kernel.Learner")
    lib.stageq_stretch.argtypes = [c_void_p]    # the Learner, per-call values included
    lib.stageq_stretch.restype = c_int64
    return lib


def _build(cc: str, path: Path) -> None:
    """Compile into a temporary file and rename it to path, under a lock;
    OSError if the compiler fails."""
    import subprocess
    import tempfile
    try:
        import fcntl
    except ImportError:        # no flock: interpreters started together may all compile
        fcntl = None
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.parent / "build.lock", "w") as lock:
        if fcntl is not None:
            fcntl.flock(lock, fcntl.LOCK_EX)
        if path.exists():      # built by another interpreter while this one waited
            return
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so.tmp")
        os.close(fd)
        try:
            done = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                                  capture_output=True)
            if done.returncode != 0:
                raise OSError(f"{cc} exited {done.returncode}: {done.stderr[-500:]!r}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
