"""Build and load the compiled kernel (_kernel.c) through ctypes.

The kernel plays episodes for all four agents; the Learner struct's mode
says whose observe it repeats, and its last fields are the per-call values
(see _kernel.c).  With the audit fields set, which metrics.Audit binds,
it audits every episode it plays, as Audit._play does in Python.  V^pi's
layers are sums that NumPy's dot hands to its BLAS's ddot, whose order of
addition depends on the CPU kernel OpenBLAS picks; ddot() finds that
function, so the kernel's layers, the first table's too, are NumPy's bit
for bit and a call plays on through Q changes.  Where it is not found, a
call ends at the first Q change and the layers are left to Python.

stageq_cum_rows and stageq_solve are EpisodicMdp.cum_array's and
backward_induction's C bodies, bit for bit; the solve sums through ddot(),
and the rows' pass flags each row mdp.validate could reject.

formatter() gives the library's last entry point, stageq_format_rows
(metrics.write_table's rows), with CPython's repr routine and PyMem_Free,
found through ctypes.pythonapi, passed in by address, so the library links
no Python symbol; it calls them only for floats outside [1e-4, 2**53),
and writes repr of the others itself.  They need the GIL, so it is called
through a ctypes.PyDLL handle, while stageq_stretch stays a CDLL call,
which releases it.

The kernel draws the stream's uniforms (harness.UniformStream) by stepping
its PCG64 state in place (pcg64_state finds it through the bit generator's
public ctypes.state_address).  load() checks once per interpreter that the
state and increment lie where the kernel reads them, against the public
bit_generator.state, and returns None where they do not, or where the
compiler has no unsigned __int128.

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
import functools
import os
import sys
from array import array
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
                    "cum", "mdp_rew", "u", "pcg", "starts", "P",
                    "vstar0", "vpi", "thr", "below", "last", "p_pi", "r_pi", "row_reals",
                    "row_counts", "changes", "ddot")]
                + [(name, c_double) for name in ("reg", "cum_regret")]
                + [(name, c_int64) for name in (
                    "negative", "optimism", "violations", "switches", "pending",
                    "u_index", "u_avail", "count", "agents", "first", "limit", "consumed",
                    "stage_ends", "q_updates", "refs_fixed", "ref_wins", "used",
                    "bad_n", "bad_index", "top", "n_changes")])


# Learner.mode: whose observe the kernel repeats (the enum in _kernel.c)
MODE_HOEFFDING_STAGE, MODE_ADVANTAGE, MODE_CLASSIC_QUCB, MODE_ORACLE = range(4)


class Column(ctypes.Structure):
    """One column of stageq_format_rows; the layout of Column in _kernel.c."""

    _fields_ = [("kind", c_int64), ("data", c_void_p), ("div", c_int64), ("mod", c_int64)]


# Column.kind (the enum in _kernel.c)
COL_INT, COL_FLOAT, COL_GRID, COL_EMPTY = range(4)
CELL_MAX = 32        # the bytes a row's cell may take, comma included

_UNSET = object()
_lib = _ddot = _UNSET


def load():
    """The kernel library with its prototypes set, or None without one or
    where PCG64's state is not laid out as the kernel reads it.

    Builds at most once per interpreter; later calls return the same object.
    """
    global _lib
    if _lib is _UNSET:
        _lib = _open() if _pcg64_layout_matches() else None
    return _lib


def pcg64_state(bit_generator) -> int:
    """The address of a PCG64's 128-bit state and increment, which the
    kernel steps in place; TypeError for any other bit generator."""
    from numpy.random import PCG64
    if not isinstance(bit_generator, PCG64):
        raise TypeError("the kernel draws from a PCG64 stream, not "
                        f"{type(bit_generator).__name__}")
    # state_address points at NumPy's pcg64_state, whose first field points
    # at the generator's state and increment
    return c_void_p.from_address(bit_generator.ctypes.state_address).value


def _pcg64_layout_matches() -> bool:
    """Whether a PCG64's state and increment are the two 128-bit integers,
    low word first, at pcg64_state's address inside the bit generator,
    that its public state dict gives."""
    from numpy.random import PCG64
    bits = PCG64(0x5EED)
    at = pcg64_state(bits)
    if not id(bits) <= at <= id(bits) + sys.getsizeof(bits) - 32:
        return False    # not inside the object (id is its address): read nothing there
    words = (ctypes.c_uint64 * 4).from_address(at)
    state = bits.state["state"]
    return (words[0] | words[1] << 64, words[2] | words[3] << 64) == (
        state["state"], state["inc"])


def ddot():
    """The address of the ddot that NumPy's dot calls, or None.

    NumPy >= 2 wheels link scipy-openblas and call its cblas_ddot under the
    name scipy_cblas_ddot64_ (int64 sizes and strides), which the extension
    module's handle finds among its libraries.  Another BLAS, or another
    build of NumPy, gives None.  Looked up once per interpreter.
    """
    global _ddot
    if _ddot is _UNSET:
        try:
            from numpy._core import _multiarray_umath
            blas = ctypes.CDLL(_multiarray_umath.__file__)
            _ddot = ctypes.cast(blas.scipy_cblas_ddot64_, c_void_p).value
        except (ImportError, OSError, AttributeError):
            _ddot = None
    return _ddot


def formatter():
    """stageq_format_rows(cols, ncols, row, rows, out, cap) (see _kernel.c),
    with CPython's repr routine and PyMem_Free passed in, called through a
    PyDLL handle, which holds the GIL; None without the kernel."""
    lib = load()
    return None if lib is None else lib.format_rows


def table(code: str, values) -> array:
    """values (array-like, any shape) as a flat array(code) of the kernel's
    tables, which it reads and writes in place: one copy of NumPy's buffer,
    with no Python number per entry."""
    import numpy as np
    return array(code, np.ascontiguousarray(values, dtype=code).tobytes())


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
    lib.stageq_cum_rows.argtypes = [c_void_p, c_void_p, c_void_p, c_int64, c_int64, c_double]
    lib.stageq_cum_rows.restype = c_int64
    lib.stageq_solve.argtypes = [c_void_p, c_void_p, c_int64, c_int64, c_int64,
                                 c_void_p, c_void_p, c_void_p, c_void_p]
    lib.stageq_solve.restype = None
    # the formatter's own handle holds the GIL; lib keeps it under its name
    lib.stageq_format_rows = fmt = ctypes.PyDLL(str(path)).stageq_format_rows
    fmt.argtypes = [c_void_p, c_void_p, c_void_p, c_int64, c_void_p, c_int64, c_void_p, c_int64]
    fmt.restype = c_int64
    api = ctypes.pythonapi
    lib.format_rows = functools.partial(fmt, ctypes.cast(api.PyOS_double_to_string, c_void_p).value,
                                        ctypes.cast(api.PyMem_Free, c_void_p).value)
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
