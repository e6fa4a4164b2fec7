"""Where the LAPACK routines come from: SciPy's f2py module ``_flapack``.

The kernels need five Fortran routines — ``dgeqrt``, ``dgemqrt``,
``dtpqrt``, ``dtpmqrt`` and ``dtrtrs`` — all of which live in the compiled
module ``scipy.linalg._flapack``.  Importing it the usual way runs
``scipy/linalg/__init__.py`` first, and with it SciPy's array-API layer,
which clones NumPy's namespace and so imports ``numpy.f2py``,
``numpy.testing``, ``numpy.ma`` and a few hundred other modules: ~0.25 s and
~18 MiB in a fresh process, against ~5 ms for the extension alone.

:func:`load` therefore loads the extension file directly, in three steps:

1. a ``scipy.linalg._flapack`` already in :data:`sys.modules` (SciPy's
   package was imported first) is the answer;
2. otherwise ``linalg/_flapack<suffix>`` is looked for in SciPy's package
   directory (found without importing ``scipy``) and loaded with
   :class:`~importlib.machinery.ExtensionFileLoader` under its real name;
   the :data:`sys.modules` entry that load leaves behind is removed again,
   so a later ``import scipy.linalg`` runs as usual, sets the package
   attribute, and ends up with the very same Fortran function objects (an
   extension module is initialized once per process and its functions are
   shared by every module object made from it);
3. where no such file exists, ``from scipy.linalg import _flapack``.

Either way each routine is the same function object SciPy itself calls, so
results do not depend on which step ran.  SciPy stays a hard dependency;
only its package ``__init__`` is skipped.

Every tile kernel runs on one BLAS thread, whatever the caller set: tiles
are too small for BLAS threads to pay, unpinned pool workers oversubscribe
the host, and OpenBLAS rounds a kernel differently under one thread than
under two.  :data:`one_blas_thread` and :func:`pin_process` set the OpenBLAS
that ``_flapack`` links (NumPy's own copy is left alone); where it exports no
``openblas_set_num_threads_local`` (MKL, an OpenBLAS before 0.3.27) they do
nothing, and the caller's ``OPENBLAS_NUM_THREADS`` / ``MKL_NUM_THREADS`` decide.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
import threading
from types import ModuleType

__all__ = ["load", "dgeqrt", "dgemqrt", "dtpqrt", "dtpmqrt", "dtrtrs", "one_blas_thread",
           "pin_process"]

#: The module's name inside SciPy, as ``scipy.linalg`` imports it.
NAME = "scipy.linalg._flapack"


def _extension_path() -> str | None:
    """The file of ``scipy.linalg._flapack``, or ``None`` when there is none."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def load() -> ModuleType:
    """SciPy's f2py LAPACK module, without running ``scipy.linalg``'s
    package ``__init__`` unless it has run already (module docstring)."""
    module = sys.modules.get(NAME)
    if module is not None:
        return module
    path = _extension_path()
    if path is None:
        from scipy.linalg import _flapack

        return _flapack
    loader = importlib.machinery.ExtensionFileLoader(NAME, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(NAME, path, loader=loader)
    )
    loader.exec_module(module)
    if sys.modules.get(NAME) is module:
        del sys.modules[NAME]
    return module


_FLAPACK = load()
dgeqrt = _FLAPACK.dgeqrt
dgemqrt = _FLAPACK.dgemqrt
dtpqrt = _FLAPACK.dtpqrt
dtpmqrt = _FLAPACK.dtpmqrt
dtrtrs = _FLAPACK.dtrtrs


def _thread_setter():
    """``openblas_set_num_threads_local`` of the BLAS ``_flapack`` links, or
    ``None``: ``dlsym`` on the extension's own handle searches what it links,
    not the ``RTLD_LOCAL`` libraries beside it, where NumPy's copy lives."""
    try:
        setter = ctypes.CDLL(_FLAPACK.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError, TypeError):
        return None
    setter.argtypes, setter.restype = (ctypes.c_int,), ctypes.c_int
    return setter


_SET_THREADS = _thread_setter()


class _OneBlasThread:
    """``with one_blas_thread:`` runs on one BLAS thread, then restores the
    count.  The count is the library's, not the thread's, so holders are
    counted across threads: the first sets it, the last restores it."""

    def __init__(self):
        self._lock, self._depth, self._saved = threading.Lock(), 0, 0

    def __enter__(self) -> None:
        if _SET_THREADS is not None:
            with self._lock:
                if self._depth == 0:
                    self._saved = _SET_THREADS(1)
                self._depth += 1

    def __exit__(self, *exc) -> None:
        if _SET_THREADS is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    _SET_THREADS(self._saved)


one_blas_thread = _OneBlasThread()


def pin_process() -> None:
    """One BLAS thread for the rest of this process (a pool worker: it runs
    only kernels); takes no lock, so a freshly forked child may call it."""
    if _SET_THREADS is not None:
        _SET_THREADS(1)
