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
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

__all__ = ["load", "dgeqrt", "dgemqrt", "dtpqrt", "dtpmqrt", "dtrtrs"]

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
