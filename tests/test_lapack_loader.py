"""Where the kernels' LAPACK comes from (:mod:`repro.kernels._lapack`).

The loader hands the kernels SciPy's f2py module ``_flapack`` without
running ``scipy.linalg``'s package ``__init__``.  Checked here: a process
that factors and solves on every schedule never imports ``scipy.linalg``;
importing it afterwards still works and yields the very same Fortran
function objects; importing it first makes the loader use SciPy's module;
and where no extension file is found the loader falls back to the normal
import.  Each case runs in a fresh interpreter, because whether
``scipy.linalg`` was imported is a property of the whole process.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import _lapack

SRC = str(Path(__file__).resolve().parent.parent / "src")

PRELUDE = """
    import sys
    import numpy as np
    a = np.random.default_rng(0).standard_normal((96, 40))
    b = np.random.default_rng(1).standard_normal(96)
    kw = dict(nb=16, ib=8, tree="hier", h=2)
"""


def _run(code: str) -> str:
    """Run ``PRELUDE`` + ``code`` in a fresh interpreter; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c",
         textwrap.dedent(PRELUDE) + textwrap.dedent(code)],
        env=env, timeout=120, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return done.stdout


def test_no_schedule_imports_scipy_linalg():
    out = _run("""
        from repro import QRSession, qr_factor
        from repro.qr.parallel import shutdown_workers

        ref = qr_factor(a, **kw)
        x = ref.solve(b)
        runs = [qr_factor(a, backend=name, **kw) for name in ("batched", "parallel")]
        with QRSession(n_procs=2) as sess:
            runs.append(sess.factor(a, **kw))
        runs.append(qr_factor(a, backend="parallel", n_procs=2, **kw))
        for f in runs:
            assert np.array_equal(f.R, ref.R) and np.array_equal(f.solve(b), x)
        assert runs[-1].stats.mode == "parallel"
        shutdown_workers()
        print("scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules)
    """)
    assert out.split() == ["False", "False"]


def test_scipy_linalg_imported_later_shares_the_routines():
    out = _run("""
        from repro import qr_factor
        from repro.kernels import _lapack

        f = qr_factor(a, **kw)
        R, x = f.R.copy(), f.solve(b)
        import scipy.linalg
        from scipy.linalg import lapack

        assert hasattr(scipy.linalg, "_flapack")
        for name in ("dgeqrt", "dgemqrt", "dtpqrt", "dtpmqrt", "dtrtrs"):
            assert getattr(lapack, name) is getattr(_lapack, name), name
        g = qr_factor(a, **kw)
        assert np.array_equal(g.R, R) and np.array_equal(g.solve(b), x)
        dense = scipy.linalg.solve_triangular(g.R, g.qt_matmul(b)[:40])
        assert np.array_equal(dense, x)
        print("shared")
    """)
    assert out.strip() == "shared"


def test_scipy_linalg_imported_first_is_used():
    out = _run("""
        import scipy.linalg
        from repro import qr_factor
        from repro.kernels import _lapack

        assert _lapack.load() is sys.modules["scipy.linalg._flapack"]
        assert _lapack.dgeqrt is scipy.linalg.lapack.dgeqrt
        qr_factor(a, **kw).solve(b)
        print("used")
    """)
    assert out.strip() == "used"


def test_no_extension_file_falls_back_to_the_import():
    out = _run("""
        from repro.kernels import _lapack

        assert "scipy.linalg._flapack" not in sys.modules
        _lapack._extension_path = lambda: None
        module = _lapack.load()
        assert "scipy.linalg" in sys.modules
        assert module is sys.modules["scipy.linalg._flapack"]
        assert module.dgeqrt is _lapack.dgeqrt
        print("fell back")
    """)
    assert out.strip() == "fell back"


def test_the_search_finds_the_extension_file(monkeypatch):
    path = _lapack._extension_path()
    assert path is not None and os.path.basename(path).startswith("_flapack.")
    assert os.path.samefile(path, importlib.util.find_spec(_lapack.NAME).origin)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    assert _lapack._extension_path() is None
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    assert _lapack._extension_path() is None


def _thread_count(path: str, *names: str):
    """The first of ``names`` the library at ``path`` (or what it links)
    exports, as a ``() -> int``; skips where none is."""
    lib = ctypes.CDLL(path)
    for name in names:
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes, getter.restype = (), ctypes.c_int
            return getter
    pytest.skip(f"no thread-count getter in {path}")


def test_the_blas_pin_is_counted_across_threads_and_leaves_numpy_alone():
    """The count ``one_blas_thread`` sets is the library's, not the thread's.
    Eight threads enter and leave it in any interleaving: while any is
    inside, SciPy's OpenBLAS runs on one thread; once all have left, the
    count they found is back; NumPy's own OpenBLAS never moves."""
    if _lapack._SET_THREADS is None:
        pytest.skip("the BLAS behind _flapack cannot be pinned")
    scipy_count = _thread_count(_lapack._FLAPACK.__file__, "scipy_openblas_get_num_threads",
                                "openblas_get_num_threads")
    umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
    numpy_count = _thread_count(umath.__file__,
                                "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                                "openblas_get_num_threads")
    found = _lapack._SET_THREADS(2)  # an unpinned caller's count
    numpy_before, seen = numpy_count(), []

    def hold():
        for _ in range(300):
            with _lapack.one_blas_thread:
                time.sleep(0)  # let the others in and out meanwhile
                seen.append(scipy_count())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 * 300 and set(seen) == {1}
        assert scipy_count() == 2 and numpy_count() == numpy_before
    finally:
        sys.setswitchinterval(interval)
        _lapack._SET_THREADS(found)
