#!/usr/bin/env python3
"""Factor once, solve many — persistence and accuracy-check workflow.

A common production pattern for the paper's motivating application: a
fixed tall-and-skinny design matrix (sensor geometry, basis functions)
serves a stream of right-hand sides.  The QR factorization is the
expensive part; this example

1. factors the design matrix with the auto-selected hierarchical tree
   (``h="auto"``: the model-based domain-size selector),
2. checks its backward error and orthogonality,
3. saves the implicit factors to disk (portable ``.npz``, no pickling),
4. reloads them and solves a batch of right-hand sides, cross-checking
   against a fresh solve.

Run:  python examples/factor_once_solve_many.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import qr_factor
from repro.qr import load_factorization, save_factorization
from repro.tiles import random_dense
from repro.util import make_rng


def main() -> None:
    m, n = 3072, 128
    a = random_dense(m, n, seed=5)
    rng = make_rng(6)

    # --- 1. factor with the auto-selected domain size ----------------------
    t0 = time.perf_counter()
    f = qr_factor(a, nb=64, ib=16, tree="hier", h="auto")
    t_factor = time.perf_counter() - t0
    print(f"factored {m} x {n} in {t_factor:.2f} s (tree={f.tree.value})")

    # --- 2. check -----------------------------------------------------------
    res = f.residuals(a)
    ok = max(res.values()) < 1000 * np.finfo(float).eps
    print(f"||A - QR|| / ||A|| = {res['factorization']:.2e}, "
          f"||Q^T Q - I|| = {res['orthogonality']:.2e} "
          f"(bound 1000 eps) [{'PASS' if ok else 'FAIL'}]")
    assert ok

    # --- 3. persist ---------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "design_matrix_qr.npz"
        save_factorization(path, f)
        print(f"saved implicit factors: {path.stat().st_size / 1024:.0f} KiB")

        # --- 4. reload and serve a batch of right-hand sides ---------------
        g = load_factorization(path)
        n_rhs = 25
        t0 = time.perf_counter()
        errs = []
        for _ in range(n_rhs):
            x_true = rng.standard_normal(n)
            b = a @ x_true + 1e-8 * rng.standard_normal(m)
            x = g.solve(b)
            errs.append(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))
        t_solve = time.perf_counter() - t0
        print(
            f"solved {n_rhs} right-hand sides in {t_solve:.2f} s "
            f"({t_solve / n_rhs * 1e3:.1f} ms each, "
            f"{t_factor / (t_solve / n_rhs):.0f}x cheaper than refactoring)"
        )
        print(f"max relative solution error: {max(errs):.2e}")
        assert max(errs) < 1e-6


if __name__ == "__main__":
    main()
