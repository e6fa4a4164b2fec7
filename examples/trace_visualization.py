#!/usr/bin/env python3
"""Visualise execution traces — the paper's Figure 7 analysis.

Simulates the hierarchical QR with *fixed* and *shifted* domain boundaries,
prints ASCII Gantt charts (F = flat-tree panel kernels, U = trailing
updates, B = binary-tree kernels), reports the flat/binary overlap
fractions, and writes the trace as CSV plus an SVG scaling chart.

With fixed boundaries, the binary reduction (B) fences off the next
panel's flat work; with shifted boundaries the phases interleave — exactly
the contrast of the paper's Figure 7(a)/(b).

Run:  python examples/trace_visualization.py [--outdir traces/]
"""

from __future__ import annotations

import argparse
import pathlib

from repro.dessim import KIND_BINARY, KIND_PANEL, overlap_fraction
from repro.experiments import run_figure10, scaled, simulate_tree_qr, trace_gantt
from repro.experiments.svgplot import chart_from_result
from repro.obs import spans_to_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=pathlib.Path, default=None,
                        help="also write trace CSVs and an SVG chart here")
    args = parser.parse_args()

    cfg = scaled(16)
    m = cfg.fig10_m[1]

    for shifted in (False, True):
        label = "shifted" if shifted else "fixed"
        res, qtg = simulate_tree_qr(
            m, cfg.n, cfg.fig10_cores, "hier", cfg, shifted=shifted, record_trace=True
        )
        overlap = overlap_fraction(res.trace, KIND_PANEL, KIND_BINARY)
        print(f"--- {label} domain boundaries ---")
        print(f"makespan {res.makespan * 1e3:.2f} ms, "
              f"{res.gflops(qtg.useful_flops):.0f} Gflop/s, "
              f"flat/binary overlap {overlap:.0%}")
        print(trace_gantt(cfg, m=m, shifted=shifted, workers_shown=16, width=96))
        print()
        if args.outdir is not None:
            args.outdir.mkdir(parents=True, exist_ok=True)
            (args.outdir / f"trace_{label}.csv").write_text(spans_to_csv(res.spans()))

    if args.outdir is not None:
        fig10 = run_figure10(cfg)
        chart = chart_from_result(
            fig10,
            x_column="m",
            y_columns={
                "hier_gflops": "Hierarchical",
                "binary_gflops": "Binary",
                "flat_gflops": "Flat",
            },
            x_label="Number of rows (m)",
            log_x=True,
        )
        chart.save(args.outdir / "figure10.svg")
        print(f"wrote traces and figure10.svg to {args.outdir}/")


if __name__ == "__main__":
    main()
