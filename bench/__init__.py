"""The layered tile-QR benchmark of record (see ``bench/README.md``).

Entry points, all through ``python3 -m bench`` from the repository root:

* ``--workload W --seed S --seconds T --trace 0|1`` — one measured run of
  one workload in this process (the contract ``BENCHMARK.json`` states);
* no ``--trace`` — the whole suite, every workload in fresh subprocesses,
  untraced pass then traced pass, written to ``--out``;
* ``compare A.json B.json`` — per (metric, workload) verdicts against the
  bounds in ``BENCHMARK.json``;
* ``--check`` — the harness's own self-test.

The harness measures ``src/repro`` from outside and changes nothing in it.
"""
