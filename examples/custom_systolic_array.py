#!/usr/bin/env python3
r"""Build your own virtual systolic array with the PULSAR runtime.

The QR decomposition is one application; PULSAR itself is a general
programming model (paper Section IV).  This example implements a classic
systolic algorithm from scratch — a 1D FIR filter array, the original
Kung & Leiserson use case — showing every PULSAR concept:

* VDPs with counters and persistent read/write local state,
* slotted FIFO channels,
* the by-pass idiom (forward the sample downstream before computing),
* a multi-node launch where the proxy threads move packets between
  simulated distributed-memory nodes.

Array layout (``taps`` cells)::

    source --x--> [cell 0] --x--> [cell 1] --x--> [cell 2] --y--> sink
                     \--y-------->   \--y-------->

Cell ``c`` fires once per sample it sees; at firing ``t`` it reads
``x[c + t]``, forwards it (dropping the first, so the next cell's stream
starts one sample later), and accumulates ``y_t += w_c * x[c + t]``.
After the last cell, ``y_t = sum_c w_c x[t + c]`` — a sliding-window
correlation.

Run:  python examples/custom_systolic_array.py
"""

from __future__ import annotations

import numpy as np

from repro.pulsar import VDP, VSA, Packet

WEIGHTS = [0.25, 0.5, 0.25]
N_OUT = 16  # filtered samples to produce


def make_source(samples: np.ndarray):
    def body(vdp):
        vdp.write(0, Packet.of(float(samples[vdp.firing_index]), label="x"))

    return body


def make_cell(c: int, weight: float, taps: int, total: int):
    """Systolic cell ``c``: multiply-accumulate one tap of the filter."""
    first, last = c == 0, c == taps - 1
    firings = total - c

    def body(vdp):
        t = vdp.firing_index
        x_pkt = vdp.read(0)
        if not last and t >= 1:
            # By-pass: pass the sample along before touching it (the next
            # cell's stream is ours minus the first sample).
            vdp.write(0, x_pkt)
        y_in = 0.0 if first else vdp.read(1).data
        y = y_in + weight * x_pkt.data
        if last:
            # No x to forward: the single output slot carries the results.
            vdp.write(0, Packet.of(y, label="y"))
        elif t <= firings - 2:
            # The downstream cell fires one time fewer; its stream does not
            # need our final partial sum.
            vdp.write(1, Packet.of(y, label="y"))

    return body


def make_sink(out: list):
    def body(vdp):
        out.append(vdp.read(0).data)

    return body


def main() -> None:
    rng = np.random.default_rng(3)
    taps = len(WEIGHTS)
    total = N_OUT + taps - 1  # samples the source must emit
    samples = rng.standard_normal(total)
    results: list[float] = []

    vsa = VSA(params={"taps": taps})
    vsa.add_vdp(VDP((0,), total, make_source(samples), n_out=1))
    for c, w in enumerate(WEIGHTS):
        n_in = 1 if c == 0 else 2
        n_out = 1 if c == taps - 1 else 2
        vsa.add_vdp(VDP((1, c), total - c, make_cell(c, w, taps, total), n_in=n_in, n_out=n_out))
    vsa.add_vdp(VDP((2,), N_OUT, make_sink(results), n_in=1))

    # x chain on slot 0, partial sums on slot 1 (slot 0 for the last cell).
    vsa.connect((0,), 0, (1, 0), 0, max_bytes=64)
    for c in range(taps - 1):
        vsa.connect((1, c), 0, (1, c + 1), 0, max_bytes=64)
        vsa.connect((1, c), 1, (1, c + 1), 1, max_bytes=64)
    vsa.connect((1, taps - 1), 0, (2,), 0, max_bytes=64)

    stats = vsa.run(n_nodes=2, workers_per_node=2, deadlock_timeout=15)

    expected = np.correlate(samples, np.asarray(WEIGHTS), mode="valid")
    got = np.array(results)
    print(f"systolic FIR: {N_OUT} outputs through {taps} cells")
    print(f"firings: {stats.firings}, inter-node messages: {stats.messages_sent}")
    print("max |systolic - numpy.correlate| =", float(np.max(np.abs(got - expected))))
    assert np.allclose(got, expected)
    print("OK")


if __name__ == "__main__":
    main()
