"""CLI for the schedule certifier.

Certify the op schedule of one planned geometry::

    python -m repro.analysis --m 512 --n 96 --nb 32 --tree hier --h 2
    python -m repro.analysis --m 512 --n 96 --nb 32 --tree flat --json cert.json
    python -m repro.analysis --m 512 --n 96 --nb 32 --tree hier --h 2 --self-check

Exit status 0 when the schedule certifies (and, with ``--self-check``,
every planted mutation is detected); 1 on violations or a certifier blind
spot.  ``--json`` writes the full machine-readable certificate.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..tiles.layout import TileLayout
from ..trees.plan import TreeKind, plan_all_panels
from ..qr.ops import expand_plans
from ..util.errors import ReproError
from .races import certify_geometry, self_check


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically certify a tile-QR op schedule (happens-before "
        "closure over the dependency DAG + wavefront partition checks).",
    )
    p.add_argument("--m", type=int, default=512, help="matrix rows")
    p.add_argument("--n", type=int, default=96, help="matrix columns")
    p.add_argument("--nb", type=int, default=32, help="tile size")
    p.add_argument("--tree", default="hier",
                   choices=[k.value for k in TreeKind], help="reduction tree")
    p.add_argument("--h", type=int, default=6, help="hierarchical domain size")
    p.add_argument("--no-shifted", dest="shifted", action="store_false",
                   help="fixed domain boundaries (paper Fig. 6a)")
    p.add_argument("--no-wavefronts", dest="wavefronts", action="store_false",
                   help="skip the wavefront-partition certification")
    p.add_argument("--json", metavar="PATH",
                   help="write the machine-readable certificate to PATH")
    p.add_argument("--self-check", action="store_true",
                   help="additionally mutate the DAG/wavefronts and require "
                   "every planted violation to be detected")
    args = p.parse_args(argv)

    try:
        cert = certify_geometry(
            args.m, args.n, args.nb, tree=args.tree, h=args.h,
            shifted=args.shifted, wavefronts=args.wavefronts,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(cert.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(cert.to_json(), fh, indent=2, sort_keys=True)
        print(f"certificate written to {args.json}")
    if args.self_check:
        layout = TileLayout(args.m, args.n, args.nb)
        plans = plan_all_panels(
            TreeKind.coerce(args.tree), layout.mt, layout.nt,
            h=args.h, shifted=args.shifted,
        )
        ops = expand_plans(layout, plans)
        try:
            report = self_check(ops)
        except ReproError as exc:
            print(f"self-check FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            "self-check ok: "
            f"{report['edges_detected']}/{report['edges_tried']} dropped edges "
            f"flagged ({report['edges_redundant']} transitively redundant), "
            f"wavefront swap flagged={report['wavefront_swap_detected']}, "
            f"assignment wait drop flagged={report['assignment_wait_drop_detected']}, "
            f"assignment entry swap flagged={report['assignment_swap_detected']}"
        )
    return 0 if cert.ok else 1


if __name__ == "__main__":
    sys.exit(main())
