"""CLI for the project AST lint.

::

    python -m repro.lint src                # lint a tree, exit 1 on findings
    python -m repro.lint src --disable counter-keys
    python -m repro.lint src --enable bare-except,mutable-default
    python -m repro.lint --list-rules
    python -m repro.lint src --json

Exit status: 0 clean, 1 violations found, 2 usage error (unknown rule,
missing path).
"""

from __future__ import annotations

import argparse
import json
import sys


def _split(values: list[str]) -> list[str]:
    out: list[str] = []
    for v in values:
        out.extend(s.strip() for s in v.split(",") if s.strip())
    return out


def main(argv: list[str] | None = None) -> int:
    from . import RULES, lint_paths

    p = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Project-specific AST lint for the repro codebase "
        "(determinism, obs vocabulary, shm lifecycle, atomic writes...).",
    )
    p.add_argument("paths", nargs="*", help="files or directories to lint")
    p.add_argument("--enable", action="append", default=[], metavar="RULES",
                   help="comma-separated rules to run (default: all)")
    p.add_argument("--disable", action="append", default=[], metavar="RULES",
                   help="comma-separated rules to skip")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule names and descriptions, then exit")
    p.add_argument("--json", action="store_true",
                   help="emit findings as a JSON array instead of text")
    args = p.parse_args(argv)

    if args.list_rules:
        width = max(len(name) for name in RULES)
        for name, r in sorted(RULES.items()):
            scope = f" [{','.join(r.scope)}/]" if r.scope else ""
            print(f"{name:<{width}}  {r.description}{scope}")
        return 0
    if not args.paths:
        p.print_usage(sys.stderr)
        print("error: no paths given (or use --list-rules)", file=sys.stderr)
        return 2

    try:
        violations = lint_paths(
            args.paths,
            enable=_split(args.enable) or None,
            disable=_split(args.disable) or None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps([v.to_json() for v in violations], indent=2))
    else:
        for v in violations:
            print(v)
        n = len(violations)
        print(f"{n} violation{'s' if n != 1 else ''} found"
              if n else "lint clean")
    return 1 if violations else 0
