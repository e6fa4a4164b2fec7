"""Project-specific AST lint: enforce this codebase's runtime invariants statically.

Generic linters check style; this one checks the contracts PRs 2-9
introduced and until now only policed at runtime:

* hot paths (``kernels/``, ``qr/``) must be deterministic — no wall-clock
  or default-RNG calls (``determinism``);
* observability counter keys must come from the canonical ``K_*``
  vocabulary (``counter-keys``) and event emits from ``EVENT_TYPES``
  (``event-types``) — the same single source of truth the runtime
  validator uses (:func:`repro.obs.canonical_counter_keys`,
  :data:`repro.obs.EVENT_TYPES`), so the static and dynamic checks cannot
  drift apart;
* a file that makes a segment with ``os.memfd_create`` must also
  ``os.close`` a descriptor (``shm-lifecycle``);
* atomic persistence: ``os.replace`` without ``os.fsync`` in the same
  function is a torn-write bug waiting for a power cut (``atomic-write``);
* tile storage is allocated in the tiles layer's memory order: a
  ``np.zeros/empty/array`` of a ``tile_shape`` without
  ``order=TILE_ORDER`` yields a tile that is correct but silently on every
  kernel's copy path (``tile-order``);
* inside ``qr/``, plans, op lists, dependency graphs, wavefront
  partitions, worker assignments and segment offset tables are derived by
  :mod:`repro.qr.schedule` only — the
  process-wide memo — not by an executor or API layer per call
  (``derive-once``);
* no mutable default arguments (``mutable-default``);
* no bare ``except:`` (``bare-except``).

Run it over a tree::

    python -m repro.lint src
    python -m repro.lint src --disable counter-keys
    python -m repro.lint --list-rules

Suppress a finding in code with a trailing comment on the offending line::

    fd = os.memfd_create("scratch")  # lint: disable=shm-lifecycle

or a whole file with ``# lint: disable-file=<rule>`` on any line.  Every
rule has a violation fixture under ``tests/lint_fixtures/`` and the CI
``static-analysis`` job runs both directions: the shipped tree must lint
clean, the fixtures must fail.  See ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass

__all__ = [
    "LintViolation",
    "FileContext",
    "Rule",
    "RULES",
    "rule",
    "lint_file",
    "lint_paths",
    "main",
]

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([\w\-, ]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*lint:\s*disable-file=([\w\-, ]+)")


@dataclass(frozen=True)
class LintViolation:
    """One finding: ``path:line:col: rule: message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_json(self) -> dict:
        return {
            "path": self.path, "line": self.line, "col": self.col,
            "rule": self.rule, "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a rule needs about one source file."""

    path: pathlib.Path
    tree: ast.Module
    lines: list[str]

    def parts(self) -> tuple[str, ...]:
        return self.path.parts

    def dotted_name(self, node: ast.AST) -> str | None:
        """``a.b.c`` for an Attribute/Name chain, else ``None``."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None


@dataclass(frozen=True)
class Rule:
    """One lint rule: a name, a docstring-grade description, a checker.

    ``scope`` restricts the rule to files whose path contains one of the
    named components (empty scope = every file).  The checker yields
    ``(line, col, message)`` triples.
    """

    name: str
    description: str
    check: object
    scope: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return not self.scope or any(p in ctx.parts() for p in self.scope)


#: Registry of every known rule, keyed by name.
RULES: dict[str, Rule] = {}


def rule(name: str, description: str, scope: tuple[str, ...] = ()):
    """Decorator registering a checker function as a lint rule."""

    def register(fn):
        if name in RULES:
            raise ValueError(f"duplicate lint rule {name!r}")
        RULES[name] = Rule(name, description, fn, scope)
        return fn

    return register


def _suppressions(lines: list[str]) -> tuple[dict[int, set[str]], set[str]]:
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    for i, text in enumerate(lines, start=1):
        m = _SUPPRESS_FILE_RE.search(text)
        if m:
            per_file.update(r.strip() for r in m.group(1).split(",") if r.strip())
            continue
        m = _SUPPRESS_RE.search(text)
        if m:
            per_line[i] = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return per_line, per_file


def lint_file(
    path: str | pathlib.Path,
    *,
    enabled: set[str] | None = None,
) -> list[LintViolation]:
    """Lint one file with the (optionally restricted) rule set."""
    path = pathlib.Path(path)
    source = path.read_text(encoding="utf-8")
    rel = str(path)
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return [LintViolation(rel, exc.lineno or 0, exc.offset or 0,
                              "syntax", f"file does not parse: {exc.msg}")]
    lines = source.splitlines()
    ctx = FileContext(path=path, tree=tree, lines=lines)
    per_line, per_file = _suppressions(lines)
    out: list[LintViolation] = []
    for r in RULES.values():
        if enabled is not None and r.name not in enabled:
            continue
        if not r.applies_to(ctx):
            continue
        if r.name in per_file or "all" in per_file:
            continue
        for line, col, message in r.check(ctx):
            suppressed = per_line.get(line, ())
            if r.name in suppressed or "all" in suppressed:
                continue
            out.append(LintViolation(rel, line, col, r.name, message))
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out


def lint_paths(
    paths: list[str | pathlib.Path],
    *,
    enable: list[str] | None = None,
    disable: list[str] | None = None,
) -> list[LintViolation]:
    """Lint every ``.py`` file under the given files/directories.

    ``enable`` restricts the run to the named rules; ``disable`` removes
    rules from whatever is enabled.  Unknown rule names raise
    ``ValueError`` (a typo'd ``--disable`` must not silently re-enable a
    gate).
    """
    for name in (enable or []) + (disable or []):
        if name not in RULES:
            raise ValueError(
                f"unknown lint rule {name!r}; known: {sorted(RULES)}"
            )
    enabled = set(enable) if enable else set(RULES)
    enabled -= set(disable or ())
    files: list[pathlib.Path] = []
    for p in paths:
        p = pathlib.Path(p)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
            ))
        else:
            files.append(p)
    out: list[LintViolation] = []
    for f in files:
        out.extend(lint_file(f, enabled=enabled))
    return out


# Importing the rules module populates RULES as a side effect.
from . import rules as _rules  # noqa: E402  (registration import)
from .cli import main  # noqa: E402

del _rules
