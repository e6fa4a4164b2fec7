#!/usr/bin/env python3
"""Markdown link checker (zero-dependency, offline).

Scans markdown files for ``[text](target)`` links and verifies that

* relative file targets exist (resolved against the file's directory);
* ``#anchor`` fragments — standalone or attached to a file target — match
  a heading in the target document (GitHub slug rules: lowercase, spaces
  to dashes, punctuation dropped);
* ``http(s)`` / ``mailto`` links are *not* fetched (CI has no business
  depending on the network); they are only checked for empty targets;
* back-ticked repo paths (a token of an inline code span that starts with
  ``src/``, ``tests/``, ``tools/``, ``benchmarks/``, ``bench/``, ``docs/``
  or ``examples/``) exist — prose naming a file that was renamed or never
  written is a broken link too.  Globs and placeholders are skipped, a
  ``::test_id`` or ``:line`` suffix is ignored, and the two history files
  (``ROADMAP.md``, ``CHANGES.md``) are exempt: they name files that *were*.

When run on the default set (no arguments) it additionally fails on
**orphaned docs pages**: every ``docs/*.md`` must be reachable from
``README.md`` by following relative markdown links (breadth-first over
the link graph) — a page nobody links to is a page nobody reads.

Usage::

    python tools/check_links.py README.md DESIGN.md docs/*.md
    python tools/check_links.py            # default documentation set
                                           # + orphaned-docs check

Exit status is the number of broken links plus orphaned pages (0 = all
good).
"""

from __future__ import annotations

import pathlib
import re
import sys

# Inline links: [text](target "title")  — skips images' leading "!" so alt
# text is still captured by the same pattern.
_LINK_RE = re.compile(r"\[(?:[^\]\[]|\[[^\]]*\])*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
_CODE_FENCE_RE = re.compile(r"^(```|~~~)")
_CODE_SPAN_RE = re.compile(r"`([^`]+)`")
_PATH_ROOTS = ("src/", "tests/", "tools/", "benchmarks/", "bench/", "docs/", "examples/")
_PATH_WILDCARDS = ("*", "<", "{", "…", "...")
_HISTORY_FILES = ("ROADMAP.md", "CHANGES.md")

DEFAULT_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/architecture.md",
    "docs/observability.md",
    "docs/performance.md",
    "docs/robustness.md",
    "docs/sessions.md",
    "docs/static-analysis.md",
    "docs/tuning.md",
)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line."""
    # Strip inline code/emphasis markers and links, keep the visible text.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    text = text.replace("`", "").replace("*", "").replace("_", " ").strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def prose_lines(path: pathlib.Path):
    """Yield ``(line_number, line)`` for every line outside code fences."""
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
        elif not in_fence:
            yield lineno, line


def heading_slugs(path: pathlib.Path) -> set[str]:
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for _lineno, line in prose_lines(path):
        m = _HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def iter_links(path: pathlib.Path):
    """Yield ``(line_number, target)`` for every inline link outside code fences."""
    for lineno, line in prose_lines(path):
        for m in _LINK_RE.finditer(line):
            yield lineno, m.group(1)


def iter_repo_paths(path: pathlib.Path):
    """Yield ``(line_number, repo_path)`` for every back-ticked repo path
    outside code fences."""
    for lineno, line in prose_lines(path):
        for span in _CODE_SPAN_RE.findall(line):
            for token in span.split():
                if token.startswith(_PATH_ROOTS) and not any(w in token for w in _PATH_WILDCARDS):
                    yield lineno, token.partition(":")[0].rstrip(".,;)")


def check_file(path: pathlib.Path, repo_root: pathlib.Path) -> list[str]:
    errors: list[str] = []
    try:
        shown = path.relative_to(repo_root)
    except ValueError:
        shown = path
    if path.name not in _HISTORY_FILES:
        errors.extend(
            f"{shown}:{lineno}: missing repo path {target!r}"
            for lineno, target in iter_repo_paths(path)
            if not (repo_root / target).exists()
        )
    for lineno, target in iter_links(path):
        where = f"{shown}:{lineno}"
        if not target:
            errors.append(f"{where}: empty link target")
            continue
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # never fetched; presence is enough
        base, _, fragment = target.partition("#")
        dest = path if not base else (path.parent / base).resolve()
        if base:
            if not dest.exists():
                errors.append(f"{where}: missing file {target!r}")
                continue
        if fragment and dest.suffix == ".md" and dest.is_file():
            if fragment.lower() not in heading_slugs(dest):
                errors.append(f"{where}: no heading for anchor {target!r}")
    return errors


def reachable_from(start: pathlib.Path) -> set[pathlib.Path]:
    """Markdown files reachable from ``start`` via relative ``.md`` links."""
    seen = {start.resolve()}
    frontier = [start.resolve()]
    while frontier:
        page = frontier.pop()
        if not page.is_file():
            continue
        for _lineno, target in iter_links(page):
            if not target or target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            base = target.partition("#")[0]
            dest = (page.parent / base).resolve()
            if dest.suffix == ".md" and dest not in seen:
                seen.add(dest)
                frontier.append(dest)
    return seen


def find_orphans(repo_root: pathlib.Path) -> list[str]:
    """Every ``docs/*.md`` must be reachable from ``README.md``."""
    readme = repo_root / "README.md"
    if not readme.is_file():
        return [f"{readme}: file not found (cannot check docs reachability)"]
    seen = reachable_from(readme)
    return [
        f"{page.relative_to(repo_root)}: orphaned page "
        "(not reachable from README.md via markdown links)"
        for page in sorted((repo_root / "docs").glob("*.md"))
        if page.resolve() not in seen
    ]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    paths = [pathlib.Path(p).resolve() for p in argv] if argv else [
        repo_root / rel for rel in DEFAULT_FILES if (repo_root / rel).exists()
    ]
    errors: list[str] = []
    for path in paths:
        if not path.exists():
            errors.append(f"{path}: file not found")
            continue
        errors.extend(check_file(path, repo_root))
    if not argv:  # default set: also enforce docs reachability
        errors.extend(find_orphans(repo_root))
    for err in errors:
        print(err, file=sys.stderr)
    checked = len(paths)
    print(f"checked {checked} file(s): {len(errors)} problem(s)")
    return min(len(errors), 125)


if __name__ == "__main__":
    sys.exit(main())
