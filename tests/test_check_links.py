"""Self-tests of ``tools/check_links.py``: the checker must be able to fail.

A link checker that passes on everything proves nothing, so each rule is
fed one input it has to reject — an orphaned docs page, and prose naming a
repo path that does not exist (the two stale ``DESIGN.md`` benchmark names
this rule was written for) — and then the real documentation set has to
come out clean.
"""

from __future__ import annotations

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("check_links", REPO / "tools" / "check_links.py")
check_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_links)


def test_orphaned_docs_page_is_flagged(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("see [a](docs/a.md)\n")
    (tmp_path / "docs" / "a.md").write_text("# A\n")
    (tmp_path / "docs" / "b.md").write_text("# B\n")
    orphans = check_links.find_orphans(tmp_path)
    assert len(orphans) == 1 and orphans[0].startswith("docs/b.md: orphaned page")


def test_stale_repo_paths_are_flagged(tmp_path):
    page = tmp_path / "DESIGN.md"
    page.write_text(
        "| E3 | `benchmarks/bench_fig7_traces.py`; `... fig7` |\n"        # stale
        "| E4 | `benchmarks/bench_section6a.py`; `... sec6a` |\n"          # stale
        "| ok | `tests/test_experiments.py`, `src/repro/experiments/figure7.py` |\n"
        "run `python tools/check_links.py docs/*.md`, see `src/repro/qr/parallel.py:42`,\n"
        "`tests/test_check_links.py::test_stale_repo_paths_are_flagged`, `src/…` and `docs/`.\n"
        "```\n`tools/not_checked_inside_a_fence.py`\n```\n"
    )
    errors = check_links.check_file(page, REPO)
    assert [e.rsplit(" ", 1)[-1] for e in errors] == [
        "'benchmarks/bench_fig7_traces.py'", "'benchmarks/bench_section6a.py'",
    ]
    assert all("missing repo path" in e for e in errors)
    # The history files name files that were deleted on purpose.
    changes = tmp_path / "CHANGES.md"
    changes.write_text("deleted `src/repro/gone.py`\n")
    assert check_links.check_file(changes, REPO) == []


def test_the_documentation_set_is_clean():
    assert check_links.main([]) == 0
