"""The project AST lint: fixtures trip their rules, the shipped tree is clean.

Each rule has a violation fixture under ``tests/lint_fixtures/`` that must
produce at least one finding *of that rule and no other*; ``clean.py``
collects near-miss patterns that must stay silent, and ``suppressed.py``
exercises line- and file-scoped suppression comments.  The final test is
satellite gate itself: ``python -m repro.lint src`` exits 0.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lint import RULES, LintViolation, lint_file, lint_paths, main

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "lint_fixtures"
SRC = HERE.parent / "src"

FIXTURE_RULES = [
    ("kernels/bad_determinism.py", "determinism", 6),
    ("bad_counters.py", "counter-keys", 2),
    ("bad_events.py", "event-types", 2),
    ("bad_shm.py", "shm-lifecycle", 1),
    ("bad_atomic_write.py", "atomic-write", 1),
    ("bad_mutable_default.py", "mutable-default", 3),
    ("bad_bare_except.py", "bare-except", 1),
    ("bad_tile_order.py", "tile-order", 3),
    ("qr/bad_derive_once.py", "derive-once", 4),
    ("qr/bad_assignment.py", "derive-once", 2),
    ("qr/bad_segment_plan.py", "derive-once", 1),
    ("qr/bad_copy_out.py", "copy-out", 3),
]


@pytest.mark.parametrize("relpath,rule,count", FIXTURE_RULES)
def test_fixture_trips_exactly_its_rule(relpath, rule, count):
    violations = lint_file(FIXTURES / relpath)
    assert violations, f"{relpath} produced no findings"
    assert {v.rule for v in violations} == {rule}
    assert len(violations) == count
    for v in violations:
        assert v.line > 0 and v.message


def test_every_rule_has_a_fixture():
    covered = {rule for _, rule, _ in FIXTURE_RULES}
    assert covered == set(RULES), (
        "each lint rule needs a must-fail fixture in tests/lint_fixtures/"
    )


def test_clean_fixture_is_silent():
    assert lint_file(FIXTURES / "clean.py") == []


def test_suppressions_silence_findings():
    assert lint_file(FIXTURES / "suppressed.py") == []
    # The same content is flagged when the rules run elsewhere: the
    # suppressions, not luck, are what keeps the file quiet.
    source = (FIXTURES / "suppressed.py").read_text()
    assert "lint: disable=" in source and "lint: disable-file=" in source


def test_enable_restricts_and_disable_removes():
    only_bare = lint_paths([FIXTURES], enable=["bare-except"])
    assert only_bare and all(v.rule == "bare-except" for v in only_bare)
    without = lint_paths([FIXTURES], disable=["bare-except"])
    assert without and all(v.rule != "bare-except" for v in without)


def test_unknown_rule_name_raises():
    with pytest.raises(ValueError, match="unknown lint rule"):
        lint_paths([FIXTURES], disable=["bare-excpet"])
    with pytest.raises(ValueError, match="unknown lint rule"):
        lint_paths([FIXTURES], enable=["nope"])


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    violations = lint_file(bad)
    assert [v.rule for v in violations] == ["syntax"]


def test_violation_formatting_and_json():
    v = LintViolation("a.py", 3, 7, "bare-except", "msg")
    assert str(v) == "a.py:3:7: bare-except: msg"
    assert v.to_json()["line"] == 3


def test_determinism_rule_is_scoped_to_hot_paths(tmp_path):
    # The same global-RNG call outside kernels/ and qr/ is not flagged.
    outside = tmp_path / "script.py"
    outside.write_text("import random\nx = random.random()\n")
    assert lint_file(outside) == []
    inside = tmp_path / "kernels"
    inside.mkdir()
    (inside / "hot.py").write_text("import random\nx = random.random()\n")
    assert [v.rule for v in lint_file(inside / "hot.py")] == ["determinism"]


def test_cli_fixture_tree_fails_and_clean_file_passes(capsys):
    assert main([str(FIXTURES)]) == 1
    assert "violations found" in capsys.readouterr().out
    assert main([str(FIXTURES / "clean.py")]) == 0
    assert main(["--list-rules"]) == 0
    assert main([]) == 2
    assert main([str(FIXTURES), "--disable", "bogus-rule"]) == 2


def test_shipped_tree_is_lint_clean(capsys):
    # Satellite gate: the library must pass its own lint (CI runs the
    # same command as a required job).
    assert main([str(SRC)]) == 0
    assert "lint clean" in capsys.readouterr().out
