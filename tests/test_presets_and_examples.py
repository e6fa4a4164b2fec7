"""Example smoke tests: every script under ``examples/`` runs clean."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(mod)
    return mod


class TestExampleSmoke:
    """Each example's main() must run clean (they self-assert)."""

    def test_custom_systolic_array(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["custom_systolic_array.py"])
        load_example("custom_systolic_array").main()
        assert "OK" in capsys.readouterr().out

    def test_quickstart(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["quickstart.py"])
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "bit-identical: True" in out

    def test_factor_once_solve_many(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["factor_once_solve_many.py"])
        load_example("factor_once_solve_many").main()
        out = capsys.readouterr().out
        assert "[PASS]" in out and "saved implicit factors" in out

    def test_trace_visualization(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["trace_visualization.py"])
        load_example("trace_visualization").main()
        out = capsys.readouterr().out
        assert "--- fixed domain boundaries ---" in out
        assert "--- shifted domain boundaries ---" in out

    def test_least_squares_fitting(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["least_squares_fitting.py"])
        load_example("least_squares_fitting").main()
        out = capsys.readouterr().out
        assert "more accurate" in out
