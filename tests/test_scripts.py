"""The experiment scripts under scripts/, run in process."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, capsys, script, *args):
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    return capsys.readouterr().out


def test_interval_sweep_drops_a_byte_order_mark(tmp_path, monkeypatch, capsys):
    # A leading U+FEFF is no part of the first label, as in the CLI's reader.
    text = "a b\nb a\nb c\nc a\n"
    plain, marked = tmp_path / "plain.edges", tmp_path / "marked.edges"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    expected = _run(monkeypatch, capsys, "interval_sweep.py", str(plain), "--node", "a")
    assert expected.startswith("node a: attainable open interval (0.35556")
    assert _run(monkeypatch, capsys, "interval_sweep.py", str(marked), "--node", "a") == expected
