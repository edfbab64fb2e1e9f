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


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path, monkeypatch, capsys):
    module = tmp_path / "module.py"
    module.write_text(
        '"""Module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "x = (1 +\n"
        "     2)  # a statement over two lines\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring."""\n'
        '        return """not a docstring,\n'
        '        but a value"""\n',
        encoding="utf-8",
    )
    out = _run(monkeypatch, capsys, "code_lines.py", str(module))
    counts = [line.split()[0] for line in out.splitlines()]
    assert counts == ["6", "6"]
