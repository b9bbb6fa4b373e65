import runpy
import subprocess
import sys

from conftest import ROOT

TOOL = ROOT / "tools" / "count_lines.py"
counts = runpy.run_path(str(TOOL))["counts"]


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = '''"""Module
docstring."""

# a comment
X = """a string
that is code"""


class A:
    """Class docstring."""

    def f(self):  # code with a comment
        """Function
        docstring."""
        return 1
'''
    assert counts(source) == (15, 5)


def test_package_counts_match_each_modules_lines():
    # the tool as the ROADMAP's line counts are taken, on the package
    r = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src" / "clseg")],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    header, *rows = [line.split() for line in r.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    counted = {name: (int(lines), int(code)) for name, lines, code in rows}
    total = counted.pop("total")
    modules = sorted((ROOT / "src" / "clseg").glob("*.py"))
    assert sorted(counted) == [p.name for p in modules]
    for p in modules:
        lines, code = counted[p.name]
        assert lines == len(p.read_text(encoding="utf-8").splitlines()), p.name
        assert 0 < code < lines, p.name
    assert total == tuple(map(sum, zip(*counted.values())))
