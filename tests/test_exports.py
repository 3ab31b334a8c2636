"""Every name the package exports is used by the program itself.

A name exported from ``heightlab/__init__.py`` must be referenced, as a
whole word on some line other than its own ``def``/``class`` line, in a
package module, a script or the benchmark harness.  Tests do not count,
so API that only tests call cannot creep back.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heightlab"

# Exported ahead of their use: the coexistence study (ROADMAP item 10)
# evaluates TemperatureRegime.beta0 per point.
EXEMPT = {"TemperatureRegime", "beta0"}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def program_lines() -> list[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "scripts").glob("*.py")) + list((ROOT / "bench").glob("*.py"))
    return [line for p in sorted(files) for line in p.read_text().splitlines()]


def test_every_export_is_used_by_the_program():
    lines = program_lines()
    unused = []
    for name in exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert sorted(set(unused) - EXEMPT) == []


def test_import_loads_neither_hashlib_nor_multiprocessing():
    # a fresh interpreter: hashlib loads only where a config is hashed,
    # not with the package, and tables fork their workers without a pool
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import heightlab; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('hashlib', 'multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
