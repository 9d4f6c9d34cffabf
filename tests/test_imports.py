"""Every imported name is read somewhere in its module, and no rtosim
module imports another's private name.

A scan with the standard library's `ast` over `src/rtosim`, `scripts/` and
`tests/` lists each imported name that its module never reads, as
`file:line name`.  `perfbench/` is left out: `perfbench/fresh_process.py`
imports rtosim only to time the import.  A second scan, over `src/rtosim`
only (the tests import private names on purpose), lists each `_`-prefixed
name that a module imports from another rtosim module.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/rtosim", "scripts", "tests")


def unused_imports(source: str, filename: str) -> list[str]:
    tree = ast.parse(source, filename)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{filename}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in read]


def private_imports(source: str, filename: str) -> list[str]:
    tree = ast.parse(source, filename)
    return [f"{filename}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.split(".")[0] == "rtosim")
            for alias in node.names if alias.name.startswith("_")]


def sources(directories):
    """(file name relative to the root, text) of each .py file under them."""
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield str(path.relative_to(ROOT)), path.read_text(encoding="utf-8")


def test_the_scan_names_each_unread_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from a import b, c as d\n"
              "print(os, b)\n")
    assert unused_imports(source, "x.py") == ["x.py:3 osp", "x.py:4 d"]


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for name, source in sources(SCANNED):
        found += unused_imports(source, name)
    assert found == []


def test_the_scan_names_each_private_rtosim_import():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from .estimators import RttEstimate, _tuple_new\n"
              "from rtosim.config import _as_int\n"
              "from .record import Record\n")
    assert private_imports(source, "x.py") == ["x.py:3 _tuple_new",
                                                "x.py:4 _as_int"]


def test_no_rtosim_module_imports_another_modules_private_name():
    found = []
    for name, source in sources(["src/rtosim"]):
        found += private_imports(source, name)
    assert found == []
