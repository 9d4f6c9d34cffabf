"""Each tuple layout of the program has one name: its type alias.

Estimates, send records, acks and trace rows are exact tuples, built and
read by position, since only an exact tuple's unpacking is specialized
(PEP 659) and the cyclic collector never untracks a tuple subclass.  A
scan with the standard library's `ast` over `src/rtosim` lists each class
defined with `NamedTuple` as a base, as `file:line name`: a second name
for a layout that no program object would be an instance of.
"""
import ast

from test_imports import sources


def named_tuple_classes(source: str, filename: str) -> list[str]:
    # a base read as `NamedTuple` or as `typing.NamedTuple`
    return [f"{filename}:{node.lineno} {node.name}"
            for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.ClassDef)
            and any(getattr(base, "id", getattr(base, "attr", None))
                    == "NamedTuple" for base in node.bases)]


def test_the_scan_names_each_named_tuple_class():
    source = ("import typing\n"
              "from typing import NamedTuple\n"
              "class A(NamedTuple):\n"
              "    x: int\n"
              "class B(typing.NamedTuple):\n"
              "    x: int\n"
              "class C(tuple):\n"
              "    pass\n"
              "D = tuple[int, int]\n")
    assert named_tuple_classes(source, "x.py") == ["x.py:3 A", "x.py:5 B"]


def test_no_rtosim_module_defines_a_named_tuple_class():
    found = []
    for name, source in sources(["src/rtosim"]):
        found += named_tuple_classes(source, name)
    assert found == []
