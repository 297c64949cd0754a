"""Helpers that nothing calls are deleted, not kept for completeness."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "cuntzalg"


def test_every_defined_name_is_used_outside_its_definitions():
    """Each function, class and method defined in src/cuntzalg (dunders
    aside) appears as a whole word in src/cuntzalg, demos/ or perfbench/
    other than on the lines that define it."""
    words, definitions = Counter(), Counter()
    for folder in (LIBRARY, ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(folder.rglob("*.py")):
            text = path.read_text()
            words.update(re.findall(r"\w+", text))
            definitions.update(re.findall(
                r"^\s*(?:async\s+)?(?:def|class)\s+(\w+)", text, re.MULTILINE))
    defined = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not re.fullmatch(r"__\w+__", node.name)):
                defined.setdefault(node.name, []).append(
                    f"{path.name}:{node.lineno}")
    assert len(defined) > 200
    unused = [(name, where) for name, where in sorted(defined.items())
              if words[name] <= definitions[name]]
    assert unused == []


def test_every_method_is_read_as_an_attribute_outside_its_definition():
    """Each method or property defined in a src/cuntzalg class (dunders
    aside) is read as ``.name`` somewhere in src/cuntzalg, demos/ or
    perfbench/ outside its own body.  A bare word does not count: a
    parameter or local of the same name would hide an unread property."""
    defined = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not re.fullmatch(r"__\w+__", node.name)):
                    defined.setdefault(node.name, []).append(
                        (path, node.lineno, node.end_lineno, cls.name))
    reads = []
    for folder in (LIBRARY, ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(folder.rglob("*.py")):
            reads += [(node.attr, path, node.lineno)
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute)]
    read = {name for name, path, line in reads if name in defined
            and not any(path == where and first <= line <= last
                        for where, first, last, _ in defined[name])}
    assert len(defined) > 40
    unread = sorted(f"{cls}.{name}" for name, places in defined.items()
                    if name not in read for *_, cls in places)
    assert unread == []
