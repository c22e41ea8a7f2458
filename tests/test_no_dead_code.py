"""Every top-level function and class in the package, and every public
method, is used somewhere in the package other than its own definition.

Tests and independent oracles live under tests/; code that only they
reach belongs there too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "waveop_lab"


def _definitions(tree):
    """(name, node) for top-level defs and classes and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def _references(node, inside, out):
    """Collect (name, enclosing definition nodes) for every load of a name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {id(node)}
    if isinstance(node, ast.Name):
        out.append((node.id, inside))
    elif isinstance(node, ast.Attribute):
        out.append((node.attr, inside))
    for child in ast.iter_child_nodes(node):
        _references(child, inside, out)


def test_no_unreferenced_definitions():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = []
    for tree in trees.values():
        _references(tree, frozenset(), refs)
    unused = [f"{mod}:{name}" for mod, tree in trees.items()
              for name, node in _definitions(tree)
              if not any(r == name and id(node) not in inside for r, inside in refs)]
    assert not unused, f"defined but never used in src/: {unused}"
