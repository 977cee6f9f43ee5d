"""Every function, method and class in ``src/hfree`` must be named somewhere
in ``src/hfree``: code that only tests reach belongs in ``tests/``.  Dunder
methods are exempt, since Python calls them, and so are the few names in
``KEPT``."""

import ast
from pathlib import Path

import hfree

SRC = Path(hfree.__file__).parent

KEPT = {
    # library helpers that acceptance criteria 2, 3 and 6 call
    "check_key_inequality", "count_copies_at_m", "baseline_uniform_process",
    "compute_O_F", "newly_closed_after", "ProcessState.open_pair_ids",
    # the density bound's range, asserted by the acceptance tests
    "Constants.size_limit",
    # called by argparse
    "_Parser.error",
}


def _definitions(tree):
    """(qualified name, bare name, line) of every def and class in ``tree``."""
    todo = [("", tree)]
    while todo:
        prefix, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child.name, child.lineno
                todo.append((prefix + child.name + ".", child))
            else:
                todo.append((prefix, child))


def _named(tree):
    """Every name that a load, store or attribute access in ``tree`` spells."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_in_src_is_named_in_src():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    named = {name for tree in trees.values() for name in _named(tree)}
    unnamed = [f"{fname}:{line} {qual}"
               for fname, tree in trees.items()
               for qual, name, line in _definitions(tree)
               if name not in named and qual not in KEPT
               and not (name.startswith("__") and name.endswith("__"))]
    assert unnamed == [], unnamed


def test_kept_names_are_still_defined():
    defined = {qual for path in SRC.glob("*.py")
               for qual, _, _ in _definitions(ast.parse(path.read_text()))}
    assert KEPT <= defined, sorted(KEPT - defined)
