"""Every exception class in the package must be told apart by some handler.

A class that no `except` clause or `isinstance` call in the package names
only renames its base: callers cannot act on the difference, so it should
be its base with the same message.
"""

import ast
import builtins
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "rulegraph")


def _names(node):
    """Class names in an except type or an isinstance class argument."""
    if isinstance(node, ast.Tuple):
        return {name for element in node.elts for name in _names(element)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def _scan():
    """(exception classes defined in the package, class names its handlers name)."""
    trees = []
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename), encoding="utf-8") as handle:
                trees.append(ast.parse(handle.read(), filename))
    nodes = [node for tree in trees for node in ast.walk(tree)]
    bases = {node.name: set().union(*map(_names, node.bases)) for node in nodes if isinstance(node, ast.ClassDef)}
    exceptions = {name for name, value in vars(builtins).items() if isinstance(value, type) and issubclass(value, Exception)}
    defined = set()
    while found := {name for name, parents in bases.items() if parents & (exceptions | defined)} - defined:
        defined |= found
    named = set()
    for node in nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            named |= _names(node.type)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            named |= _names(node.args[1])
    return defined, named


def test_every_exception_class_is_handled_somewhere():
    defined, named = _scan()
    assert defined, "no exception classes found; is the source path right?"
    assert sorted(defined - named) == []
