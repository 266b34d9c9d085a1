"""The package's public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import braidcalc


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(braidcalc.__path__):
        module = importlib.import_module(f"braidcalc.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"{info.name}.{name}"


def test_the_package_root_exports_only_its_submodules():
    # every caller imports from a module path; the root is no second list
    submodules = {info.name for info in pkgutil.iter_modules(braidcalc.__path__)}
    public = {name for name in vars(braidcalc) if not name.startswith("_")}
    assert public <= submodules, sorted(public - submodules)


def _functions(tree):
    # each node of a module with the name of the top-level function it is
    # in, or None outside every function
    for top in tree.body:
        name = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            yield name, node


def test_documents_are_read_and_checked_in_one_place():
    # words opens every document it reads, and _typed is its one check of
    # a JSON value's type; any other module calls them
    readers, checks = set(), set()
    for path in sorted(Path(braidcalc.__file__).parent.glob("*.py")):
        for function, node in _functions(ast.parse(path.read_text())):
            where = f"{path.stem}.{function}"
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or ast.unparse(node.func) == "json.load"
            ):
                readers.add(path.stem)
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Call)
                and ast.unparse(node.left.func) == "type"
                and isinstance(node.ops[0], ast.IsNot)
            ):
                checks.add(where)
    assert readers == {"words"}
    assert checks == {"words._typed"}


def test_only_the_walker_swaps_weights():
    # templates has one weight-flow walker: no other code there makes two
    # items of a list trade places, as in x[i - 1], x[i] = x[i], x[i - 1]
    path = Path(braidcalc.__file__).parent / "templates.py"
    swappers = []
    for function, node in _functions(ast.parse(path.read_text())):
        if not isinstance(node, ast.Assign):
            continue
        pairs = [*node.targets, node.value]
        if all(
            isinstance(pair, ast.Tuple)
            and len(pair.elts) == 2
            and all(isinstance(e, ast.Subscript) for e in pair.elts)
            for pair in pairs
        ):
            left = [ast.unparse(e) for e in node.targets[0].elts]
            right = [ast.unparse(e) for e in node.value.elts]
            if right == left[::-1]:
                swappers.append(function)
    assert swappers == ["_walk"]
