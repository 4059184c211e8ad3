"""The package's public names: a stale export fails here, and so does a
definition that nothing names any more."""

import ast
import re
from pathlib import Path

import coxnorm

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(coxnorm.__all__)) == len(coxnorm.__all__)
    assert [name for name in coxnorm.__all__ if not hasattr(coxnorm, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from coxnorm import *", namespace)
    assert set(coxnorm.__all__) <= set(namespace)


def _names(tree):
    """(name, line) for every identifier the code of a module uses: names,
    attributes, imports, keywords and the words of its non-docstring strings
    (which is how ``getattr`` and patching by name refer to a definition)."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno


# The public API beyond the package's exports: names the library itself need
# not call, whose uses in the tests count; every other definition must be
# named in the library or the benchmark
PUBLIC_API = set(coxnorm.__all__) | {
    "root_vec",   # RootSystem.root_vec, a root's coordinates for API callers
}


def test_every_definition_is_named_outside_itself():
    # a function, class or method of the package that loses its last caller
    # in the package or the benchmark fails here instead of staying, unless
    # it is public API; a test alone does not keep a definition in src/
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")}
    used = {}
    for path, tree in modules.items():
        in_tests = path.relative_to(ROOT).parts[0] == "tests"
        for name, line in _names(tree):
            if not in_tests or name in PUBLIC_API:
                used.setdefault(name, []).append((path, line))
    unnamed = []
    for path, tree in modules.items():
        if "coxnorm" not in path.parts:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            outside = [(where, line) for where, line in used.get(node.name, ())
                       if where != path or not node.lineno <= line <= node.end_lineno]
            if not outside:
                unnamed.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unnamed == []


def _defaulted_parameters(tree):
    """(callee name, parameter, position) of every parameter with a default of
    a module's functions: a method's position leaves out self, and a
    constructor's callee is its class; keyword-only parameters have none."""
    owner = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        method = isinstance(cls, ast.ClassDef) and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        name = cls.name if method and node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for k, arg in enumerate(positional[first:], first - method):
            yield name, arg.arg, k
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passed_arguments(tree):
    """(callee name, position or keyword) of every argument a module's calls
    pass, by the called name or attribute; star-args pass "*"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            yield from ((name, k) for k in range(len(node.args)))
            yield from ((name, k.arg or "*") for k in node.keywords)
            if any(isinstance(a, ast.Starred) for a in node.args):
                yield name, "*"


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # a parameter with a default that no call in the package or the benchmark
    # passes (by position, keyword or star-args) serves only the tests, and
    # goes; the command line's main(argv) is its entry point
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in ("src", "perfbench") for path in (ROOT / top).rglob("*.py")}
    passed = {arg for tree in trees.values() for arg in _passed_arguments(tree)}
    unpassed = [f"{path.relative_to(ROOT)} {name}.{arg}"
                for path, tree in trees.items() if "coxnorm" in path.parts
                for name, arg, k in _defaulted_parameters(tree)
                if not {(name, arg), (name, k), (name, "*")} & passed]
    assert unpassed == ["src/coxnorm/cli.py main.argv"]


def _imported_names(tree):
    """The dotted names a module imports, at its top or inside a function, with
    relative imports read in the package and each name of a ``from`` import
    appended to its module (``from . import x`` may import a module)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["coxnorm" if node.level else None, node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_every_module_is_reached_from_the_package_or_the_command_line():
    # a module that neither ``import coxnorm`` nor the CLI reaches runs only
    # in tests, and belongs in tests/ as an oracle
    package = ROOT / "src" / "coxnorm"
    modules = {path.stem for path in package.glob("*.py")}
    reached, stack = set(), ["__init__", "cli"]
    while stack:
        name = stack.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        stack.extend(dotted.split(".")[1] for dotted in _imported_names(tree)
                     if dotted.startswith("coxnorm."))
    assert sorted(modules - reached) == []
