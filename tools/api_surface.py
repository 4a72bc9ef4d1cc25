"""Print the size of the package's source and of its public surface.

Four numbers, each followed by what it counts, one a line:

  * lines: the line count of every `src/oaqec/*.py` module, then each
    module's own count;
  * exported names: the names the package `__init__.py` imports from its
    modules (`from .module import name`), i.e. what `import oaqec` offers;
  * keyword parameters: the defaulted parameters (positional or
    keyword-only) of public module-level functions and of the methods of
    public classes, found by walking each module's AST.  A name is public
    when it does not start with an underscore; every method of a public
    class counts, `__init__` included;
  * unread names: the public module-level functions and classes of
    `src/oaqec` that no `.py` file under `src/`, `tools/` or `bench/` names
    outside their own definition.  A name counts as named where it appears
    as a variable, an attribute, an imported name or a word of a string
    constant that is not a docstring (the bench binds functions by name);
    the tests do not count, so code that only tests read shows here.

Run from the repository root:  python3 tools/api_surface.py [SRC_DIR]
SRC_DIR defaults to this checkout's `src/oaqec`, so the same script measures
another checkout when given its package directory.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src" / "oaqec"


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    """Names of the parameters of `fn` that have a default value."""
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return names


def exported_names(init_source: str) -> list[str]:
    """The names a package `__init__` source imports from its own modules."""
    return [alias.asname or alias.name for node in ast.parse(init_source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def keyword_parameters(source: str) -> list[str]:
    """`function.parameter` for every counted parameter of one module."""
    out = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            out += [f"{node.name}.{p}" for p in _defaulted(node)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [f"{node.name}.{item.name}.{p}" for item in node.body
                    if isinstance(item, functions) for p in _defaulted(item)]
    return out


def _named(tree: ast.AST) -> Counter:
    """How often the tree names each identifier (see the module docstring)."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, scopes) and node.body
                  and isinstance(node.body[0], ast.Expr)}
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(re.findall(r"\w+", node.name))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(re.findall(r"\w+", node.value))
    return names


def unread_names(src: Path) -> list[str]:
    """`module.name` for every public module-level function and class of the
    package at `src` that no file under its checkout's src/, tools/ or bench/
    names outside its own definition."""
    root = src.resolve().parents[1]
    files = [path for top in ("src", "tools", "bench")
             for path in sorted((root / top).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [f"{path.stem}.{node.name}" for path in sorted(src.resolve().glob("*.py"))
            for node in trees[path].body
            if isinstance(node, kinds) and not node.name.startswith("_")
            and named[node.name] == _named(node)[node.name]]


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else DEFAULT_SRC
    modules = sorted(src.glob("*.py"))
    lines = {path.name: len(path.read_text().splitlines()) for path in modules}
    params = [f"{path.stem}.{name}" for path in modules
              for name in keyword_parameters(path.read_text())]
    print(f"lines: {sum(lines.values())}")
    for name, count in lines.items():
        print(f"  {name} {count}")
    exported = exported_names((src / "__init__.py").read_text())
    print(f"exported names: {len(exported)}")
    for name in exported:
        print(f"  {name}")
    print(f"keyword parameters: {len(params)}")
    for name in params:
        print(f"  {name}")
    unread = unread_names(src)
    print(f"unread names: {len(unread)}")
    for name in unread:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
