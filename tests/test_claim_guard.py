"""Source rules that keep every claim honest.

Only `oaqec.arrays` may store the claim slots of MixedLevelArray, make a
`Certificate` or call its private constructor `_with_certificates`, and it
stores the slots only where an array is made: in `MixedLevelArray.__init__`,
in that constructor, which gives an array over the same matrix new
certificates, and in `_in_range_array`, which makes one without claims.  So no claim of an array changes after it is made.  The
modules that build and certify arrays may not guard a claim with `assert`,
which `python -O` strips.  Operations record claims, and checks run in two
places: the builders in `synthesis` check a code's array where its
partition is formed (`ensure_checked`, `claim_blocks`, `measure_md`), and
`constructions` certifies full factorials and loaded assets (`certify`,
also open to the asset scripts in `tools/`).  The ingredient builders
`algebra`, `schemes` and `constructions` never fail a claim themselves:
field tables are not checked where they are built, and an asset's failed
`certify` is reported as `AssetCorrupt`.  Only `arrays` calls
`is_orthogonal_array`: the builders and the registry check strength
through a claim.  The array route of cross validation takes its distance
from the `arrays` kernel, which shares no code with the key and level
kernels of the reduction route in `verify`, and hands it only the array it
rebuilds from the kets, which carries no claim to spare a check with.  No
verdict reads the dict reduction `reduced_cross_matrix`: neither
`verify_code` nor `cross_validate`, nor any function of `verify.py` they
reach, names it.  Every module of the package but its `__init__`, and
every test and tool script, uses each name it imports, unless the import
is marked `# noqa: F401` as a deliberate re-export.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

import oaqec

SRC = Path(oaqec.__file__).resolve().parent
TOOLS = SRC.parents[1] / "tools"
TESTS = Path(__file__).resolve().parent
CLAIM_FIELDS = {"_strength", "_md"}
#: the functions of arrays.py that may store a claim slot: where arrays are made
CLAIM_MAKERS = {"MixedLevelArray.__init__", "_with_certificates", "_in_range_array"}
NO_ASSERT = ("algebra.py", "arrays.py", "constructions.py", "schemes.py",
             "synthesis.py", "tables.py", "verify.py")


def _stores_claim(node: ast.AST) -> bool:
    """Whether the node assigns a claim slot: `x._md = ...`, or
    `setattr(x, "_md", ...)` and `object.__setattr__(x, "_md", ...)`."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.ctx, ast.Store) and node.attr in CLAIM_FIELDS
    if not isinstance(node, ast.Call) or len(node.args) < 2:
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return (name in ("setattr", "__setattr__") and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in CLAIM_FIELDS)


def _claim_stores(tree: ast.AST, scope: str = "") -> list[tuple[str, int]]:
    """(scope, line) of every claim slot store: the scope is the dotted name
    of the class and function definitions around it, "" at module level."""
    stores = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stores += _claim_stores(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if _stores_claim(node):
            stores.append((scope, node.lineno))
        stores += _claim_stores(node, scope)
    return stores


def test_only_arrays_module_stores_claim_fields():
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "arrays.py":
            continue
        stores = _claim_stores(ast.parse(path.read_text(), str(path)))
        if stores:
            offenders[path.name] = stores
    assert offenders == {}
    # the rule has teeth: arrays.py itself does store the fields
    assert _claim_stores(ast.parse((SRC / "arrays.py").read_text()))


def claim_store_faults(arrays_source: str) -> list[str]:
    """Stores of a claim slot in arrays.py outside the functions that make an
    array, as `scope line N`."""
    return [f"{scope or 'module'} line {line}"
            for scope, line in _claim_stores(ast.parse(arrays_source))
            if scope not in CLAIM_MAKERS]


def test_claim_slots_are_stored_only_where_an_array_is_made():
    source = (SRC / "arrays.py").read_text()
    assert claim_store_faults(source) == []
    assert {scope for scope, _ in _claim_stores(ast.parse(source))} == CLAIM_MAKERS
    check_return = "    return _with_certificates(A, t, md)\n"
    class_head = "class MixedLevelArray:\n"
    assert source.count(check_return) == 1 and source.count(class_head) == 1
    mutants = {
        # a check that marks its argument checked in place
        "ensure_checked": source.replace(
            check_return, "    A._strength = t\n" + check_return),
        # a method that flips a claim after the array is made
        "MixedLevelArray.mark": source.replace(class_head, class_head + (
            "    def mark(self):\n"
            "        object.__setattr__(self, '_md', Certificate(1, True))\n\n")),
        # a back door at module level
        "module": source + "\nsetattr(A, '_md', None)\n",
    }
    for scope, mutant in mutants.items():
        faults = claim_store_faults(mutant)
        assert len(faults) == 1 and faults[0].startswith(f"{scope} line "), scope


def test_claim_modules_have_no_assert_statements():
    offenders = {}
    for name in NO_ASSERT:
        tree = ast.parse((SRC / name).read_text(), name)
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            offenders[name] = lines
    assert offenders == {}


#: check calls and the modules (or `module:function`) allowed to make them,
#: besides arrays.py
CHECK_CALLERS = {"ensure_checked": {"synthesis.py"}, "claim_blocks": {"synthesis.py"},
                 "measure_md": {"synthesis.py"}, "certify": {"constructions.py", "tools"},
                 "is_orthogonal_array": set(), "Certificate": set(),
                 "_with_certificates": set()}


def _called_names(tree: ast.AST) -> set[str]:
    """Every name called in the tree, as `f(...)` or `module.f(...)`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the tree references, as `f` or as the attribute of `x.f`."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _calls_by_function(tree: ast.Module) -> set[tuple[Optional[str], str]]:
    """(function, name) for every name called in the module: `function` is
    the module-level def around the call, or None outside one."""
    calls = set()
    for node in tree.body:
        function = node.name if isinstance(node, ast.FunctionDef) else None
        calls.update((function, name) for name in _called_names(node))
    return calls


def check_policy_faults(sources: dict[str, str]) -> list[str]:
    """Calls of a check outside the modules (or functions) allowed to make
    it.  `sources` maps a module's file name, or `tools/<name>` for a
    script, to its text."""
    faults = []
    for name, source in sorted(sources.items()):
        if name == "arrays.py":
            continue
        place = "tools" if name.startswith("tools/") else name
        faults.extend(sorted({
            f"{name} calls {call}"
            for function, call in _calls_by_function(ast.parse(source, name))
            if call in CHECK_CALLERS
            and not {place, f"{place}:{function}"} & CHECK_CALLERS[call]}))
    return faults


def _policy_sources() -> dict[str, str]:
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    sources.update({f"tools/{path.name}": path.read_text() for path in TOOLS.glob("*.py")})
    return sources


def test_only_builders_check_claims_and_only_constructions_certify():
    sources = _policy_sources()
    assert "tools/gen_assets.py" in sources
    assert check_policy_faults(sources) == []


def test_check_policy_guard_has_teeth():
    sources = _policy_sources()
    # the rule sees the calls that are allowed today
    assert {"ensure_checked", "claim_blocks", "measure_md"} <= _called_names(
        ast.parse(sources["synthesis.py"]))
    assert "certify" in _called_names(ast.parse(sources["constructions.py"]))
    mutants = {
        "constructions.py calls measure_md": ("constructions.py", "\nmeasure_md(A)\n"),
        "constructions.py calls ensure_checked": (
            "constructions.py", "\nA = arrays.ensure_checked(A, 10)\n"),
        "schemes.py calls claim_blocks": ("schemes.py", "\nclaim_blocks(A, 2, 1)\n"),
        "synthesis.py calls certify": ("synthesis.py", "\ncertify(A, 2)\n"),
        "cli.py calls certify": ("cli.py", "\ncertify(A, 2)\n"),
        "tools/gen_assets.py calls ensure_checked": (
            "tools/gen_assets.py", "\nensure_checked(A)\n"),
    }
    for fault, (name, line) in mutants.items():
        mutant = dict(sources, **{name: sources[name] + line})
        assert check_policy_faults(mutant) == [fault], fault


#: the ingredient builders: the construction modules record claims and
#: never fail one, and the field tables are not checked where they are built
NO_CLAIM_FAILURE = ("algebra.py", "schemes.py", "constructions.py")


def claim_failure_faults(sources: dict[str, str]) -> list[str]:
    """The ingredient builders that raise ClaimFailed, as
    `name raises ClaimFailed at line N`."""
    faults = []
    for name in NO_CLAIM_FAILURE:
        for node in ast.walk(ast.parse(sources[name], name)):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if "ClaimFailed" in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                faults.append(f"{name} raises ClaimFailed at line {node.lineno}")
    return faults


def test_constructions_never_fail_a_claim_themselves():
    sources = _policy_sources()
    assert claim_failure_faults(sources) == []
    # the asset loader catches a failed certify and reports it as corrupt
    certify_asset = _function(ast.parse(sources["constructions.py"]), "_certify_asset")
    assert {"ClaimFailed", "AssetCorrupt"} <= _names_read(certify_asset)


def test_claim_failure_guard_has_teeth():
    sources = _policy_sources()
    lines = len(sources["schemes.py"].splitlines())
    for line in ('raise ClaimFailed("x")', 'raise errors.ClaimFailed("x")',
                 "raise ClaimFailed"):
        mutant = dict(sources, **{"schemes.py": sources["schemes.py"] + line + "\n"})
        assert claim_failure_faults(mutant) == [
            f"schemes.py raises ClaimFailed at line {lines + 1}"], line
    lines = len(sources["algebra.py"].splitlines())
    mutant = dict(sources, **{"algebra.py": sources["algebra.py"] + 'raise ClaimFailed("x")\n'})
    assert claim_failure_faults(mutant) == [f"algebra.py raises ClaimFailed at line {lines + 1}"]


def test_only_arrays_makes_certificates():
    sources = _policy_sources()
    assert "Certificate" in _called_names(ast.parse(sources["arrays.py"]))
    mutants = {
        # an asset loader that marks a payload checked without a check
        "constructions.py": "\nA = _with_certificates(A, Certificate(2, True), None)\n",
        "synthesis.py": "\ncert = arrays.Certificate(3, True)\n",
        "tools/gen_assets.py": "\nCertificate(2, checked=True)\n",
    }
    for name, line in mutants.items():
        mutant = dict(sources, **{name: sources[name] + line})
        faults = [f"{name} calls Certificate"]
        if "_with_certificates" in line:
            faults.append(f"{name} calls _with_certificates")
        assert check_policy_faults(mutant) == faults, name


def test_only_arrays_runs_the_strength_kernel():
    sources = _policy_sources()
    assert "is_orthogonal_array" in _called_names(ast.parse(sources["arrays.py"]))
    # a re-export is no call
    assert "is_orthogonal_array" in sources["synthesis.py"]
    mutants = {
        "cli.py": "\nok, witness = is_orthogonal_array(array, 2)\n",
        "constructions.py": "\nok, _ = arrays.is_orthogonal_array(A, 2, 3)\n",
        "tools/gen_assets.py": "\nis_orthogonal_array(A, 2)\n",
    }
    for name, line in mutants.items():
        mutant = dict(sources, **{name: sources[name] + line})
        assert check_policy_faults(mutant) == [f"{name} calls is_orthogonal_array"], name


def _imported_names(tree: ast.AST) -> set[str]:
    """Every module and name an import statement in the tree mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _calls(tree: ast.AST, name: str) -> bool:
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == name for node in ast.walk(tree))


def _is_kets_array(value: Optional[ast.AST]) -> bool:
    """Whether the expression is `_in_range_array(code.kets, ...)`: an array
    over the kets, which the code has already range-checked, carrying no
    claim."""
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "_in_range_array" and bool(value.args)
            and ast.unparse(value.args[0]) == "code.kets")


def _kets_arrays(function: ast.FunctionDef) -> set[str]:
    """The names the function binds only to arrays built from the kets."""
    values: dict[str, list[Optional[ast.AST]]] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets, value = [node.target], node.value
        elif isinstance(node, (ast.For, ast.comprehension, ast.withitem)):
            targets, value = [getattr(node, "target", None)
                              or getattr(node, "optional_vars", None)], None
        else:
            continue
        for target in filter(None, targets):
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    values.setdefault(name.id, []).append(value)
    return {name for name, bound in values.items() if all(map(_is_kets_array, bound))}


def independence_faults(arrays_source: str, verify_source: str) -> list[str]:
    """Ways the two sources break the independence of the two routes."""
    faults = []
    if any(name.split(".")[-1] == "verify"
           for name in _imported_names(ast.parse(arrays_source))):
        faults.append("arrays.py imports from verify")
    tree = ast.parse(verify_source)
    if not any(isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module == "arrays"
               and "minimal_distance" in {alias.name for alias in node.names}
               for node in tree.body):
        faults.append("verify.py does not import minimal_distance from arrays")
    cross = _function(tree, "cross_validate")
    used = _names_read(cross)
    for kernel in ("_slice_keys", "_decide_level"):
        if kernel in used:
            faults.append(f"cross_validate references {kernel}")
    md_values = [node.value for node in ast.walk(cross) if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "md" for t in node.targets)]
    if not md_values or not all(_calls(value, "minimal_distance") for value in md_values):
        faults.append("cross_validate does not take md from minimal_distance")
    # a claim the array carried would let minimal_distance skip projections
    rebuilt = _kets_arrays(cross)
    if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id == "minimal_distance"
           and not (len(node.args) == 1 and not node.keywords
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in rebuilt)
           for node in ast.walk(cross)):
        faults.append("cross_validate passes minimal_distance an array not built from the kets")
    return faults


def test_array_route_is_independent_of_the_reduction_route():
    assert independence_faults((SRC / "arrays.py").read_text(),
                               (SRC / "verify.py").read_text()) == []


def test_independence_guard_has_teeth():
    arrays_source = (SRC / "arrays.py").read_text()
    verify_source = (SRC / "verify.py").read_text()
    md_line = "md = minimal_distance(rebuilt)"
    assert md_line in verify_source
    # the kernel the guard keeps cross_validate away from must exist
    assert "_slice_keys" in {node.name for node in ast.walk(ast.parse(verify_source))
                             if isinstance(node, ast.FunctionDef)}
    mutants = {
        "imports": (arrays_source + "\nfrom .verify import _slice_keys\n", verify_source),
        "module import": ("from . import verify\n" + arrays_source, verify_source),
        "pair scan": (arrays_source, verify_source.replace(
            md_line, "md = distance_profile(rebuilt)")),
        "key kernel": (arrays_source, verify_source.replace(
            md_line, "md = minimal_distance(rebuilt) + 0 * len(_slice_keys(kets, (), []))")),
    }
    for name, (arrays_mutant, verify_mutant) in mutants.items():
        assert independence_faults(arrays_mutant, verify_mutant), name


def test_independence_guard_sees_an_array_that_carries_claims():
    arrays_source = (SRC / "arrays.py").read_text()
    verify_source = (SRC / "verify.py").read_text()
    md_line = "md = minimal_distance(rebuilt)"
    build_line = "rebuilt = _in_range_array(code.kets, code.params.alphabets)"
    assert md_line in verify_source and build_line in verify_source
    fault = "cross_validate passes minimal_distance an array not built from the kets"
    mutants = {
        # the construction's parent, whose checked strength spares sorts
        "parent": verify_source.replace(md_line, "md = minimal_distance(code.provenance.parent)"),
        # an array rebuilt from the parent's matrix instead of the kets
        "parent matrix": verify_source.replace(build_line, build_line.replace(
            "code.kets", "code.provenance.parent.matrix")),
        "claim": verify_source.replace(
            md_line, "md = minimal_distance(certify(rebuilt, d))"),
        "rebound": verify_source.replace(
            build_line, build_line + "\n    rebuilt = certify(rebuilt, d)"),
        "keyword": verify_source.replace(md_line, "md = minimal_distance(A=rebuilt)"),
    }
    for name, mutant in mutants.items():
        assert independence_faults(arrays_source, mutant) == [fault], name


def test_independence_guard_sees_the_level_kernel():
    arrays_source = (SRC / "arrays.py").read_text()
    verify_source = (SRC / "verify.py").read_text()
    md_line = "md = minimal_distance(rebuilt)"
    defined = {node.name for node in ast.walk(ast.parse(verify_source))
               if isinstance(node, ast.FunctionDef)}
    assert "_decide_level" in defined
    mutant = verify_source.replace(
        md_line, "md = minimal_distance(rebuilt) + 0 * len(_decide_level(code, 1, ''))")
    assert independence_faults(arrays_source, mutant) == [
        "cross_validate references _decide_level"]


def unused_imports(source: str) -> list[str]:
    """Names the module source imports and never reads, skipping __future__
    imports and imports marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update((alias.asname or alias.name).split(".")[0]
                        for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_use_every_name_they_import():
    offenders = {}
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py"), *TOOLS.glob("*.py")]):
        if path == SRC / "__init__.py":
            continue
        names = unused_imports(path.read_text())
        if names:
            offenders[f"{path.parent.name}/{path.name}"] = names
    assert offenders == {}


def test_unused_import_guard_has_teeth():
    formats_source = (SRC / "formats.py").read_text()
    assert unused_imports(formats_source + "\nfrom zlib import crc32\n") == ["crc32"]
    # the re-export in synthesis.py passes only through its noqa marker
    synthesis_source = (SRC / "synthesis.py").read_text()
    assert unused_imports(synthesis_source.replace("  # noqa: F401", "")) == [
        "is_orthogonal_array"]


#: the verify.py functions whose results are verdicts
VERDICT_ROOTS = ("verify_code", "cross_validate")


def dict_path_faults(verify_source: str) -> list[str]:
    """The functions and classes of verify.py on the verdict path (the
    roots, and every module-level def they reference, directly or through
    each other) that name the dict reduction `reduced_cross_matrix`."""
    defs = {node.name: node for node in ast.parse(verify_source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached, todo = set(), list(VERDICT_ROOTS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [ref for ref in _names_read(defs[name]) if ref in defs]
    return sorted(f"{name} names reduced_cross_matrix" for name in reached
                  if "reduced_cross_matrix" in _names_read(defs[name]))


def test_no_verdict_reads_the_dict_reduction():
    source = (SRC / "verify.py").read_text()
    assert "def reduced_cross_matrix(" in source
    assert dict_path_faults(source) == []


def test_dict_path_guard_has_teeth():
    source = (SRC / "verify.py").read_text()
    call = "    reduced_cross_matrix(code, 0, 1, (0,))\n"
    heads = {name: f"def {name}(" for name in ("verify_code", "_explain_level", "_runs")}
    md_line = "    md = minimal_distance(rebuilt)"
    assert all(source.count(head) == 1 for head in heads.values())
    assert source.count(md_line) == 1

    def prepend(name: str, line: str) -> str:
        """The source with the line first in the body of the function."""
        head = source.index(heads[name])
        body = source.index('"""', source.index('"""', head) + 3) + 4
        return source[:body] + line + source[body:]

    mutants = {
        # the spot check the verdicts once ran
        "verify_code": prepend("verify_code", call),
        # inside a kernel verify_code calls
        "_explain_level": prepend("_explain_level", call),
        # two calls deep, through _explain_level
        "_runs": prepend("_runs", "    spot = reduced_cross_matrix\n"),
        "cross_validate": source.replace(
            md_line, md_line + " + len(reduced_cross_matrix(code, 0, 0, (0,)).counts)"),
    }
    for name, mutant in mutants.items():
        assert dict_path_faults(mutant) == [f"{name} names reduced_cross_matrix"], name
