"""Imported names that a module never uses, library code nothing uses, test
oracles no test uses, scipy imports in the library, caches that pin word
sets, relation counts made by hand, and reps that hold more than their
family and convention.

No linter ships with the toolchain, so these stdlib scans keep dead imports
out of the library and the tests, dead functions, methods, classes and
module-level names out of the library, untested oracles out of
``tests/_oracles.py``, scipy, a test-only dependency, out of the
library, strong caches of word sets, families and reps out of the
library, hand-kept relation counts out of the library's reports, and
state that could disagree with a rep's family and convention out of its
fields, the peak characteristic's bit rule out of ``diagmod.series``,
whose theta finds peaks by its own rule, reads of ``generator_triples``
out of every library file but the CLI's, private names of
``diagmod.clifford`` out of the CLI's imports, per-word-set memos out
of ``diagmod.clifford``, whose checks read per-n block certificates, the
library's private tuning constants out of ``tests/_oracles.py``, and a
family kind with no route, or two, out of ``diagmod.families``.
``src/diagmod/__init__.py`` is skipped by the unused-import scan: its imports
are the package's public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "diagmod").glob("*.py"))
SCANNED = [
    path for path in LIBRARY + sorted((ROOT / "tests").glob("*.py")) if path.name != "__init__.py"
]
READERS = LIBRARY + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for every name an import binds and nothing reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    unused = [entry for path in SCANNED for entry in unused_imports(path)]
    assert not unused, "imported but unused:\n" + "\n".join(unused)


def referenced_names(paths) -> tuple[set[str], set[str]]:
    """The names the files use or import, and the attributes they read; a
    name that is only assigned is not used."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def module_level_names(node: ast.stmt) -> list[str]:
    """The names a top-level assignment binds, dunders aside."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    bound = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [name for name in bound if not (name.startswith("__") and name.endswith("__"))]


def unreferenced_definitions() -> list[str]:
    """``file:line: name`` for every top-level function, class or assigned
    name of the library that no file names or imports (a class or a name
    read only as a module attribute counts as read), and every method,
    dunders aside, that no file reads as an attribute."""
    names, attributes = referenced_names(READERS)
    read = names | attributes
    dead = []
    for path in LIBRARY:
        rel = path.relative_to(ROOT)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and node.name not in names:
                dead.append(f"{rel}:{node.lineno}: {node.name}")
            dead.extend(
                f"{rel}:{node.lineno}: {name}" for name in module_level_names(node) if name not in read
            )
            if isinstance(node, ast.ClassDef):
                if node.name not in read:
                    dead.append(f"{rel}:{node.lineno}: {node.name}")
                dead.extend(
                    f"{rel}:{item.lineno}: {node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in attributes
                )
    return dead


def test_no_unreferenced_functions_or_methods():
    dead = unreferenced_definitions()
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)


def untested_oracles() -> list[str]:
    """``line: name`` for every public function of ``tests/_oracles.py``
    that no other test file names, imports or reads as an attribute (the
    tests import the module as ``oracle``)."""
    oracles = ROOT / "tests" / "_oracles.py"
    names, attributes = referenced_names(
        path for path in sorted((ROOT / "tests").glob("*.py")) if path != oracles
    )
    return [
        f"{node.lineno}: {node.name}"
        for node in ast.parse(oracles.read_text(), filename=str(oracles)).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in names | attributes
    ]


def test_every_oracle_is_used_by_a_test():
    dead = untested_oracles()
    assert not dead, "tests/_oracles.py functions no test uses:\n" + "\n".join(dead)


def scipy_imports(path: Path) -> list[str]:
    """``file:line`` for every import of scipy or one of its modules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_library_does_not_import_scipy():
    """The library's operators are signed partial maps; scipy is for the
    tests' materialised oracles only."""
    found = [entry for path in LIBRARY for entry in scipy_imports(path)]
    assert not found, "scipy imported by the library:\n" + "\n".join(found)


PINNED = {"WordSet", "TableauFamily", "HeckeModuleRep", "CliffordModuleRep"}


def annotation_names(annotation) -> set[str]:
    """The names an annotation mentions, string annotations included."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= annotation_names(ast.parse(node.value, mode="eval"))
    return names


def pinning_caches(path: Path) -> list[str]:
    """``file:line: function`` for every ``lru_cache`` or ``cache``
    decorated function with a parameter annotated by a word set, family or
    rep type: such a cache keeps every argument alive for good."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.FunctionDef):
            continue
        decorators = {
            getattr(part, "id", None) or getattr(part, "attr", None)
            for decorator in node.decorator_list
            for part in ast.walk(decorator)
        }
        if not decorators & {"lru_cache", "cache"}:
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        if any(p.annotation and annotation_names(p.annotation) & PINNED for p in params):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    return found


def test_no_cache_pins_word_sets():
    """Word sets are interned weakly; a cache keyed by one, or by a family
    or rep that holds one, would keep it alive (see
    ``tableaux.word_set_memo`` for the weak memo)."""
    found = [entry for path in LIBRARY for entry in pinning_caches(path)]
    assert not found, "caches that pin word sets:\n" + "\n".join(found)


def hand_counted_reports(path: Path) -> list[str]:
    """``file:line`` for every ``RelationReport(...)`` call whose count, its
    first argument or ``checked=``, is not a ``len(...)`` call: a report
    counts the relations of a table, not a running total."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        if (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) != "RelationReport":
            continue
        counts = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "checked"]
        if not (
            len(counts) == 1
            and isinstance(counts[0], ast.Call)
            and isinstance(counts[0].func, ast.Name)
            and counts[0].func.id == "len"
        ):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_relation_counts_come_from_a_table():
    found = [entry for path in LIBRARY for entry in hand_counted_reports(path)]
    assert not found, "RelationReport counts not taken with len(...):\n" + "\n".join(found)


def rep_fields(path: Path) -> list[str]:
    """``file:line: Class.field`` for every field other than ``family`` and
    ``convention`` of a dataclass with a ``family`` field: a rep is fixed by
    its family's word set and its convention, and a field beside them, such
    as stored maps, could disagree with them."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ClassDef) or not any(
            "dataclass" in {getattr(part, "id", None) or getattr(part, "attr", None) for part in ast.walk(d)}
            for d in node.decorator_list
        ):
            continue
        fields = {
            item.target.id: item.lineno
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        }
        if "family" in fields:
            found.extend(
                f"{path.relative_to(ROOT)}:{line}: {node.name}.{name}"
                for name, line in fields.items()
                if name not in ("family", "convention")
            )
    return found


def test_reps_hold_only_their_family_and_convention():
    found = [entry for path in LIBRARY for entry in rep_fields(path)]
    assert not found, "rep fields beside family and convention:\n" + "\n".join(found)


def peak_bit_rule_uses(path: Path) -> list[str]:
    """``file:line: what`` for every mention of ``peak_characteristic`` and
    every ``~(x << 1)``, the bit formula by which it finds peaks."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [name for alias in node.names for name in (alias.name, alias.asname)]
        if "peak_characteristic" in names:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}: peak_characteristic")
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.Invert)
            and isinstance(node.operand, ast.BinOp)
            and isinstance(node.operand.op, ast.LShift)
            and isinstance(node.operand.right, ast.Constant)
            and node.operand.right.value == 1
        ):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}: ~(x << 1)")
    return found


def test_theta_keeps_its_own_peak_rule():
    """theta's peak index follows the parts rule; were ``diagmod.series`` to
    read the peak characteristic or its bit formula, the theta identity
    would compare a rule with itself."""
    series = ROOT / "src" / "diagmod" / "series.py"
    assert not peak_bit_rule_uses(series), "\n".join(peak_bit_rule_uses(series))
    assert peak_bit_rule_uses(ROOT / "src" / "diagmod" / "clifford.py"), "the scan no longer finds the bit rule"


def generator_triples_reads(path: Path) -> list[str]:
    """``file:line`` for every read of the attribute ``generator_triples``."""
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "generator_triples"
    ]


def test_only_the_cli_lists_operator_entries():
    """Library walks and checks read signed partial maps and 2^n blocks; the
    operator entries, |F| 2^n columns of them in a supermodule, are listed
    only for ``dump-matrices``."""
    found = [entry for path in LIBRARY if path.name != "cli.py" for entry in generator_triples_reads(path)]
    assert not found, "generator_triples read outside the CLI:\n" + "\n".join(found)
    assert generator_triples_reads(ROOT / "src" / "diagmod" / "cli.py"), "the scan no longer finds the dump"


def private_clifford_imports(source: str) -> list[str]:
    """``line: name`` for every underscore name imported from
    ``diagmod.clifford``, relatively or not."""
    return [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module in ("clifford", "diagmod.clifford")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_the_cli_reads_the_certificates_through_the_public_api():
    """``diagmod certify`` reads ``clifford.certificates``, the one place
    that names the per-n block certificates, not the private functions."""
    found = private_clifford_imports((ROOT / "src" / "diagmod" / "cli.py").read_text())
    assert not found, "private clifford names imported by the CLI:\n" + "\n".join(found)
    probe = "from .clifford import _reach_certificate, certificates"
    assert private_clifford_imports(probe) == ["1: _reach_certificate"], "the scan no longer finds them"


def test_the_supermodule_keeps_nothing_per_word_set():
    """Every supermodule check reads per-n block certificates and the pi
    module's reports, so ``diagmod.clifford`` neither imports nor applies
    ``word_set_memo``."""
    names, attributes = referenced_names([ROOT / "src" / "diagmod" / "clifford.py"])
    assert "word_set_memo" not in names | attributes
    names, _ = referenced_names([ROOT / "src" / "diagmod" / "hecke.py"])
    assert "word_set_memo" in names, "the scan no longer finds the memo where it is applied"


def private_constant_reads(source: str) -> list[str]:
    """``line: name`` for every private ALL-CAPS name imported from
    ``diagmod`` or read as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "diagmod":
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names if name.startswith("_") and name.isupper()]
    return found


def test_the_oracles_share_no_tuning_constant_with_the_library():
    """An oracle keeps its own block bounds: one shared with the path it
    checks would hide a seam in both at once."""
    found = private_constant_reads((ROOT / "tests" / "_oracles.py").read_text())
    assert not found, "private diagmod constants read by the oracles:\n" + "\n".join(found)
    probe = "from diagmod.tableaux import _SEARCH_CELLS, _positions\nblock = tableaux._SEARCH_CELLS"
    assert private_constant_reads(probe) == ["1: _SEARCH_CELLS", "2: _SEARCH_CELLS"], "the scan no longer finds them"


def family_routes(path: Path) -> dict[str, list[str]]:
    """For each member of ``FamilyKind`` the routes that build it: a row of
    ``_RECIPES``, an entry of ``_REVERSED``, or a ``kind is FamilyKind.X``
    branch of ``_build_family_cached``, such as srct's mirror."""
    routes: dict[str, list[str]] = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ClassDef) and node.name == "FamilyKind":
            for item in node.body:
                if isinstance(item, ast.Assign):
                    routes.update((target.id, []) for target in item.targets)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if getattr(target, "id", None) in ("_RECIPES", "_REVERSED"):
                    for key in node.value.keys:
                        routes.setdefault(key.attr, []).append(target.id)
        elif isinstance(node, ast.FunctionDef) and node.name == "_build_family_cached":
            for test in ast.walk(node):
                if isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.Is):
                    for kind in test.comparators:
                        if getattr(getattr(kind, "value", None), "id", None) == "FamilyKind":
                            routes.setdefault(kind.attr, []).append(node.name)
    return routes


def test_every_family_kind_is_built_by_one_route():
    """A kind is enumerated from its recipe, read backwards off a twin, or
    built by its own branch (srct, off its syrt mirror), and by one route
    only: a kind added later then cannot go missing or be built twice."""
    routes = family_routes(ROOT / "src" / "diagmod" / "families.py")
    assert {kind: found for kind, found in routes.items() if len(found) != 1} == {}
    assert len(routes) == 12 and routes["SRCT"] == ["_build_family_cached"], "the scan no longer finds the routes"
