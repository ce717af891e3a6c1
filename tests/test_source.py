"""Checks over the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import sociolens
from sociolens.errors import SociolensError

SOURCES = sorted(Path(sociolens.__file__).parent.glob("*.py"))
# the benchmark harness looks package names up from outside: as attributes, or by string
PERFBENCH = sorted((Path(sociolens.__file__).parents[2] / "perfbench").rglob("*.py"))


def test_no_check_relies_on_assert():
    # `python -O` strips assert statements, so a check written as one vanishes
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def _names(node: ast.AST) -> str | None:
    """The name a node refers to: a variable, an attribute, an import, or an identifier string."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        return node.value
    return None


def test_every_public_name_is_used_outside_tests():
    # a public def or class that only tests call belongs in tests/helpers.py
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES + PERFBENCH}
    uses = [(path, getattr(node, "lineno", 0), name)
            for path, tree in trees.items() for node in ast.walk(tree) if (name := _names(node))]
    unused = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(name == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
                    for where, line, name in uses)
    ]
    assert PERFBENCH and not unused, unused


def test_imports_are_relative_numpy_or_stdlib():
    # numpy is the one runtime dependency; every stage imports cli, so any other import is paid by all of them
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.partition(".")[0]]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{root}" for root in roots
                      if root != "numpy" and root not in sys.stdlib_module_names]
    assert SOURCES and not found, found


def test_only_features_reads_a_profile_cell():
    # "a declined or unknown answer counts as MISSING" is one rule, kept in features.py:
    # elsewhere a profile is read through `SocioSchema.encode`, never cell by cell
    found = []
    for path in SOURCES:
        if path.name == "features.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "features":
                found += [f"{path.name}:{node.lineno}:MISSING" for alias in node.names if alias.name == "MISSING"]
            elif isinstance(node, ast.Attribute) and (
                node.attr in ("answers", "assignments")
                or node.attr == "MISSING" and isinstance(node.value, ast.Name) and node.value.id == "features"
            ):
                found.append(f"{path.name}:{node.lineno}:{node.attr}")
    assert SOURCES and not found, found


def test_only_model_reads_or_writes_checkpoint_bytes():
    # the checkpoint format lives in one module: no other names params.bin or moves raw array bytes
    found = []
    for path in SOURCES:
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "params.bin" in node.value:
                found.append(f"{path.name}:{getattr(node, 'lineno', 0)}:params.bin")
            elif isinstance(node, ast.Call) and _names(node.func) in ("tofile", "readinto", "fromfile"):
                found.append(f"{path.name}:{node.lineno}:{_names(node.func)}")
    assert SOURCES and not found, found


# Places outside model.py that name f32 for a reason other than the weights: the PEMB embedding
# format's components are little-endian f32 by definition.
F32_ELSEWHERE = {("features.py", "_load_embeddings_binary")}


def test_only_model_names_the_weight_dtype():
    # the model computes in the dtype of its weights row, which model.py alone chooses
    # (`WEIGHT_DTYPE`); a second place naming f32 could drift from it
    def names_f32(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.lstrip("<>=|") in ("f4", "float32")
        return _names(node) in ("float32", "single")

    found = []
    for path in SOURCES:
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = {id(inner) for node in tree.body if (path.name, getattr(node, "name", None)) in F32_ELSEWHERE
                  for inner in ast.walk(node)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if names_f32(node) and id(node) not in exempt]
    assert SOURCES and not found, found


def test_only_model_pairs_a_model_with_a_schema():
    # a model's schema and head ids are fields of `ModelParams`: elsewhere no function takes,
    # and no class holds, a model and a schema side by side, as parallel records that can drift apart
    found = []
    for path in SOURCES:
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            elif isinstance(node, ast.ClassDef):
                annotations = [field.annotation for field in node.body if isinstance(field, ast.AnnAssign)]
            else:
                continue
            names = [{_names(part) for part in ast.walk(a)} for a in annotations if a is not None]
            if any("ModelParams" in n for n in names) and any("SocioSchema" in n for n in names):
                found.append(f"{path.name}:{node.lineno}:{node.name}")
    assert SOURCES and not found, found


def test_only_features_writes_csv_or_json():
    # every CSV and JSON artifact is written by `features.write_csv` or `features.write_json`;
    # `json.dumps` stays free for the JSON Lines training log
    found = []
    for path in SOURCES:
        if path.name == "features.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                (node.value.id, node.attr) in (("csv", "writer"), ("json", "dump"))
            ):
                found.append(f"{path.name}:{node.lineno}:{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
                found += [f"{path.name}:{node.lineno}:{alias.name}" for alias in node.names
                          if alias.name in ("writer", "dump")]
    assert SOURCES and not found, found


def test_only_features_reads_csv_rows():
    # `features.csv_rows` is the one walk of an input CSV: its header, blank lines and row numbers
    found = []
    for path in SOURCES:
        if path.name == "features.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                (node.value.id, node.attr) == ("csv", "reader")
            ):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                found += [f"{path.name}:{node.lineno}" for alias in node.names if alias.name == "reader"]
    assert SOURCES and not found, found


def test_one_error_class_per_exit_code():
    # `cli` documents exit codes 2 (config), 3 (data) and 4 (numeric) and maps an error by its
    # `exit_code` alone, so a second class with the same code would be structure no caller reads
    defined = {
        path.stem: [value for value in vars(importlib.import_module(f"sociolens.{path.stem}")).values()
                    if isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == f"sociolens.{path.stem}"]
        for path in SOURCES
    }
    assert sorted(cls.exit_code for cls in defined.pop("errors") if cls is not SociolensError) == [2, 3, 4]
    assert not [cls.__qualname__ for classes in defined.values() for cls in classes]


def test_no_module_reads_csv_through_dict_reader():
    # a dict per row costs ~2 µs and the ids it hashes again; the readers index `csv.reader` rows
    # by column position instead (`tests/helpers.py` keeps a `DictReader` reader as the oracle)
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if _names(node) == "DictReader"
    ]
    assert SOURCES and not found, found
