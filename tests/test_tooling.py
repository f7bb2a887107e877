"""Guards on the package's structure: every TSV parse and artifact write
goes through wikialumni.tsv, the view cache is one SQLite file, the CLI
imports no heavy dependency, and every public name is read in src/."""

import ast
import subprocess
import sys
from pathlib import Path

import wikialumni
from wikialumni.cli import run_extract, run_ingest, run_views
from wikialumni.config import load_config

from conftest import child_env
from mini_corpus import build_mini_project

PACKAGE = Path(wikialumni.__file__).parent

# (module, enclosing function) allowed to write or split files directly:
# per-person XML files have a format of their own.
ALLOWED = {("persons", "persist_person")}


def _is_artifact_io(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "write_text":
        return True
    return (
        func.attr == "split"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Constant)
        and call.args[0].value == "\t"
    )


def _artifact_io_sites(tree: ast.AST) -> list[str]:
    """Qualified name of the function around each write_text(...) or
    split("\\t") call ('' at module level)."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and _is_artifact_io(child):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return sites


def test_scan_finds_direct_writes_and_splits():
    tree = ast.parse(
        "def f(p):\n    p.write_text('x')\n"
        "class C:\n    def g(self, line):\n        return line.split('\\t')\n"
        "def h(line):\n    return line.split(',')\n"
    )
    assert _artifact_io_sites(tree) == ["f", "C.g"]


def test_tsv_parsing_and_artifact_writes_only_in_tsv_module():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module == "tsv":
            continue
        for site in _artifact_io_sites(ast.parse(path.read_text(encoding="utf-8"))):
            if (module, site) not in ALLOWED:
                offenders.append(f"{module}.{site or '<module>'}")
    assert offenders == []


def test_view_cache_is_one_database_file(tmp_path):
    config = load_config(build_mini_project(tmp_path / "proj"))
    for stage in (run_ingest, run_extract, run_views):
        assert stage(config, echo=lambda *a, **k: None) == 0
    assert sorted(p.name for p in config.cache_dir.iterdir()) == ["pageviews.sqlite"]


def test_cli_import_leaves_out_scipy():
    heavy = ("scipy", "numpy", "multiprocessing", "concurrent.futures")
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys, wikialumni.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Public names that nothing in src/ reads, each kept for a reason.
UNREAD_ALLOWED = {
    "bundled_dictionary_path": "locates the starter dictionaries shipped as package data",
    "PageViewStat.missing": "half of the (total, missing) value stored in pageviews.sqlite",
}


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(n, ast.Name) and n.id in ("dataclass", "NamedTuple")
               for n in decorators + cls.bases)


def _public_api(tree: ast.Module) -> tuple[list[str], list[str]]:
    """(public module-level names, 'Class.member' for every public field
    and method of a dataclass or NamedTuple)."""
    names, members = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    members.append(f"{node.name}.{item.target.id}")
                elif isinstance(item, ast.FunctionDef):
                    members.append(f"{node.name}.{item.name}")
    return (
        [n for n in names if not n.startswith("_")],
        [m for m in members if not m.split(".")[1].startswith("_")],
    )


def _unread_api(trees: list[ast.Module]) -> list[str]:
    """Public names that no tree reads: a module-level name must appear
    as a name or an attribute, a record member as an attribute read
    (x.member); a keyword at construction is not a read."""
    loaded_names, loaded_attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded_names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded_attrs.add(node.attr)
    unread = []
    for tree in trees:
        names, members = _public_api(tree)
        unread += [n for n in names if n not in loaded_names | loaded_attrs]
        unread += [m for m in members if m.split(".")[1] not in loaded_attrs]
    return unread


def test_unread_api_scan_finds_unread_names_and_members():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "LIMIT = 3\nSPARE = 4\n"
        "@dataclass(frozen=True)\n"
        "class Rec:\n    a: int\n    b: int = 0\n    _c: int = 0\n"
        "    def used(self):\n        return self.a\n"
        "    def spare(self):\n        return 1\n"
        "class Pair(NamedTuple):\n    x: int\n    y: int\n"
        "class Plain:\n    z: int = 0\n"
        "def f(p):\n    return Rec(a=LIMIT, b=1).used() + Pair(1, 2).x + isinstance(p, Plain)\n"
    )
    assert _unread_api([tree]) == ["SPARE", "f", "Rec.b", "Rec.spare", "Pair.y"]


def test_every_public_name_is_read_in_src():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    unread = _unread_api(trees)
    assert [name for name in unread if name not in UNREAD_ALLOWED] == []
    assert sorted(set(UNREAD_ALLOWED) - set(unread)) == []  # no stale exception
