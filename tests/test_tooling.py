"""Guards on the package's structure: every TSV parse and artifact write
goes through wikialumni.tsv, the view cache is one SQLite file, and the
CLI imports no heavy dependency."""

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
    result = subprocess.run(
        [sys.executable, "-c", "import sys, wikialumni.cli; print('scipy' in sys.modules)"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
