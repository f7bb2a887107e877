"""Guards on the package's structure: every TSV parse and artifact write
goes through wikialumni.tsv, the view cache is one SQLite file written
from one place, only the dump module reads XML, the matcher imports
neither the person files nor the CLI, the CLI imports no heavy dependency, every name the benchmark's tracer patches exists, every
public name is read in src/, and every defaulted parameter is set by some
call in src/ but not by all."""

import ast
import importlib.util
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


def _call_sites(tree: ast.AST, wanted) -> list[str]:
    """Qualified name of the function around each call that wanted(call)
    accepts ('' at module level)."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and wanted(child):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return sites


def _artifact_io_sites(tree: ast.AST) -> list[str]:
    """The sites of each write_text(...) or split("\\t") call."""
    return _call_sites(tree, _is_artifact_io)


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


def _cache_put_sites(tree: ast.AST) -> list[str]:
    """The sites of each x.put(...) call, which is how ViewCache.put is
    called."""
    return _call_sites(
        tree, lambda call: isinstance(call.func, ast.Attribute) and call.func.attr == "put"
    )


def test_scan_finds_cache_puts():
    tree = ast.parse(
        "class C:\n    def m(self, rows):\n        self.cache.put(rows)\n"
        "def f(cache, put):\n    put([])\n    cache.get(1)\n    return cache.put([])\n"
    )
    assert _cache_put_sites(tree) == ["C.m", "f"]


def test_view_cache_is_written_from_one_place():
    sites = [
        f"{path.stem}.{site}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in _cache_put_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(sites) == 1 and sites[0].startswith("pageviews.ViewClient."), sites


def _xml_imports(tree: ast.AST) -> list[str]:
    """Each module in the xml package that tree imports, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "xml"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "xml":
                found.append(node.module)
    return found


def test_scan_finds_xml_imports():
    tree = ast.parse(
        "import os, xml.dom\nfrom xml.etree import ElementTree\n"
        "def f():\n    import xml\n    from . import xml\n    import xmlrpc.client\n"
    )
    assert _xml_imports(tree) == ["xml.dom", "xml.etree", "xml"]


def test_only_the_dump_module_reads_xml():
    importers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if _xml_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert importers == ["dump"]


def _package_imports(tree: ast.AST) -> list[str]:
    """Each wikialumni module that tree imports, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            module = node.module or ""
            if node.level == 1:
                module = "wikialumni" + ("." + module if module else "")
            modules, names = [module], [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            if module == "wikialumni":
                found += names
            elif module.startswith("wikialumni."):
                found.append(module.split(".")[1])
    return found


def test_scan_finds_package_imports():
    tree = ast.parse(
        "import os, wikialumni.dump\nfrom . import tsv, errors\nfrom .registry import Registry\n"
        "def f():\n    from wikialumni import cli\n    from wikialumni.persons import x\n"
        "    import wikialumnix\n    from xml import dom\n"
    )
    assert _package_imports(tree) == ["dump", "tsv", "errors", "registry", "cli", "persons"]


def test_alumni_imports_neither_persons_nor_cli():
    """The matcher takes plain values, so an ingest worker can call it
    without the person-file layer or the CLI."""
    tree = ast.parse((PACKAGE / "alumni.py").read_text(encoding="utf-8"))
    assert {"persons", "cli"} & set(_package_imports(tree)) == set()


def _names_reached(tree: ast.Module, function: str) -> set[str]:
    """Every name and attribute read by the module-level function, and by
    each module-level function of the same tree that it reaches."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names: set[str] = set()
    todo = [function]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name not in names:
                names.add(name)
                if name in functions:
                    todo.append(name)
    return names


def test_scan_finds_names_reached():
    tree = ast.parse(
        "def f(x):\n    return g(x.a)\n"
        "def g(y):\n    return mod.h(y)\n"
        "def unused():\n    return z\n"
    )
    assert _names_reached(tree, "f") == {"g", "x", "a", "y", "mod", "h"}


def test_extract_refers_to_nothing_in_persons():
    """Extract reads the candidate rows that ingest wrote: no person
    file, no dictionary."""
    cli_tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    persons_tree = ast.parse((PACKAGE / "persons.py").read_text(encoding="utf-8"))
    persons_api = set(_public_api(persons_tree)[0])
    reached = _names_reached(cli_tree, "run_extract")
    assert reached & ({"persons", "load_dictionary"} | persons_api) == set()


def test_cli_import_leaves_out_scipy():
    heavy = (
        "scipy", "numpy", "multiprocessing", "concurrent.futures", "urllib.request", "http.client",
        "email.utils",
    )
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys, wikialumni.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_every_traced_name_exists():
    """perfbench/tracing.py patches each (owner, attribute) of its
    _layers(), and cli.stream_pages, by name; a rename fails here with
    the missing name instead of crashing the traced benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wanted = [(owner, attr) for owner, attr, _name, _counters in tracing._layers()]
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr in wanted + [(wikialumni.cli, "stream_pages")]
        if attr not in vars(owner)
    ]
    assert missing == []


# Public names that nothing in src/ reads, each kept for a reason.
UNREAD_ALLOWED = {
    "bundled_dictionary_path": "locates the starter dictionaries shipped as package data",
    "load_person_file": "perfbench/tracing.py patches it by name until ROADMAP item 1; "
                        "item 4 then deletes it with the person files",
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


# Defaulted parameters that no call in src/ sets, each kept for a reason.
UNSET_ALLOWED = {
    **{f"run_{stage}.echo": "the benchmark and the tests silence stage output"
       for stage in ("ingest", "extract", "views", "report", "audit")},
    "RateLimiter.__init__.clock": "test seam: tests substitute a fake clock",
    "RateLimiter.__init__.sleep": "test seam: tests substitute a fake sleep",
    "LiveBackend.__init__.sleep": "test seam: tests skip the backoff with a fake sleep",
    "LiveBackend.__init__.session": "test seam: tests and the benchmark pass a fake transport",
}


def _defaulted_params(tree: ast.Module) -> list[tuple[str, str, str, int | None]]:
    """(qualified function name, name a call uses for it, parameter,
    position among the arguments a call passes or None if keyword-only)
    for every parameter with a default.  A method's first parameter is
    not passed by its caller, and a call to a class calls __init__."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(scope + [child.name])
                callee = scope[-1] if child.name == "__init__" else child.name
                args = child.args
                positional = (args.posonlyargs + args.args)[1 if in_class else 0:]
                first_default = len(positional) - len(args.defaults)
                for pos, arg in enumerate(positional[first_default:], first_default):
                    found.append((qualname, callee, arg.arg, pos))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((qualname, callee, arg.arg, None))
                visit(child, scope + [child.name], False)
            else:
                visit(child, scope, in_class)

    visit(tree, [], False)
    return found


def _calls(trees: list[ast.Module]) -> dict[str | None, list[tuple[int, set[str | None]]]]:
    """Per callee name (f(...), obj.f(...), Class(...)), the number of
    positional arguments and the keywords of each call; a call that
    passes *args counts as passing every position, and **kwargs shows
    as the keyword None."""
    calls: dict[str | None, list[tuple[int, set[str | None]]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            n = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                n = sys.maxsize
            calls.setdefault(name, []).append((n, {k.arg for k in node.keywords}))
    return calls


def _defaults_set(trees: list[ast.Module]) -> list[tuple[str, list[bool]]]:
    """('function.parameter', whether each call to it sets the parameter,
    by position or by keyword) for every defaulted parameter.  Calls
    match by the callee's name, not by type."""
    calls = _calls(trees)
    return [
        (f"{qualname}.{param}",
         [(pos is not None and n > pos) or param in keywords or None in keywords
          for n, keywords in calls.get(callee, [])])
        for tree in trees
        for qualname, callee, param, pos in _defaulted_params(tree)
    ]


def _unset_defaults(trees: list[ast.Module]) -> list[str]:
    """'function.parameter' for each defaulted parameter that no call sets."""
    return [name for name, sets in _defaults_set(trees) if not any(sets)]


def _always_set_defaults(trees: list[ast.Module]) -> list[str]:
    """'function.parameter' for each defaulted parameter that every call
    sets, when there is a call at all: its default is dead."""
    return [name for name, sets in _defaults_set(trees) if sets and all(sets)]


def test_unset_default_scan_finds_parameters_no_call_sets():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class C:\n"
        "    def __init__(self, x, y=0, z=0):\n        pass\n"
        "    def m(self, p=1, q=2):\n        pass\n"
        "def g(u=1, *, v=2):\n    def inner(w=0):\n        pass\n"
        "f(0, 5)\nf(0, d=4)\nC(1, 2).m(q=3)\ng(**{})\n"
    )
    assert _unset_defaults([tree]) == ["f.c", "f.e", "C.__init__.z", "C.m.p", "g.inner.w"]


def test_every_defaulted_parameter_is_set_in_src():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    unset = _unset_defaults(trees)
    assert [name for name in unset if name not in UNSET_ALLOWED] == []
    assert sorted(set(UNSET_ALLOWED) - set(unset)) == []  # no stale exception


# Defaulted parameters that every call in src/ sets, each kept for a reason.
ALWAYS_SET_ALLOWED = {
    "split_sentences.containing": "the oracle tests split whole texts without it",
    "stream_pages.span": "the benchmark's retained_bytes_per_page and the tests stream whole dumps",
}


def test_always_set_default_scan_finds_parameters_every_call_sets():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class C:\n"
        "    def __init__(self, x, y=0):\n        pass\n"
        "    def m(self, p=1):\n        pass\n"
        "def g(u=1):\n    pass\n"
        "def h(z=1):\n    pass\n"
        "f(0, 5, d=1)\nf(0, 6, **{})\nC(1, y=2)\nC(1, 3).m()\ng(*[])\n"
    )
    assert _always_set_defaults([tree]) == ["f.b", "f.d", "C.__init__.y", "g.u"]


def test_no_defaulted_parameter_is_set_by_every_call_in_src():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    always_set = _always_set_defaults(trees)
    assert [name for name in always_set if name not in ALWAYS_SET_ALLOWED] == []
    assert sorted(set(ALWAYS_SET_ALLOWED) - set(always_set)) == []  # no stale exception
