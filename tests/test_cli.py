import fcntl
import json
import os
import signal
import subprocess
import sys

import pytest
from click.testing import CliRunner

from wikialumni import alumni, cli
from wikialumni.cli import (
    DATASET_NAME,
    ENRICHED_NAME,
    MANIFEST_NAME,
    UNIVERSITY_VIEWS_NAME,
    main,
    run_audit,
    run_extract,
    run_ingest,
    run_report,
    run_views,
)
from wikialumni.config import load_config
from wikialumni.errors import ConfigError, RegistryError

from conftest import child_env, make_dump_xml
from mini_corpus import (
    EXPECTED_DATASET,
    EXPECTED_UNIVERSITY_VIEWS,
    EXPECTED_VIEWS,
    RU_PAGES,
    build_mini_project,
)


def quiet(*args, **kwargs):
    pass


@pytest.fixture
def project(tmp_path):
    return build_mini_project(tmp_path / "proj")


@pytest.fixture
def config(project):
    return load_config(project)


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test whose ingest never gets a worker's
    result: SIGALRM after 60 s raises in the waiting parent."""
    def expire(signum, frame):
        raise TimeoutError("ingest did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def run_all(config):
    assert run_ingest(config, echo=quiet) == 0
    assert run_extract(config, echo=quiet) == 0
    assert run_views(config, echo=quiet) == 0
    assert run_report(config, echo=quiet) == 0
    assert run_audit(config, echo=quiet) == 0


def test_ingest_manifest(config):
    assert run_ingest(config, echo=quiet) == 0
    manifest = json.loads((config.output_dir / MANIFEST_NAME).read_text())
    langs = manifest["languages"]
    assert set(langs) == {"en", "ru"}
    assert langs["en"]["status"] == "ok"
    assert langs["en"]["pages"] == 29
    # persons: Alice, Bob, Carol, Dan, Eve, Grace (Frank has no marker)
    assert langs["en"]["persons"] == 6
    assert langs["ru"]["persons"] == 1
    assert langs["en"]["redirects"] == 2


def test_ingest_rerun_is_noop(config):
    run_ingest(config, echo=quiet)
    before = sorted(p.stat().st_mtime_ns for p in config.output_dir.rglob("*"))
    messages = []
    assert run_ingest(config, echo=lambda *a, **k: messages.append(a[0])) == 0
    after = sorted(p.stat().st_mtime_ns for p in config.output_dir.rglob("*"))
    assert before == after
    assert any("nothing to do" in m for m in messages)


def test_extract_requires_manifest(config):
    with pytest.raises(ConfigError, match="ingest"):
        run_extract(config, echo=quiet)


def test_extract_dataset_rows(config):
    run_ingest(config, echo=quiet)
    assert run_extract(config, echo=quiet) == 0
    records = alumni.read_dataset(config.output_dir / DATASET_NAME)
    got = [
        (r.university_id, r.university_name, r.person_link, r.birth_year, r.lang)
        for r in records
    ]
    assert got == EXPECTED_DATASET


def test_extract_skips_corrupted_person_file(config):
    run_ingest(config, echo=quiet)
    bad = config.output_dir / "persons" / "en" / "page_999_.xml"
    bad.write_text("<page><broken", encoding="utf-8")
    assert run_extract(config, echo=quiet) == 1
    records = alumni.read_dataset(config.output_dir / DATASET_NAME)
    assert len(records) == len(EXPECTED_DATASET)


def test_views_enrichment(config):
    run_ingest(config, echo=quiet)
    run_extract(config, echo=quiet)
    assert run_views(config, echo=quiet) == 0
    records = alumni.read_dataset(config.output_dir / ENRICHED_NAME)
    assert {r.person_link: r.views_total for r in records} == EXPECTED_VIEWS
    ivan = next(r for r in records if r.lang == "ru")
    assert ivan.person_link_en == "Ivan Primer"

    uni_lines = (config.output_dir / UNIVERSITY_VIEWS_NAME).read_text().splitlines()[1:]
    totals = {int(l.split("\t")[0]): int(l.split("\t")[3]) for l in uni_lines}
    assert totals == EXPECTED_UNIVERSITY_VIEWS


def test_report_outputs(config):
    run_all(config)
    reports = config.output_dir / "reports"
    stats = (reports / "stats.tsv").read_text().splitlines()
    assert f"# config_hash: {config.config_hash}" in stats
    assert "# analysis_year: 2017" in stats
    rows = {l.split("\t")[0]: l.split("\t") for l in stats if l and not l.startswith("#")}
    assert rows["full"][1] == "5"
    assert rows["modern"][1] == "4"  # Dan has no year, dropped by year bound
    assert rows["popular"][1] == "3"  # >999 views: Alice 1000, Bob 2000, Carol 3000

    ranking = (reports / "ranking_full.tsv").read_text().splitlines()
    body = [l.split("\t") for l in ranking if l and not l.startswith("#")][1:]
    # Harvard 3150 (1000+2000+150), Cambridge 3000, Northwestern 500
    assert [(r[2], r[3]) for r in body] == [
        ("Harvard University", "3150"),
        ("University of Cambridge", "3000"),
        ("Northwestern University", "500"),
    ]

    matrix = (reports / "correlation_matrix.txt").read_text()
    assert "QS-like" in matrix

    avu = (reports / "alumni_vs_university.txt").read_text()
    # same order both ways on 3 universities -> spearman 1.00
    assert "spearman\t1.00" in avu
    assert "pearson_on_scores" in avu


def test_audit_sample_file(config):
    run_all(config)
    lines = (config.output_dir / "audit_sample.tsv").read_text().splitlines()
    # rate 1.0: every record, with trigger and sentence evidence
    assert len(lines) == 1 + len(EXPECTED_DATASET)
    assert any("graduated" in l and "Alice Sample" in l for l in lines)


def test_full_run_byte_identical(tmp_path):
    outputs = []
    for run in ("one", "two"):
        config = load_config(build_mini_project(tmp_path / run))
        run_all(config)
        blobs = {
            p.relative_to(config.output_dir).as_posix(): p.read_bytes()
            for p in sorted(config.output_dir.rglob("*"))
            if p.is_file()
        }
        outputs.append(blobs)
    assert outputs[0].keys() == outputs[1].keys()
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], key


def test_views_and_report_read_no_redirect_map(project, config):
    run_all(config)
    bad_map = config.output_dir / "redirects" / "en.tsv"
    outputs = {p: p.read_bytes() for p in config.output_dir.rglob("*")
               if p.is_file() and p != bad_map}
    # Cambridge's title as a redirect to Harvard: the alias fold would
    # give one title to two universities.
    bad_map.write_text("University of Cambridge\tHarvard University\n", encoding="utf-8")
    with pytest.raises(RegistryError, match="claimed by both"):
        run_extract(config, echo=quiet)
    for command in ("views", "report"):
        result = CliRunner().invoke(main, [command, "-c", str(project)])
        assert result.exit_code == 0, result.output
    for path, blob in outputs.items():
        assert path.read_bytes() == blob, path


@pytest.mark.parametrize(
    "dump_date, lead",
    [('"20180901"', "2020"), ('"2018-09-01"', "2019"), (None, "2018")],
    ids=["compact_dump_date", "iso_dump_date", "analysis_year"],
)
def test_birth_year_is_bounded_by_the_dump(project, dump_date, lead):
    text = project.read_text(encoding="utf-8")
    old = 'dump_date: "2018-09-01"'
    text = text.replace(old, f"dump_date: {dump_date}") if dump_date else text.replace(old, "")
    project.write_text(text, encoding="utf-8")
    page = dict(title="Zoe Later", page_id=50,
                text=f"Zoe Later ({lead} award winner) was born in 1971. She graduated.")
    (project.parent / "en.xml").write_text(make_dump_xml([page]), encoding="utf-8")
    config = load_config(project)
    assert config.analysis_year == 2017
    assert run_ingest(config, echo=quiet) == 0
    assert [p.name for p in (config.output_dir / "persons" / "en").iterdir()] == [
        "page_50_1971.xml"
    ]


def test_report_resume_touches_no_upstream(config):
    run_all(config)
    reports = config.output_dir / "reports"
    for p in reports.iterdir():
        p.unlink()
    upstream = {
        p: p.stat().st_mtime_ns
        for p in config.output_dir.rglob("*")
        if p.is_file() and reports not in p.parents
    }
    assert run_report(config, echo=quiet) == 0
    for p, mtime in upstream.items():
        assert p.stat().st_mtime_ns == mtime, p


def test_missing_dictionary_is_config_error(project):
    (project.parent / "ru_dict.txt").unlink()
    with pytest.raises(ConfigError, match="ru"):
        load_config(project)


def test_cli_exit_codes(project):
    runner = CliRunner()
    result = runner.invoke(main, ["ingest", "-c", str(project)])
    assert result.exit_code == 0
    result = runner.invoke(main, ["extract", "-c", str(project)])
    assert result.exit_code == 0
    # config error -> exit 2
    result = runner.invoke(main, ["ingest", "-c", str(project.parent / "nope.yaml")])
    assert result.exit_code == 2
    assert "config error" in result.output


def test_output_lock_blocks_concurrent_runs(config):
    (config.output_dir).mkdir(parents=True, exist_ok=True)
    fd = os.open(config.output_dir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        runner = CliRunner()
        result = runner.invoke(main, ["ingest", "-c", str(config.output_dir.parent / "config.yaml")])
    finally:
        os.close(fd)
    assert result.exit_code == 1
    assert "locked" in result.output


HOLD_LOCK = """
import sys, time
from pathlib import Path
from wikialumni.cli import output_lock
with output_lock(Path(sys.argv[1])):
    print("locked", flush=True)
    time.sleep(60)
"""


def test_killed_run_leaves_no_lock(project, config):
    child = subprocess.Popen(
        [sys.executable, "-c", HOLD_LOCK, str(config.output_dir)],
        env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline().strip() == "locked"
        held = CliRunner().invoke(main, ["ingest", "-c", str(project)])
        assert held.exit_code == 1 and "locked" in held.output
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    result = CliRunner().invoke(main, ["ingest", "-c", str(project)])
    assert result.exit_code == 0, result.output
    assert [p for p in config.output_dir.iterdir() if "lock" in p.name] == []


@pytest.mark.parametrize(
    "command, name, content",
    [("audit", "evidence.tsv", "bogus\n"), ("extract", MANIFEST_NAME, "{")],
)
def test_malformed_artifact_is_one_error_line(project, config, command, name, content):
    config.output_dir.mkdir(parents=True)
    (config.output_dir / name).write_text(content, encoding="utf-8")
    result = CliRunner().invoke(main, [command, "-c", str(project)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    assert line.startswith("error: ") and name in line


def test_damaged_cache_database_is_one_error_line(project, config):
    run_ingest(config, echo=quiet)
    run_extract(config, echo=quiet)
    config.cache_dir.mkdir(parents=True, exist_ok=True)
    (config.cache_dir / "pageviews.sqlite").write_text("junk", encoding="utf-8")
    result = CliRunner().invoke(main, ["views", "-c", str(project)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    assert line.startswith("error: ") and "pageviews.sqlite" in line


def test_banded_external_rank_names_file_and_line(project, config):
    run_ingest(config, echo=quiet)
    run_extract(config, echo=quiet)
    run_views(config, echo=quiet)
    ranking = project.parent / "external.tsv"
    lines = ranking.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "Univ. of Cambridge\t2"
    lines[2] = "Univ. of Cambridge\t501-510"
    ranking.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["report", "-c", str(project)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    assert line.startswith("error: ") and "external.tsv:3:" in line


def test_ingest_isolates_per_language_failure(project):
    (project.parent / "ru.xml").write_text("<mediawiki><page><title>X", encoding="utf-8")
    config = load_config(project)
    assert run_ingest(config, echo=quiet) == 1
    manifest = json.loads((config.output_dir / MANIFEST_NAME).read_text())
    assert manifest["languages"]["en"]["status"] == "ok"
    assert manifest["languages"]["ru"]["status"] == "error"


def test_changed_dump_date_reingests(project):
    page = dict(title="Zoe Later", page_id=50,
                text="Zoe Later (2019 award winner) was born in 1971. She graduated.")
    (project.parent / "en.xml").write_text(make_dump_xml([page]), encoding="utf-8")
    config = load_config(project)
    assert run_ingest(config, echo=quiet) == 0
    person_dir = config.output_dir / "persons" / "en"
    assert [p.name for p in person_dir.iterdir()] == ["page_50_1971.xml"]

    text = project.read_text(encoding="utf-8")
    project.write_text(text.replace('"2018-09-01"', '"2020-09-01"'), encoding="utf-8")
    config = load_config(project)
    with pytest.raises(ConfigError, match="no complete ingest manifest"):
        run_extract(config, echo=quiet)
    messages = []
    assert run_ingest(config, echo=lambda *a, **k: messages.append(a[0])) == 0
    assert not any("nothing to do" in m for m in messages)
    assert [p.name for p in person_dir.iterdir()] == ["page_50_2019.xml"]
    manifest = json.loads((config.output_dir / MANIFEST_NAME).read_text())
    assert manifest["languages"]["en"]["dump_date"] == "2020-09-01"


def test_ingest_entry_larger_than_pipe_buffer(project, config):
    cycles = []
    for i in range(5000):
        a, b = f"Cycle {i:04d} a", f"Cycle {i:04d} b"
        cycles += [dict(title=a, page_id=10_000 + 2 * i, redirect=b),
                   dict(title=b, page_id=10_001 + 2 * i, redirect=a)]
    (project.parent / "ru.xml").write_text(make_dump_xml(RU_PAGES + cycles), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "wikialumni.cli", "ingest", "-c", str(project)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    unresolvable = json.loads(
        (config.output_dir / MANIFEST_NAME).read_text()
    )["languages"]["ru"]["unresolvable_redirects"]
    assert len(unresolvable) == 10_000
    assert len(json.dumps(unresolvable)) > 64 * 1024


@pytest.mark.parametrize(
    "lang, death", [("en", "exit"), ("ru", "exit"), ("en", "sigkill"), ("ru", "sigkill")]
)
def test_dead_worker_is_one_error_line(project, config, monkeypatch, deadline, lang, death):
    ingest_language = cli._ingest_language

    def dying(lang_cfg, out, analysis_year):
        if lang_cfg.code == lang:
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return ingest_language(lang_cfg, out, analysis_year)

    monkeypatch.setattr(cli, "_ingest_language", dying)
    result = CliRunner().invoke(main, ["ingest", "-c", str(project)])
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    how = "exited with status 3" if death == "exit" else f"killed by signal {signal.SIGKILL.value}"
    assert line == f"error: ingest worker for {lang} {how} without a result"
    assert not (config.output_dir / MANIFEST_NAME).exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_width_does_not_change_outputs(tmp_path, monkeypatch, deadline):
    runs = []
    for width in ("default", "one"):
        if width == "one":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        config = load_config(build_mini_project(tmp_path / width))
        lines = []
        assert run_ingest(config, echo=lambda msg, err=False: lines.append(msg)) == 0
        out = config.output_dir
        files = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }
        runs.append((files, lines))
    assert runs[0] == runs[1]
    assert runs[0][1] == ["ingest: en: 29 pages, 6 persons", "ingest: ru: 8 pages, 1 persons"]
