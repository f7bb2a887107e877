import bz2
import fcntl
import gzip
import json
import os
import re
import shutil
import signal
import subprocess
import sys

import pytest
from click.testing import CliRunner

from wikialumni import alumni, cli, pageviews, persons
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
from wikialumni.dump import shard_spans
from wikialumni.errors import ConfigError, FetchError, RegistryError, WikiAlumniError

from conftest import child_env, make_dump_xml, page_xml
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


@pytest.mark.parametrize("damage", ["columns", "page_id", "birth_year"])
def test_damaged_candidate_row_is_one_error_line(project, config, damage):
    run_ingest(config, echo=quiet)
    path = config.output_dir / "candidates" / "en.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "\t".join(alumni.CANDIDATE_COLUMNS)
    fields = lines[1].split("\t")
    assert fields[:3] == ["10", "Alice Sample", "1950"]
    if damage == "columns":
        del fields[-1]
    else:
        fields[0 if damage == "page_id" else 2] = "19x0"
    lines[1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["extract", "-c", str(project)])
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    assert line.startswith(f"error: {path}:2: ")
    assert not (config.output_dir / DATASET_NAME).exists()


def test_candidate_rows_follow_dump_order(project):
    """ingest writes each person page's trigger sentences with their
    links, in dump order; when one title is on two pages of a language,
    extract keeps the record of the first page in the dump (here page 20,
    although the name page_10_... sorts before page_20_...)."""
    twins = [
        dict(title="Twin", page_id=20,
             text="Twin was born 1960. He graduated from [[Harvard_University|H.]], [[Nowhere]]."),
        dict(title="Twin", page_id=10,
             text="Twin was born 1950. He studied at\t[[Harvard University]]."),
    ]
    (project.parent / "en.xml").write_text(make_dump_xml(twins), encoding="utf-8")
    config = load_config(project)
    assert run_ingest(config, echo=quiet) == 0
    assert (config.output_dir / "candidates" / "en.tsv").read_text(encoding="utf-8") == (
        "page_id\ttitle\tbirth_year\ttrigger\tsentence\tlink\n"
        "20\tTwin\t1960\tgraduated\tHe graduated from [[Harvard_University|H.]], [[Nowhere]]."
        "\tHarvard University\n"
        "20\tTwin\t1960\tgraduated\tHe graduated from [[Harvard_University|H.]], [[Nowhere]]."
        "\tNowhere\n"
        "10\tTwin\t1950\tstudied at\tHe studied at [[Harvard University]].\tHarvard University\n"
    )
    assert run_extract(config, echo=quiet) == 0
    records = alumni.read_dataset(config.output_dir / DATASET_NAME)
    assert [(r.person_link, r.birth_year, r.lang) for r in records if r.lang == "en"] == [
        ("Twin", 1960, "en")
    ]


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


def test_failed_university_lookup_leaves_an_empty_views_cell(config, monkeypatch):
    assert run_ingest(config, echo=quiet) == 0
    assert run_extract(config, echo=quiet) == 0
    get_views = pageviews.FixtureBackend.get_views

    def failing(self, title, lang, year):
        if title == "Harvard University":
            raise FetchError(f"{title} is down")
        return get_views(self, title, lang, year)

    monkeypatch.setattr(pageviews.FixtureBackend, "get_views", failing)
    messages = []
    assert run_views(config, echo=lambda *a, **k: messages.append(a[0])) == 1
    assert messages == ["views: 5 records enriched, 0 unresolved, 1 university pages unresolved"]
    records = alumni.read_dataset(config.output_dir / ENRICHED_NAME)
    assert {r.person_link: r.views_total for r in records} == EXPECTED_VIEWS
    uni_lines = (config.output_dir / UNIVERSITY_VIEWS_NAME).read_text().splitlines()[1:]
    cells = {int(l.split("\t")[0]): l.split("\t")[3] for l in uni_lines}
    expected = {uid: str(views) for uid, views in EXPECTED_UNIVERSITY_VIEWS.items()}
    assert cells == {**expected, 1: ""}

    assert run_report(config, echo=quiet) == 0
    avu = (config.output_dir / "reports" / "alumni_vs_university.txt").read_text()
    # Harvard is left out, so two universities remain: too few to correlate
    assert "spearman\tn/a" in avu


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


@pytest.mark.parametrize(
    "name, key",
    [
        ("views.tsv", "pageviews.fixture_views"),
        ("langlinks.tsv", "pageviews.fixture_langlinks"),
        ("external.tsv", "file of external ranking 'QS-like'"),
        ("external_map.tsv", "mapping of external ranking 'QS-like'"),
    ],
)
def test_missing_configured_file_fails_at_load(project, config, name, key):
    (project.parent / name).unlink()
    result = CliRunner().invoke(main, ["ingest", "-c", str(project)])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line == f"config error: {key} not found: {project.parent / name}"
    assert not config.output_dir.exists()


@pytest.mark.parametrize("damage", ["redirects/en.tsv", "candidates/ru.tsv"])
def test_damaged_output_dir_is_one_error_line(project, config, damage):
    run_ingest(config, echo=quiet)
    path = config.output_dir / damage
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()
    result = CliRunner().invoke(main, ["extract", "-c", str(project)])
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    assert line.startswith("error: ") and str(path) in line
    assert not (config.output_dir / DATASET_NAME).exists()


@pytest.mark.parametrize("damage", ["redirects/en.tsv", "candidates/ru.tsv", "persons/ru"])
def test_ingest_repairs_damaged_output_dir(project, config, damage):
    run_ingest(config, echo=quiet)
    path = config.output_dir / damage
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()
    result = CliRunner().invoke(main, ["ingest", "-c", str(project)])
    assert result.exit_code == 0, result.output
    assert "nothing to do" not in result.output
    assert path.exists()
    result = CliRunner().invoke(main, ["extract", "-c", str(project)])
    assert result.exit_code == 0, result.output
    records = alumni.read_dataset(config.output_dir / DATASET_NAME)
    got = [
        (r.university_id, r.university_name, r.person_link, r.birth_year, r.lang)
        for r in records
    ]
    assert got == EXPECTED_DATASET


@pytest.mark.parametrize(
    "command, name, stages",
    [
        ("ingest", "en_dict.txt", ()),
        ("extract", "universities.tsv", (run_ingest,)),
        ("extract", f"out/{MANIFEST_NAME}", (run_ingest,)),
        ("views", "views.tsv", (run_ingest, run_extract)),
    ],
)
def test_invalid_utf8_names_the_file(project, config, command, name, stages):
    for stage in stages:
        assert stage(config, echo=quiet) == 0
    with open(project.parent / name, "ab") as fh:
        fh.write(b"\xff\n")
    result = subprocess.run(
        [sys.executable, "-m", "wikialumni.cli", command, "-c", str(project)],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert str(project.parent / name) in result.stderr
    assert "can't decode byte 0xff" in result.stderr


def test_ingest_isolates_per_language_failure(project):
    (project.parent / "ru.xml").write_text("<mediawiki><page><title>X", encoding="utf-8")
    config = load_config(project)
    assert run_ingest(config, echo=quiet) == 1
    manifest = json.loads((config.output_dir / MANIFEST_NAME).read_text())
    assert manifest["languages"]["en"]["status"] == "ok"
    assert manifest["languages"]["ru"]["status"] == "error"


@pytest.mark.parametrize(
    "field, value", [("id", "x1"), ("id", ""), ("ns", "main")], ids=["id-word", "id-empty", "ns-word"]
)
def test_bad_page_number_fails_only_its_language(project, capfd, field, value):
    dump = project.parent / "ru.xml"
    text, n = re.subn(
        rf"<{field}>\d+</{field}>", f"<{field}>{value}</{field}>", dump.read_text(encoding="utf-8"),
        count=1,
    )
    assert n == 1
    dump.write_text(text, encoding="utf-8")
    config = load_config(project)
    assert run_ingest(config, echo=quiet) == 1
    manifest = json.loads((config.output_dir / MANIFEST_NAME).read_text())
    assert manifest["languages"]["en"]["status"] == "ok"
    assert manifest["languages"]["ru"]["status"] == "error"
    assert f"<{field}> is not an integer: {value!r}" in manifest["languages"]["ru"]["error"]
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("<title>Alice Sample</title>", "<title>Alice&#9;Sample</title>",
         "page <title> holds a tab or line break: 'Alice\\tSample'"),
        ("<title>Bob Example</title>", "<title>Bob&#10;Example</title>",
         "page <title> holds a tab or line break: 'Bob\\nExample'"),
        ('redirect title="Harvard University"', 'redirect title="Harvard&#13;University"',
         "page <redirect title> holds a tab or line break: 'Harvard\\rUniversity'"
         " on page 'Harvard'"),
    ],
    ids=["title-tab", "title-newline", "redirect-return"],
)
def test_title_with_a_tab_or_line_break_fails_only_its_language(project, old, new, message):
    dump = project.parent / "en.xml"
    text = dump.read_text(encoding="utf-8")
    assert text.count(old) == 1
    dump.write_text(text.replace(old, new), encoding="utf-8")
    result = CliRunner().invoke(main, ["ingest", "-c", str(project)])
    assert result.exit_code == 1
    assert message in result.output
    manifest = json.loads((load_config(project).output_dir / MANIFEST_NAME).read_text())
    assert manifest["languages"]["ru"]["status"] == "ok"
    assert manifest["languages"]["en"]["status"] == "error"
    assert message in manifest["languages"]["en"]["error"]
    result = CliRunner().invoke(main, ["extract", "-c", str(project)])
    assert result.exit_code == 2
    assert "no complete ingest manifest" in result.output


def damaged(data: bytes, compress: str, damage: str) -> bytes:
    """data compressed, then cut at two thirds or corrupted: a gzip
    trailer zeroed, or eight bz2 bytes mid-stream inverted."""
    packed = gzip.compress(data) if compress == "gzip" else bz2.compress(data)
    if damage == "truncated":
        return packed[: len(packed) * 2 // 3]
    if compress == "gzip":
        return packed[:-8] + bytes(8)
    mid = len(packed) // 2
    return packed[:mid] + bytes(b ^ 0xFF for b in packed[mid:mid + 8]) + packed[mid + 8:]


@pytest.mark.parametrize("damage", ["truncated", "corrupt"])
@pytest.mark.parametrize("compress", ["gzip", "bz2"])
def test_damaged_compressed_dump_fails_only_its_language(project, capfd, compress, damage):
    dump = project.parent / "ru.xml"
    dump.write_bytes(damaged(dump.read_bytes(), compress, damage))
    config = load_config(project)
    assert run_ingest(config, echo=quiet) == 1
    manifest = json.loads((config.output_dir / MANIFEST_NAME).read_text())
    assert manifest["languages"]["en"]["status"] == "ok"
    assert manifest["languages"]["ru"]["status"] == "error"
    assert manifest["languages"]["ru"]["error"].startswith(f"{dump}: ")
    assert "Traceback" not in capfd.readouterr().err


def test_changed_analysis_year_reingests_without_a_dump_date(project):
    # with no dump date, analysis_year bounds the birth years that ingest reads
    text = project.read_text(encoding="utf-8").replace('    dump_date: "2018-09-01"\n', "")
    project.write_text(text, encoding="utf-8")
    config = load_config(project)
    assert run_ingest(config, echo=quiet) == 0
    candidates = config.output_dir / "candidates" / "en.tsv"
    before = candidates.read_text(encoding="utf-8")
    assert "\tBob Example\t1971\t" in before

    project.write_text(text.replace("analysis_year: 2017", "analysis_year: 1950"), encoding="utf-8")
    config = load_config(project)
    messages = []
    assert run_ingest(config, echo=lambda *a, **k: messages.append(a[0])) == 0
    assert not any("nothing to do" in m for m in messages)
    after = candidates.read_text(encoding="utf-8")
    assert "\tBob Example\t\t" in after and "\tBob Example\t1971\t" not in after
    manifest = json.loads((config.output_dir / MANIFEST_NAME).read_text())
    assert manifest["languages"]["en"]["birth_year_bound"] == 1950


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


@pytest.mark.parametrize("edit", ["pages-cut", "same-size"])
def test_changed_dump_reingests(config, edit):
    assert run_ingest(config, echo=quiet) == 0
    en = next(lang for lang in config.languages if lang.code == "en")
    text = en.dump.read_text(encoding="utf-8")
    if edit == "pages-cut":
        text = re.sub(r"<page>.*?</page>\s*", "", text, flags=re.DOTALL)
    else:
        assert text.count("[[Harvard University]]") == 4
        text = text.replace("[[Harvard University]]", "[[Harvard Universitx]]")
    en.dump.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="no complete ingest manifest"):
        run_extract(config, echo=quiet)
    messages = []
    assert run_ingest(config, echo=lambda *a, **k: messages.append(a[0])) == 0
    assert not any("nothing to do" in m for m in messages)
    assert run_extract(config, echo=quiet) == 0
    records = alumni.read_dataset(config.output_dir / DATASET_NAME)
    harvard_en = {r.person_link for r in records if r.university_id == 1 and r.lang == "en"}
    if edit == "pages-cut":
        assert messages[0] == "ingest: en: 0 pages, 0 persons"
        assert list((config.output_dir / "persons" / "en").iterdir()) == []
        assert {r.lang for r in records} == {"ru"}
    else:
        assert harvard_en == {"Bob Example"}  # his link is the redirect [[Harvard]]


def test_changed_dictionary_reingests(config):
    assert run_ingest(config, echo=quiet) == 0
    person_dir = config.output_dir / "persons" / "en"
    assert len(list(person_dir.iterdir())) == 6
    en = next(lang for lang in config.languages if lang.code == "en")
    text = en.dictionary.read_text(encoding="utf-8")
    markers, triggers = text.split("[trigger_words]")
    assert "[person_markers]" in markers
    en.dictionary.write_text(
        "[person_markers]\nno page says this\n[trigger_words]" + triggers, encoding="utf-8"
    )
    with pytest.raises(ConfigError, match="no complete ingest manifest"):
        run_extract(config, echo=quiet)
    messages = []
    assert run_ingest(config, echo=lambda *a, **k: messages.append(a[0])) == 0
    assert not any("nothing to do" in m for m in messages)
    assert list(person_dir.iterdir()) == []
    manifest = json.loads((config.output_dir / MANIFEST_NAME).read_text())
    assert manifest["languages"]["en"]["persons"] == 0
    assert run_extract(config, echo=quiet) == 0


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
    ingest_shard = cli._ingest_shard

    def dying(lang_cfg, span, out, analysis_year):
        if lang_cfg.code == lang:
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return ingest_shard(lang_cfg, span, out, analysis_year)

    monkeypatch.setattr(cli, "_ingest_shard", dying)
    result = CliRunner().invoke(main, ["ingest", "-c", str(project)])
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    how = "exited with status 3" if death == "exit" else f"killed by signal {signal.SIGKILL.value}"
    assert line == f"error: ingest worker for {lang} {how} without a result"
    assert not (config.output_dir / MANIFEST_NAME).exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_killed_ingest_leaves_nothing_behind(project, config, monkeypatch, deadline):
    """A worker killed while it writes its spill file leaves a '.tmp'
    behind; the next ingest removes it and writes what a clean run
    writes."""
    clean = load_config(build_mini_project(project.parent.parent / "clean"))
    assert run_ingest(clean, echo=quiet) == 0
    persist = persons.persist_person

    def killed_at_second_person(page, year, out_dir):
        if page.page_id == 11:
            os.kill(os.getpid(), signal.SIGKILL)
        return persist(page, year, out_dir)

    monkeypatch.setattr(persons, "persist_person", killed_at_second_person)
    with pytest.raises(WikiAlumniError, match="killed by signal"):
        run_ingest(config, echo=quiet)
    assert "en.0.spill.tmp" in {p.name for p in (config.output_dir / "candidates").iterdir()}
    monkeypatch.undo()
    assert run_ingest(config, echo=quiet) == 0
    candidates = config.output_dir / "candidates"
    assert sorted(p.name for p in candidates.iterdir()) == ["en.tsv", "ru.tsv"]
    for name in ("en.tsv", "ru.tsv"):
        assert (candidates / name).read_bytes() == (
            clean.output_dir / "candidates" / name
        ).read_bytes()


def test_failed_workers_print_whole_tracebacks(project, monkeypatch, deadline, capfd):
    def failing(lang_cfg, span, out, analysis_year):
        raise RuntimeError(f"boom-{lang_cfg.code}")

    monkeypatch.setattr(cli, "_ingest_shard", failing)
    result = CliRunner().invoke(main, ["ingest", "-c", str(project)])
    assert result.exit_code == 1
    # the en worker is awaited first; ru may be killed before it reports
    err = capfd.readouterr().err.splitlines()
    assert "RuntimeError: boom-en" in err
    assert err.count("Traceback (most recent call last):") == sum(
        line.startswith("RuntimeError: boom-") for line in err
    )


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


def filler(page_id):
    return dict(title=f"Filler {page_id}", page_id=page_id, text="A plain article. " * 20)


BROKEN_PAGE = "<page><title>Broken</title><ns>0</ns><id>8</id></oops></page>"


def sharding_dump(broken):
    """A one-language dump whose cuts at 2, 3 and 4 CPUs separate the
    hops of one redirect chain and the two pages of one doubly
    redirected title; the cut at 3 CPUs lands on a <page> inside a
    comment.  broken puts a malformed page at the "end" of the dump or
    in the "middle", before a person page, or nowhere (None)."""
    first = [
        dict(title="Hop A", page_id=1, redirect="Hop B"),
        dict(title="Twice", page_id=2, redirect="Alpha Target"),
        dict(title="Zed Early", page_id=3,
             text="Zed Early was born in 1950. He graduated from [[Harvard University]]."),
    ]
    middle = [dict(title="Hop B", page_id=4, redirect="Hop C")]
    last = [
        dict(title="Yan Undated", page_id=5,
             text="Yan Undated was born long ago. He graduated from [[Harvard University]]."),
        dict(title="Hop C", page_id=6, redirect="Harvard University"),
        dict(title="Twice", page_id=7, redirect="Beta Target"),
    ]
    unit = len(page_xml(**filler(1000)))
    body = (
        "".join(page_xml(**p) for p in first)
        + "".join(page_xml(**filler(100 + i)) for i in range(27))
        + f"<!-- {'x' * 8 * unit} <page> -->"
        + "".join(page_xml(**filler(200 + i)) for i in range(18))
        + (BROKEN_PAGE if broken == "middle" else "")
        + "".join(page_xml(**p) for p in middle)
        + "".join(page_xml(**filler(300 + i)) for i in range(40))
        + "".join(page_xml(**p) for p in last)
        + (BROKEN_PAGE if broken == "end" else "")
    )
    return make_dump_xml([]).replace("</siteinfo>", "</siteinfo>" + body)


@pytest.mark.parametrize("broken", [None, "end", "middle"], ids=["ok", "end", "middle"])
def test_shard_count_does_not_change_outputs(tmp_path, monkeypatch, deadline, broken):
    project = build_mini_project(tmp_path / "proj")
    text = project.read_text(encoding="utf-8")
    ru = '  - code: ru\n    dump: ru.xml\n    dictionary: ru_dict.txt\n    dump_date: "2018-09-01"\n'
    project.write_text(text.replace(ru, ""), encoding="utf-8")
    dump = project.parent / "en.xml"
    dump.write_text(sharding_dump(broken), encoding="utf-8")
    raw = dump.read_bytes()
    config = load_config(project)
    runs = []
    for width in (1, 2, 3, 4):
        spans = shard_spans(str(dump), width)
        cuts = [start for start, _end in spans[1:]]
        assert len(spans) == width
        if width > 1:
            hops = [raw.index(f"<title>Hop {h}</title>".encode()) for h in "AC"]
            twice = [m.start() for m in re.finditer(b"<title>Twice</title>", raw)]
            assert any(hops[0] < cut < hops[1] for cut in cuts)
            assert any(twice[0] < cut < twice[1] for cut in cuts)
            in_comment = [raw.rfind(b"<!--", 0, cut) > raw.rfind(b"-->", 0, cut) for cut in cuts]
            assert any(in_comment) == (width == 3)
            if broken:
                assert raw.index(b"<title>Broken</title>") > cuts[0]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, width=width: set(range(width)))
        shutil.rmtree(config.output_dir, ignore_errors=True)
        lines = []
        code = run_ingest(config, echo=lambda msg, err=False: lines.append((err, msg)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        out = config.output_dir
        files = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }
        runs.append((files, lines, code))
    assert all(run == runs[0] for run in runs[1:])

    files, lines, code = runs[0]
    persons = sorted(name for name in files if name.startswith("persons/"))
    if broken:
        assert code == 1
        ((err, line),) = lines
        assert err and line.startswith("ingest: en: FAILED: ") and "malformed XML" in line
        assert "redirects/en.tsv" not in files
        # the unsplit run stops at the broken page; later shards' persons are gone
        assert persons == ["persons/en/page_3_1950.xml"] + (
            ["persons/en/page_5_.xml"] if broken == "end" else []
        )
    else:
        assert code == 0
        assert lines == [(False, "ingest: en: 92 pages, 2 persons")]
        assert persons == ["persons/en/page_3_1950.xml", "persons/en/page_5_.xml"]
        assert files["redirects/en.tsv"].decode().splitlines() == [
            "Hop A\tHarvard University",
            "Hop B\tHarvard University",
            "Hop C\tHarvard University",
            "Twice\tBeta Target",
        ]


@pytest.mark.parametrize("command", ["extract", "ingest"])
@pytest.mark.parametrize(
    "content", ["[]", '{"languages": {"en": 1}}', '{"languages": 5}'],
    ids=["list", "entry-not-an-object", "languages-not-an-object"],
)
def test_manifest_of_the_wrong_shape_is_one_error_line(project, config, content, command):
    assert run_ingest(config, echo=quiet) == 0
    (config.output_dir / MANIFEST_NAME).write_text(content, encoding="utf-8")
    result = CliRunner().invoke(main, [command, "-c", str(project)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    assert line == (
        f"error: {config.output_dir / MANIFEST_NAME}: "
        'not an object whose "languages" is an object of objects'
    )
