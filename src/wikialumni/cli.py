"""Pipeline orchestration: ingest, extract, views, report, audit.

Each subcommand reads the same YAML config and leaves resumable file
artifacts in the output directory.  Exit codes: 0 success, 1 partial
(some records flagged or skipped), 2 configuration error.
"""

from __future__ import annotations

import fcntl
import json
import os
import signal
import sys
from contextlib import closing, contextmanager
from pathlib import Path
from typing import BinaryIO

import click

from . import alumni, analytics, pageviews, persons
from .config import (
    MODE_FIXTURE, LanguageConfig, NamedFilter, PipelineConfig, dump_year, load_config
)
from .dump import DumpSource, collect_redirects, stream_pages
from .errors import ConfigError, WikiAlumniError
from .registry import load_dictionary, load_registry
from .tsv import read_tsv, write_text_atomic, write_tsv

MANIFEST_NAME = "ingest_manifest.json"
DATASET_NAME = "dataset.tsv"
ENRICHED_NAME = "dataset_enriched.tsv"
EVIDENCE_NAME = "evidence.tsv"
UNIVERSITY_VIEWS_NAME = "university_views.tsv"

EVIDENCE_COLUMNS = [
    "university_id", "university_name", "person_link", "lang", "trigger", "sentence"
]
UNIVERSITY_VIEWS_COLUMNS = ["university_id", "university_name", "year", "views"]
STATS_COLUMNS = [
    "filter", "n_alumni", "n_universities", "mean_views", "median_views", "stddev_views"
]
RANKING_COLUMNS = ["rank", "university_id", "university_name", "score"]


@contextmanager
def output_lock(out_dir: Path):
    """One subcommand at a time per output directory: an flock on the
    directory itself, which the kernel releases when the holder dies."""
    out_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(out_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise WikiAlumniError(f"output dir is locked by another run ({out_dir})") from None
        yield
    finally:
        os.close(fd)


def _provenance_lines(config: PipelineConfig) -> list[str]:
    lines = [
        f"# config_hash: {config.config_hash}",
        f"# analysis_year: {config.analysis_year}",
    ]
    for lang in config.languages:
        lines.append(f"# dump: {lang.code} {lang.dump_date}")
    return lines


def _load_manifest(config: PipelineConfig) -> dict | None:
    path = config.output_dir / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _manifest_complete(manifest: dict | None, config: PipelineConfig) -> bool:
    if manifest is None:
        return False
    langs = manifest.get("languages", {})
    return all(
        lang.code in langs
        and langs[lang.code].get("status") == "ok"
        and langs[lang.code].get("dump_date") == lang.dump_date
        for lang in config.languages
    )


def run_ingest(config: PipelineConfig, echo=click.echo) -> int:
    """Stream every configured dump; persist person files and redirect
    maps; write the resume manifest.

    Each language is ingested in its own forked worker process, at most
    one per CPU in the affinity mask; memory stays bounded by the
    largest page in each worker.  Only this process echoes, in config
    order, and writes the manifest.
    """
    out = config.output_dir
    manifest = _load_manifest(config)
    if _manifest_complete(manifest, config):
        echo("ingest: manifest complete, nothing to do")
        return 0

    (out / "redirects").mkdir(parents=True, exist_ok=True)
    languages: dict[str, dict] = {}
    for lang_cfg, entry in zip(config.languages, _ingest_in_workers(config)):
        languages[lang_cfg.code] = entry
        if entry["status"] == "ok":
            echo(f"ingest: {lang_cfg.code}: {entry['pages']} pages, {entry['persons']} persons")
        else:
            echo(f"ingest: {lang_cfg.code}: FAILED: {entry['error']}", err=True)
    manifest = {"languages": languages}
    write_text_atomic(
        out / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return 0 if all(e["status"] == "ok" for e in languages.values()) else 1


def _ingest_language(lang_cfg: LanguageConfig, out: Path, analysis_year: int) -> dict:
    """Ingest one language's dump into persons/<lang>/ and
    redirects/<lang>.tsv; return its manifest entry."""
    person_dir = out / "persons" / lang_cfg.code
    person_dir.mkdir(parents=True, exist_ok=True)
    for stale in person_dir.glob("page_*.xml"):  # left by an earlier config
        stale.unlink()
    # birth years are bounded by the dump, not by the wall clock
    year_bound = dump_year(lang_cfg) or analysis_year
    try:
        dictionary = load_dictionary(lang_cfg.dictionary, lang_cfg.code)
        source = DumpSource(path=str(lang_cfg.dump), lang=lang_cfg.code)
        n_pages = n_persons = 0
        redirects = []
        for page in stream_pages(source):
            n_pages += 1
            if page.is_redirect:
                redirects.append((page.title, page.redirect_target))
                continue
            if page.namespace != 0:
                continue
            marker = persons.detect_person(page, dictionary)
            if marker is None:
                continue
            year = persons.extract_birth_year(page, year_bound)
            persons.persist_person(persons.PersonPage(page, year), person_dir)
            n_persons += 1
        resolved, unresolvable = collect_redirects(redirects)
        write_tsv(out / "redirects" / f"{lang_cfg.code}.tsv", [], sorted(resolved.items()))
        return {
            "status": "ok",
            "pages": n_pages,
            "persons": n_persons,
            "redirects": len(resolved),
            "unresolvable_redirects": sorted(unresolvable),
            "dump_date": lang_cfg.dump_date,
        }
    except WikiAlumniError as exc:
        return {"status": "error", "error": str(exc)}


def _ingest_in_workers(config: PipelineConfig) -> list[dict]:
    """Every language's manifest entry, in config order, each computed
    by ``_ingest_language`` in a forked child (the pipeline starts no
    threads, so forking is safe).

    At most one child per CPU in the affinity mask runs at once.  A child
    still running when this returns or raises is killed and reaped, so
    none outlives the call.
    """
    langs = config.languages
    width = len(os.sched_getaffinity(0))
    workers: list[tuple[int, BinaryIO]] = []  # (pid, read end), oldest first
    entries: list[dict] = []
    try:
        while len(entries) < len(langs):
            while len(workers) < width and len(entries) + len(workers) < len(langs):
                workers.append(_fork_worker(langs[len(entries) + len(workers)], config))
            pid, pipe = workers[0]
            # Read to EOF before waiting: a child blocks on a full pipe
            # until its entry is read, so waiting first could deadlock.
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            pipe.close()
            if status != 0 or not data:
                how = f"killed by signal {-status}" if status < 0 else f"exited with status {status}"
                code = langs[len(entries)].code
                raise WikiAlumniError(f"ingest worker for {code} {how} without a result")
            entries.append(json.loads(data))
    finally:
        for pid, pipe in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    return entries


def _fork_worker(lang_cfg: LanguageConfig, config: PipelineConfig) -> tuple[int, BinaryIO]:
    """Start one child that ingests ``lang_cfg`` and writes its manifest
    entry as JSON into a pipe; return (pid, read end of the pipe)."""
    rfd, wfd = os.pipe()
    sys.stderr.flush()  # a child that prints a traceback must not repeat buffered output
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            entry = _ingest_language(lang_cfg, config.output_dir, config.analysis_year)
            with open(wfd, "wb") as pipe:
                pipe.write(json.dumps(entry).encode())
            status = 0
        except BrokenPipeError:
            pass  # the parent is gone; nobody is left to read the entry
        except Exception:
            sys.excepthook(*sys.exc_info())
            sys.stderr.flush()
        finally:
            os._exit(status)  # never return into the caller's stack
    os.close(wfd)
    return pid, open(rfd, "rb")


def _load_redirect_maps(config: PipelineConfig) -> dict[str, dict[str, str]]:
    maps: dict[str, dict[str, str]] = {}
    for lang_cfg in config.languages:
        path = config.output_dir / "redirects" / f"{lang_cfg.code}.tsv"
        maps[lang_cfg.code] = dict(read_tsv(path, n_cols=2)[1]) if path.exists() else {}
    return maps


def run_extract(config: PipelineConfig, echo=click.echo) -> int:
    """Match alumni sentences in every persisted person file and write
    the dataset plus the audit evidence file."""
    out = config.output_dir
    if not _manifest_complete(_load_manifest(config), config):
        raise ConfigError(
            "no complete ingest manifest found; run 'wikialumni ingest' first"
        )
    registry = load_registry(config.universities_file, _load_redirect_maps(config))
    records: list[alumni.AlumniRecord] = []
    n_corrupt = 0
    for lang_cfg in config.languages:
        dictionary = load_dictionary(lang_cfg.dictionary, lang_cfg.code)
        person_dir = out / "persons" / lang_cfg.code
        for path in sorted(person_dir.glob("page_*.xml")):
            try:
                person = persons.load_person_file(path, lang_cfg.code)
            except Exception as exc:
                echo(f"extract: skipping corrupted {path.name}: {exc}", err=True)
                n_corrupt += 1
                continue
            records.extend(alumni.match_alumni(person, registry, dictionary))
    records = alumni.merge_records(records)
    alumni.write_dataset(records, out / DATASET_NAME)
    _write_evidence(records, out / EVIDENCE_NAME)
    echo(
        f"extract: {len(records)} records"
        + (f", {n_corrupt} corrupted person files skipped" if n_corrupt else "")
    )
    return 1 if n_corrupt else 0


def _write_evidence(records, path: Path) -> None:
    rows = [
        (str(rec.university_id), rec.university_name, rec.person_link, rec.lang, rec.trigger,
         " ".join(rec.sentence.split()))
        for rec in alumni.sorted_records(records)
    ]
    write_tsv(path, EVIDENCE_COLUMNS, rows)


def _evidence_record(fields: list[str]) -> alumni.AlumniRecord:
    uid, name, person, lang, trigger, sentence = fields
    return alumni.AlumniRecord(
        university_id=int(uid),
        university_name=name,
        person_link=person,
        birth_year=None,
        lang=lang,
        trigger=trigger,
        sentence=sentence,
    )


def build_view_client(config: PipelineConfig) -> pageviews.ViewClient:
    if config.pageview_mode == MODE_FIXTURE:
        backend = pageviews.FixtureBackend(config.fixture_views, config.fixture_langlinks)
    else:
        backend = pageviews.LiveBackend(
            rate_limiter=pageviews.RateLimiter(config.rate_limit),
            agent=config.agent,
        )
    return pageviews.ViewClient(backend, pageviews.ViewCache(config.cache_dir))


def run_views(config: PipelineConfig, echo=click.echo) -> int:
    """Resolve English counterparts, sum person views, and total each
    university's own page views."""
    out = config.output_dir
    dataset_path = out / DATASET_NAME
    if not dataset_path.exists():
        raise ConfigError("no dataset file found; run 'wikialumni extract' first")
    client = build_view_client(config)
    with closing(client.cache):
        records = alumni.read_dataset(dataset_path)
        enriched = pageviews.enrich_records(records, config.analysis_year, client)
        alumni.write_dataset(enriched, out / ENRICHED_NAME, enriched=True)

        registry = load_registry(config.universities_file)  # canonical titles only
        totals = pageviews.university_views(registry, config.analysis_year, client)
        rows = [
            (str(uid), registry.name_of(uid), str(config.analysis_year), str(totals[uid]))
            for uid in sorted(totals)
        ]
        write_tsv(out / UNIVERSITY_VIEWS_NAME, UNIVERSITY_VIEWS_COLUMNS, rows)

        n_unresolved = sum(1 for rec in enriched if rec.unresolved)
        echo(f"views: {len(enriched)} records enriched, {n_unresolved} unresolved")
    return 1 if n_unresolved else 0


def run_report(config: PipelineConfig, echo=click.echo) -> int:
    """Stats per filter, rankings, correlation matrices, and the
    alumni-views vs university-page-views comparison."""
    out = config.output_dir
    enriched_path = out / ENRICHED_NAME
    if not enriched_path.exists():
        raise ConfigError("no enriched dataset found; run 'wikialumni views' first")

    reports = out / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    provenance = _provenance_lines(config)
    records = alumni.read_dataset(enriched_path)
    registry = load_registry(config.universities_file)  # names and ids only

    named_filters = list(config.filters) or [NamedFilter("full", analytics.FilterSpec())]

    stats_rows = []
    rankings = []
    for nf in named_filters:
        surviving = analytics.apply_filter(records, nf.spec)
        stats = analytics.describe([r for r in surviving if r.views_total is not None])
        stats_rows.append(
            (nf.name, str(stats.n_alumni), str(stats.n_universities),
             _fmt(stats.mean_views), _fmt(stats.median_views), _fmt(stats.stddev_views))
        )
        ranking = analytics.rank_universities(records, nf.spec, name=nf.name)
        rankings.append(ranking)
        _write_ranking(ranking, registry, reports / f"ranking_{nf.name}.tsv", provenance)
    write_tsv(reports / "stats.tsv", STATS_COLUMNS, stats_rows, comments=provenance)

    for ext in config.external_rankings:
        ranking, unmapped = analytics.load_external_ranking(
            ext.file, ext.name, registry, ext.mapping
        )
        rankings.append(ranking)
        for name in unmapped:
            echo(f"report: external ranking {ext.name}: unmapped name {name!r}", err=True)

    if len(rankings) >= 2:
        matrix = analytics.correlation_matrix(rankings, config.correlation_method)
        labels = [r.name for r in rankings]
        header = "\n".join(provenance + [f"# method: {config.correlation_method}"])
        write_text_atomic(
            reports / "correlation_matrix.txt",
            header + "\n" + analytics.render_matrix(matrix, labels),
        )

    uni_views_path = out / UNIVERSITY_VIEWS_NAME
    if uni_views_path.exists():
        _write_alumni_vs_university(
            records, uni_views_path, registry, reports, provenance
        )
    echo(f"report: wrote {reports}")
    return 0


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.2f}"


def _write_ranking(ranking, registry, path: Path, provenance: list[str]) -> None:
    rows = [
        (str(pos), str(uid), registry.name_of(uid), f"{score:.0f}")
        for pos, (uid, score) in enumerate(ranking.entries, 1)
    ]
    write_tsv(path, RANKING_COLUMNS, rows, comments=provenance)


def _write_alumni_vs_university(records, uni_views_path, registry, reports, provenance):
    totals = dict(read_tsv(
        uni_views_path, headers=[UNIVERSITY_VIEWS_COLUMNS], parse=lambda f: (int(f[0]), int(f[3]))
    )[1])
    names = {uid: registry.name_of(uid) for uid in totals}
    uni_ranking = analytics.ranking_from_scores(
        {u: float(v) for u, v in totals.items()},
        names,
        name="university_pages",
    )
    alumni_ranking = analytics.rank_universities(records, name="alumni_views")
    lines = list(provenance)
    for method in (analytics.METHOD_SPEARMAN, analytics.METHOD_PEARSON):
        try:
            result = analytics.correlate(alumni_ranking, uni_ranking, method)
            lines.append(
                f"{method}\t{result.coefficient:.2f}\tn_common={result.n_common}"
            )
        except analytics.CorrelationError as exc:
            lines.append(f"{method}\tn/a\t{exc}")
    write_text_atomic(reports / "alumni_vs_university.txt", "\n".join(lines) + "\n")


def run_audit(config: PipelineConfig, echo=click.echo) -> int:
    """Seeded uniform sample of records with their evidence sentences."""
    out = config.output_dir
    evidence_path = out / EVIDENCE_NAME
    if not evidence_path.exists():
        raise ConfigError("no evidence file found; run 'wikialumni extract' first")
    records = read_tsv(evidence_path, headers=[EVIDENCE_COLUMNS], parse=_evidence_record)[1]
    sample = analytics.audit_sample(records, config.audit_rate, config.audit_seed)
    path = analytics.write_audit_file(sample, out / "audit_sample.tsv")
    echo(f"audit: sampled {len(sample)}/{len(records)} records into {path}")
    return 0


def _run(step, config_path: str) -> None:
    try:
        config = load_config(config_path)
        with output_lock(config.output_dir):
            code = step(config)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except (WikiAlumniError, ValueError) as exc:  # ValueError: a malformed artifact
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(code)


@click.group()
def main():
    """Extract university-alumni relations from Wikipedia dumps and rank
    universities by alumni pageviews."""


def _subcommand(name, step, help_text):
    @main.command(name=name, help=help_text)
    @click.option(
        "--config", "-c", "config_path", required=True, type=click.Path(), help="YAML config file"
    )
    def cmd(config_path):
        _run(step, config_path)

    return cmd


_subcommand("ingest", run_ingest, "Stream dumps into person files and redirect maps.")
_subcommand("extract", run_extract, "Match alumni sentences and write the dataset.")
_subcommand("views", run_views, "Attach pageview totals to records and universities.")
_subcommand("report", run_report, "Emit stats, rankings, and correlation matrices.")
_subcommand("audit", run_audit, "Export a seeded sample for manual review.")


if __name__ == "__main__":
    main()
