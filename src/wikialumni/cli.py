"""Pipeline orchestration: ingest, extract, views, report, audit.

Each subcommand reads the same YAML config and leaves resumable file
artifacts in the output directory.  Ingest streams the dumps once: it
writes the person files, the redirect maps and, from the text half of
matching, ``candidates/<lang>.tsv``, one row per (trigger sentence,
link) of a person page.  Extract reads only those candidate rows and
the redirect maps, and resolves each link through the registry.  The
manifest keeps each language's input fingerprints, so a changed dump,
dictionary, dump date or birth-year bound makes ingest run again and
extract refuse.
Exit codes: 0 success, 1 partial (some records flagged or skipped) or a
damaged artifact, 2 configuration error.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
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
from .dump import WHOLE, DumpSource, Span, collect_redirects, shard_spans, stream_pages
from .errors import ConfigError, WikiAlumniError
from .registry import load_dictionary, load_registry
from .tsv import atomic_writer, read_tsv, tsv_line, write_text_atomic, write_tsv

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
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {exc}") from exc
    langs = manifest.get("languages") if isinstance(manifest, dict) else None
    if not isinstance(langs, dict) or not all(isinstance(e, dict) for e in langs.values()):
        raise ValueError(f'{path}: not an object whose "languages" is an object of objects')
    return manifest


def _sha256(path: Path) -> str:
    """SHA-256 of the bytes of a file."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 18)
    view = memoryview(buffer)
    with path.open("rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def _year_bound(lang: LanguageConfig, analysis_year: int) -> int:
    """The latest birth year that ingest reads in lang: the year of its
    dump, or analysis_year when it has no dump date."""
    return dump_year(lang) or analysis_year


def _fingerprint(lang: LanguageConfig, analysis_year: int) -> dict[str, str | int]:
    """The inputs that decide a language's ingest: the dump date, the
    birth-year bound, and the bytes of the dictionary and of the dump."""
    return {
        "dump_date": lang.dump_date,
        "birth_year_bound": _year_bound(lang, analysis_year),
        "dictionary_sha256": _sha256(lang.dictionary),
        "dump_sha256": _sha256(lang.dump),
    }


def _manifest_complete(manifest: dict | None, fingerprints: dict[str, dict]) -> bool:
    """Every language was ingested from inputs with these fingerprints
    (``_fingerprint``), taken of the files as they are now."""
    if manifest is None:
        return False
    langs = manifest["languages"]
    return all(
        code in langs
        and langs[code].get("status") == "ok"
        and all(langs[code].get(key) == value for key, value in fingerprint.items())
        for code, fingerprint in fingerprints.items()
    )


def _candidates_path(out: Path, code: str) -> Path:
    return out / "candidates" / f"{code}.tsv"


def _spill_path(out: Path, code: str, span: Span) -> Path:
    """Where the worker for one span of a language writes its candidate
    rows; the span's start names it, so the spans of a language never
    collide.  ``_ingest_languages`` removes every ``<code>.*.spill*``."""
    return out / "candidates" / f"{code}.{span[0]}.spill"


def run_ingest(config: PipelineConfig, echo=click.echo) -> int:
    """Stream every configured dump; persist person files, candidate rows
    and redirect maps; write the resume manifest.

    Each plain-XML dump is split into one shard per CPU in the affinity
    mask (``dump.shard_spans``), and each compressed dump is one shard.
    Every shard is ingested in its own forked worker, at most one per
    CPU at once, so memory stays bounded by the largest page in each
    worker.  A worker streams the rows of the text half of matching
    (``alumni.match_alumni``) into a spill file of its own.  This process
    merges each language's shards in dump order: it joins their spill
    files into ``candidates/<lang>.tsv``, resolves the redirects, writes
    ``redirects/<lang>.tsv``, echoes in config order and writes the
    manifest, so every artifact equals that of a one-CPU run.  If any
    shard of a language fails, the language is ingested again unsplit,
    and that run's error is the one reported.
    """
    out = config.output_dir
    manifest = _load_manifest(config)
    # taken before any worker reads the inputs: a file edited during the
    # run no longer matches its digest, so the next ingest runs again
    fingerprints = {
        lang.code: _fingerprint(lang, config.analysis_year) for lang in config.languages
    }
    if _manifest_complete(manifest, fingerprints) and all(
        (out / "redirects" / f"{lang.code}.tsv").is_file()
        and _candidates_path(out, lang.code).is_file()
        and (out / "persons" / lang.code).is_dir()
        for lang in config.languages
    ):
        echo("ingest: manifest complete, nothing to do")
        return 0

    (out / "redirects").mkdir(parents=True, exist_ok=True)
    (out / "candidates").mkdir(exist_ok=True)
    width = len(os.sched_getaffinity(0))
    spans = {lang.code: shard_spans(str(lang.dump), width) for lang in config.languages}
    shards = _ingest_languages(config, config.languages, spans)
    split_failed = [
        lang for lang in config.languages
        if len(spans[lang.code]) > 1 and any("error" in shard for shard in shards[lang.code])
    ]
    if split_failed:
        whole = {lang.code: [WHOLE] for lang in split_failed}
        shards.update(_ingest_languages(config, split_failed, whole))

    languages: dict[str, dict] = {}
    for lang_cfg in config.languages:
        entry = _merge_shards(lang_cfg, shards[lang_cfg.code], out, fingerprints[lang_cfg.code])
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


def _ingest_languages(
    config: PipelineConfig,
    langs: list[LanguageConfig],
    spans: dict[str, list[Span]],
) -> dict[str, list[dict]]:
    """Each language's shard results, in dump order, after removing the
    person files and spill files that an earlier config or run left for
    it."""
    out = config.output_dir
    for lang_cfg in langs:
        person_dir = out / "persons" / lang_cfg.code
        person_dir.mkdir(parents=True, exist_ok=True)
        for stale in persons.person_files(person_dir):
            stale.unlink()
        for stale in (out / "candidates").glob(f"{lang_cfg.code}.*.spill*"):
            stale.unlink()
    units = [(lang_cfg, span) for lang_cfg in langs for span in spans[lang_cfg.code]]
    shards: dict[str, list[dict]] = {lang_cfg.code: [] for lang_cfg in langs}
    for (lang_cfg, _span), result in zip(units, _ingest_in_workers(units, config)):
        shards[lang_cfg.code].append(result)
    return shards


def _ingest_shard(
    lang_cfg: LanguageConfig, span: Span, out: Path, analysis_year: int
) -> dict:
    """Ingest one span of one language's dump: write its person files
    into persons/<lang>/ (their names are per page, so shards never
    collide) and its candidate rows (alumni.CANDIDATE_COLUMNS) into its
    spill file, and return the spill file, its page and person counts
    and its redirect (title, target) pairs in dump order, or its error."""
    person_dir = out / "persons" / lang_cfg.code
    spill = _spill_path(out, lang_cfg.code, span)
    # birth years are bounded by the dump, not by the wall clock
    year_bound = _year_bound(lang_cfg, analysis_year)
    try:
        dictionary = load_dictionary(lang_cfg.dictionary)
        source = DumpSource(path=str(lang_cfg.dump), lang=lang_cfg.code)
        n_pages = n_persons = 0
        redirects = []
        with atomic_writer(spill) as rows:
            rows.write(tsv_line(alumni.CANDIDATE_COLUMNS))
            for page in stream_pages(source, span):
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
                persons.persist_person(page, year, person_dir)
                n_persons += 1
                person = (str(page.page_id), page.title, "" if year is None else str(year))
                for candidate in alumni.match_alumni(page, dictionary):
                    rows.write(tsv_line(person + candidate))
    except WikiAlumniError as exc:
        return {"error": str(exc)}
    return {"pages": n_pages, "persons": n_persons, "redirects": redirects, "spill": str(spill)}


def _merge_shards(
    lang_cfg: LanguageConfig, shards: list[dict], out: Path, fingerprint: dict
) -> dict:
    """One language's manifest entry from its shard results; on success
    also write candidates/<lang>.tsv and redirects/<lang>.tsv."""
    spills = [Path(shard["spill"]) for shard in shards if "spill" in shard]
    errors = [shard["error"] for shard in shards if "error" in shard]
    if errors:
        for spill in spills:
            spill.unlink()
        return {"status": "error", "error": errors[0]}
    _join_spills(spills, _candidates_path(out, lang_cfg.code))
    # one list in dump order, so a title redirected twice keeps its last target
    resolved, unresolvable = collect_redirects(
        pair for shard in shards for pair in shard["redirects"]
    )
    write_tsv(out / "redirects" / f"{lang_cfg.code}.tsv", [], sorted(resolved.items()))
    return {
        "status": "ok",
        "pages": sum(shard["pages"] for shard in shards),
        "persons": sum(shard["persons"] for shard in shards),
        "redirects": len(resolved),
        "unresolvable_redirects": sorted(unresolvable),
        **fingerprint,
    }


def _join_spills(spills: list[Path], path: Path) -> None:
    """Replace path with the spill files' rows under one header, in
    order, by streaming, and remove the spill files; one spill file is
    renamed."""
    if len(spills) == 1:
        os.replace(spills[0], path)
        return
    with atomic_writer(path) as joined:
        joined.write(tsv_line(alumni.CANDIDATE_COLUMNS))
        for spill in spills:
            with spill.open(encoding="utf-8") as rows:
                rows.readline()  # its header
                shutil.copyfileobj(rows, joined)
    for spill in spills:
        spill.unlink()


def _ingest_in_workers(
    units: list[tuple[LanguageConfig, Span]], config: PipelineConfig
) -> list[dict]:
    """The result of ``_ingest_shard`` for every (language, span) unit,
    in unit order, each computed in a forked child (the pipeline starts
    no threads, so forking is safe).

    At most one child per CPU in the affinity mask runs at once.  A child
    that dies without a result stops the whole ingest with an error that
    names its language.  A child still running when this returns or
    raises is killed and reaped, so none outlives the call.
    """
    width = len(os.sched_getaffinity(0))
    workers: list[tuple[int, BinaryIO]] = []  # (pid, read end), oldest first
    results: list[dict] = []
    try:
        while len(results) < len(units):
            while len(workers) < width and len(results) + len(workers) < len(units):
                workers.append(_fork_worker(units[len(results) + len(workers)], config))
            pid, pipe = workers[0]
            # Read to EOF before waiting: a child blocks on a full pipe
            # until its result is read, so waiting first could deadlock.
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            pipe.close()
            if status != 0 or not data:
                how = f"killed by signal {-status}" if status < 0 else f"exited with status {status}"
                code = units[len(results)][0].code
                raise WikiAlumniError(f"ingest worker for {code} {how} without a result")
            results.append(json.loads(data))
    finally:
        for pid, pipe in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    return results


def _fork_worker(
    unit: tuple[LanguageConfig, Span], config: PipelineConfig
) -> tuple[int, BinaryIO]:
    """Start one child that ingests ``unit`` and writes its result as
    JSON into a pipe; return (pid, read end of the pipe)."""
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
            lang_cfg, span = unit
            result = _ingest_shard(lang_cfg, span, config.output_dir, config.analysis_year)
            with open(wfd, "wb") as pipe:
                pipe.write(json.dumps(result).encode())
            status = 0
        except BrokenPipeError:
            pass  # the parent is gone; nobody is left to read the result
        except Exception as exc:
            import traceback  # only a failing child pays for the import

            # one write, so a sibling killed mid-report prints all or nothing
            os.write(2, "".join(traceback.format_exception(exc)).encode(errors="backslashreplace"))
        finally:
            os._exit(status)  # never return into the caller's stack
    os.close(wfd)
    return pid, open(rfd, "rb")


def _load_redirect_maps(config: PipelineConfig) -> dict[str, dict[str, str]]:
    """Every language's redirect map; ingest writes one for each, so a
    missing one is a damaged output dir."""
    redirects = config.output_dir / "redirects"
    return {
        lang.code: dict(read_tsv(redirects / f"{lang.code}.tsv", n_cols=2)[1])
        for lang in config.languages
    }


def run_extract(config: PipelineConfig, echo=click.echo) -> int:
    """Resolve every candidate row that ingest found through the registry
    and write the dataset plus the audit evidence file."""
    out = config.output_dir
    manifest = _load_manifest(config)
    fingerprints = {
        lang.code: _fingerprint(lang, config.analysis_year) for lang in config.languages
    }
    if not _manifest_complete(manifest, fingerprints):
        raise ConfigError(
            "no complete ingest manifest found; run 'wikialumni ingest' first"
        )
    registry = load_registry(config.universities_file, _load_redirect_maps(config))
    records: list[alumni.AlumniRecord] = []
    for lang_cfg in config.languages:
        found = read_tsv(
            _candidates_path(out, lang_cfg.code), headers=[alumni.CANDIDATE_COLUMNS],
            parse=lambda fields, lang=lang_cfg.code: alumni.resolve_candidate(
                fields, lang, registry
            ),
        )[1]
        records.extend(rec for rec in found if rec is not None)
    # the first record per (university, person, language), in dump order
    records = alumni.merge_records(records)
    alumni.write_dataset(records, out / DATASET_NAME)
    _write_evidence(records, out / EVIDENCE_NAME)
    echo(f"extract: {len(records)} records")
    return 0


def _write_evidence(records, path: Path) -> None:
    rows = [
        (str(rec.university_id), rec.university_name, rec.person_link, rec.lang, rec.trigger,
         rec.sentence)
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
    with closing(client):
        records = alumni.read_dataset(dataset_path)
        enriched = pageviews.enrich_records(records, config.analysis_year, client)
        alumni.write_dataset(enriched, out / ENRICHED_NAME, enriched=True)

        registry = load_registry(config.universities_file)  # canonical titles only
        totals = pageviews.university_views(registry, config.analysis_year, client)
        rows = [
            (str(uid), registry.name_of(uid), str(config.analysis_year),
             "" if totals[uid] is None else str(totals[uid]))
            for uid in sorted(totals)
        ]
        write_tsv(out / UNIVERSITY_VIEWS_NAME, UNIVERSITY_VIEWS_COLUMNS, rows)

        n_unresolved = sum(1 for rec in enriched if rec.unresolved)
        n_failed = sum(1 for total in totals.values() if total is None)
        echo(
            f"views: {len(enriched)} records enriched, {n_unresolved} unresolved"
            + (f", {n_failed} university pages unresolved" if n_failed else "")
        )
    return 1 if n_unresolved or n_failed else 0


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
        ranking = analytics.rank_universities(surviving, name=nf.name)
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
    rows = read_tsv(
        uni_views_path, headers=[UNIVERSITY_VIEWS_COLUMNS],
        parse=lambda f: (int(f[0]), int(f[3]) if f[3] else None),
    )[1]
    # an empty views cell is a university whose lookup failed: left out
    totals = {uid: views for uid, views in rows if views is not None}
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
    # ValueError: a malformed artifact; OSError: a missing or unreadable one
    except (WikiAlumniError, ValueError, OSError) as exc:
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


_subcommand(
    "ingest", run_ingest, "Stream dumps into person files, candidate rows and redirect maps."
)
_subcommand("extract", run_extract, "Resolve candidate links and write the dataset.")
_subcommand("views", run_views, "Attach pageview totals to records and universities.")
_subcommand("report", run_report, "Emit stats, rankings, and correlation matrices.")
_subcommand("audit", run_audit, "Export a seeded sample for manual review.")


if __name__ == "__main__":
    main()
