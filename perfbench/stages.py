"""The timed benchmark process: whole pipeline passes, in-process.

Started by ``run.py`` once per run.  Each pass starts from empty output
and cache directories and calls, with ``echo`` silenced:

    ingest -> extract -> views (cold, fixture mode) -> report -> audit
    views again on the warm cache
    a cold live-mode views pass against an in-process fake of the
    Wikimedia APIs (``FakeWikimedia``), which opens no sockets

and then checks every output against the plan.  Passes repeat until the
run's time is up; the metrics are medians over passes.  With tracing on,
untraced and traced passes alternate: each traced pass's ``pipeline_s``
minus that of the untraced pass before it is the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import shutil
import statistics
import sys
import tracemalloc
import urllib.parse
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from wikialumni import alumni, cli, pageviews  # noqa: E402
from wikialumni import registry as registry_mod  # noqa: E402
from wikialumni.config import load_config  # noqa: E402
from wikialumni.dump import DumpSource, stream_pages  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

STAGES = ("ingest", "extract", "views", "report", "audit")


def _quiet(*_args, **_kwargs) -> None:
    pass


class _Response:
    def __init__(self, status_code: int, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        return self._payload

    def raise_for_status(self) -> None:
        if self.status_code >= 400:
            raise RuntimeError(f"HTTP {self.status_code}")


class FakeWikimedia:
    """Answers the pageview and langlinks URLs that LiveBackend builds,
    from the corpus's own view and langlinks tables."""

    def __init__(self, views_file: Path, langlinks_file: Path):
        self.views: dict[tuple[str, str, int], int] = {}
        for line in filter(None, views_file.read_text(encoding="utf-8").splitlines()):
            lang, title, year, total = line.split("\t")
            self.views[(lang, title, int(year))] = int(total)
        self.links: dict[tuple[str, str], str] = {}
        for line in filter(None, langlinks_file.read_text(encoding="utf-8").splitlines()):
            lang, title, title_en = line.split("\t")
            self.links[(lang, title)] = title_en

    def get(self, url: str, params=None, timeout=None) -> _Response:
        parts = urllib.parse.urlsplit(url)
        if parts.netloc == "wikimedia.org":
            # /api/rest_v1/metrics/pageviews/per-article/{lang}.wikipedia.org/{agent}/{title}/monthly/{start}/{end}
            segs = parts.path.split("/")
            lang = segs[6].split(".")[0]
            title = urllib.parse.unquote(segs[8]).replace("_", " ")
            total = self.views.get((lang, title, int(segs[10][:4])))
            if total is None:
                return _Response(404)
            months = [total // 12] * 11 + [total - 11 * (total // 12)]
            return _Response(200, {"items": [{"views": v} for v in months]})
        if parts.path == "/w/api.php" and params and params.get("prop") == "langlinks":
            lang = parts.netloc.split(".")[0]
            page = {"title": params["titles"]}
            title_en = self.links.get((lang, params["titles"]))
            if title_en is not None:
                page["langlinks"] = [{"lang": "en", "title": title_en}]
            return _Response(200, {"query": {"pages": [page]}})
        return _Response(400)


class Pass:
    """One pass over a corpus; ``run`` returns its timings, operation
    counts and check failures."""

    def __init__(self, config, expected: checks.Expected, fake: FakeWikimedia):
        self.config = config
        self.expected = expected
        self.fake = fake
        self.clients: list[pageviews.ViewClient] = []

    def run(self, pass_dir: Path) -> dict:
        cfg = dataclasses.replace(
            self.config, output_dir=pass_dir / "out", cache_dir=pass_dir / "cache"
        )
        out = cfg.output_dir
        times: dict[str, float] = {}
        codes = []
        start = perf_counter()
        for stage in STAGES:
            t0 = perf_counter()
            codes.append(getattr(cli, f"run_{stage}")(cfg, echo=_quiet))
            times[stage] = perf_counter() - t0
        times["pipeline"] = perf_counter() - start
        cold_enriched = (out / cli.ENRICHED_NAME).read_bytes()
        cold_uni = (out / cli.UNIVERSITY_VIEWS_NAME).read_bytes()

        self.clients.clear()
        t0 = perf_counter()
        codes.append(cli.run_views(cfg, echo=_quiet))
        times["views_warm"] = perf_counter() - t0
        warm_requests = sum(c.backend.request_count for c in self.clients)

        live_records, live_totals, live_requests = self.live(cfg, pass_dir / "live_cache")

        exp = self.expected
        failures = checks.check_outputs(exp, out)
        failures += checks.check_warm(cold_enriched, cold_uni, out, warm_requests)
        failures += checks.check_live(exp, live_records, live_totals, live_requests)
        failed = (
            sum(code != 0 for code in codes)
            + checks.unresolved_rows(cold_enriched)
            + checks.unresolved_rows((out / cli.ENRICHED_NAME).read_bytes())
            + sum(r.unresolved for r in live_records)
        )
        return {
            "times": times,
            "attempted": len(codes) + 3 * exp.n_records,
            "failed": failed,
            "failures": failures,
            "live_requests": live_requests,
        }

    def live(self, cfg, cache_dir: Path):
        backend = pageviews.LiveBackend(
            rate_limiter=pageviews.RateLimiter(0), session=self.fake, agent=cfg.agent
        )
        client = pageviews.ViewClient(backend, pageviews.ViewCache(cache_dir))
        records = alumni.read_dataset(cfg.output_dir / cli.DATASET_NAME)
        enriched = pageviews.enrich_records(records, cfg.analysis_year, client)
        # University views read canonical titles only, so the registry is
        # loaded without redirect aliases and outside the traced stages.
        reg = registry_mod.load_registry(cfg.universities_file)
        totals = pageviews.university_views(reg, cfg.analysis_year, client)
        return enriched, totals, backend.request_count


def retained_bytes_per_page(config, pages: dict[str, int]) -> float:
    """What the page iterator keeps per page: the least-squares slope of
    traced Python memory against pages streamed, over each dump after
    its first tenth.  The sample buffer is allocated before tracing."""
    slopes = []
    for lang in config.languages:
        n = pages[lang.code]
        samples = array("q", bytes(8 * n))
        tracemalloc.start()
        for i, _page in enumerate(stream_pages(DumpSource(path=str(lang.dump), lang=lang.code))):
            samples[i] = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        xs = range(n // 10, n)
        mean_x = statistics.fmean(xs)
        mean_y = statistics.fmean(samples[i] for i in xs)
        slopes.append(
            sum((x - mean_x) * (samples[x] - mean_y) for x in xs)
            / sum((x - mean_x) ** 2 for x in xs)
        )
    return statistics.fmean(slopes)


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(results: list[dict], exp: checks.Expected) -> dict[str, float]:
    times = [r["times"] for r in results]
    return {
        "pipeline_s": _median(t["pipeline"] for t in times),
        "ingest_pages_per_s": _median(exp.pages_total / t["ingest"] for t in times),
        "extract_persons_per_s": _median(exp.n_persons / t["extract"] for t in times),
        "views_records_per_s": _median(exp.n_records / t["views"] for t in times),
        "views_warm_s": _median(t["views_warm"] for t in times),
        "report_s": _median(t["report"] for t in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "views_live_requests": results[-1]["live_requests"],
    }


def per_layer(summaries: list[dict], live_requests: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for key in summaries[0]:
        out[key] = _median(s.get(key, 0) for s in summaries)
    out["persons.files_written"] = out.get("persons.persist_person_calls", 0)
    out["pageviews.cache_puts"] = out.get("pageviews.cache_put_calls", 0)
    out["pageviews.live_retries"] = live_requests - out.get("pageviews.live_calls", 0)
    return out


def run_corpus(corpus: Path, work: Path, seconds: float, spans_dir: Path | None = None) -> dict:
    """Passes over one corpus for ``seconds``; with ``spans_dir``, every
    other pass is traced and the last traced pass's spans land there."""
    config = load_config(corpus / "config.yaml")
    plan = json.loads((corpus / "plan.json").read_text(encoding="utf-8"))
    exp = checks.Expected(plan)
    one = Pass(config, exp, FakeWikimedia(corpus / "views.tsv", corpus / "langlinks.tsv"))

    build = cli.build_view_client

    def capture(cfg):
        client = build(cfg)
        one.clients.append(client)
        return client

    cli.build_view_client = capture
    tracer = Tracer() if spans_dir is not None else None
    plain: list[dict] = []
    traced: list[dict] = []
    summaries: list[dict] = []
    failures: list[str] = []
    attempted = failed = 0
    started = perf_counter()
    try:
        while True:
            use_tracer = tracer is not None and len(plain) > len(traced)
            pass_dir = work / f"pass{len(plain) + len(traced)}"
            if use_tracer:
                tracer.reset()
                tracer.install()
            try:
                result = one.run(pass_dir)
            finally:
                if use_tracer:
                    tracer.uninstall()
            shutil.rmtree(pass_dir)
            gc.collect()
            if use_tracer:
                summaries.append(tracer.summary())
                traced.append(result)
            else:
                plain.append(result)
            attempted += result["attempted"]
            failed += result["failed"]
            failures += result["failures"]
            balanced = tracer is None or len(plain) == len(traced)
            if failures or (perf_counter() - started >= seconds and balanced):
                break
    finally:
        cli.build_view_client = build

    metrics = end_to_end(plain, exp)
    layers: dict[str, float] = {}
    if tracer is not None and traced:
        layers = per_layer(summaries, traced[-1]["live_requests"])
        # each traced pass against the untraced pass just before it
        layers["trace.overhead_s"] = _median(
            t["times"]["pipeline"] - p["times"]["pipeline"] for p, t in zip(plain, traced)
        )
        layers["dump.retained_bytes_per_page"] = retained_bytes_per_page(config, plan["pages"])
        tracer.write(spans_dir / f"{corpus.name}.spans.tsv")
    return {
        "corpus": corpus.name,
        "passes": len(plain) + len(traced),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "end_to_end": metrics,
        "per_layer": layers,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="one timed benchmark process")
    parser.add_argument("--corpus", action="append", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans-dir", type=Path, help="trace every other pass; spans go here")
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    results = [
        run_corpus(corpus, args.work / corpus.name, args.seconds, args.spans_dir)
        for corpus in args.corpus
    ]
    args.result.write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
