"""Spans around the pipeline's layers, recorded from outside the package.

``Tracer.install()`` replaces each public function in ``_layers()`` at the
name its caller looks up (``cli.load_registry``, ``alumni.split_sentences``,
``Registry.resolve_link`` ...) with a wrapper that records one span per
call: (name, parent span, start, end).  Spans stay in memory; ``summary``
turns them into self time per layer (a span's duration minus the spans it
caused) and call counts, and ``write`` dumps the raw spans at the end.
Nothing inside the package is modified on disk.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from time import perf_counter


def _layers():
    """(owner, attribute, span name, counters) for every wrapped call.

    Counters map a metric name to a function of the call's result that
    returns how much to add.
    """
    from wikialumni import alumni, analytics, cli, pageviews, persons, registry

    found = lambda result: result is not None  # noqa: E731
    return [
        (cli, "run_ingest", "cli.ingest_self", {}),
        (cli, "run_extract", "cli.extract_self", {}),
        (cli, "run_views", "cli.views_self", {}),
        (cli, "run_report", "cli.report_self", {}),
        (cli, "run_audit", "cli.audit_self", {}),
        (cli, "collect_redirects", "dump.collect_redirects", {}),
        (cli, "load_registry", "registry.load_registry", {}),
        (cli, "load_dictionary", "registry.load_dictionary", {}),
        (persons, "detect_person", "persons.detect_person", {"persons.detect_person_hits": found}),
        (persons, "extract_birth_year", "persons.extract_birth_year", {}),
        (persons, "persist_person", "persons.persist_person", {}),
        (persons, "load_person_file", "persons.load_person_file", {}),
        (alumni, "match_alumni", "alumni.match_alumni", {}),
        (alumni, "split_sentences", "alumni.split_sentences", {"alumni.sentences": len}),
        (alumni, "find_trigger", "alumni.find_trigger", {"alumni.find_trigger_hits": found}),
        (alumni, "write_dataset", "alumni.write_dataset", {}),
        (alumni, "read_dataset", "alumni.read_dataset", {}),
        (registry.Registry, "resolve_link", "registry.resolve_link",
         {"registry.resolve_link_hits": found}),
        (pageviews.ViewCache, "get", "pageviews.cache_get", {"pageviews.cache_hits": found}),
        (pageviews.ViewCache, "put", "pageviews.cache_put", {}),
        (pageviews.FixtureBackend, "get_views", "pageviews.backend", {}),
        (pageviews.FixtureBackend, "get_english_title", "pageviews.backend", {}),
        (pageviews.LiveBackend, "get_views", "pageviews.backend", {"pageviews.live_calls": _one}),
        (pageviews.LiveBackend, "get_english_title", "pageviews.backend",
         {"pageviews.live_calls": _one}),
        (pageviews, "enrich_records", "pageviews.enrich_records", {}),
        (pageviews, "university_views", "pageviews.university_views", {}),
        (analytics, "rank_universities", "analytics.rank_universities", {}),
        (analytics, "correlation_matrix", "analytics.correlation_matrix", {}),
        (analytics, "load_external_ranking", "analytics.load_external_ranking", {}),
        (analytics, "audit_sample", "analytics.audit_sample", {}),
    ]


def _one(_result) -> int:
    return 1


def _pages(page) -> dict[str, int]:
    return {"dump.pages": 1, "dump.redirect_pages": int(page.redirect_target is not None)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float] | None] = []
        self.counts: Counter[str] = Counter()
        self._counters: set[str] = {"dump.pages", "dump.redirect_pages"}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        from wikialumni import cli

        for owner, attr, name, counters in _layers():
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, counters))
        self._patch(cli, "stream_pages", self._wrap_generator(cli.stream_pages, "dump.stream_pages"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, counters: dict):
        nid = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        items = list(counters.items())
        self._counters.update(counters)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, parent, start, perf_counter())
                stack.pop()
            for metric, measure in items:
                counts[metric] += measure(result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        """Each resumption of the generator is a span: the time spent
        decompressing and parsing up to the next page."""
        nid = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(idx)
                    start = perf_counter()
                    try:
                        page = next(inner)
                    except StopIteration:
                        return
                    finally:
                        spans[idx] = (nid, parent, start, perf_counter())
                        stack.pop()
                    counts.update(_pages(page))
                    yield page
            finally:
                inner.close()

        return traced

    def summary(self) -> dict[str, float]:
        """Self seconds (``<name>_s``) and calls (``<name>_calls``) per
        span name, plus the counters; layers not called read 0."""
        child = [0.0] * len(self.spans)
        for nid, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {name: 0 for name in self._counters}
        for name in self.names:
            out[f"{name}_s"] = 0.0
            out[f"{name}_calls"] = 0
        for idx, (nid, _parent, start, end) in enumerate(self.spans):
            name = self.names[nid]
            out[f"{name}_s"] += (end - start) - child[idx]
            out[f"{name}_calls"] += 1
        out.update(self.counts)
        return out

    def write(self, path: Path) -> None:
        """Raw spans as TSV: index, name, parent index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            for idx, (nid, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx}\t{self.names[nid]}\t{parent}\t{start:.9f}\t{end:.9f}\n")
