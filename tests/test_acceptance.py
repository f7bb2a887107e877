"""Acceptance suite: one test per criterion, one printed pass line each
(run with -s or -v to see them)."""

import math
import random
import socket
import time

import pytest

from wikialumni.analytics import (
    METHOD_SPEARMAN,
    FilterSpec,
    apply_filter,
    correlate,
    correlation_matrix,
    rank_universities,
    ranking_from_scores,
)
from wikialumni.alumni import AlumniRecord
from wikialumni.cli import run_audit, run_extract, run_ingest, run_report, run_views
from wikialumni.config import load_config
from wikialumni.dump import WikiPage
from wikialumni.pageviews import FixtureBackend, LiveBackend, RateLimiter, ViewCache, ViewClient
from wikialumni.persons import extract_birth_year

from conftest import TABLE5_ORDER, table_records
from mini_corpus import build_mini_project
from test_persons import BIRTH_YEAR_CASES, CURRENT_YEAR, oracle_birth_year


def ok(n, message):
    print(f"ACCEPTANCE {n}: PASS — {message}")


def test_criterion_1_table5_reproduction():
    start = time.perf_counter()
    records = table_records()  # Table 4 u 5 fixture, 14 people
    survivors = apply_filter(records, FilterSpec(min_birth_year=1948))
    ordered = sorted(survivors, key=lambda r: -r.views_total)
    assert [r.person_link for r in ordered] == TABLE5_ORDER
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"born>=1948 filter reproduces the top-10 order exactly ({elapsed:.3f}s)")


def test_criterion_2_cambridge_aggregation():
    from conftest import TABLE4

    ranking = rank_universities(table_records(TABLE4), name="")
    score = ranking.scores()[2]
    assert score == 19183278 + 12944420
    assert int(score) == 32127698
    ok(2, "University of Cambridge aggregates to exactly 32,127,698")


def test_criterion_3_spearman_oracle():
    def with_rank_order(ranks):
        n = len(ranks)
        return ranking_from_scores({i: float(n - r) for i, r in enumerate(ranks)}, {}, name="")

    got = correlate(
        with_rank_order((1, 2, 3, 4)), with_rank_order((2, 1, 4, 3)), METHOD_SPEARMAN
    ).coefficient
    # definitional oracle: 1 - 6*sum(d^2)/(n(n^2-1)), d^2 = 4
    oracle = 1 - 6 * 4 / (4 * (4 * 4 - 1))
    assert abs(got - oracle) < 1e-9

    ident = with_rank_order((1, 2, 3, 4, 5))
    assert abs(correlate(ident, ident, METHOD_SPEARMAN).coefficient - 1.0) < 1e-12
    rev = with_rank_order((5, 4, 3, 2, 1))
    assert abs(correlate(ident, rev, METHOD_SPEARMAN).coefficient + 1.0) < 1e-12
    ok(3, "spearman gives 0.6 on the 4-rank oracle, 1.0 identical, -1.0 reversed")


def test_criterion_4_birth_year_suite():
    assert len(BIRTH_YEAR_CASES) == 30
    agreements = 0
    for text in BIRTH_YEAR_CASES:
        page = WikiPage(
            title="T", lang="en", namespace=0, redirect_target=None,
            wikitext=text, page_id=1,
        )
        assert extract_birth_year(page, CURRENT_YEAR) == oracle_birth_year(text)
        agreements += 1
    ok(4, f"{agreements}/30 heuristic cases agree with the brute-force scanner")


def quiet(*args, **kwargs):
    pass


def run_pipeline(root):
    config = load_config(build_mini_project(root))
    assert run_ingest(config, echo=quiet) == 0
    assert run_extract(config, echo=quiet) == 0
    assert run_views(config, echo=quiet) == 0
    assert run_report(config, echo=quiet) == 0
    assert run_audit(config, echo=quiet) == 0
    return {
        p.relative_to(config.output_dir).as_posix(): p.read_bytes()
        for p in sorted(config.output_dir.rglob("*"))
        if p.is_file()
    }


def test_criterion_5_end_to_end_golden(tmp_path):
    start = time.perf_counter()
    first = run_pipeline(tmp_path / "one")
    second = run_pipeline(tmp_path / "two")
    elapsed = time.perf_counter() - start
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"output differs across runs: {key}"
    assert any(k.endswith("dataset.tsv") for k in first)
    assert any("reports/stats.tsv" in k for k in first)
    assert any("reports/correlation_matrix.txt" in k for k in first)
    assert elapsed < 10.0
    ok(5, f"two mini-dump pipeline runs byte-identical across "
          f"{len(first)} files ({elapsed:.2f}s total)")


def synthetic_records(n=5000, seed=99):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        year = rng.randint(1800, 2000) if rng.random() > 0.1 else None
        records.append(
            AlumniRecord(
                university_id=rng.randint(1, 200),
                university_name=f"U{i}",
                person_link=f"P{i}",
                birth_year=year,
                lang="en",
                views_total=rng.randint(0, 100_000),
            )
        )
    return records


def tighten(spec, rng):
    """Produce a FilterSpec whose bounds are all >= as tight."""
    min_by = spec.min_birth_year
    max_by = spec.max_birth_year
    min_v = spec.min_views_exclusive
    if rng.random() < 0.7:
        min_by = (min_by or 1800) + rng.randint(0, 50)
    if rng.random() < 0.5:
        max_by = (max_by or 2000) - rng.randint(0, 50)
    if rng.random() < 0.7:
        min_v = (min_v or 0) + rng.randint(0, 5000)
    if min_by is not None and max_by is not None and min_by > max_by:
        max_by = min_by
    return FilterSpec(
        min_birth_year=min_by,
        max_birth_year=max_by,
        min_views_exclusive=min_v,
        require_birth_year=spec.require_birth_year or rng.random() < 0.2,
    )


def test_criterion_6_filter_monotonicity():
    records = synthetic_records()
    rng = random.Random(2024)
    for trial in range(200):
        loose = FilterSpec(
            min_birth_year=rng.choice([None, rng.randint(1800, 1950)]),
            max_birth_year=rng.choice([None, rng.randint(1951, 2000)]),
            min_views_exclusive=rng.choice([None, rng.randint(0, 2000)]),
        )
        tight = tighten(loose, rng)
        a = apply_filter(records, loose)
        b = apply_filter(records, tight)
        assert len(b) <= len(a), (loose, tight)
        assert len({r.university_id for r in b}) <= len({r.university_id for r in a})
    ok(6, "n_alumni and n_universities monotone over 200 tightened filter pairs")


def test_criterion_7_hermetic_fixture_and_warm_cache(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("network operation attempted in fixture mode")

    monkeypatch.setattr(socket.socket, "connect", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)
    run_pipeline(tmp_path / "hermetic")

    # warm-cache live-mode re-run issues zero requests
    class CountingSession:
        def __init__(self):
            self.calls = 0

        def get(self, url, params=None, timeout=None):
            self.calls += 1

            class R:
                status_code = 200

                def json(self):
                    return {"items": [{"views": 3}]}

                def raise_for_status(self):
                    pass

            return R()

    cache = ViewCache(tmp_path / "live_cache")
    warm_session = CountingSession()
    live = LiveBackend(rate_limiter=RateLimiter(0), agent="all-agents", session=warm_session)
    client = ViewClient(live, cache)
    assert client.fetch_views("Some Page", "en", 2017) == 3
    assert warm_session.calls == 1
    client.close()

    cold_session = CountingSession()
    rerun = ViewClient(
        LiveBackend(rate_limiter=RateLimiter(0), agent="all-agents", session=cold_session),
        ViewCache(tmp_path / "live_cache"),
    )
    assert rerun.fetch_views("Some Page", "en", 2017) == 3
    assert cold_session.calls == 0
    ok(7, "fixture pipeline ran with sockets disabled; warm-cache live re-run made 0 requests")


def test_criterion_8_matrix_shape():
    rng = random.Random(17)
    for trial in range(50):
        n_rankings = rng.randrange(2, 6)
        n_entities = rng.randrange(5, 40)
        rankings = []
        for _ in range(n_rankings):
            scores = {i: rng.random() * 1e6 for i in range(n_entities)}
            rankings.append(ranking_from_scores(scores, {}, name=""))
        m = correlation_matrix(rankings, METHOD_SPEARMAN)
        assert len(m) == n_rankings and all(len(row) == n_rankings for row in m)
        for i in range(n_rankings):
            assert abs(m[i][i] - 1.0) < 1e-12
            for j in range(n_rankings):
                assert abs(m[i][j] - m[j][i]) < 1e-12
    ok(8, "50 randomized families: symmetric matrices with unit diagonal to 1e-12")
