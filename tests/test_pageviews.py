import email.utils
import gc
import os
import time
from contextlib import closing

import pytest

from wikialumni import cli
from wikialumni.alumni import AlumniRecord, read_dataset, write_dataset
from wikialumni.config import ENV_RATE_LIMIT, load_config
from wikialumni.errors import FetchError, WikiAlumniError
from wikialumni.pageviews import (
    BACKOFF_BASE_S,
    READ_BATCH,
    RETRY_AFTER_CAP_S,
    WRITE_BATCH,
    FixtureBackend,
    LiveBackend,
    RateLimiter,
    ViewCache,
    ViewClient,
    enrich_records,
    university_views,
)
from wikialumni.registry import load_registry

from conftest import (
    TABLE45,
    fetch_views,
    resolve_english,
    write_langlinks_fixture,
    write_universities_file,
    write_views_fixture,
)
from mini_corpus import build_mini_project


@pytest.fixture
def table_fixture_client(tmp_path):
    views = [("en", person, 2017, total) for _, _, person, _, total in TABLE45]
    views_path = write_views_fixture(tmp_path / "views.tsv", views)
    return ViewClient(FixtureBackend(views_path, None), ViewCache(tmp_path / "cache"))


def test_fixture_markle(table_fixture_client):
    assert fetch_views(table_fixture_client, "Meghan Markle", "en", 2017) == 30430581
    assert table_fixture_client.backend.request_count == 1
    assert table_fixture_client.backend.get_views("Meghan Markle", "en", 2017) == (30430581, False)


def test_fixture_missing_page_is_zero(table_fixture_client):
    assert fetch_views(table_fixture_client, "Hogwarts Founder", "en", 2017) == 0
    assert table_fixture_client.backend.get_views("Hogwarts Founder", "en", 2017) == (0, True)


def test_monthly_rows_sum(tmp_path):
    # the live API returns monthly buckets; the fixture stores the total
    rows = [("en", "Page", 2017, 12 * 100)]
    client = ViewClient(
        FixtureBackend(write_views_fixture(tmp_path / "v.tsv", rows), None),
        ViewCache(tmp_path / "cache"),
    )
    assert fetch_views(client, "Page", "en", 2017) == 1200


def test_cache_serves_repeat_requests(table_fixture_client):
    backend = table_fixture_client.backend
    first = fetch_views(table_fixture_client, "Elon Musk", "en", 2017)
    count = backend.request_count
    second = fetch_views(table_fixture_client, "Elon Musk", "en", 2017)
    assert backend.request_count == count
    assert second == first
    assert type(second) is int


def test_warm_cache_issues_zero_requests(tmp_path):
    views_path = write_views_fixture(tmp_path / "v.tsv", [("en", "A", 2017, 5)])
    cache_dir = tmp_path / "cache"
    with closing(ViewClient(FixtureBackend(views_path, None), ViewCache(cache_dir))) as first:
        fetch_views(first, "A", "en", 2017)
    fresh_backend = FixtureBackend(views_path, None)
    client = ViewClient(fresh_backend, ViewCache(cache_dir))
    assert fetch_views(client, "A", "en", 2017) == 5
    assert fresh_backend.request_count == 0


def test_resolve_english_fixture_and_cache(tmp_path):
    links = write_langlinks_fixture(
        tmp_path / "links.tsv",
        [("ru", "Путин, Владимир Владимирович", "Vladimir Putin")],
    )
    backend = FixtureBackend(write_views_fixture(tmp_path / "v.tsv", []), links)
    client = ViewClient(backend, ViewCache(tmp_path / "cache"))
    assert resolve_english(client, "Путин, Владимир Владимирович", "ru") == "Vladimir Putin"
    count = backend.request_count
    again = resolve_english(client, "Путин, Владимир Владимирович", "ru")
    assert again == "Vladimir Putin"
    assert backend.request_count == count


def test_resolve_english_no_counterpart(tmp_path):
    backend = FixtureBackend(
        write_views_fixture(tmp_path / "v.tsv", []), write_langlinks_fixture(tmp_path / "l.tsv", [])
    )
    client = ViewClient(backend, ViewCache(tmp_path / "cache"))
    assert resolve_english(client, "Неизвестный", "ru") is None


def test_cached_no_counterpart_is_a_hit(tmp_path):
    backend = FixtureBackend(
        write_views_fixture(tmp_path / "v.tsv", []), write_langlinks_fixture(tmp_path / "l.tsv", [])
    )
    client = ViewClient(backend, ViewCache(tmp_path / "cache"))
    assert resolve_english(client, "Неизвестный", "ru") is None
    count = backend.request_count
    assert resolve_english(client, "Неизвестный", "ru") is None
    assert backend.request_count == count


LONG_TITLE = "Московский государственный университет имени М. В. Ломоносова"


def test_cache_takes_titles_too_long_for_a_file_name(tmp_path):
    views = write_views_fixture(tmp_path / "v.tsv", [("ru", LONG_TITLE, 2017, 42)])
    client = ViewClient(FixtureBackend(views, None), ViewCache(tmp_path / "cache"))
    assert fetch_views(client, LONG_TITLE, "ru", 2017) == 42
    assert fetch_views(client, LONG_TITLE, "ru", 2017) == 42
    assert client.backend.request_count == 1
    registry = load_registry(
        write_universities_file(tmp_path / "u.tsv", [(1, "MSU", "ru", LONG_TITLE)])
    )
    fresh = ViewClient(FixtureBackend(views, None), ViewCache(tmp_path / "cache2"))
    assert university_views(registry, 2017, fresh) == {1: 42}


def test_second_cache_reads_a_put_before_the_first_closes(tmp_path):
    first = ViewCache(tmp_path / "cache")
    key = ("fixture:", "views", "en", "A", 2017)
    first.put([(*key, "[5, false]")])
    second = ViewCache(tmp_path / "cache")
    assert second.get(key) == "[5, false]"
    assert second.get(("live_api:all-agents", "views", "en", "A", 2017)) is None
    first.close()
    second.close()


def open_files():
    fd_dir = "/proc/self/fd"
    names = []
    for fd in os.listdir(fd_dir):
        try:
            names.append(os.readlink(os.path.join(fd_dir, fd)))
        except OSError:  # the descriptor listdir itself used
            pass
    return names


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("damage", ["junk", "directory"])
def test_damaged_cache_names_the_file_and_keeps_no_descriptor(tmp_path, damage):
    path = tmp_path / "cache" / "pageviews.sqlite"
    if damage == "directory":
        path.mkdir(parents=True)
    else:
        path.parent.mkdir()
        path.write_text("junk", encoding="utf-8")
    with pytest.raises(WikiAlumniError, match="pageviews.sqlite"):
        ViewCache(tmp_path / "cache")
    assert str(path) not in open_files()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_dropped_cache_closes_its_files_without_gc(tmp_path):
    path = str(tmp_path / "cache" / "pageviews.sqlite")
    db_files = {path, path + "-wal", path + "-shm"}
    gc.disable()
    try:
        cache = ViewCache(tmp_path / "cache")
        cache.put([("fixture:", "views", "en", "A", 2017, "[5, false]")])
        assert db_files <= set(open_files())
        del cache
        assert not db_files & set(open_files())
    finally:
        gc.enable()


def test_close_twice_is_a_no_op(tmp_path):
    cache = ViewCache(tmp_path / "cache")
    cache.close()
    cache.close()


def test_rate_limiter_spacing():
    clock = {"t": 0.0}
    sleeps = []

    def fake_sleep(dt):
        sleeps.append(dt)
        clock["t"] += dt

    limiter = RateLimiter(2.0, clock=lambda: clock["t"], sleep=fake_sleep)
    for _ in range(5):
        limiter.wait()
        clock["t"] += 0.1  # work takes 100 ms; limit is one per 500 ms
    assert all(abs(dt - 0.4) < 1e-9 for dt in sleeps)
    assert len(sleeps) == 4


class FakeResponse:
    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}

    def json(self):
        return self._payload


class HtmlResponse(FakeResponse):
    """A 200 whose body is an HTML error page, not JSON."""

    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append(url)
        return self.responses.pop(0)


def live_backend(responses, agent="all-agents", sleeps=None):
    return LiveBackend(
        rate_limiter=RateLimiter(0),
        session=FakeSession(responses),
        agent=agent,
        sleep=(lambda _t: None) if sleeps is None else sleeps.append,
    )


def test_live_sums_monthly_items():
    payload = {"items": [{"views": 100} for _ in range(12)]}
    backend = live_backend([FakeResponse(200, payload)])
    assert backend.get_views("Page", "en", 2017) == (1200, False)


def test_live_404_is_missing():
    backend = live_backend([FakeResponse(404)])
    assert backend.get_views("Nope", "en", 2017) == (0, True)


def test_live_retries_then_succeeds():
    payload = {"items": [{"views": 7}]}
    for status in (500, 429):
        backend = live_backend([FakeResponse(status), FakeResponse(200, payload)])
        assert backend.get_views("Page", "en", 2017) == (7, False)
        assert backend.request_count == 2


@pytest.mark.parametrize("response", [FakeResponse(403), HtmlResponse(200)], ids=["403", "html"])
def test_live_client_error_flags_one_record(tmp_path, response):
    backend = live_backend([response])
    (out,) = enrich_records([rec("Person")], 2017, ViewClient(backend, ViewCache(tmp_path / "c")))
    assert out.unresolved
    assert out.views_total is None
    assert backend.request_count == 1


def views_payload(n):
    return {"items": [{"views": n}]}


def test_fixture_filled_cache_is_not_served_to_a_live_run(tmp_path):
    views = write_views_fixture(tmp_path / "v.tsv", [("en", "A", 2017, 5)])
    with closing(ViewClient(FixtureBackend(views, None), ViewCache(tmp_path / "cache"))) as first:
        fetch_views(first, "A", "en", 2017)
    backend = live_backend([FakeResponse(200, views_payload(7))])
    assert fetch_views(ViewClient(backend, ViewCache(tmp_path / "cache")), "A", "en", 2017) == 7
    assert backend.request_count == 1


def test_live_agents_do_not_share_cache_entries(tmp_path):
    users = live_backend([FakeResponse(200, views_payload(3))], agent="user")
    with closing(ViewClient(users, ViewCache(tmp_path / "cache"))) as first:
        fetch_views(first, "A", "en", 2017)
    every = live_backend([FakeResponse(200, views_payload(8))])
    assert fetch_views(ViewClient(every, ViewCache(tmp_path / "cache")), "A", "en", 2017) == 8
    assert every.request_count == 1


def http_date(offset_s):
    return email.utils.formatdate(time.time() + offset_s, usegmt=True)


@pytest.mark.parametrize(
    "retry_after, low, high",
    [
        ("7", 7, 7),
        (" 12 ", 12, 12),
        ("0", 0, 0),
        ("86400", RETRY_AFTER_CAP_S, RETRY_AFTER_CAP_S),
        (lambda: http_date(30), 25, 31),
        (lambda: http_date(-3600), 0, 0),
        (lambda: http_date(86400), RETRY_AFTER_CAP_S, RETRY_AFTER_CAP_S),
    ],
    ids=["seconds", "padded", "zero", "capped", "date", "past-date", "capped-date"],
)
def test_live_429_waits_as_retry_after_asks(retry_after, low, high):
    value = retry_after() if callable(retry_after) else retry_after
    sleeps = []
    backend = live_backend(
        [FakeResponse(429, headers={"Retry-After": value}), FakeResponse(200, views_payload(7))],
        sleeps=sleeps,
    )
    assert backend.get_views("Page", "en", 2017) == (7, False)
    (wait,) = sleeps
    assert low <= wait <= high


@pytest.mark.parametrize(
    "retry_after",
    [None, "soon", "-5", "1.5", "\u00b2", "", "Feb 1999 99999 00:00:00 -0000",
     "Mon, 01 Jan 99999999999999999999 00:00:00 GMT"],
    ids=["missing", "word", "negative", "fraction", "superscript", "empty", "bad-date",
         "huge-year"],
)
def test_live_429_without_a_usable_retry_after_backs_off(retry_after):
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    sleeps = []
    backend = live_backend([FakeResponse(429, headers=headers)] * 3, sleeps=sleeps)
    with pytest.raises(FetchError):
        backend.get_views("Page", "en", 2017)
    assert sleeps == [BACKOFF_BASE_S, BACKOFF_BASE_S * 2]


def test_live_500_ignores_retry_after():
    sleeps = []
    backend = live_backend(
        [FakeResponse(500, headers={"Retry-After": "30"}), FakeResponse(200, views_payload(7))],
        sleeps=sleeps,
    )
    assert backend.get_views("Page", "en", 2017) == (7, False)
    assert sleeps == [BACKOFF_BASE_S]


def test_live_exhausted_retries_raise():
    backend = live_backend([FakeResponse(500)] * 3)
    with pytest.raises(FetchError):
        backend.get_views("Page", "en", 2017)


def rec(person, lang="en", link_en=None):
    return AlumniRecord(1, "Univ", person, 1950, lang, person_link_en=link_en)


def test_enrich_sums_national_and_english(tmp_path):
    views = write_views_fixture(
        tmp_path / "v.tsv", [("ru", "Человек", 2017, 50), ("en", "Person", 2017, 100)]
    )
    links = write_langlinks_fixture(tmp_path / "l.tsv", [("ru", "Человек", "Person")])
    client = ViewClient(FixtureBackend(views, links), ViewCache(tmp_path / "cache"))
    (out,) = enrich_records([rec("Человек", lang="ru")], 2017, client)
    assert out.views_total == 150
    assert out.person_link_en == "Person"


def test_enrich_english_only(tmp_path):
    views = write_views_fixture(tmp_path / "v.tsv", [("en", "Person", 2017, 100)])
    client = ViewClient(FixtureBackend(views, None), ViewCache(tmp_path / "cache"))
    (out,) = enrich_records([rec("Person")], 2017, client)
    assert out.views_total == 100
    assert not out.unresolved


def test_enrich_same_title_counted_once(tmp_path):
    views = write_views_fixture(tmp_path / "v.tsv", [("de", "Person", 2017, 60)])
    links = write_langlinks_fixture(tmp_path / "l.tsv", [("de", "Person", "Person")])
    client = ViewClient(FixtureBackend(views, links), ViewCache(tmp_path / "cache"))
    (out,) = enrich_records([rec("Person", lang="de")], 2017, client)
    assert out.views_total == 60


def test_enrich_flags_unresolved(tmp_path):
    class FailingBackend:
        source = "failing"
        agent = ""

        def get_views(self, title, lang, year):
            raise FetchError("down")

        def get_english_title(self, title, lang):
            raise FetchError("down")

    client = ViewClient(FailingBackend(), ViewCache(tmp_path / "cache"))
    (out,) = enrich_records([rec("Person")], 2017, client)
    assert out.unresolved
    assert out.views_total is None


def test_university_views_sums_languages(tmp_path):
    uni_rows = [
        (1, "Example University", "en", "Example University"),
        (1, "Example University", "fr", "Université Exemple"),
        (2, "Solo University", "en", "Solo University"),
    ]
    registry = load_registry(write_universities_file(tmp_path / "u.tsv", uni_rows))
    views = write_views_fixture(
        tmp_path / "v.tsv",
        [
            ("en", "Example University", 2017, 1000),
            ("fr", "Université Exemple", 2017, 200),
            ("en", "Solo University", 2017, 77),
        ],
    )
    client = ViewClient(FixtureBackend(views, None), ViewCache(tmp_path / "cache"))
    assert university_views(registry, 2017, client) == {1: 1200, 2: 77}


def test_university_views_exclude_aliases(tmp_path):
    uni_rows = [(1, "Example University", "en", "Example University")]
    registry = load_registry(
        write_universities_file(tmp_path / "u.tsv", uni_rows),
        {"en": {"Example": "Example University"}},
    )
    views = write_views_fixture(
        tmp_path / "v.tsv",
        [("en", "Example University", 2017, 1000), ("en", "Example", 2017, 500)],
    )
    client = ViewClient(FixtureBackend(views, None), ViewCache(tmp_path / "cache"))
    assert university_views(registry, 2017, client) == {1: 1000}


def test_fixture_mode_is_hermetic(tmp_path, monkeypatch):
    import socket

    def no_network(*args, **kwargs):
        raise AssertionError("network touched in fixture mode")

    monkeypatch.setattr(socket.socket, "connect", no_network)
    views = write_views_fixture(tmp_path / "v.tsv", [("en", "A", 2017, 1)])
    client = ViewClient(FixtureBackend(views, None), ViewCache(tmp_path / "cache"))
    assert fetch_views(client, "A", "en", 2017) == 1


class CountingBackend:
    """Views of every title are its length; request n (from 1) raises
    fail_at.get(n) if there is one, and titles in fetch_errors raise
    FetchError."""

    source = "counting"
    agent = ""

    def __init__(self, fail_at=None, fetch_errors=()):
        self.request_count = 0
        self.asked = []
        self.fail_at = fail_at or {}
        self.fetch_errors = set(fetch_errors)

    def get_views(self, title, lang, year):
        self.request_count += 1
        self.asked.append(title)
        if self.request_count in self.fail_at:
            raise self.fail_at[self.request_count]
        if title in self.fetch_errors:
            raise FetchError(f"{title} is down")
        return len(title), False

    def get_english_title(self, title, lang):
        raise AssertionError("English records only")


def titles(n):
    return [f"Page {i:03d}" for i in range(n)]


def cached(cache, title):
    return cache.get(("counting:", "views", "en", title, 2017))


def test_batch_asks_the_backend_once_per_distinct_lookup(tmp_path):
    backend = CountingBackend()
    client = ViewClient(backend, ViewCache(tmp_path / "cache"))
    every = titles(120)
    with closing(client):
        # 60 fetched: 50 written, 10 pending; repeat them all, then the rest, then all again
        for order in (every[:60], every[:60], every[60:], every, every[::-1]):
            for title in order:
                assert fetch_views(client, title, "en", 2017) == len(title)
    assert backend.request_count == 120
    assert sorted(backend.asked) == every


def test_batch_commits_every_write_batch_fetches(tmp_path):
    client = ViewClient(CountingBackend(), ViewCache(tmp_path / "cache"))
    other = ViewCache(tmp_path / "cache")
    every = titles(WRITE_BATCH + 10)
    with closing(client):
        for title in every[: WRITE_BATCH - 1]:
            fetch_views(client, title, "en", 2017)
        assert [cached(other, t) for t in every[: WRITE_BATCH - 1]] == [None] * (WRITE_BATCH - 1)
        fetch_views(client, every[WRITE_BATCH - 1], "en", 2017)
        assert all(cached(other, t) is not None for t in every[:WRITE_BATCH])
        for title in every[WRITE_BATCH:]:
            fetch_views(client, title, "en", 2017)
        assert [cached(other, t) for t in every[WRITE_BATCH:]] == [None] * 10
    assert all(cached(other, t) is not None for t in every)
    other.close()


def test_batch_that_raises_keeps_what_it_fetched(tmp_path):
    records = [rec(title) for title in titles(100)]
    failing = CountingBackend(fail_at={70: RuntimeError("backend crashed")})
    with pytest.raises(RuntimeError, match="backend crashed"):
        with closing(ViewClient(failing, ViewCache(tmp_path / "cache"))) as client:
            enrich_records(records, 2017, client)
    check = ViewCache(tmp_path / "cache")
    assert [cached(check, t) is not None for t in titles(100)] == [True] * 69 + [False] * 31
    rerun = CountingBackend()
    out = enrich_records(records, 2017, ViewClient(rerun, ViewCache(tmp_path / "cache")))
    assert rerun.asked == titles(100)[69:]
    assert [r.views_total for r in out] == [len(t) for t in titles(100)]


def test_fetch_error_is_never_cached_in_a_batch(tmp_path):
    records = [rec(title) for title in titles(3)]
    down = CountingBackend(fetch_errors={"Page 001"})
    with closing(ViewClient(down, ViewCache(tmp_path / "cache"))) as client:
        out = enrich_records(records, 2017, client)
    assert [r.unresolved for r in out] == [False, True, False]
    assert cached(ViewCache(tmp_path / "cache"), "Page 001") is None
    rerun = CountingBackend()
    out = enrich_records(records, 2017, ViewClient(rerun, ViewCache(tmp_path / "cache")))
    assert rerun.asked == ["Page 001"]
    assert not any(r.unresolved for r in out)


def test_closed_client_has_committed_every_fetch(tmp_path):
    client = ViewClient(CountingBackend(), ViewCache(tmp_path / "cache"))
    for title in titles(10):
        fetch_views(client, title, "en", 2017)
    client.close()
    other = ViewCache(tmp_path / "cache")
    assert [cached(other, t) for t in titles(10)] == [f"[{len(t)}, false]" for t in titles(10)]
    other.close()


def test_dropped_client_loses_at_most_its_last_partial_batch(tmp_path):
    client = ViewClient(CountingBackend(), ViewCache(tmp_path / "cache"))
    for title in titles(WRITE_BATCH + 10):
        fetch_views(client, title, "en", 2017)
    del client
    gc.collect()
    other = ViewCache(tmp_path / "cache")
    committed = [cached(other, t) is not None for t in titles(WRITE_BATCH + 10)]
    assert committed == [True] * WRITE_BATCH + [False] * 10
    other.close()


def test_views_stage_that_raises_commits_what_it_fetched(tmp_path, monkeypatch):
    config = load_config(build_mini_project(tmp_path / "proj"))
    config.output_dir.mkdir(parents=True, exist_ok=True)
    write_dataset([rec(t) for t in titles(100)], config.output_dir / cli.DATASET_NAME)
    failing = CountingBackend(fail_at={70: RuntimeError("backend crashed")})
    monkeypatch.setattr(
        cli, "build_view_client", lambda cfg: ViewClient(failing, ViewCache(cfg.cache_dir))
    )
    with pytest.raises(RuntimeError, match="backend crashed"):
        cli.run_views(config, echo=lambda *a, **k: None)
    check = ViewCache(config.cache_dir)
    assert [cached(check, t) is not None for t in titles(100)] == [True] * 69 + [False] * 31
    check.close()


def test_warm_views_run_makes_no_backend_requests(tmp_path, monkeypatch):
    config = load_config(build_mini_project(tmp_path / "proj"))
    quiet = lambda *a, **k: None  # noqa: E731
    assert cli.run_ingest(config, echo=quiet) == 0
    assert cli.run_extract(config, echo=quiet) == 0
    clients = []
    build = cli.build_view_client

    def capture(cfg):
        clients.append(build(cfg))
        return clients[-1]

    monkeypatch.setattr(cli, "build_view_client", capture)
    assert cli.run_views(config, echo=quiet) == 0
    assert clients[0].backend.request_count > 0
    cold = (config.output_dir / cli.ENRICHED_NAME).read_bytes()

    def no_read(*args, **kwargs):
        raise AssertionError("a warm run parsed a fixture table")

    monkeypatch.setattr("wikialumni.pageviews.read_tsv", no_read)
    assert cli.run_views(config, echo=quiet) == 0
    assert clients[1].backend.request_count == 0
    assert (config.output_dir / cli.ENRICHED_NAME).read_bytes() == cold


class OnePayloadSession:
    """Answers every request with HTTP 200 and the same JSON payload."""

    def __init__(self, payload):
        self.payload = payload

    def get(self, url, params=None, timeout=None):
        return FakeResponse(200, self.payload)


@pytest.mark.parametrize(
    "payload",
    [[], {"items": None}, {"items": [{"x": 1}]}, {"items": [{"views": "12"}]}, {"query": []},
     {"query": {"pages": ["x"]}}, None],
    ids=["list", "null-items", "item-without-views", "text-views", "list-query", "text-page",
         "null"],
)
def test_live_json_of_the_wrong_shape_leaves_the_record_unresolved(tmp_path, monkeypatch,
                                                                    payload):
    project = build_mini_project(tmp_path / "proj")
    project.write_text(project.read_text().replace("mode: fixture", "mode: live"))
    monkeypatch.setenv(ENV_RATE_LIMIT, "1000")
    monkeypatch.setattr(LiveBackend, "session", OnePayloadSession(payload))
    config = load_config(project)
    config.output_dir.mkdir(parents=True)
    write_dataset([rec("Человек", lang="ru")], config.output_dir / cli.DATASET_NAME)
    lines = []
    assert cli.run_views(config, echo=lambda line, **_: lines.append(line)) == 1
    assert lines[0].startswith("views: 1 records enriched, 1 unresolved")
    (out,) = read_dataset(config.output_dir / cli.ENRICHED_NAME)
    assert out.views_total is None
    # the failed lookup is not cached; an object with no "query" is a
    # well-formed answer of no English page
    cache = ViewCache(config.cache_dir)
    no_english = isinstance(payload, dict) and "query" not in payload
    enlink = cache.get(("live_api:all-agents", "enlink", "ru", "Человек", 0))
    assert enlink == ("null" if no_english else None)
    assert cache.get(("live_api:all-agents", "views", "ru", "Человек", 2017)) is None
    cache.close()


@pytest.mark.parametrize("edited", ["views", "langlinks"])
def test_edited_fixture_is_read_again_by_a_warm_cache(tmp_path, edited):
    views = write_views_fixture(
        tmp_path / "v.tsv", [("en", "A", 2017, 5), ("en", "Person", 2017, 100)]
    )
    links = write_langlinks_fixture(tmp_path / "l.tsv", [("ru", "Человек", "Person")])
    cache_dir = tmp_path / "cache"

    def lookups(backend):
        with closing(ViewClient(backend, ViewCache(cache_dir))) as client:
            return fetch_views(client, "A", "en", 2017), resolve_english(client, "Человек", "ru")

    assert lookups(FixtureBackend(views, links)) == (5, "Person")
    unchanged = FixtureBackend(views, links)
    assert lookups(unchanged) == (5, "Person")
    assert unchanged.request_count == 0
    if edited == "views":
        write_views_fixture(views, [("en", "A", 2017, 999), ("en", "Person", 2017, 100)])
    else:
        write_langlinks_fixture(links, [("ru", "Человек", "Human")])
    fresh = FixtureBackend(views, links)
    assert lookups(fresh) == ((999, "Person") if edited == "views" else (5, "Human"))
    assert fresh.request_count == 2


class RecordingBackend:
    """Views of a title are its length (1000 times that in English); the
    English page of a ru title is the title with " (en)" added.  Records
    every request as (kind, lang, title); language links of titles in
    link_errors raise FetchError."""

    source = "recording"
    agent = ""

    def __init__(self, link_errors=()):
        self.asked = []
        self.link_errors = set(link_errors)

    def get_views(self, title, lang, year):
        self.asked.append(("views", lang, title))
        return len(title) * (1000 if lang == "en" else 1), False

    def get_english_title(self, title, lang):
        self.asked.append(("enlink", lang, title))
        if title in self.link_errors:
            raise FetchError(f"{title} is down")
        return f"{title} (en)"


def two_language_records():
    """Two READ_BATCH blocks.  The first: 200 en and 203 ru persons under
    university 1, then 97 of the earliest again under university 2, each
    many WRITE_BATCH commits after its first record.  It fetches 809
    lookups, so the last 9 (views of ru persons 198 to 202) are still
    uncommitted when the second block reads its views from the cache.
    The second: 50 new en persons, whose fetches commit those 9, then ru
    persons 199 to 202 again under university 2."""
    en = [AlumniRecord(1, "One", f"Person {i:03d}", 1950, "en") for i in range(250)]
    ru = [AlumniRecord(1, "One", f"Человек {i:03d}", 1950, "ru") for i in range(203)]

    def again(recs):
        return [AlumniRecord(2, "Two", r.person_link, r.birth_year, r.lang) for r in recs]

    first = en[:200] + ru + again(en[:50] + ru[:47])
    assert len(first) == READ_BATCH
    return first + en[200:] + again(ru[199:])


def wide_registry(tmp_path):
    """600 universities with an en title, every third also with a ru one."""
    rows = [(uid, f"U{uid}", "en", f"University {uid:03d}") for uid in range(1, 601)]
    rows += [(uid, f"U{uid}", "ru", f"Университет {uid:03d}") for uid in range(1, 601, 3)]
    return load_registry(write_universities_file(tmp_path / "u.tsv", rows))


def expected_lookups(records, registry, link_errors=()):
    wanted = set()
    for r in records:
        if r.lang == "en":
            wanted.add(("views", "en", r.person_link))
            continue
        wanted.add(("enlink", r.lang, r.person_link))
        if r.person_link not in link_errors:
            wanted |= {("views", r.lang, r.person_link), ("views", "en", f"{r.person_link} (en)")}
    for uni in registry.universities.values():
        wanted |= {("views", lang, title) for lang, title in uni.canonical_titles.items()}
    return wanted


def views_of(r):
    own = len(r.person_link) * (1000 if r.lang == "en" else 1)
    return own if r.lang == "en" else own + len(f"{r.person_link} (en)") * 1000


def test_read_ahead_asks_the_backend_once_per_distinct_lookup(tmp_path):
    records = two_language_records()
    registry = wide_registry(tmp_path)
    wanted = expected_lookups(records, registry)
    assert len(wanted) > 2 * WRITE_BATCH
    assert len(records) > READ_BATCH
    assert sum("en" in uni.canonical_titles for uni in registry.universities.values()) > READ_BATCH
    for run in ("cold", "warm"):
        backend = RecordingBackend()
        with closing(ViewClient(backend, ViewCache(tmp_path / "cache"))) as client:
            out = enrich_records(records, 2017, client)
            totals = university_views(registry, 2017, client)
        assert sorted(backend.asked) == ([] if run == "warm" else sorted(wanted))
        assert [r.views_total for r in out] == [views_of(r) for r in records]
        assert [r.person_link_en for r in out] == [
            None if r.lang == "en" else f"{r.person_link} (en)" for r in records
        ]
        assert not any(r.unresolved for r in out)
        assert totals == {
            uid: sum(len(t) * (1000 if lang == "en" else 1)
                     for lang, t in uni.canonical_titles.items())
            for uid, uni in registry.universities.items()
        }


def test_failed_english_link_asks_for_no_views(tmp_path):
    records = two_language_records()
    registry = wide_registry(tmp_path)
    failing = {f"Человек {i:03d}" for i in range(51, 199, 2)}  # under university 1 only
    backend = RecordingBackend(link_errors=failing)
    with closing(ViewClient(backend, ViewCache(tmp_path / "cache"))) as client:
        out = enrich_records(records, 2017, client)
        university_views(registry, 2017, client)
    assert sorted(backend.asked) == sorted(expected_lookups(records, registry, failing))
    for r, enriched in zip(records, out):
        down = r.person_link in failing
        assert enriched.unresolved == down
        assert enriched.views_total == (None if down else views_of(r))
        assert enriched.person_link_en == (None if down or r.lang == "en" else f"{r.person_link} (en)")


class SharedEnglishBackend(RecordingBackend):
    """A RecordingBackend whose every English page is "Person", and
    whose views of ru "Человек" raise FetchError."""

    def get_views(self, title, lang, year):
        total = super().get_views(title, lang, year)
        if (lang, title) == ("ru", "Человек"):
            raise FetchError(f"{title} is down")
        return total

    def get_english_title(self, title, lang):
        super().get_english_title(title, lang)
        return "Person"


def test_failed_own_views_still_ask_for_the_english_page_once(tmp_path):
    backend = SharedEnglishBackend()
    records = [rec("Человек", lang="ru"), rec("Другой", lang="ru")]
    with closing(ViewClient(backend, ViewCache(tmp_path / "cache"))) as client:
        failed, shared = enrich_records(records, 2017, client)
    assert failed.unresolved and failed.views_total is None
    assert not shared.unresolved
    assert (shared.person_link_en, shared.views_total) == ("Person", len("Другой") + 6000)
    assert backend.asked == [
        ("enlink", "ru", "Человек"), ("enlink", "ru", "Другой"),
        ("views", "ru", "Человек"), ("views", "en", "Person"), ("views", "ru", "Другой"),
    ]
    with closing(ViewCache(tmp_path / "cache")) as cache:
        assert cache.get(("recording:", "views", "ru", "Человек", 2017)) is None
        assert cache.get(("recording:", "views", "en", "Person", 2017)) == "[6000, false]"


def test_warm_views_run_reads_the_cache_in_batched_queries(tmp_path, monkeypatch):
    config = load_config(build_mini_project(tmp_path / "proj"))
    quiet = lambda *a, **k: None  # noqa: E731
    assert cli.run_ingest(config, echo=quiet) == 0
    assert cli.run_extract(config, echo=quiet) == 0
    assert cli.run_views(config, echo=quiet) == 0
    statements = []
    build = cli.build_view_client

    def traced(cfg):
        client = build(cfg)
        client.cache._db.set_trace_callback(statements.append)
        return client

    monkeypatch.setattr(cli, "build_view_client", traced)
    assert cli.run_views(config, echo=quiet) == 0
    selects = [s for s in statements if s.lstrip().upper().startswith("SELECT")]
    # one query per (kind, lang, year) group and READ_BATCH titles, read
    # once for the records and once for the universities' own pages
    records = read_dataset(config.output_dir / cli.DATASET_NAME)
    enriched = read_dataset(config.output_dir / cli.ENRICHED_NAME)
    record_groups = {("views", r.lang) for r in records}
    record_groups |= {("enlink", r.lang) for r in records if r.lang != "en"}
    record_groups |= {("views", "en") for r in enriched if r.person_link_en}
    registry = load_registry(config.universities_file)
    university_groups = {
        lang for uni in registry.universities.values() for lang in uni.canonical_titles
    }
    assert len(records) < READ_BATCH and len(registry.universities) < READ_BATCH
    assert 0 < len(selects) <= len(record_groups) + len(university_groups)
