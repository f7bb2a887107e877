"""Pageview totals and cross-language resolution.

Two backends share one client interface: a live backend talking to the
Wikimedia REST/action APIs (rate limited, retried) and a hermetic
fixture backend reading local tab-separated files.  All lookups go
through one SQLite cache keyed by backend, agent, kind, lang, title and
year; with a warm cache a re-run issues zero backend requests.

Fetched lookups are committed WRITE_BATCH (50) at a time, in one short
transaction each, and the rest when the client is closed, which the
views stage does also when it fails.  So a SIGKILLed run loses at most
the last 49 fetched lookups, which the next run fetches again.
"""

from __future__ import annotations

import json
import sqlite3
import time
import urllib.parse
import weakref
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Protocol

from .alumni import AlumniRecord
from .errors import FetchError, WikiAlumniError
from .registry import Registry
from .tsv import read_tsv

SOURCE_LIVE = "live_api"
SOURCE_FIXTURE = "fixture"

PAGEVIEWS_URL = (
    "https://wikimedia.org/api/rest_v1/metrics/pageviews/per-article/"
    "{lang}.wikipedia.org/{agent}/{title}/monthly/{start}/{end}"
)
LANGLINKS_URL = "https://{lang}.wikipedia.org/w/api.php"

RETRIES = 3  # attempts per live request
BACKOFF_BASE_S = 1.0  # sleep before retry n (from 0) is BACKOFF_BASE_S * 2**n
RETRY_AFTER_CAP_S = 60.0  # longest wait a 429's Retry-After header can ask for

WRITE_BATCH = 50  # fetched lookups per cache transaction


class Backend(Protocol):
    source: str  # provenance tag of the values this backend returns
    agent: str  # pageview agent type; part of the cache key with source

    def get_views(self, title: str, lang: str, year: int) -> tuple[int, bool]:
        """Return (total, missing)."""

    def get_english_title(self, title: str, lang: str) -> str | None: ...


class RateLimiter:
    """Simple interval limiter; clock and sleep are injectable for tests."""

    def __init__(self, requests_per_second: float, clock=time.monotonic, sleep=time.sleep):
        self.interval = 1.0 / requests_per_second if requests_per_second > 0 else 0.0
        self._clock = clock
        self._sleep = sleep
        self._last: float | None = None

    def wait(self) -> None:
        now = self._clock()
        if self._last is not None:
            due = self._last + self.interval
            if now < due:
                self._sleep(due - now)
                now = self._clock()
        self._last = now


class FixtureBackend:
    """Offline backend over local fixture files; exercises no network.

    views file rows: lang<TAB>title<TAB>year<TAB>total
    langlinks file rows: lang<TAB>title<TAB>english_title
    The langlinks path may be None (no English counterparts).
    """

    source = SOURCE_FIXTURE
    agent = ""  # fixture totals do not depend on an agent

    def __init__(self, views_file: str | Path, langlinks_file: str | Path | None):
        self.request_count = 0
        self._views: dict[tuple[str, str, int], int] = {}
        self._links: dict[tuple[str, str], str] = {}
        rows = read_tsv(views_file, n_cols=4, parse=lambda f: (*f[:2], int(f[2]), int(f[3])))[1]
        for lang, title, year, total in rows:
            self._views[(lang, title, year)] = total
        if langlinks_file is not None:
            for lang, title, title_en in read_tsv(langlinks_file, n_cols=3)[1]:
                self._links[(lang, title)] = title_en

    def get_views(self, title: str, lang: str, year: int) -> tuple[int, bool]:
        self.request_count += 1
        key = (lang, title, year)
        if key in self._views:
            return self._views[key], False
        return 0, True

    def get_english_title(self, title: str, lang: str) -> str | None:
        self.request_count += 1
        return self._links.get((lang, title))


class LiveBackend:
    """Wikimedia API backend with retries and a shared rate limiter.

    The HTTP session is injectable so tests can run against a fake
    transport; by default a requests.Session is created lazily.
    """

    source = SOURCE_LIVE

    def __init__(self, rate_limiter: RateLimiter, agent: str, session=None, sleep=time.sleep):
        self.rate_limiter = rate_limiter
        self._session = session
        self.agent = agent
        self._sleep = sleep
        self.request_count = 0

    @property
    def session(self):
        if self._session is None:
            import requests

            self._session = requests.Session()
        return self._session

    def _get(self, url: str, params=None):
        """GET and decode JSON; None on 404.  Transport errors, 5xx and
        429 are retried, after the wait a 429's Retry-After header asks
        for or else the exponential backoff; every other failure raises
        FetchError."""
        last_exc = None
        for attempt in range(RETRIES):
            wait = None  # seconds a 429 asked for, if it said
            self.rate_limiter.wait()
            self.request_count += 1
            try:
                resp = self.session.get(url, params=params, timeout=30)
            except Exception as exc:  # transport failure
                last_exc = exc
            else:
                if resp.status_code == 404:
                    return None
                if 200 <= resp.status_code < 300:
                    try:
                        payload = resp.json()
                    except ValueError as exc:
                        raise FetchError(f"malformed JSON from {url}") from exc
                    if payload is None:  # would read as a 404
                        raise FetchError(f"unexpected JSON from {url}")
                    return payload
                last_exc = FetchError(f"HTTP {resp.status_code} from {url}")
                if resp.status_code == 429:
                    wait = _retry_after(resp.headers.get("Retry-After"))
                elif resp.status_code < 500:
                    raise last_exc
            if attempt + 1 < RETRIES:
                self._sleep(BACKOFF_BASE_S * 2**attempt if wait is None else wait)
        raise FetchError(f"request failed after {RETRIES} attempts: {url}") from last_exc

    def get_views(self, title: str, lang: str, year: int) -> tuple[int, bool]:
        url = PAGEVIEWS_URL.format(
            lang=lang,
            agent=self.agent,
            title=urllib.parse.quote(title.replace(" ", "_"), safe=""),
            start=f"{year}010100",
            end=f"{year}123100",
        )
        payload = self._get(url)
        if payload is None:
            return 0, True
        items = _objects(payload, "items", url)
        if not all(type(item.get("views")) is int for item in items):
            raise FetchError(f"unexpected JSON from {url}")
        return sum(item["views"] for item in items), False

    def get_english_title(self, title: str, lang: str) -> str | None:
        url = LANGLINKS_URL.format(lang=lang)
        payload = self._get(
            url,
            params={
                "action": "query",
                "prop": "langlinks",
                "titles": title,
                "lllang": "en",
                "format": "json",
                "formatversion": "2",
            },
        )
        if payload is None:
            return None
        query = payload.get("query", {}) if isinstance(payload, dict) else None
        for page in _objects(query, "pages", url):
            for link in _objects(page, "langlinks", url):
                title_en = link.get("title")
                if title_en is not None and not isinstance(title_en, str):
                    raise FetchError(f"unexpected JSON from {url}")
                return title_en
        return None


def _objects(payload, key: str, url: str) -> list[dict]:
    """payload[key], or [] if payload has no key, when payload is a JSON
    object and that value a list of objects; else FetchError."""
    value = payload.get(key, []) if isinstance(payload, dict) else None
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise FetchError(f"unexpected JSON from {url}")
    return value


def _retry_after(value: str | None) -> float | None:
    """The seconds a Retry-After header (RFC 9110: delta-seconds or an
    HTTP date) asks to wait, at most RETRY_AFTER_CAP_S; None when the
    header is missing or malformed."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        seconds = float(value)
    else:
        import email.utils  # only a 429 pays for the import

        try:  # parsedate_tz gives None for a string that is no date at all
            seconds = email.utils.mktime_tz(email.utils.parsedate_tz(value)) - time.time()
        except (TypeError, ValueError, IndexError, OverflowError):
            return None
    return min(max(seconds, 0.0), RETRY_AFTER_CAP_S)


class ViewCache:
    """Lookup results in one SQLite table, cache_dir/pageviews.sqlite (WAL).
    Each put writes its rows in one short transaction: another ViewCache
    on the same directory sees them at once, and a killed run keeps every
    put it finished.  ViewClient puts its fetched lookups WRITE_BATCH (50)
    at a time and the rest when it is closed, which the views stage does
    also when it fails, so a SIGKILLed run loses at most the last 49."""

    def __init__(self, cache_dir: str | Path):
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        path = Path(cache_dir) / "pageviews.sqlite"
        self._db = None
        try:
            self._db = sqlite3.connect(path, isolation_level=None)
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS lookups (backend TEXT, kind TEXT, lang TEXT,"
                " title TEXT, year INTEGER, value TEXT NOT NULL,"
                " PRIMARY KEY (backend, kind, lang, title, year)) WITHOUT ROWID"
            )
        except sqlite3.DatabaseError as exc:
            if self._db is not None:
                self._db.close()
            raise WikiAlumniError(f"{path}: unusable pageview cache: {exc}") from exc
        # the connection sits in a reference cycle with its statement cache,
        # so a cache dropped without close() would hold its files until gc
        self._close = weakref.finalize(self, self._db.close)

    def get(self, key: tuple[str, str, str, str, int]) -> str | None:
        """The value under (backend, kind, lang, title, year), or None."""
        row = self._db.execute(
            "SELECT value FROM lookups WHERE (backend, kind, lang, title, year) = (?, ?, ?, ?, ?)",
            key,
        ).fetchone()
        return None if row is None else row[0]

    def put(self, rows: list[tuple[str, str, str, str, int, str]]) -> None:
        """Write (backend, kind, lang, title, year, value) rows in one
        transaction."""
        self._db.execute("BEGIN IMMEDIATE")
        with self._db:  # commits, or rolls back on an error
            self._db.executemany("INSERT OR REPLACE INTO lookups VALUES (?, ?, ?, ?, ?, ?)", rows)

    def close(self) -> None:
        self._close()


class ViewClient:
    """Backend + cache front door used by the pipeline.

    Fetched values wait in a pending map, which every lookup checks
    first, and are committed WRITE_BATCH (50) at a time in one short
    transaction each; close() commits the rest, and the views stage
    closes its client also when it fails.  So a SIGKILLed run loses at
    most the last 49 fetched lookups.  No transaction stays open across a
    backend call, which for the live API can take seconds while another
    process shares cache_dir.
    """

    def __init__(self, backend: Backend, cache: ViewCache):
        self.backend = backend
        self.cache = cache
        self._pending: dict[tuple[str, str, str, str, int], str] = {}

    def _flush(self) -> None:
        if self._pending:
            self.cache.put([(*key, text) for key, text in self._pending.items()])
            self._pending.clear()

    def close(self) -> None:
        """Commit the pending lookups, then close the cache."""
        try:
            self._flush()
        finally:
            self.cache.close()

    def _lookup(self, kind: str, lang: str, title: str, year: int, call):
        """The value cached for this backend if any, else call()'s, cached
        as JSON text so a cached None is a hit too.  Language links use
        year 0, since a NULL key column never matches."""
        key = (f"{self.backend.source}:{self.backend.agent}", kind, lang, title, year)
        hit = self._pending.get(key)
        if hit is None:
            hit = self.cache.get(key)
        if hit is not None:
            return json.loads(hit)
        value = call()
        self._pending[key] = json.dumps(value)
        if len(self._pending) >= WRITE_BATCH:
            self._flush()
        return value

    def fetch_views(self, title: str, lang: str, year: int) -> int:
        """The page's views in year; 0 for a page with no data.  The cache
        keeps the backend's whole (total, missing) pair."""
        return self._lookup(
            "views", lang, title, year, lambda: self.backend.get_views(title, lang, year)
        )[0]

    def resolve_english(self, title: str, lang: str) -> str | None:
        """The English counterpart's title, or None if there is none."""
        if lang == "en":
            raise ValueError("resolve_english is for non-English records")
        return self._lookup(
            "enlink", lang, title, 0, lambda: self.backend.get_english_title(title, lang)
        )


def enrich_records(
    records: Iterable[AlumniRecord], year: int, client: ViewClient
) -> list[AlumniRecord]:
    """Fill person_link_en and views_total (national + English counts).

    Records whose lookups fail outright are flagged unresolved with
    views_total left empty; the pipeline continues.
    """
    out = []
    for rec in records:
        try:
            title_en = rec.person_link_en
            if rec.lang != "en" and title_en is None:
                title_en = client.resolve_english(rec.person_link, rec.lang)
            total = client.fetch_views(rec.person_link, rec.lang, year)
            if rec.lang != "en" and title_en and title_en != rec.person_link:
                total += client.fetch_views(title_en, "en", year)
            out.append(replace(rec, person_link_en=title_en, views_total=total))
        except FetchError:
            out.append(replace(rec, unresolved=True, views_total=None))
    return out


def university_views(
    registry: Registry, year: int, client: ViewClient
) -> dict[int, int | None]:
    """Per university, the view sum over its canonical title in each
    language (aliases excluded); None for a university with a failed
    lookup, and the pipeline continues."""
    totals: dict[int, int | None] = {}
    for uid, uni in sorted(registry.universities.items()):
        try:
            totals[uid] = sum(
                client.fetch_views(title, lang, year)
                for lang, title in sorted(uni.canonical_titles.items())
            )
        except FetchError:
            totals[uid] = None
    return totals
