"""Pageview totals and cross-language resolution.

Two backends share one client interface: a live backend talking to the
Wikimedia REST/action APIs (rate limited, retried) and a hermetic
fixture backend reading local tab-separated files.  All lookups go
through one SQLite cache keyed by backend, agent, kind, lang, title and
year; with a warm cache a re-run issues zero backend requests.  A
fixture backend's key carries the SHA-256 of its files, so an edited
fixture is read again, and it parses its tables only on its first
request, so a warm run reads no fixture table.

The cache is read in batches: enrich_records and university_views read
the lookups of a block ahead, in one query per backend, kind, lang and
year and READ_BATCH (500) titles, instead of one query per lookup.
Fetched lookups are committed WRITE_BATCH (50) at a time, in one short
transaction each, and the rest when the client is closed, which the
views stage does also when it fails.  So a SIGKILLed run loses at most
the last 49 fetched lookups, which the next run fetches again.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
import urllib.parse
import weakref
from itertools import islice
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
READ_BATCH = 500  # titles per cache query; records per enrich_records block


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

    source is "fixture/" and a SHA-256 over both files' own SHA-256, so
    the cache keeps the values of an edited fixture apart.  The tables are
    parsed on the first request, so a run served by the cache reads
    only the bytes it hashes.
    """

    agent = ""  # fixture totals do not depend on an agent

    def __init__(self, views_file: str | Path, langlinks_file: str | Path | None):
        self.request_count = 0
        self._files = (views_file, langlinks_file)
        self._views: dict[tuple[str, str, int], int] | None = None
        self._links: dict[tuple[str, str], str] = {}
        digest = hashlib.sha256()
        for path in self._files:
            digest.update(b"" if path is None else hashlib.sha256(Path(path).read_bytes()).digest())
        self.source = f"{SOURCE_FIXTURE}/{digest.hexdigest()}"

    def _tables(self) -> tuple[dict[tuple[str, str, int], int], dict[tuple[str, str], str]]:
        if self._views is None:
            views_file, langlinks_file = self._files
            rows = read_tsv(
                views_file, n_cols=4, parse=lambda f: (*f[:2], int(f[2]), int(f[3]))
            )[1]
            if langlinks_file is not None:
                for lang, title, title_en in read_tsv(langlinks_file, n_cols=3)[1]:
                    self._links[(lang, title)] = title_en
            self._views = {(lang, title, year): total for lang, title, year, total in rows}
        return self._views, self._links

    def get_views(self, title: str, lang: str, year: int) -> tuple[int, bool]:
        self.request_count += 1
        views = self._tables()[0]
        key = (lang, title, year)
        if key in views:
            return views[key], False
        return 0, True

    def get_english_title(self, title: str, lang: str) -> str | None:
        self.request_count += 1
        return self._tables()[1].get((lang, title))


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
    Reads come in batches: get_many takes the titles of one backend,
    kind, lang and year, READ_BATCH (500) per query, and get is its
    one-title case.  Each put writes its rows in one short transaction:
    another ViewCache on the same directory sees them at once, and a
    killed run keeps every put it finished.  ViewClient puts its fetched
    lookups WRITE_BATCH (50) at a time and the rest when it is closed,
    which the views stage does also when it fails, so a SIGKILLed run
    loses at most the last 49."""

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

    def get_many(
        self, backend: str, kind: str, lang: str, year: int, titles: Iterable[str]
    ) -> dict[str, str]:
        """The value under (backend, kind, lang, title, year) of each of
        titles that has one, by title.  Fixed (backend, kind, lang, year)
        with title IN (...) is a primary-key search; a row-value
        IN (VALUES ...) would scan the table."""
        titles = list(titles)
        found: dict[str, str] = {}
        for start in range(0, len(titles), READ_BATCH):
            chunk = titles[start : start + READ_BATCH]
            found.update(
                self._db.execute(
                    "SELECT title, value FROM lookups WHERE backend = ? AND kind = ?"
                    f" AND lang = ? AND year = ? AND title IN ({','.join('?' * len(chunk))})",
                    (backend, kind, lang, year, *chunk),
                )
            )
        return found

    def get(self, key: tuple[str, str, str, str, int]) -> str | None:
        """The value under (backend, kind, lang, title, year), or None."""
        backend, kind, lang, title, year = key
        return self.get_many(backend, kind, lang, year, (title,)).get(title)

    def put(self, rows: list[tuple[str, str, str, str, int, str]]) -> None:
        """Write (backend, kind, lang, title, year, value) rows in one
        transaction."""
        self._db.execute("BEGIN IMMEDIATE")
        with self._db:  # commits, or rolls back on an error
            self._db.executemany("INSERT OR REPLACE INTO lookups VALUES (?, ?, ?, ?, ?, ?)", rows)

    def close(self) -> None:
        self._close()


_MISS = object()  # the value of a lookup the cache does not hold


class ViewClient:
    """Backend + cache front door used by the pipeline.

    read_ahead reads a block of lookups from the cache in batched
    queries (see ViewCache.get_many) and decodes each query's values in
    one call; a lookup it read is served from that block, hit or miss,
    and any other lookup reads its own row.  A miss in the block takes
    the value fetched for it when that value is committed, so the
    backend is asked once per distinct lookup.  Fetched values wait in a
    pending map, which every lookup checks first, and are committed
    WRITE_BATCH (50) at a time in one short transaction each; close()
    commits the rest, and the views stage closes its client also when it
    fails.  So a SIGKILLed run loses at most the last 49 fetched
    lookups.  No transaction stays open across a backend call, which for
    the live API can take seconds while another process shares
    cache_dir.
    """

    def __init__(self, backend: Backend, cache: ViewCache):
        self.backend = backend
        self.cache = cache
        self._pending: dict[tuple[str, str, str, str, int], object] = {}
        # the last read_ahead block: key -> cached or fetched value, or _MISS
        self._ahead: dict[tuple[str, str, str, str, int], object] = {}

    def _flush(self) -> None:
        if self._pending:
            self.cache.put([(*key, json.dumps(value)) for key, value in self._pending.items()])
            for key, value in self._pending.items():
                if key in self._ahead:  # read as a miss before it was fetched or committed
                    self._ahead[key] = value
            self._pending.clear()

    def close(self) -> None:
        """Commit the pending lookups, then close the cache."""
        try:
            self._flush()
        finally:
            self.cache.close()

    def read_ahead(self, lookups: Iterable[tuple[str, str, str, int]]) -> None:
        """Read the (kind, lang, title, year) lookups from the cache, one
        query per kind, lang and year and READ_BATCH titles, in place of
        the block the previous call read."""
        backend = f"{self.backend.source}:{self.backend.agent}"
        groups: dict[tuple[str, str, int], dict[str, None]] = {}  # titles in first-seen order
        for kind, lang, title, year in lookups:
            groups.setdefault((kind, lang, year), {})[title] = None
        self._ahead = {}
        for (kind, lang, year), titles in groups.items():
            found = self.cache.get_many(backend, kind, lang, year, titles)
            # each value is one JSON text, so the list of them is one JSON array
            values = dict(zip(found, json.loads(f"[{','.join(found.values())}]")))
            for title in titles:
                self._ahead[(backend, kind, lang, title, year)] = values.get(title, _MISS)

    def _lookup(self, kind: str, lang: str, title: str, year: int, call):
        """The value cached for this backend if any, else call()'s, cached
        as JSON text so a cached None is a hit too.  Language links use
        year 0, since a NULL key column never matches."""
        key = (f"{self.backend.source}:{self.backend.agent}", kind, lang, title, year)
        value = self._pending.get(key, _MISS)
        if value is _MISS:
            value = self._ahead.get(key, _MISS)
            if value is _MISS and key not in self._ahead:
                text = self.cache.get(key)
                value = _MISS if text is None else json.loads(text)
        if value is not _MISS:
            return value
        value = call()
        self._pending[key] = value
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
    views_total left empty; the pipeline continues.  Records go in
    blocks of READ_BATCH: the block's language links are read ahead and
    resolved first, then its views are read ahead and summed.
    """
    out: list[AlumniRecord] = []
    records = iter(records)
    while block := list(islice(records, READ_BATCH)):
        out += _enrich_block(block, year, client)
    return out


def _enrich_block(block: list[AlumniRecord], year: int, client: ViewClient):
    client.read_ahead(
        ("enlink", rec.lang, rec.person_link, 0)
        for rec in block
        if rec.lang != "en" and rec.person_link_en is None
    )
    # per record: its English title and the other English page whose views
    # add to its own, or None when the link lookup failed
    links: list[tuple[str | None, str | None] | None] = []
    for rec in block:
        title_en = rec.person_link_en
        if rec.lang != "en" and title_en is None:
            try:
                title_en = client.resolve_english(rec.person_link, rec.lang)
            except FetchError:
                links.append(None)
                continue
        other = title_en if rec.lang != "en" and title_en and title_en != rec.person_link else None
        links.append((title_en, other))
    lookups = []
    for rec, link in zip(block, links):
        if link is not None:
            lookups.append(("views", rec.lang, rec.person_link, year))
            if link[1]:
                lookups.append(("views", "en", link[1], year))
    client.read_ahead(lookups)
    out = []
    for rec, link in zip(block, links):
        title_en, total, unresolved = rec.person_link_en, None, True
        if link is not None:
            try:
                own = client.fetch_views(rec.person_link, rec.lang, year)
                total = own + (client.fetch_views(link[1], "en", year) if link[1] else 0)
            except FetchError:
                pass
            else:
                title_en, unresolved = link[0], rec.unresolved
        out.append(
            AlumniRecord(
                rec.university_id, rec.university_name, rec.person_link, rec.birth_year,
                rec.lang, title_en, total, unresolved, rec.sentence, rec.trigger,
            )
        )
    return out


def university_views(
    registry: Registry, year: int, client: ViewClient
) -> dict[int, int | None]:
    """Per university, the view sum over its canonical title in each
    language (aliases excluded); None for a university with a failed
    lookup, and the pipeline continues.  Every canonical title is read
    ahead from the cache before the first lookup."""
    universities = sorted(registry.universities.items())
    client.read_ahead(
        ("views", lang, title, year)
        for _, uni in universities
        for lang, title in uni.canonical_titles.items()
    )
    totals: dict[int, int | None] = {}
    for uid, uni in universities:
        try:
            totals[uid] = sum(
                client.fetch_views(title, lang, year)
                for lang, title in sorted(uni.canonical_titles.items())
            )
        except FetchError:
            totals[uid] = None
    return totals
