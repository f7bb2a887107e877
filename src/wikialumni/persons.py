"""Person-page detection, birth-year extraction, and per-person files.

The birth year is the first standalone four-digit token found within the
first 1000 whitespace-delimited words of the raw wikitext, accepted only
if it falls in a plausible range; out-of-range tokens are skipped and
the scan continues.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .dump import WikiPage, parse_page
from .registry import MarkerDictionary

BIRTH_YEAR_MIN = 800
WORD_WINDOW = 1000

_FOUR_DIGITS = re.compile(r"(?<!\d)\d{4}(?!\d)")


@dataclass(frozen=True)
class PersonPage:
    page: WikiPage
    birth_year: int | None


def detect_person(page: WikiPage, dictionary: MarkerDictionary) -> str | None:
    """Return the first person marker (dictionary order) present in the
    wikitext, case-insensitively, or None."""
    haystack = page.wikitext.casefold()
    for marker in dictionary.person_markers:
        if marker.casefold() in haystack:
            return marker
    return None


def extract_birth_year(page: WikiPage, current_year: int) -> int | None:
    """Scan the first WORD_WINDOW words for a four-digit year between
    BIRTH_YEAR_MIN and current_year, the year of the dump."""
    for word in page.wikitext.split(maxsplit=WORD_WINDOW)[:WORD_WINDOW]:
        for match in _FOUR_DIGITS.finditer(word):
            year = int(match.group())
            if BIRTH_YEAR_MIN <= year <= current_year:
                return year
    return None


def person_filename(page_id: int, birth_year: int | None) -> str:
    year = "" if birth_year is None else str(birth_year)
    return f"page_{page_id}_{year}.xml"


def _escape(text: str) -> str:
    """XML character data, escaped as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def persist_person(person: PersonPage, out_dir: str | Path) -> Path:
    """Write the page element to page_<id>_<year>.xml in out_dir, which
    must exist; idempotent.  Ingest persists no redirect page, so there
    is no <redirect> element."""
    path = Path(out_dir) / person_filename(person.page.page_id, person.birth_year)
    page = person.page
    body = (
        "<page>\n"
        f"  <title>{_escape(page.title)}</title>\n"
        f"  <ns>{page.namespace}</ns>\n"
        f"  <id>{page.page_id}</id>\n"
        "  <revision>\n"
        f"    <text>{_escape(page.wikitext)}</text>\n"
        "  </revision>\n"
        "</page>\n"
    )
    path.write_text(body, encoding="utf-8")
    return path


def load_person_file(path: str | Path, lang: str) -> PersonPage:
    """Read back a file written by persist_person."""
    path = Path(path)
    page = parse_page(path.read_text(encoding="utf-8"), lang)
    stem_year = path.stem.rsplit("_", 1)[1]
    birth_year = int(stem_year) if stem_year else None
    return PersonPage(page=page, birth_year=birth_year)
