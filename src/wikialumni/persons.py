"""Person-page detection, birth-year extraction, and per-person files.

The birth year is the first standalone four-digit token found within the
first 1000 whitespace-delimited words of the raw wikitext, accepted only
if it falls in a plausible range; out-of-range tokens are skipped and
the scan continues.

Ingest writes each person page to persons/<lang>/page_<id>_<year>.xml
(the year empty when none was found).  No stage reads these files back:
extract reads the candidate rows that ingest writes beside them, so they
stay as an artifact for inspection.  ``load_person_file`` reads one back,
taking the birth year from the file's name.  ``person_filename`` names
one file and ``person_files`` lists them; no other module spells the
name pattern.
"""

from __future__ import annotations

import re
from pathlib import Path

from .dump import WikiPage, parse_page
from .registry import MarkerDictionary

BIRTH_YEAR_MIN = 800
WORD_WINDOW = 1000

_FOUR_DIGITS = re.compile(r"(?<!\d)\d{4}(?!\d)")


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
    BIRTH_YEAR_MIN and current_year, the year of the dump.

    One scan of the whole text finds the same tokens as a scan of each
    word, since whitespace is never a digit; the first year in range is
    kept if fewer than WORD_WINDOW words come before the word it starts
    in."""
    text = page.wikitext
    for match in _FOUR_DIGITS.finditer(text):
        year = int(match.group())
        if BIRTH_YEAR_MIN <= year <= current_year:
            at = match.start()
            before = len(text[:at].split())
            if at and not text[at - 1].isspace():
                before -= 1  # the word the year starts inside is its own
            return year if before < WORD_WINDOW else None
    return None


def person_filename(page_id: int, birth_year: int | None) -> str:
    year = "" if birth_year is None else str(birth_year)
    return f"page_{page_id}_{year}.xml"


def _escape(text: str) -> str:
    """XML character data, escaped as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def persist_person(page: WikiPage, birth_year: int | None, out_dir: str | Path) -> Path:
    """Write the page element to page_<id>_<year>.xml in out_dir, which
    must exist; idempotent.  Ingest persists no redirect page, so there
    is no <redirect> element."""
    path = Path(out_dir) / person_filename(page.page_id, birth_year)
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


def person_files(person_dir: Path) -> list[Path]:
    """The person files in person_dir, sorted by name; fails, as iterdir
    does, on a missing directory."""
    return sorted(p for p in person_dir.iterdir() if p.match("page_*.xml"))


def load_person_file(path: str | Path, lang: str) -> tuple[WikiPage, int | None]:
    """Read back a file written by persist_person: its page, and the
    birth year from its name."""
    path = Path(path)
    page = parse_page(path.read_text(encoding="utf-8"), lang)
    stem_year = path.stem.rsplit("_", 1)[1]
    return page, int(stem_year) if stem_year else None
