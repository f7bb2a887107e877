import os
import textwrap
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

import wikialumni
from wikialumni.alumni import AlumniRecord

MW_NS = "http://www.mediawiki.org/xml/export-0.10/"


def page_xml(title, page_id, text="", ns=0, redirect=None):
    redirect_el = f'<redirect title="{escape(redirect, {chr(34): "&quot;"})}" />' if redirect else ""
    return (
        "<page>"
        f"<title>{escape(title)}</title>"
        f"<ns>{ns}</ns>"
        f"<id>{page_id}</id>"
        f"{redirect_el}"
        "<revision><id>1</id>"
        f'<text xml:space="preserve">{escape(text)}</text>'
        "</revision></page>"
    )


def make_dump_xml(pages, namespaced=True):
    """Build a miniature pages-articles dump; pages is a list of dicts
    accepted by page_xml."""
    xmlns = f' xmlns="{MW_NS}"' if namespaced else ""
    body = "".join(page_xml(**p) for p in pages)
    return (
        '<?xml version="1.0" encoding="utf-8"?>'
        f"<mediawiki{xmlns}><siteinfo><sitename>Test</sitename></siteinfo>"
        f"{body}</mediawiki>"
    )


def write_dump(tmp_path, pages, name="dump.xml", namespaced=True):
    path = tmp_path / name
    path.write_text(make_dump_xml(pages, namespaced), encoding="utf-8")
    return path


# (university id, university title, person title, birth year, 2017 views)
# Top-10 overall fixture; famous-person pageview data published for 2017.
TABLE4 = [
    (1, "Northwestern University", "Meghan Markle", 1981, 30430581),
    (2, "University of Cambridge", "Stephen Hawking", 1942, 19183278),
    (3, "University of Pennsylvania", "Elon Musk", 1971, 15791090),
    (2, "University of Cambridge", "Charles, Prince of Wales", 1948, 12944420),
    (4, "Saint Petersburg State University", "Vladimir Putin", 1952, 11426497),
    (5, "University of Edinburgh", "Charles Darwin", 1809, 10225649),
    (6, "ETH Zurich", "Albert Einstein", 1879, 9206148),
    (7, "University of Miami", "Sylvester Stallone", 1946, 8444153),
    (8, "Columbia University", "Barack Obama", 1961, 8418653),
    (9, "University of St Andrews", "Prince William, Duke of Cambridge", 1982, 8331379),
]

# People appearing only in the born-after-1947 top-10.
TABLE5_EXTRA = [
    (10, "Princeton University", "Jeff Bezos", 1964, 7661172),
    (11, "Reed College", "Steve Jobs", 1955, 6899464),
    (9, "University of St Andrews", "Catherine, Duchess of Cambridge", 1982, 6336213),
    (12, "Harvard University", "Bill Gates", 1955, 5880135),
]

TABLE45 = TABLE4 + TABLE5_EXTRA

# Expected order of the born-after-1947 top 10, by views descending.
TABLE5_ORDER = [
    "Meghan Markle",
    "Elon Musk",
    "Charles, Prince of Wales",
    "Vladimir Putin",
    "Barack Obama",
    "Prince William, Duke of Cambridge",
    "Jeff Bezos",
    "Steve Jobs",
    "Catherine, Duchess of Cambridge",
    "Bill Gates",
]


def table_records(rows=TABLE45):
    return [
        AlumniRecord(
            university_id=uid,
            university_name=uni,
            person_link=person,
            birth_year=year,
            lang="en",
            views_total=views,
        )
        for uid, uni, person, year, views in rows
    ]


@pytest.fixture
def table45_records():
    return table_records()


@pytest.fixture
def table4_records():
    return table_records(TABLE4)


def write_universities_file(path, rows):
    """rows: (id, canonical_name, lang, title)"""
    lines = ["id\tcanonical_name\tlang\ttitle"]
    lines += [f"{uid}\t{name}\t{lang}\t{title}" for uid, name, lang, title in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_views_fixture(path, rows):
    """rows: (lang, title, year, total)"""
    lines = [f"{lang}\t{title}\t{year}\t{total}" for lang, title, year, total in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_langlinks_fixture(path, rows):
    """rows: (lang, title, title_en)"""
    lines = [f"{lang}\t{title}\t{en}" for lang, title, en in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def fetch_views(client, title, lang, year):
    """One page's views in year, looked up through client.lookup."""
    return client.lookup("views", year, [(lang, title)])[(lang, title)][0]


def resolve_english(client, title, lang):
    """One page's English counterpart, looked up through client.lookup."""
    return client.lookup("enlink", 0, [(lang, title)])[(lang, title)]


def child_env():
    """Environment for a child interpreter that imports the package
    under test."""
    src = str(Path(wikialumni.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}
