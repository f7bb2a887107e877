"""Sentence segmentation, trigger matching, and the alumni dataset file.

A sentence is everything up to a full stop, except that a '.' inside a
wiki link ("[[St. Andrews]]") never splits.  A sentence containing a
trigger word contributes one record per university link it holds.
Extract searches each page once for trigger hits and splits out only the
sentences that hold one; a phrase that contains '.' still matches only
inside one sentence.  The search case-folds the page and each phrase's
head (its part before the first '.'), finds each head with ``str.find``
and keeps a hit only where the case-insensitive prefilter regex matches
the page there.  A page or head whose fold changes its length (ß, İ,
ligatures) is scanned with that regex instead.  The prefilter, the
per-phrase patterns and the folded heads are compiled once per phrase
tuple.

The matcher takes a page and its birth year as plain values and imports
nothing of the person files, so any stage can call it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .dump import WikiPage
from .registry import MarkerDictionary, Registry
from .tsv import read_tsv, write_tsv

BASE_COLUMNS = ["university_id", "university_name", "person_link", "birth_year", "lang"]
ENRICHED_COLUMNS = BASE_COLUMNS + ["person_link_en", "views_total"]

_LINK = re.compile(r"\[\[(.+?)\]\]", re.DOTALL)


@dataclass(frozen=True)
class AlumniRecord:
    university_id: int
    university_name: str
    person_link: str
    birth_year: int | None
    lang: str
    person_link_en: str | None = None
    views_total: int | None = None
    unresolved: bool = False
    # evidence for the audit sampler; not part of the dataset file
    sentence: str = ""
    trigger: str = ""

    def key(self) -> tuple[int, str, str]:
        return (self.university_id, self.person_link, self.lang)


@dataclass(frozen=True)
class Sentence:
    text: str
    links: tuple[str, ...]


# A link with no brackets inside leaves the depth unchanged and hides its
# full stops, so it is one token; the walk then gives the same splits.
_SPLIT_TOKEN = re.compile(r"\[\[[^\[\]]*\]\]|\[\[|\]\]|\.")


def split_sentences(wikitext: str, containing: Iterable[int] | None = None) -> list[Sentence]:
    """Split at full stops outside [[...]]; each sentence carries its
    link targets in order of appearance.  A ']]' with no open link is
    plain text.

    Return only the sentences that hold one of the character offsets in
    ``containing`` (None: every offset); the walk stops after the
    sentence of the last."""
    if containing is None:
        containing = range(len(wikitext))
    hits = sorted(h for h in set(containing) if 0 <= h < len(wikitext))
    if not hits:
        return []
    spans: list[tuple[int, int]] = []
    i = 0  # next offset in hits; every earlier one lies before ``start``
    depth = 0
    start = 0
    for token in _SPLIT_TOKEN.finditer(wikitext):
        kind = token.group()
        if kind == ".":
            if depth:
                continue
            end = token.end()
            if hits[i] < end:
                spans.append((start, end))
                while i < len(hits) and hits[i] < end:
                    i += 1
                if i == len(hits):
                    return _sentences(wikitext, spans)
            start = end
        elif kind == "[[":
            depth += 1
        elif kind == "]]" and depth:
            depth -= 1
    # the tail after the last full stop is a sentence unless it is blank;
    # a text with no splitting full stop is one sentence as it stands.  Any hit not
    # yet passed lies in the tail.
    tail = wikitext[start:]
    if tail and (start == 0 or tail.strip()):
        spans.append((start, len(wikitext)))
    return _sentences(wikitext, spans)


def _sentences(wikitext: str, spans: list[tuple[int, int]]) -> list[Sentence]:
    out = []
    for start, end in spans:
        text = wikitext[start:end]
        links = tuple(m.group(1).split("|", 1)[0] for m in _LINK.finditer(text))
        out.append(Sentence(text=text, links=links))
    return out


@lru_cache(maxsize=64)
def _trigger_patterns(
    phrases: tuple[str, ...],
) -> tuple[re.Pattern[str], tuple[tuple[str, re.Pattern[str]], ...], tuple[str, ...] | None]:
    """A prefilter over all phrases, one pattern per phrase, and the
    prefilter's heads folded (None if a head is empty or folds to another
    length, since its hits would not line up with the text).

    The prefilter alternates each phrase's head, the part before its
    first '.', so a hit never spans a sentence end.  Wherever a phrase
    matches, inside a sentence or in the whole text, its head matches at
    the same offset: the character before a sentence is a '.', and a
    head that stops short of its phrase is followed by that phrase's
    '.'.  The prefilter therefore rejects only text in which no phrase
    matches."""
    def bounded(body: str) -> str:
        return r"(?<!\w)(?:" + body + r")(?!\w)"

    heads = dict.fromkeys(phrase.split(".", 1)[0] for phrase in phrases)
    prefilter = bounded("|".join(re.escape(head) for head in heads))
    if heads and all(heads):
        # cheap first-character test before the alternation; exact under IGNORECASE
        firsts = "".join(re.escape(c) for c in dict.fromkeys(head[0] for head in heads))
        prefilter = "(?=[" + firsts + "])" + prefilter
    each = tuple(
        (phrase, re.compile(bounded(re.escape(phrase)), re.IGNORECASE)) for phrase in phrases
    )
    folded = None
    if all(heads) and all(len(_fold(head)) == len(head) for head in heads):
        folded = tuple(dict.fromkeys(_fold(head) for head in heads))
    return re.compile(prefilter, re.IGNORECASE), each, folded


def _fold(text: str) -> str:
    """Case-fold so that characters re.IGNORECASE treats as equal fold
    alike when each folds to one character: casefold, plus the dotless
    'ı' that the regex equates with 'i' and 'I'."""
    return text.casefold().replace("ı", "i")


def _trigger_hits(text: str, phrases: tuple[str, ...]) -> list[int]:
    """Offsets where the prefilter of ``phrases`` matches in ``text``: the
    starts its ``finditer`` scan gives, and the overlapping matches that
    the scan skips, which lie in the sentence of the match before them
    because a head holds no '.'.

    Each folded head is found in the folded text with ``str.find``, and
    an offset is kept where the prefilter matches the text itself.
    Wherever the regex matches a head, the folded text holds the folded
    head at the same offset, provided the text and every head keep
    their length under ``_fold``; otherwise the prefilter scans the
    text."""
    prefilter, _each, heads = _trigger_patterns(phrases)
    folded = None if heads is None else _fold(text)
    if folded is None or len(folded) != len(text):
        return [m.start() for m in prefilter.finditer(text)]
    hits = []
    for head in heads:
        at = folded.find(head)
        while at != -1:
            if prefilter.match(text, at):
                hits.append(at)
            at = folded.find(head, at + 1)
    return hits


def find_trigger(sentence: str, dictionary: MarkerDictionary) -> str | None:
    """First trigger phrase (dictionary order) present at a word boundary."""
    for phrase, pattern in _trigger_patterns(dictionary.trigger_words)[1]:
        if pattern.search(sentence):
            return phrase
    return None


def match_alumni(
    page: WikiPage, birth_year: int | None, registry: Registry, dictionary: MarkerDictionary
) -> list[AlumniRecord]:
    """Emit one record per (person, university) pair found in a
    trigger-bearing sentence; duplicates across sentences are merged.

    One search of the page finds the offsets where a trigger may start;
    only the sentences holding one are split out and tested."""
    hits = _trigger_hits(page.wikitext, dictionary.trigger_words)
    if not hits:
        return []
    records: dict[int, AlumniRecord] = {}
    for sentence in split_sentences(page.wikitext, containing=hits):
        trigger = find_trigger(sentence.text, dictionary)
        if trigger is None:
            continue
        for target in sentence.links:
            uid = registry.resolve_link(target, page.lang)
            if uid is None or uid in records:
                continue
            records[uid] = AlumniRecord(
                university_id=uid,
                university_name=registry.name_of(uid),
                person_link=page.title,
                birth_year=birth_year,
                lang=page.lang,
                sentence=sentence.text.strip(),
                trigger=trigger,
            )
    return list(records.values())


def merge_records(records: Iterable[AlumniRecord]) -> list[AlumniRecord]:
    """Drop duplicate (university, person, lang) triples, keeping the first."""
    seen: dict[tuple[int, str, str], AlumniRecord] = {}
    for rec in records:
        seen.setdefault(rec.key(), rec)
    return list(seen.values())


def sorted_records(records: Iterable[AlumniRecord]) -> list[AlumniRecord]:
    return sorted(records, key=lambda r: (r.university_id, r.person_link, r.lang))


def write_dataset(
    records: Sequence[AlumniRecord], path: str | Path, enriched: bool = False
) -> Path:
    """Write the tab-separated dataset, stably sorted; header-only when
    there are no records."""
    rows = []
    for rec in sorted_records(merge_records(records)):
        row = [
            str(rec.university_id),
            rec.university_name,
            rec.person_link,
            "" if rec.birth_year is None else str(rec.birth_year),
            rec.lang,
        ]
        if enriched:
            row.append(rec.person_link_en or "")
            row.append("" if rec.views_total is None else str(rec.views_total))
        rows.append(row)
    return write_tsv(path, ENRICHED_COLUMNS if enriched else BASE_COLUMNS, rows)


def read_dataset(path: str | Path) -> list[AlumniRecord]:
    """Read a dataset file written by write_dataset (either schema)."""
    return read_tsv(path, headers=[BASE_COLUMNS, ENRICHED_COLUMNS], parse=_parse_record)[1]


def _parse_record(parts: list[str]) -> AlumniRecord:
    person_link_en, views_total = parts[5:] or ("", "")
    return AlumniRecord(
        university_id=int(parts[0]),
        university_name=parts[1],
        person_link=parts[2],
        birth_year=int(parts[3]) if parts[3] else None,
        lang=parts[4],
        person_link_en=person_link_en or None,
        views_total=int(views_total) if views_total else None,
    )
