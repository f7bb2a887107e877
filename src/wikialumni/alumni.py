"""Sentence segmentation, trigger matching, and the alumni dataset file.

A sentence is everything up to a full stop outside every wiki link:
each full stop inside a link, as in "[[St. Andrews]]" or in a caption
"[[File:X.jpg|At [[Univ A]].]]", is blanked first, and the rest split.
A sentence containing a trigger word contributes one record per
university link it holds.

Matching has two halves.  The text half, ``match_alumni``, needs only
the page and the dictionary; ingest runs it on each person page and
writes its (trigger, sentence, link) rows to ``candidates/<lang>.tsv``.
The registry half, ``resolve_candidate``, turns one such row into a
record when its link names a university; extract runs it on every row.

The text half searches each page once for trigger hits and splits out
only the sentences that hold one; a phrase that contains '.' still
matches only inside one sentence.  The search case-folds the page and
each phrase's head (its part before the first '.'), finds each head with
``str.find`` and keeps a hit only where the case-insensitive prefilter
regex matches the page there.  A page or head whose fold changes its
length (ß, İ, ligatures) is scanned with that regex instead.  The
prefilter, the per-phrase patterns and the folded heads are compiled
once per phrase tuple.

The matcher takes plain values and imports nothing of the person files
or the CLI, so an ingest worker can call it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .dump import WikiPage
from .registry import MarkerDictionary, Registry, normalize_title
from .tsv import read_tsv, write_tsv

BASE_COLUMNS = ["university_id", "university_name", "person_link", "birth_year", "lang"]
ENRICHED_COLUMNS = BASE_COLUMNS + ["person_link_en", "views_total"]
# one row per (person page, trigger sentence, link), as ingest finds them
CANDIDATE_COLUMNS = ["page_id", "title", "birth_year", "trigger", "sentence", "link"]

_LINK = re.compile(r"\[\[(.+?)\]\]", re.DOTALL)
_TAB_OR_LINE_BREAK = re.compile("[\t\r\n]")


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


# a link free of brackets that holds a full stop, or a '[[' that opens no
# link free of brackets: the start of a link that holds a link
_MASKED = re.compile(r"\[\[(?:(?P<dotted>[^\[\].]*\.[^\[\]]*\]\])|(?![^\[\]]*\]\]))")
_BRACKETS = re.compile(r"\[\[|\]\]")


def split_sentences(wikitext: str, containing: Iterable[int] | None = None) -> list[Sentence]:
    """Split at every full stop outside a [[...]]: the stops inside a
    link are blanked first, and the rest split.  Each sentence carries
    its link targets in order of appearance.  A ']]' with no open link
    is plain text.  Return only the sentences that hold one of the
    character offsets in ``containing`` (None: every offset)."""
    if containing is None:
        containing = range(len(wikitext))
    return _sentences(wikitext, _spans_between_stops(_mask_links(wikitext), containing))


def _mask_links(wikitext: str) -> str:
    """``wikitext`` with each '.' inside a link blanked, that is each '.'
    where the depth of '[[' and ']]' is above 0.  A link free of brackets
    is blanked to its ']]'; a '[[' that opens no such link is blanked to
    the ']]' that brings the depth back to 0, or to the end."""
    pieces = []
    done = 0
    found = _MASKED.search(wikitext)
    while found is not None:
        start, end = found.span()
        if found["dotted"] is None:
            end = len(wikitext)
            depth = 0
            for token in _BRACKETS.finditer(wikitext, start):
                depth += 1 if token.group() == "[[" else -1
                if not depth:
                    end = token.end()
                    break
        pieces += (wikitext[done:start], wikitext[start:end].replace(".", " "))
        done = end
        found = _MASKED.search(wikitext, end)
    pieces.append(wikitext[done:])
    return "".join(pieces)


def _spans_between_stops(masked: str, containing: Iterable[int]) -> list[tuple[int, int]]:
    """The spans of the sentences holding an offset in ``containing``,
    where every full stop of ``masked`` splits (its stops inside links
    are blanked).  A sentence ends after the first stop at or after its
    offset, or at the end of the text, and starts after the stop before
    that offset."""
    n = len(masked)
    spans: list[tuple[int, int]] = []
    start = 0  # every stop before ``start`` is passed
    for hit in sorted(h for h in set(containing) if 0 <= h < n):
        if spans and hit < spans[-1][1]:
            continue
        stop = masked.rfind(".", start, hit)
        if stop != -1:
            start = stop + 1
        stop = masked.find(".", hit)
        if stop == -1:
            # the tail is a sentence unless it is blank and follows a stop
            if start == 0 or masked[start:].strip():
                spans.append((start, n))
            break
        spans.append((start, stop + 1))
        start = stop + 1
    return spans


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
) -> tuple[
    re.Pattern[str], tuple[tuple[str, re.Pattern[str], str | None], ...], tuple[str, ...] | None
]:
    """A prefilter over all phrases; per phrase, its pattern and the
    phrase folded (None if it folds to another length); and the
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
        (phrase, re.compile(bounded(re.escape(phrase)), re.IGNORECASE),
         _fold(phrase) if len(_fold(phrase)) == len(phrase) else None)
        for phrase in phrases
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
    """First trigger phrase (dictionary order) present at a word boundary.

    A phrase's pattern runs only if the folded sentence holds the folded
    phrase, whenever both keep their length under ``_fold``: a match
    then folds to the folded phrase, as in ``_trigger_hits``."""
    folded = _fold(sentence)
    if len(folded) != len(sentence):
        folded = None
    for phrase, pattern, needle in _trigger_patterns(dictionary.trigger_words)[1]:
        if (folded is None or needle is None or needle in folded) and pattern.search(sentence):
            return phrase
    return None


def match_alumni(page: WikiPage, dictionary: MarkerDictionary) -> list[tuple[str, str, str]]:
    """The text half of matching: (trigger, sentence, link) for each link
    of each trigger-bearing sentence, in page order.  The sentence is
    whitespace-normalized as the evidence file holds it, and the link is
    normalized as the registry looks it up; a link that still holds a
    tab or a line break is left out, since no registry title does.

    One search of the page finds the offsets where a trigger may start;
    only the sentences holding one are split out, and only those with a
    link are tested."""
    hits = _trigger_hits(page.wikitext, dictionary.trigger_words)
    if not hits:
        return []
    found = []
    for sentence in split_sentences(page.wikitext, containing=hits):
        if not sentence.links:
            continue
        trigger = find_trigger(sentence.text, dictionary)
        if trigger is None:
            continue
        text = " ".join(sentence.text.split())
        for target in sentence.links:
            link = normalize_title(target)
            if not _TAB_OR_LINE_BREAK.search(link):
                found.append((trigger, text, link))
    return found


def resolve_candidate(fields: list[str], lang: str, registry: Registry) -> AlumniRecord | None:
    """The registry half of matching: the record of one row of a
    candidates file (CANDIDATE_COLUMNS), or None when its link names no
    university.  A page id or birth year that is not an integer raises
    ValueError, whether or not the link resolves."""
    page_id, title, birth_year, trigger, sentence, link = fields
    int(page_id)  # unused, but a damaged row must fail here with its line
    year = int(birth_year) if birth_year else None
    uid = registry.resolve_link(link, lang)
    if uid is None:
        return None
    return AlumniRecord(
        university_id=uid,
        university_name=registry.name_of(uid),
        person_link=title,
        birth_year=year,
        lang=lang,
        sentence=sentence,
        trigger=trigger,
    )


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
