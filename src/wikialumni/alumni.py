"""Sentence segmentation, trigger matching, and the alumni dataset file.

A sentence is everything up to a full stop outside every wiki link, so
a '.' inside "[[St. Andrews]]" never splits; the full stops inside a
link that holds a link, as a caption "[[File:X.jpg|At [[Univ A]].]]"
does, are blanked first.  A sentence containing a trigger word
contributes one record per university link it holds.

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


# a '[[' that opens no link free of brackets: the start of a nested link
_UNPAIRED_OPEN = re.compile(r"\[\[(?![^\[\]]*\]\])")
_BRACKETS = re.compile(r"\[\[|\]\]")


def split_sentences(wikitext: str, containing: Iterable[int] | None = None) -> list[Sentence]:
    """Split at the full stops outside every [[...]], once those inside a
    link that holds a link are blanked; each sentence carries its link
    targets in order of appearance.  A ']]' with no open link is plain
    text.  Return only the sentences that hold one of the character
    offsets in ``containing`` (None: every offset)."""
    if containing is None:
        containing = range(len(wikitext))
    return _sentences(wikitext, _spans_between_stops(_mask_nested(wikitext), containing))


def _mask_nested(wikitext: str) -> str:
    """``wikitext`` with each '.' blanked from every '[[' that opens no
    link free of brackets to the ']]' that brings the depth of '[[' and
    ']]' back to 0, or to the end; a text without such a '[[' comes back
    as it is."""
    pieces = []
    done = 0
    opened = _UNPAIRED_OPEN.search(wikitext)
    while opened is not None:
        start = opened.start()
        end = len(wikitext)
        depth = 0
        for token in _BRACKETS.finditer(wikitext, start):
            depth += 1 if token.group() == "[[" else -1
            if not depth:
                end = token.end()
                break
        pieces += (wikitext[done:start], wikitext[start:end].replace(".", " "))
        done = end
        opened = _UNPAIRED_OPEN.search(wikitext, end)
    pieces.append(wikitext[done:])
    return "".join(pieces)


def _spans_between_stops(wikitext: str, containing: Iterable[int]) -> list[tuple[int, int]]:
    """The spans of the sentences holding an offset in ``containing``,
    once only links free of brackets hold full stops.  A full stop splits
    unless it lies inside such a link, that is unless the last '[['
    before it closes after it.  A sentence ends after the first splitting
    stop at or after its offset, or at the end of the text, and starts
    after the splitting stop before that offset."""
    n = len(wikitext)
    spans: list[tuple[int, int]] = []
    start = 0  # every splitting stop before ``start`` is passed
    for hit in sorted(h for h in set(containing) if 0 <= h < n):
        if spans and hit < spans[-1][1]:
            continue
        stop = wikitext.rfind(".", start, hit)
        while stop != -1:
            opened = wikitext.rfind("[[", start, stop)
            if opened == -1 or wikitext.find("]]", opened) < stop:
                start = stop + 1
                break
            stop = wikitext.rfind(".", start, opened)
        stop = wikitext.find(".", hit)
        while stop != -1:
            opened = wikitext.rfind("[[", start, stop)
            if opened == -1:
                break
            closed = wikitext.find("]]", opened)
            if closed < stop:
                break
            stop = wikitext.find(".", closed)
        if stop == -1:
            # the tail is a sentence unless it is blank and follows a stop
            if start == 0 or wikitext[start:].strip():
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
