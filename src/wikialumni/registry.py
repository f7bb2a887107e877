"""University registry and per-language marker dictionaries.

The registry maps (language, page title) to a university id.  Titles are
normalized the way wiki links denote them: first letter case-folded to
upper, underscores treated as spaces, section anchors and pipe text
stripped.

Redirect aliases are folded in with one pass per language over the
redirect map, in its order: a redirect whose normalized target a
university holds adds its normalized title to that university, and a
title added this way counts for every later redirect in the map (not
for earlier ones).  The pass normalizes each target once and each
matched alias once, so a load is linear in the number of redirects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DictionaryError, RegistryError
from .tsv import read_tsv

_WS = re.compile(r"[ _]+")

UNIVERSITY_COLUMNS = ["id", "canonical_name", "lang", "title"]


def normalize_title(raw: str) -> str:
    """Normalize a link target or title to its canonical lookup form."""
    t = raw.split("|", 1)[0].split("#", 1)[0]
    t = _WS.sub(" ", t).strip()
    if not t:
        return ""
    return t[0].upper() + t[1:]


@dataclass
class University:
    id: int
    canonical_name: str
    # all lookup titles per language (canonical + redirect aliases), normalized
    titles: dict[str, set[str]] = field(default_factory=dict)
    # first-listed title per language; used for the university's own pageviews
    canonical_titles: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class MarkerDictionary:
    """Person markers and alumni trigger phrases for one language.

    Matching is always case-insensitive.
    """

    person_markers: tuple[str, ...]
    trigger_words: tuple[str, ...]


class Registry:
    """Immutable after load; safe for concurrent reads."""

    def __init__(self, universities: dict[int, University]):
        self.universities = universities
        self._index: dict[tuple[str, str], int] = {}
        for uni in universities.values():
            for lang, titles in uni.titles.items():
                for title in titles:
                    key = (lang, title)
                    other = self._index.get(key)
                    if other is not None and other != uni.id:
                        claimant = universities[other]
                        raise RegistryError(
                            f"title {title!r} in lang {lang!r} claimed by both "
                            f"university {other} ({claimant.canonical_name!r}) "
                            f"and university {uni.id} ({uni.canonical_name!r})"
                        )
                    self._index[key] = uni.id

    def resolve_link(self, target_title: str, lang: str) -> int | None:
        """Return the university id for a link target, or None on miss."""
        return self._index.get((lang, normalize_title(target_title)))

    def name_of(self, university_id: int) -> str:
        return self.universities[university_id].canonical_name


def load_registry(
    universities_file: str | Path,
    redirect_maps: dict[str, dict[str, str]] | None = None,
) -> Registry:
    """Load the universities file and fold in redirect aliases.

    The file is tab-separated with a header row: id, canonical_name,
    lang, title; one row per (university, lang, title).  redirect_maps
    gives, per language, the canonical-target mapping produced by
    dump.collect_redirects; every redirect whose target belongs to a
    university, by its titles or by an alias added earlier in the same
    map, becomes an alias of that university.
    """
    redirect_maps = redirect_maps or {}
    universities: dict[int, University] = {}
    names: dict[int, str] = {}

    _, rows = read_tsv(universities_file, headers=[UNIVERSITY_COLUMNS], error=RegistryError,
                       parse=lambda fields: (int(fields[0]), *fields[1:]))
    for uid, name, lang, title in rows:
        if uid in names and names[uid] != name:
            raise RegistryError(
                f"{universities_file}: duplicate id {uid} with conflicting "
                f"names {names[uid]!r} and {name!r}"
            )
        names[uid] = name
        uni = universities.setdefault(uid, University(uid, name))
        norm = normalize_title(title)
        if not norm:
            raise RegistryError(
                f"{universities_file}: empty title for university {uid} in lang {lang!r}"
            )
        uni.titles.setdefault(lang, set()).add(norm)
        uni.canonical_titles.setdefault(lang, norm)

    for lang, redirects in redirect_maps.items():
        _fold_aliases([uni.titles[lang] for uni in universities.values() if lang in uni.titles],
                      redirects)

    return Registry(universities)


def _fold_aliases(title_sets: list[set[str]], redirects: dict[str, str]) -> None:
    """The alias fold of one language (see the module docstring) on the
    title sets of the universities that have that language.  owners maps
    a title to the sets holding it, aliases added so far included."""
    owners: dict[str, list[set[str]]] = {}
    for titles in title_sets:
        for title in titles:
            owners.setdefault(title, []).append(titles)
    for alias, target in redirects.items():
        holders = owners.get(normalize_title(target))
        if not holders:
            continue
        norm = normalize_title(alias)
        for titles in holders:
            if norm not in titles:
                titles.add(norm)
                owners.setdefault(norm, []).append(titles)


def load_dictionary(path: str | Path) -> MarkerDictionary:
    """Parse a dictionary file: '[person_markers]' and '[trigger_words]'
    sections, one phrase per line, '#' comments."""
    sections: dict[str, list[str]] = {"person_markers": [], "trigger_words": []}
    current: list[str] | None = None
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DictionaryError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise DictionaryError(f"{path}:{lineno}: unknown section {name!r}")
            current = sections[name]
            continue
        if current is None:
            raise DictionaryError(f"{path}:{lineno}: phrase outside any section")
        current.append(line)

    if not sections["person_markers"] or not sections["trigger_words"]:
        raise DictionaryError(f"{path}: both sections must be non-empty")
    return MarkerDictionary(
        person_markers=tuple(sections["person_markers"]),
        trigger_words=tuple(sections["trigger_words"]),
    )


def bundled_dictionary_path(lang: str) -> Path:
    """Path of a starter dictionary shipped with the package."""
    return Path(__file__).parent / "data" / "dictionaries" / f"{lang}.txt"
