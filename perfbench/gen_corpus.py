"""Deterministic synthetic MediaWiki projects for the pipeline benchmark.

``generate(workload, seed, out_dir, scale)`` writes one complete project
(dumps, dictionaries, universities file, pageview and langlinks fixtures,
external rankings, config.yaml) plus ``plan.json``: the facts the
generator planted, from which ``checks.py`` derives every expected
output.  The plan comes from the generator's own bookkeeping, never from
running the pipeline.

Every page is built so that what it plants is unambiguous under the
method's rules:

* non-person pages contain no person marker (case-folded substring);
* the planted birth year is the first four-digit token in range, and
  persons without a year have no four-digit token in range at all;
* a planted alumni sentence holds exactly one trigger phrase, and every
  other sentence of a person page holds none;
* no full stop appears outside ``[[...]]`` except at a sentence end;
* titles never contain ``_``, ``|``, ``#`` or brackets, and university
  titles are already in normalized form.

The same (workload, seed, scale) gives byte-identical files.
"""

from __future__ import annotations

import bz2
import gzip
import json
import random
import re
import shutil
import sys
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

ANALYSIS_YEAR = 2017
MODERN_MIN_BIRTH_YEAR = 1948
MODERN_MIN_VIEWS_EXCLUSIVE = 999
# The view cache names a file after the percent-quoted title plus about
# 23 bytes; past 255 bytes the views stage dies with errno 36, so
# generated titles stay below this.
MAX_QUOTED_TITLE = 200

EN_MARKERS = ("births]]", "born", "Category:Living people")
EN_TRIGGERS = (
    "graduated", "alumnus", "alumna", "alumni", "received degree",
    "received his degree", "received her degree", "studied at",
    "earned a degree", "bachelor's degree from", "master's degree from",
    "doctorate from",
)
RU_MARKERS = ("Категория:Родившиеся в", "родился", "родилась", "года рождения")
RU_TRIGGERS = (
    "окончил", "окончила", "выпускник", "выпускница", "получил степень",
    "получила степень", "учился в", "училась в",
)
MARKERS = {"en": EN_MARKERS, "ru": RU_MARKERS}
TRIGGERS = {"en": EN_TRIGGERS, "ru": RU_TRIGGERS}


@dataclass(frozen=True)
class Spec:
    langs: tuple[str, ...]
    compression: str  # "bz2", "gz" or "xml"
    universities: int
    alumni_pool: int  # universities 1..n have alumni and redirect aliases; the rest neither
    en_aliases: int  # redirect aliases per university in en; the second is a chain
    ru_alias_share: float  # share of universities with one ru redirect alias
    articles: int  # short non-person articles per language
    persons: int  # person pages per language
    other_ns: int  # non-article pages carrying person markers, per language
    extra_redirects: int  # redirects to articles per language, incl. chains and cycles
    filler: tuple[int, int]  # non-trigger sentences per biography
    pairs: tuple[int, ...]  # universities planted per person, cycled
    repeats: int  # extra trigger sentences re-naming a planted university
    external_rankings: bool


WORKLOADS: dict[str, Spec] = {
    "bz2_sparse_2lang": Spec(
        langs=("en", "ru"), compression="bz2", universities=16, alumni_pool=16, en_aliases=2,
        ru_alias_share=1.0, articles=1000, persons=270, other_ns=90,
        extra_redirects=570, filler=(2, 5), pairs=(1, 1, 2, 0, 1, 1, 0, 2),
        repeats=0, external_rankings=False,
    ),
    "dense_bios_plain": Spec(
        langs=("en",), compression="xml", universities=300, alumni_pool=30, en_aliases=1,
        ru_alias_share=0.0, articles=4000, persons=100, other_ns=10,
        extra_redirects=20, filler=(100, 120), pairs=(3, 4, 3, 2, 4),
        repeats=2, external_rankings=False,
    ),
    "paper_registry_gz": Spec(
        langs=("en", "ru"), compression="gz", universities=464, alumni_pool=464, en_aliases=1,
        ru_alias_share=0.1, articles=5000, persons=150, other_ns=20,
        extra_redirects=20, filler=(2, 5), pairs=(1, 2, 1, 0, 1, 1, 2),
        repeats=0, external_rankings=True,
    ),
}

TINY: dict[str, Spec] = {
    "bz2_sparse_2lang": Spec(
        langs=("en", "ru"), compression="bz2", universities=8, alumni_pool=8, en_aliases=2,
        ru_alias_share=1.0, articles=60, persons=20, other_ns=6,
        extra_redirects=40, filler=(2, 5), pairs=(1, 1, 2, 0, 1, 1, 0, 2),
        repeats=0, external_rankings=False,
    ),
    "dense_bios_plain": Spec(
        langs=("en",), compression="xml", universities=20, alumni_pool=8, en_aliases=1,
        ru_alias_share=0.0, articles=10, persons=12, other_ns=3,
        extra_redirects=6, filler=(100, 120), pairs=(2, 1, 2, 1, 3),
        repeats=2, external_rankings=False,
    ),
    "paper_registry_gz": Spec(
        langs=("en", "ru"), compression="gz", universities=40, alumni_pool=40, en_aliases=1,
        ru_alias_share=0.25, articles=20, persons=30, other_ns=3,
        extra_redirects=6, filler=(2, 5), pairs=(1, 2, 1, 0, 1, 1, 2),
        repeats=0, external_rankings=True,
    ),
}

SCALES = {"normal": WORKLOADS, "tiny": TINY}

# Latin/Cyrillic syllable pairs: a place or a name is built once and
# spelled in both scripts, so an English counterpart is a transliteration.
SYLLABLES = [
    ("ka", "ка"), ("lo", "ло"), ("mir", "мир"), ("ve", "ве"), ("tal", "тал"),
    ("ro", "ро"), ("sen", "сен"), ("du", "ду"), ("gra", "гра"), ("vin", "вин"),
    ("pe", "пе"), ("tra", "тра"), ("nov", "нов"), ("zel", "зел"), ("ma", "ма"),
    ("ri", "ри"), ("sol", "сол"), ("ne", "не"), ("kov", "ков"), ("lin", "лин"),
    ("da", "да"), ("vo", "во"), ("ster", "стер"), ("gu", "гу"), ("ta", "та"),
    ("mel", "мел"), ("ros", "рос"), ("ki", "ки"), ("pol", "пол"), ("an", "ан"),
    ("bel", "бел"), ("dor", "дор"), ("fa", "фа"), ("lev", "лев"), ("mo", "мо"),
    ("nik", "ник"), ("sa", "са"), ("tor", "тор"), ("ul", "ул"), ("zar", "зар"),
]
EN_FIRST = [
    ("Anna", "Анна", "f"), ("Boris", "Борис", "m"), ("Clara", "Клара", "f"),
    ("Denis", "Денис", "m"), ("Elena", "Елена", "f"), ("Felix", "Феликс", "m"),
    ("Galina", "Галина", "f"), ("Igor", "Игорь", "m"), ("Irina", "Ирина", "f"),
    ("Karl", "Карл", "m"), ("Lidia", "Лидия", "f"), ("Mark", "Марк", "m"),
    ("Nina", "Нина", "f"), ("Oleg", "Олег", "m"), ("Olga", "Ольга", "f"),
    ("Pavel", "Павел", "m"), ("Roman", "Роман", "m"), ("Sofia", "София", "f"),
    ("Timur", "Тимур", "m"), ("Vera", "Вера", "f"), ("Victor", "Виктор", "m"),
    ("Yulia", "Юлия", "f"), ("Zoya", "Зоя", "f"), ("Anton", "Антон", "m"),
]
MONTHS = {
    "en": ["January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December"],
    "ru": ["января", "февраля", "марта", "апреля", "мая", "июня", "июля",
           "августа", "сентября", "октября", "ноября", "декабря"],
}
FIELDS = {
    "en": ["physics", "chemistry", "history", "economics", "linguistics",
           "mathematics", "architecture", "music", "medicine", "philosophy",
           "law", "geology"],
    "ru": ["физике", "химии", "истории", "экономике", "лингвистике",
           "математике", "архитектуре", "музыке", "медицине", "философии"],
}
OCCUPATIONS = {
    "en": ["physicist", "chemist", "historian", "economist", "writer", "composer",
           "architect", "politician", "engineer", "painter", "lawyer", "actor"],
    "ru": ["физик", "химик", "историк", "экономист", "писатель", "композитор",
           "архитектор", "политик", "инженер", "художник", "юрист", "актёр"],
}
TOPIC_WORDS = {
    "en": ["river", "valley", "bridge", "festival", "railway", "museum", "treaty",
           "castle", "harbour", "theatre", "canal", "monastery", "lighthouse"],
    "ru": ["река", "долина", "мост", "фестиваль", "железная дорога", "музей",
           "договор", "замок", "гавань", "театр", "канал", "монастырь"],
}
PRONOUNS = {
    ("en", "m"): ("He", "his"), ("en", "f"): ("She", "her"),
    ("ru", "m"): ("Он", "его"), ("ru", "f"): ("Она", "её"),
}

# Alumni sentence templates: {p} pronoun, {q} possessive, {l} link,
# {f} field.  Each holds exactly one trigger phrase; the phrase comes
# first in the tuple.
EN_ALUMNI = [
    ("graduated", "{p} graduated from {l} with a thesis in {f}."),
    ("studied at", "{p} studied at {l} under several well known teachers."),
    ("earned a degree", "{p} earned a degree in {f} at {l}."),
    ("doctorate from", "{p} obtained a doctorate from {l} after long research."),
    ("bachelor's degree from", "{p} holds a bachelor's degree from {l}."),
    ("master's degree from", "{p} took a master's degree from {l} in {f}."),
    ("alumni", "{p} is one of the best known alumni of {l}."),
]
EN_ALUMNI_GENDERED = {
    "m": [("alumnus", "{p} is an alumnus of {l}."),
          ("received his degree", "{p} received his degree in {f} at {l}.")],
    "f": [("alumna", "{p} is an alumna of {l}."),
          ("received her degree", "{p} received her degree in {f} at {l}.")],
}
EN_ALUMNI_TWO = [
    ("studied at", "{p} studied at {l} and later at {m}."),
    ("graduated", "{p} graduated from {l} and from {m} in {f}."),
]
RU_ALUMNI = {
    "m": [("окончил", "{p} окончил {l} по специальности в {f}."),
          ("выпускник", "{p} выпускник {l}."),
          ("учился в", "{p} учился в {l} у известных учителей."),
          ("получил степень", "{p} получил степень по {f} в {l}.")],
    "f": [("окончила", "{p} окончила {l} по специальности в {f}."),
          ("выпускница", "{p} выпускница {l}."),
          ("училась в", "{p} училась в {l} у известных учителей."),
          ("получила степень", "{p} получила степень по {f} в {l}.")],
}
RU_ALUMNI_TWO = {
    "m": [("учился в", "{p} учился в {l} и затем в {m}.")],
    "f": [("училась в", "{p} училась в {l} и затем в {m}.")],
}
# A trigger sentence whose only link is not a university.
EN_TRIGGER_DECOYS = [
    "{p} graduated from a small school in {c}.",
    "{p} studied at {a} for two years.",
    "{p} graduated with honours.",
]
RU_TRIGGER_DECOYS = {
    "m": ["{p} окончил школу в городе {c}.", "{p} учился в {a} два года."],
    "f": ["{p} окончила школу в городе {c}.", "{p} училась в {a} два года."],
}
# Body sentences of short non-person articles: {w} topic word, {f}
# field, {c} city.
ARTICLE_SENTENCES = {
    "en": [
        "It is known for its {w} and its {f} collections.",
        "The {w} near [[{c}]] draws visitors every summer.",
        "Local societies study its history and its {w}.",
        "A small museum of {f} opened there in the last century.",
        "The road to [[{c}]] follows the old {w}.",
        "Its archive holds maps, letters and drawings of the {w}.",
    ],
    "ru": [
        "Известен как {w}.",
        "Рядом с городом [[{c}]] находится {w}.",
        "Местное общество изучает его историю.",
        "Небольшой музей посвящён {f}.",
        "Дорога в [[{c}]] проходит мимо старого объекта.",
    ],
}
# Sentences without a trigger; {u} is a university link, which must not
# produce a record here.
EN_FILLER = [
    "{p} wrote several essays on {t} and {c}.",
    "The work of {q} on {f} was widely discussed in the press.",
    "{p} later lectured at {u} for several terms.",
    "In {q} later career {p2} served on the board of {o}.",
    "{p} lived in {c} with {q} family for many years.",
    "A street in {c} was named in {q} honour.",
    "The collected letters of {q} were published by {o}.",
    "Critics praised {q} contribution to {f} and to the study of {t}.",
    "{p} spent several summers near {s} painting the coast.",
    "{p} visited {u} to give a lecture on {f}.",
]
RU_FILLER = [
    "{p} написал несколько статей о {t} и о городе {c}.",
    "Работы {q} по {f} широко обсуждались в печати.",
    "{p} читал лекции в {u} несколько лет.",
    "Позднее {p2} входил в совет {o}.",
    "{p} жил в городе {c} вместе с семьёй.",
    "Улица в городе {c} названа в {q} честь.",
    "Письма {q} издало {o}.",
]


class _Names:
    """Unique names over the syllable table, spelled in both scripts."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def place(self) -> tuple[str, str]:
        while True:
            picks = [self.rng.choice(SYLLABLES) for _ in range(self.rng.randint(2, 3))]
            en = "".join(p[0] for p in picks).capitalize()
            if en not in self.used and not _has_marker(en, "en"):
                self.used.add(en)
                return en, "".join(p[1] for p in picks).capitalize()

    def person(self) -> tuple[str, str, str]:
        first_en, first_ru, gender = self.rng.choice(EN_FIRST)
        last_en, last_ru = self.place()
        if gender == "f":
            last_ru += "а"
        return f"{first_en} {last_en}", f"{first_ru} {last_ru}", gender


def _has_marker(text: str, lang: str) -> bool:
    folded = text.casefold()
    return any(m.casefold() in folded for m in MARKERS[lang])


_TRIGGER_RES = {
    lang: [re.compile(r"(?<!\w)" + re.escape(t) + r"(?!\w)", re.IGNORECASE) for t in ts]
    for lang, ts in TRIGGERS.items()
}


def triggers_in(text: str, lang: str) -> list[str]:
    """Trigger phrases of lang present in text at word boundaries."""
    return [t for t, rx in zip(TRIGGERS[lang], _TRIGGER_RES[lang]) if rx.search(text)]


def _link(title: str, rng: random.Random, display: str) -> str:
    """A wiki link to title in one of the spellings normalize_title folds:
    plain, piped, lower-case first letter, underscores, section anchor."""
    style = rng.randrange(6)
    if style == 1:
        return f"[[{title}|{display}]]"
    if style == 2:
        return f"[[{title[0].lower()}{title[1:]}]]"
    if style == 3 and " " in title:
        return f"[[{title.replace(' ', '_')}]]"
    if style == 4:
        return f"[[{title}#History|{display}]]"
    return f"[[{title}]]"


def _check_title(title: str) -> None:
    if any(c in title for c in "_|#[]{}") or title != title.strip():
        raise AssertionError(f"title {title!r} is not in normalized form")
    if len(urllib.parse.quote(title, safe="")) > MAX_QUOTED_TITLE:
        raise AssertionError(f"title {title!r} is too long for the view cache")


class _Builder:
    def __init__(self, workload: str, spec: Spec, seed: int):
        self.spec = spec
        self.rng = random.Random(f"{workload}:{seed}")
        self.names = _Names(self.rng)
        self.pages: dict[str, list[dict]] = {lang: [] for lang in spec.langs}
        self.views: dict[tuple[str, str], int] = {}
        self.persons: list[dict] = []
        self.pairs: list[dict] = []
        self.decoys: list[dict] = []
        self.universities: list[dict] = []
        self.uni_rows: list[tuple[int, str, str, str]] = []
        # lang -> uid -> link titles that resolve to the university
        self.uni_links: dict[str, dict[int, list[str]]] = {lang: {} for lang in spec.langs}
        self.cities: dict[str, list[str]] = {lang: [] for lang in spec.langs}
        self.topics: dict[str, list[str]] = {lang: [] for lang in spec.langs}
        self.orgs: dict[str, list[str]] = {lang: [] for lang in spec.langs}
        self.academies: dict[str, list[str]] = {lang: [] for lang in spec.langs}

    # -- pages ---------------------------------------------------------
    def add_page(self, lang: str, title: str, text: str, ns: int = 0,
                 redirect: str | None = None) -> dict:
        _check_title(title)
        page = {"title": title, "ns": ns, "redirect": redirect, "text": text, "id": None}
        self.pages[lang].append(page)
        return page

    def add_redirect(self, lang: str, alias: str, target: str) -> None:
        word = "#REDIRECT" if lang == "en" else "#перенаправление"
        self.add_page(lang, alias, f"{word} [[{target}]]", redirect=target)

    def add_article(self, lang: str, title: str, text: str) -> None:
        if _has_marker(text, lang):
            raise AssertionError(f"article {title!r} carries a person marker")
        self.add_page(lang, title, text)

    # -- universities and background -----------------------------------
    def build_background(self) -> None:
        rng = self.rng
        for lang in self.spec.langs:
            for _ in range(max(8, self.spec.articles // 6)):
                en, ru = self.names.place()
                en2, ru2 = self.names.place()
                if lang == "en":
                    self.cities[lang].append(en)
                    self.topics[lang].append(f"{en2} {rng.choice(TOPIC_WORDS['en'])}")
                    self.orgs[lang].append(f"{en2} Society of {rng.choice(FIELDS['en']).capitalize()}")
                    self.academies[lang].append(f"St. {en2} Academy of Music")
                else:
                    self.cities[lang].append(ru)
                    self.topics[lang].append(f"{rng.choice(TOPIC_WORDS['ru']).capitalize()} {ru2}")
                    self.orgs[lang].append(f"Общество {ru2}")
                    self.academies[lang].append(f"Академия музыки {ru2}")

    def build_universities(self) -> None:
        spec, rng = self.spec, self.rng
        en_forms = [
            "University of {x}", "{x} University", "{x} Institute of Technology",
            "{x} State University", "St. {x} College", "{x} Polytechnic University",
        ]
        ru_forms = ["{x}ский университет", "Университет {x}", "{x}ский институт"]
        for uid in range(1, spec.universities + 1):
            place_en, place_ru = self.names.place()
            name = rng.choice(en_forms).format(x=place_en)
            titles = {"en": name}
            self.uni_rows.append((uid, name, "en", name))
            en_links = self.uni_links["en"].setdefault(uid, [name])
            self.add_article("en", name, f"'''{name}''' is a public university in [[{place_en}]].")
            if "ru" in spec.langs:
                ru_title = rng.choice(ru_forms).format(x=place_ru)
                titles["ru"] = ru_title
                self.uni_rows.append((uid, name, "ru", ru_title))
                ru_links = self.uni_links["ru"].setdefault(uid, [ru_title])
                self.add_article("ru", ru_title, f"'''{ru_title}''' — вуз в городе {place_ru}.")
                if uid <= spec.alumni_pool and rng.random() < spec.ru_alias_share:
                    alias = f"{place_ru} (вуз)"
                    self.add_redirect("ru", alias, ru_title)
                    ru_links.append(alias)
            if uid % 7 == 0:
                # A second listed title resolves links but is not the
                # canonical title whose views the university gets.
                listed = f"{place_en} Academy of Sciences and Letters"
                self.uni_rows.append((uid, name, "en", listed))
                en_links.append(listed)
            previous = name
            aliases = [f"{place_en} Uni", f"{place_en} U. ({place_en} campus)"]
            for alias in aliases[: spec.en_aliases if uid <= spec.alumni_pool else 0]:
                self.add_redirect("en", alias, previous)  # the second forms a chain
                en_links.append(alias)
                previous = alias
            self.universities.append({"id": uid, "name": name, "titles": titles})

    def build_articles(self) -> None:
        rng = self.rng
        for lang in self.spec.langs:
            pool = self.cities[lang] + self.topics[lang] + self.orgs[lang] + self.academies[lang]
            for i in range(self.spec.articles):
                title = pool[i] if i < len(pool) else f"{pool[i % len(pool)]} ({i})"
                city = rng.choice(self.cities[lang])
                lead = (f"'''{title}''' is a place of note in [[{city}]]." if lang == "en"
                        else f"'''{title}''' — объект в городе [[{city}]].")
                more = [
                    template.format(w=rng.choice(TOPIC_WORDS[lang]), f=rng.choice(FIELDS[lang]),
                                    c=rng.choice(self.cities[lang]))
                    for template in rng.sample(ARTICLE_SENTENCES[lang], rng.randint(1, 4))
                ]
                self.add_article(lang, title, " ".join([lead] + more))
            self.build_extra_redirects(lang, pool)

    def build_extra_redirects(self, lang: str, pool: list[str]) -> None:
        """Redirects to articles: direct ones, chains of two, and cycles
        of two that collect_redirects leaves unresolved."""
        made = i = 0
        while made < self.spec.extra_redirects:
            target = pool[i % len(pool)]
            i += 1
            base = f"{target} (redirect {i})"
            left = self.spec.extra_redirects - made
            if i % 10 == 8 and left >= 2:
                self.add_redirect(lang, base + " a", base + " b")
                self.add_redirect(lang, base + " b", base + " a")
                made += 2
            elif i % 10 in (6, 7) and left >= 2:
                self.add_redirect(lang, base + " a", target)
                self.add_redirect(lang, base + " b", base + " a")
                made += 2
            else:
                self.add_redirect(lang, base, target)
                made += 1

    # -- sentences -----------------------------------------------------
    def lead(self, lang: str, name: str, gender: str, year: int | None) -> str:
        rng = self.rng
        occupation = rng.choice(OCCUPATIONS[lang])
        day, month = rng.randint(1, 28), rng.choice(MONTHS[lang])
        if lang == "en":
            if year is None:
                return f"'''{name}''' is a renowned {occupation}."
            # an out-of-range four-digit token the scan must skip
            decoy = "catalogue no 0412; " if rng.random() < 0.2 else ""
            return f"'''{name}''' ({decoy}born {day} {month} {year}) is a renowned {occupation}."
        if year is None:
            return f"'''{name}''' — известный {occupation}."
        verb = "родился" if gender == "m" else "родилась"
        return f"'''{name}''' ({verb} {day} {month} {year} года) — известный {occupation}."

    def categories(self, lang: str, year: int | None) -> str:
        city = self.rng.choice(self.cities[lang])
        if lang == "en":
            cat = f"[[Category:{year} births]]" if year else "[[Category:Living people]]"
            return f"\n{cat}\n[[Category:People from {city}]]"
        return f"\n[[Категория:Родившиеся в {city}]]"

    def display(self, lang: str) -> str:
        return "the university" if lang == "en" else "университет"

    def alumni_sentence(self, lang: str, gender: str, uids: list[int]) -> tuple[str, str]:
        rng = self.rng
        links = [_link(rng.choice(self.uni_links[lang][u]), rng, self.display(lang)) for u in uids]
        p, q = PRONOUNS[(lang, gender)]
        if lang == "en":
            table = EN_ALUMNI_TWO if len(uids) == 2 else EN_ALUMNI + EN_ALUMNI_GENDERED[gender]
        else:
            table = RU_ALUMNI_TWO[gender] if len(uids) == 2 else RU_ALUMNI[gender]
        trigger, template = rng.choice(table)
        text = template.format(p=p, q=q, f=rng.choice(FIELDS[lang]), l=links[0], m=links[-1])
        if triggers_in(text, lang) != [trigger]:
            raise AssertionError(f"alumni sentence {text!r} is ambiguous")
        return trigger, text

    def filler_sentence(self, lang: str, gender: str) -> str:
        rng = self.rng
        p, q = PRONOUNS[(lang, gender)]
        uid = rng.choice(list(self.uni_links[lang]))
        text = rng.choice(EN_FILLER if lang == "en" else RU_FILLER).format(
            p=p, p2=p.lower(), q=q, f=rng.choice(FIELDS[lang]),
            t=_link(rng.choice(self.topics[lang]), rng, "it"),
            c=_link(rng.choice(self.cities[lang]), rng, "the city"),
            o=_link(rng.choice(self.orgs[lang]), rng, "the society"),
            s=_link(rng.choice(self.academies[lang]), rng, "the academy"),
            u=_link(rng.choice(self.uni_links[lang][uid]), rng, self.display(lang)),
        )
        if triggers_in(text, lang):
            raise AssertionError(f"filler sentence {text!r} holds a trigger")
        return text

    def trigger_decoy(self, lang: str, gender: str) -> str:
        """A trigger sentence whose links, if any, are not universities."""
        rng = self.rng
        p, _ = PRONOUNS[(lang, gender)]
        table = EN_TRIGGER_DECOYS if lang == "en" else RU_TRIGGER_DECOYS[gender]
        return rng.choice(table).format(
            p=p, c=_link(rng.choice(self.cities[lang]), rng, "the city"),
            a=_link(rng.choice(self.academies[lang]), rng, "the academy"),
        )

    # -- persons -------------------------------------------------------
    def build_persons(self) -> None:
        spec, rng = self.spec, self.rng
        n = 0
        for lang in spec.langs:
            for i in range(spec.persons):
                en_name, ru_name, gender = self.names.person()
                self.persons.append({
                    "lang": lang, "title": en_name if lang == "en" else ru_name,
                    "gender": gender, "birth_year": None if n % 9 == 4 else rng.randint(1900, 2005),
                    "title_en": en_name if lang == "ru" and i % 5 != 4 else None,
                    "unis": rng.sample(range(1, spec.alumni_pool + 1), spec.pairs[n % len(spec.pairs)]),
                    "decoy": n % 3 == 0,
                })
                n += 1
        self.person_views()
        self.untie()
        for person in self.persons:
            self.write_person(person)

    def write_person(self, person: dict) -> None:
        spec, rng = self.spec, self.rng
        lang, title, gender, unis = person["lang"], person["title"], person["gender"], person["unis"]
        # (trigger or None, text, university ids linked under the trigger)
        planted: list[tuple[str | None, str, list[int]]] = []
        rest = list(unis)
        if len(rest) >= 2 and rng.random() < 0.3:
            planted.append((*self.alumni_sentence(lang, gender, rest[:2]), rest[:2]))
            rest = rest[2:]
        for u in rest:
            planted.append((*self.alumni_sentence(lang, gender, [u]), [u]))
        for _ in range(spec.repeats if unis else 0):
            u = rng.choice(unis)
            planted.append((*self.alumni_sentence(lang, gender, [u]), [u]))
        body: list[tuple[str | None, str, list[int]]] = [
            (None, self.filler_sentence(lang, gender), [])
            for _ in range(rng.randint(*spec.filler))
        ]
        if person["decoy"]:
            body.append((None, self.trigger_decoy(lang, gender), []))
        for item in planted:
            body.insert(rng.randrange(len(body) + 1), item)
        text = " ".join(
            [self.lead(lang, title, gender, person["birth_year"])] + [b[1] for b in body]
        ) + self.categories(lang, person["birth_year"])
        person["page"] = self.add_page(lang, title, text)
        # the first trigger sentence naming a university is its evidence
        seen: set[int] = set()
        for trigger, sentence, uids in body:
            for uid in uids:
                if uid not in seen:
                    seen.add(uid)
                    self.pairs.append({
                        "lang": lang, "person": title, "university_id": uid,
                        "trigger": trigger, "sentence": " ".join(sentence.split()),
                    })
        if person["decoy"]:
            self.decoys.append({"kind": "trigger_no_university", "lang": lang, "title": title})
        elif not unis:
            self.decoys.append({"kind": "marker_no_trigger", "lang": lang, "title": title})

    def build_other_namespaces(self) -> None:
        """Talk, user and draft pages that carry markers, triggers and
        university links but are not articles."""
        rng = self.rng
        for lang in self.spec.langs:
            prefixes = ([("Talk:", 1), ("User:", 2), ("Draft:", 118)] if lang == "en"
                        else [("Обсуждение:", 1), ("Участник:", 2)])
            for i in range(self.spec.other_ns):
                en_name, ru_name, gender = self.names.person()
                prefix, ns = prefixes[i % len(prefixes)]
                year = rng.randint(1900, 2000)
                uid = rng.choice(list(self.uni_links[lang]))
                text = " ".join([
                    self.lead(lang, en_name if lang == "en" else ru_name, gender, year),
                    self.alumni_sentence(lang, gender, [uid])[1],
                ]) + self.categories(lang, year)
                title = prefix + (en_name if lang == "en" else ru_name)
                self.add_page(lang, title, text, ns=ns)
                self.decoys.append({"kind": "non_article_namespace", "lang": lang, "title": title})

    # -- views ---------------------------------------------------------
    def person_views(self) -> None:
        """About one person title in twenty has no views, but every
        alumnus keeps a non-zero total."""
        rng = self.rng
        for p in self.persons:
            national = rng.random() < 0.95
            english = p["title_en"] is not None and rng.random() < 0.9
            if p["unis"] and not (national or english):
                national = True
            if national:
                self.views[(p["lang"], p["title"])] = int(10 ** rng.uniform(1.5, 6.2))
            if english:
                self.views[("en", p["title_en"])] = int(10 ** rng.uniform(2.0, 6.5))

    def total(self, p: dict) -> int:
        total = self.views.get((p["lang"], p["title"]), 0)
        if p["title_en"]:
            total += self.views.get(("en", p["title_en"]), 0)
        return total

    def in_modern(self, p: dict) -> bool:
        year = p["birth_year"]
        return (year is not None and year >= MODERN_MIN_BIRTH_YEAR
                and self.total(p) > MODERN_MIN_VIEWS_EXCLUSIVE)

    def untie(self) -> None:
        """Make per-university alumni sums distinct in the full and the
        modern cohort, so every ranking is free of ties.  Two
        universities with the same alumni set can only be told apart by
        moving an alumnus; otherwise one alumnus's views are raised."""
        rng = self.rng
        for _ in range(100000):
            conflict = None
            for modern in (False, True):
                members: dict[int, list[int]] = {}
                for idx, p in enumerate(self.persons):
                    if not modern or self.in_modern(p):
                        for uid in p["unis"]:
                            members.setdefault(uid, []).append(idx)
                by_set: dict[tuple[int, ...], int] = {}
                by_sum: dict[int, int] = {}
                for uid in sorted(members):
                    group = tuple(members[uid])
                    total = sum(self.total(self.persons[i]) for i in group)
                    if group in by_set:
                        conflict = ("move", group)
                    elif total in by_sum:
                        other = set(members[by_sum[total]])
                        conflict = ("raise", [i for i in group if i not in other]
                                    or [i for i in other if i not in group])
                    by_set[group] = uid
                    by_sum[total] = uid
                    if conflict:
                        break
                if conflict:
                    break
            if conflict is None:
                return
            kind, group = conflict
            p = self.persons[rng.choice(group)]
            if kind == "move":
                p["unis"] = rng.sample(range(1, self.spec.alumni_pool + 1), len(p["unis"]))
            else:
                key = (p["lang"], p["title"])
                self.views[key] = self.views.get(key, 0) + rng.randint(1, 97)
        raise AssertionError("could not make the rankings tie-free")

    def university_views(self) -> None:
        used: set[int] = set()
        for uni in self.universities:
            total = 0
            for lang, title in uni["titles"].items():
                self.views[(lang, title)] = int(10 ** self.rng.uniform(3.0, 6.5))
                total += self.views[(lang, title)]
            while total in used:
                self.views[("en", uni["titles"]["en"])] += 1
                total += 1
            used.add(total)

    # -- external rankings ---------------------------------------------
    def external_rankings(self) -> list[dict]:
        """Two rankings over random subsets, loosely following alumni
        views, each with two names its mapping does not cover."""
        rng = self.rng
        sums: dict[int, int] = {}
        for p in self.persons:
            for uid in p["unis"]:
                sums[uid] = sums.get(uid, 0) + self.total(p)
        out = []
        for name, share, spell in (("ARWU", 0.6, str), ("QS", 0.5, str.upper)):
            chosen = rng.sample(self.universities, int(len(self.universities) * share))
            keyed = sorted(
                chosen, key=lambda u: -(len(str(sums.get(u["id"], 0))) + rng.gauss(0, 1.5))
            )
            ranks = [(u["id"], spell(u["name"]), pos) for pos, u in enumerate(keyed, 1)]
            out.append({"name": name, "entries": ranks,
                        "unmapped": [f"{name} Unknown Institute {k}" for k in (1, 2)]})
        return out

    # -- output --------------------------------------------------------
    def finish_pages(self) -> None:
        """Shuffle each dump into a mixed order and number its pages."""
        for lang, pages in self.pages.items():
            self.rng.shuffle(pages)
            page_id = 10
            for page in pages:
                page_id += self.rng.randint(1, 3)
                page["id"] = page_id


def _dump_xml(lang: str, pages: list[dict]) -> bytes:
    out = [
        '<?xml version="1.0" encoding="utf-8"?>\n'
        f'<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" xml:lang="{lang}">\n'
        f"  <siteinfo><sitename>Wikipedia</sitename><dbname>{lang}wiki</dbname></siteinfo>\n"
    ]
    for page in pages:
        redirect = (f"    <redirect title={quoteattr(page['redirect'])} />\n"
                    if page["redirect"] is not None else "")
        out.append(
            "  <page>\n"
            f"    <title>{escape(page['title'])}</title>\n"
            f"    <ns>{page['ns']}</ns>\n"
            f"    <id>{page['id']}</id>\n"
            f"{redirect}"
            "    <revision>\n"
            f"      <id>{page['id'] + 1000000}</id>\n"
            f'      <text xml:space="preserve">{escape(page["text"])}</text>\n'
            "    </revision>\n"
            "  </page>\n"
        )
    out.append("</mediawiki>\n")
    return "".join(out).encode("utf-8")


def _write_tsv(path: Path, header: list[str] | None, rows) -> None:
    lines = ["\t".join(header)] if header else []
    lines += ["\t".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _dictionary(lang: str) -> str:
    return ("[person_markers]\n" + "\n".join(MARKERS[lang])
            + "\n\n[trigger_words]\n" + "\n".join(TRIGGERS[lang]) + "\n")


def generate(workload: str, seed: int, out_dir: str | Path, scale: str = "normal") -> dict:
    """Write the project for (workload, seed, scale) into out_dir, which
    must not exist yet, and return the plan (also written as plan.json)."""
    spec = SCALES[scale][workload]
    b = _Builder(workload, spec, seed)
    b.build_background()
    b.build_universities()
    b.build_articles()
    b.build_persons()
    b.build_other_namespaces()
    b.university_views()
    b.finish_pages()
    externals = b.external_rankings() if spec.external_rankings else []

    out = Path(out_dir)
    out.mkdir(parents=True)
    ext = {"bz2": ".xml.bz2", "gz": ".xml.gz", "xml": ".xml"}[spec.compression]
    languages = []
    for lang in spec.langs:
        data = _dump_xml(lang, b.pages[lang])
        if spec.compression == "bz2":
            data = bz2.compress(data, 9)
        elif spec.compression == "gz":
            data = gzip.compress(data, 6, mtime=0)
        dump = f"{lang}wiki-20180901-pages-articles{ext}"
        (out / dump).write_bytes(data)
        (out / f"{lang}.dict.txt").write_text(_dictionary(lang), encoding="utf-8")
        languages.append(
            f"  - code: {lang}\n    dump: {dump}\n    dictionary: {lang}.dict.txt\n"
            '    dump_date: "2018-09-01"\n'
        )
    _write_tsv(out / "universities.tsv", ["id", "canonical_name", "lang", "title"], b.uni_rows)
    views_rows = [(lang, title, ANALYSIS_YEAR, total) for (lang, title), total in b.views.items()]
    # rows for another year must not leak into the analysis year
    views_rows += [(p["lang"], p["title"], ANALYSIS_YEAR - 1, 7) for p in b.persons[::4]]
    _write_tsv(out / "views.tsv", None, views_rows)
    _write_tsv(out / "langlinks.tsv", None,
               [("ru", p["title"], p["title_en"]) for p in b.persons if p["title_en"]])
    external_cfg = ""
    for ranking in externals:
        key = ranking["name"].lower()
        _write_tsv(out / f"{key}.tsv", ["name", "rank"],
                   [(name, pos) for _uid, name, pos in ranking["entries"]]
                   + [(name, len(ranking["entries"]) + k)
                      for k, name in enumerate(ranking["unmapped"], 1)])
        _write_tsv(out / f"{key}_map.tsv", ["external_name", "university_id"],
                   [(name, uid) for uid, name, _pos in ranking["entries"]])
        external_cfg += (f"  - name: {ranking['name']}\n    file: {key}.tsv\n"
                         f"    mapping: {key}_map.tsv\n")
    config = (
        "languages:\n" + "".join(languages)
        + "universities_file: universities.tsv\n"
        f"analysis_year: {ANALYSIS_YEAR}\n"
        "pageviews:\n  mode: fixture\n  fixture_views: views.tsv\n"
        "  fixture_langlinks: langlinks.tsv\n"
        "cache_dir: cache\noutput_dir: out\ncorrelation_method: spearman\n"
        "filters:\n  - name: full\n  - name: modern\n"
        f"    min_birth_year: {MODERN_MIN_BIRTH_YEAR}\n"
        f"    min_views_exclusive: {MODERN_MIN_VIEWS_EXCLUSIVE}\n"
        + ("external_rankings:\n" + external_cfg if externals else "")
        + f"audit:\n  rate: 0.1\n  seed: {seed}\n"
    )
    (out / "config.yaml").write_text(config, encoding="utf-8")

    plan = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "analysis_year": ANALYSIS_YEAR,
        "langs": list(spec.langs),
        "pages": {lang: len(pages) for lang, pages in b.pages.items()},
        "redirect_pages": {lang: sum(p["redirect"] is not None for p in pages)
                           for lang, pages in b.pages.items()},
        "universities": b.universities,
        "persons": [
            {"lang": p["lang"], "title": p["title"], "page_id": p["page"]["id"],
             "birth_year": p["birth_year"], "title_en": p["title_en"]}
            for p in b.persons
        ],
        "pairs": b.pairs,
        "decoys": b.decoys,
        "views": sorted([lang, title, total] for (lang, title), total in b.views.items()),
        "filters": [
            {"name": "full"},
            {"name": "modern", "min_birth_year": MODERN_MIN_BIRTH_YEAR,
             "min_views_exclusive": MODERN_MIN_VIEWS_EXCLUSIVE},
        ],
        "external_rankings": [
            {"name": r["name"], "ranks": [[uid, pos] for uid, _name, pos in r["entries"]]}
            for r in externals
        ],
    }
    (out / "plan.json").write_text(
        json.dumps(plan, ensure_ascii=False, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return plan


def ensure_corpus(work: Path, workload: str, seed: int, scale: str) -> Path:
    """Generate the project once per (workload, scale, seed) under work
    and return its directory; a half-written directory is never used."""
    final = work / "corpus" / f"{workload}-{scale}-s{seed}"
    if not final.exists():
        tmp = final.with_name(final.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        generate(workload, seed, tmp, scale)
        tmp.rename(final)
    return final


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="normal", choices=sorted(SCALES))
    parser.add_argument("--out", required=True, help="directory to create")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
