import random
import re
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from wikialumni import alumni
from wikialumni.alumni import (
    AlumniRecord,
    Sentence,
    find_trigger,
    match_alumni,
    merge_records,
    read_dataset,
    resolve_candidate,
    split_sentences,
    write_dataset,
)
from wikialumni.dump import WikiPage
from wikialumni.registry import MarkerDictionary, load_registry

from conftest import TABLE45, table_records, write_universities_file

DICT = MarkerDictionary(
    person_markers=("born",),
    trigger_words=("graduated", "alumnus", "received degree", "studied at"),
)


def oracle_split(text):
    """Independent character-level scanner tracking bracket depth."""
    sentences = []
    depth = 0
    buf = ""
    i = 0
    while i < len(text):
        if text.startswith("[[", i):
            depth += 1
            buf += "[["
            i += 2
            continue
        if text.startswith("]]", i) and depth:
            depth -= 1
            buf += "]]"
            i += 2
            continue
        buf += text[i]
        if text[i] == "." and depth == 0:
            sentences.append(buf)
            buf = ""
        i += 1
    if buf.strip():
        sentences.append(buf)
    if not sentences and text:
        sentences.append(text)
    return sentences


def test_single_delimiter():
    sents = split_sentences("He studied at [[Harvard University]]. He later moved.")
    assert len(sents) == 2
    assert sents[0].links == ("Harvard University",)
    assert sents[1].links == ()


def test_no_full_stop_is_one_sentence():
    sents = split_sentences("a text with zero full stops")
    assert len(sents) == 1


def test_dot_inside_link_does_not_split():
    sents = split_sentences("[[St. Andrews]] is old.")
    assert len(sents) == 1
    assert sents[0].links == ("St. Andrews",)


def test_piped_link_target():
    sents = split_sentences("She attended [[Harvard University|Harvard]].")
    assert sents[0].links == ("Harvard University",)


@pytest.mark.parametrize(
    "text",
    [
        "He studied at [[Harvard University]]. He later moved.",
        "[[St. Andrews]] is old.",
        "no stops here",
        "",
        "a.b.c.",
        "[[A.B.|x.y]] stays. Then [[C]].",
        "trailing fragment without stop",
        "[[unclosed link. still one? no",
        "[[File:X.jpg|thumb|He studied at [[Univ A]]. Later.]] He graduated.",
        "[[File:x|a. b. c",
        "[[File:X.jpg|At [[Univ A]]. Then.]][[File:Y.jpg|[[Univ B|B.]] in 1990.]] He left.",
        "[[a.b]] [[File:x|[[c.d]]. e.]] f.",
        "x]] [[a.b]]. [[c",
    ],
)
def test_split_matches_oracle(text):
    assert [s.text for s in split_sentences(text)] == oracle_split(text)


@given(st.text(alphabet=list(".[]ab "), max_size=60))
def test_split_matches_oracle_random(text):
    assert [s.text for s in split_sentences(text)] == oracle_split(text)


@given(st.text(alphabet=list(".[]|ab "), max_size=60))
def test_split_loses_no_text(text):
    assert "".join(s.text for s in split_sentences(text)).strip() == text.strip()


def per_char_split(wikitext):
    """The splitter as first written, a per-character loop, kept as the
    oracle for whole Sentence values (text and links)."""
    sentences = []
    depth = 0
    start = 0
    i = 0
    n = len(wikitext)
    while i < n:
        two = wikitext[i : i + 2]
        if two == "[[":
            depth += 1
            i += 2
            continue
        if two == "]]" and depth > 0:
            depth -= 1
            i += 2
            continue
        if wikitext[i] == "." and depth == 0:
            sentences.append(wikitext[start : i + 1])
            start = i + 1
        i += 1
    if start < n:
        tail = wikitext[start:]
        if tail.strip():
            sentences.append(tail)
    if not sentences and wikitext:
        sentences.append(wikitext)
    link = re.compile(r"\[\[(.+?)\]\]", re.DOTALL)
    return [
        Sentence(text, tuple(m.group(1).split("|", 1)[0] for m in link.finditer(text)))
        for text in sentences
    ]


def per_char_mask(wikitext):
    """wikitext with each '.' blanked where per_char_split's '[[' and ']]'
    depth is above 0."""
    masked = list(wikitext)
    depth = 0
    i = 0
    while i < len(wikitext):
        two = wikitext[i : i + 2]
        if two == "[[":
            depth += 1
            i += 2
            continue
        if two == "]]" and depth > 0:
            depth -= 1
            i += 2
            continue
        if wikitext[i] == "." and depth > 0:
            masked[i] = " "
        i += 1
    return "".join(masked)


MASK_PIECES = [".", "[", "]", "[[", "]]", "]]]", "[[[", "|", "\n", "[[a.b]]", "[[File:x|y", "a", " "]


def test_mask_matches_per_char_depth():
    rng = random.Random(20202)
    for _ in range(20_000):
        text = "".join(rng.choices(MASK_PIECES, k=rng.randrange(30)))
        assert alumni._mask_links(text) == per_char_mask(text), text


def test_split_matches_per_char_loop_on_random_strings():
    rng = random.Random(20201)
    for _ in range(20_000):
        text = "".join(rng.choices("ab .[]|\n", k=rng.randrange(40)))
        assert split_sentences(text) == per_char_split(text), text


def per_phrase_trigger(sentence, phrases):
    """find_trigger as first written: one IGNORECASE pattern per phrase,
    tried in dictionary order."""
    for phrase in phrases:
        if re.search(r"(?<!\w)" + re.escape(phrase) + r"(?!\w)", sentence, re.IGNORECASE):
            return phrase
    return None


# Latin, Cyrillic, and letters whose case mappings differ between casefold()
# and re.IGNORECASE (İ ı ß ẞ ſ), plus word and non-word separators
TRIGGER_ALPHABET = list("inasINаоИОіİıßẞſ") + list(" .-_1")


@settings(max_examples=500)
@example(sentence="He got a Ph.D. then.", phrases=["ph."])  # head "ph" differs from the phrase
@example(sentence="a .x b.", phrases=[".x"])  # empty head
@example(sentence="She left early.", phrases=["graduated", "studied at"])  # no head
@given(
    sentence=st.text(alphabet=TRIGGER_ALPHABET, max_size=30),
    phrases=st.lists(st.text(alphabet=TRIGGER_ALPHABET, min_size=1, max_size=4),
                     min_size=1, max_size=5),
)
def test_find_trigger_matches_per_phrase_loop(sentence, phrases):
    dictionary = MarkerDictionary(("born",), tuple(phrases))
    assert find_trigger(sentence, dictionary) == per_phrase_trigger(sentence, phrases)


def test_find_trigger_dotted_capital_i():
    # "İ" case-insensitively matches "i" in the regex, though "İn".casefold()
    # is "i̇n" (with U+0307), so a casefold substring test would miss it
    dictionary = MarkerDictionary(("born",), ("graduated", "in"))
    assert find_trigger("İn 1990 she left.", dictionary) == "in"


@pytest.fixture
def registry(tmp_path):
    rows = [
        (1, "Northwestern University", "en", "Northwestern University"),
        (2, "Univ A", "en", "Univ A"),
        (3, "Univ B", "en", "Univ B"),
    ]
    return load_registry(write_universities_file(tmp_path / "u.tsv", rows))


def person(text, title="Meghan Markle", year=1981):
    page = WikiPage(
        title=title, lang="en", namespace=0, redirect_target=None,
        wikitext=text, page_id=10,
    )
    return page, year


def match_records(page, birth_year, registry, dictionary):
    """The two halves of matching composed as ingest and extract compose
    them: the text half's rows, each resolved, the first record kept per
    university."""
    row = (str(page.page_id), page.title, "" if birth_year is None else str(birth_year))
    records = (resolve_candidate(list(row + found), page.lang, registry)
               for found in match_alumni(page, dictionary))
    return merge_records(rec for rec in records if rec is not None)


def test_markle_sentence(registry):
    text = "She graduated from [[Northwestern University]]."
    records = match_records(*person(text), registry, DICT)
    assert len(records) == 1
    rec = records[0]
    assert rec.university_name == "Northwestern University"
    assert rec.person_link == "Meghan Markle"
    assert rec.birth_year == 1981
    assert rec.lang == "en"
    assert rec.trigger == "graduated"


def test_trigger_and_link_in_different_sentences(registry):
    text = "She graduated with honors. She loved [[Northwestern University]]."
    assert match_records(*person(text), registry, DICT) == []


def test_two_universities_one_sentence(registry):
    text = "He received degree at [[Univ A]] and [[Univ B]]."
    records = match_records(*person(text), registry, DICT)
    assert sorted(r.university_name for r in records) == ["Univ A", "Univ B"]


def test_exhaustive_sentence_link_trigger_enumeration(registry):
    # oracle: enumerate sentences x links x triggers by hand
    text = (
        "He was born in 1971. "
        "He studied at [[Univ A]] near [[Nowhere]]. "
        "Plain sentence with [[Univ B]]. "
        "Later he graduated from [[Univ B]]."
    )
    expected = set()
    for sent in oracle_split(text):
        if any(t in sent.lower() for t in DICT.trigger_words):
            for target in ("Univ A", "Univ B", "Northwestern University"):
                if f"[[{target}]]" in sent:
                    expected.add(target)
    records = match_records(*person(text), registry, DICT)
    assert {r.university_name for r in records} == expected == {"Univ A", "Univ B"}


def test_trigger_case_insensitive(registry):
    text = "She GRADUATED from [[Northwestern University]]."
    records = match_records(*person(text), registry, DICT)
    assert len(records) == 1


def test_trigger_word_boundary(registry):
    # "undergraduated" must not fire the "graduated" trigger
    records = match_records(*person("He undergraduated at [[Univ A]]."), registry, DICT)
    assert records == []


def test_duplicate_sentences_merge(registry):
    text = "He graduated from [[Univ A]]. He also graduated from [[Univ A]]."
    records = match_records(*person(text), registry, DICT)
    assert len(records) == 1


def test_trigger_removal_locality(registry):
    base = "He graduated from [[Univ A]]. He studied at [[Univ B]]."
    stripped = "He finished at [[Univ A]]. He studied at [[Univ B]]."
    full = {r.university_name for r in match_records(*person(base), registry, DICT)}
    partial = {r.university_name for r in match_records(*person(stripped), registry, DICT)}
    assert full == {"Univ A", "Univ B"}
    assert partial == {"Univ B"}


def test_trigger_monotonicity(registry):
    text = "He trained at [[Univ A]]. He graduated from [[Univ B]]."
    small = MarkerDictionary(("born",), ("graduated",))
    big = MarkerDictionary(("born",), ("graduated", "trained at"))
    n_small = len(match_records(*person(text), registry, small))
    n_big = len(match_records(*person(text), registry, big))
    assert n_big >= n_small
    assert n_big == 2


def test_write_dataset_empty(tmp_path):
    path = write_dataset([], tmp_path / "d.tsv")
    assert path.read_text() == "university_id\tuniversity_name\tperson_link\tbirth_year\tlang\n"


def test_write_dataset_dedups(tmp_path):
    rec = AlumniRecord(1, "Univ A", "Someone", 1950, "en")
    dup = AlumniRecord(1, "Univ A", "Someone", 1950, "en", sentence="other")
    path = write_dataset([rec, dup], tmp_path / "d.tsv")
    lines = path.read_text().splitlines()
    assert len(lines) == 2


def test_write_dataset_table45_roundtrip(tmp_path):
    records = table_records()
    path = write_dataset(records, tmp_path / "d.tsv", enriched=True)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(TABLE45)
    back = read_dataset(path)
    assert {r.person_link for r in back} == {row[2] for row in TABLE45}
    assert {r.views_total for r in back} == {row[4] for row in TABLE45}


def test_dataset_sorted_and_stable(tmp_path):
    records = table_records()
    a = write_dataset(records, tmp_path / "a.tsv").read_bytes()
    b = write_dataset(list(reversed(records)), tmp_path / "b.tsv").read_bytes()
    assert a == b


def test_no_duplicate_triples_in_output(tmp_path):
    records = table_records() * 3
    merged = merge_records(records)
    keys = [r.key() for r in merged]
    assert len(keys) == len(set(keys)) == len(TABLE45)


def per_sentence_match(page, birth_year, registry, dictionary):
    """Matching as it was before the page-wide prefilter: every
    sentence split out and tested, with the per-character splitter and
    the per-phrase trigger loop above, kept as the oracle."""
    records = {}
    for sentence in per_char_split(page.wikitext):
        trigger = per_phrase_trigger(sentence.text, dictionary.trigger_words)
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
                sentence=" ".join(sentence.text.split()),
                trigger=trigger,
            )
    return list(records.values())


@pytest.fixture(scope="module")
def dotted_registry(tmp_path_factory):
    rows = [
        (1, "Univ A", "en", "Univ A"),
        (2, "University of St. Andrews", "en", "St. Andrews"),
        (3, "Univ B", "en", "Univ B"),
    ]
    return load_registry(write_universities_file(tmp_path_factory.mktemp("reg") / "u.tsv", rows))


# phrases may start with, end with or contain '.'; İ ı ſ fold to i and s
# under re.IGNORECASE.  ß ẞ İ ﬁ fold to two characters, so a page or phrase
# holding one takes the prefilter's regex scan; the Kelvin sign K, Σ ς and
# ᲂ fold to one (k, σ, о) and keep the folded search.
PHRASE_ALPHABET = list("ahipsİıſ. ßẞ\u212akΣςᲂﬁ")
TEXT_PIECES = [".", " ", "[[", "]]", "[[x", "y]]", "|", "İ", "ı", "ſ", "a", "h", "i", "p", "s", "D", "x ",
               "[[Univ A]]", "[[St. Andrews]]", "[[Univ B|b.]]", "[[univ A|A]]", "[[Nowhere]]", "[[File:x|",
               "ß", "ẞ", "\u212a", "K", "Σ", "ς", "ᲂ", "о", "ﬁ"]


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_match_alumni_equals_per_sentence_oracle(dotted_registry, data):
    phrases = data.draw(st.lists(st.text(alphabet=PHRASE_ALPHABET, min_size=1, max_size=4),
                                 min_size=1, max_size=4))
    pieces = st.sampled_from(TEXT_PIECES + phrases)
    text = "".join(data.draw(st.lists(pieces, max_size=30)))
    dictionary = MarkerDictionary(("born",), tuple(phrases))
    page, year = person(text)
    assert match_records(page, year, dotted_registry, dictionary) == per_sentence_match(
        page, year, dotted_registry, dictionary
    )


def test_fold_agrees_with_ignorecase_on_every_cased_code_point():
    """Wherever re.IGNORECASE treats two characters as equal and each
    folds to one character, _fold gives both the same result.

    The regex treats two different characters as equal only through case:
    their simple lowercase forms agree, or re lists them together among
    its extra equivalences ('ı' with 'i' and 'I', 'ſ' with 's' ...).  A
    character whose lower, upper and casefold are all itself is no
    character's lowercase (checked below) and has none of its own, so it
    equals only itself, on which _fold trivially agrees.  Every pair
    therefore lies among the cased code points, and each one is matched
    against all of them."""
    cased = [ch for ch in map(chr, range(sys.maxunicode + 1))
             if ch.lower() != ch or ch.upper() != ch or ch.casefold() != ch]
    members = set(cased)
    assert all(len(image) > 1 or image in members
               for ch in cased for image in (ch.lower(), ch.upper(), ch.casefold()))
    haystack = "".join(cased)
    misses = []
    for ch in cased:
        for match in re.finditer(re.escape(ch), haystack, re.IGNORECASE):
            ours, theirs = alumni._fold(ch), alumni._fold(match.group())
            if len(ours) == len(theirs) == 1 and ours != theirs:
                misses.append((ch, match.group()))
    assert misses == []


HIT_ALPHABET = list("İıſßẞΣσςᲂоKÅµϐϑϰᲀᲃẛﬅﬁ") + list("aiknst. -")


@settings(max_examples=500, deadline=None)
@example(phrases=["İ"], text="i")
@example(phrases=["istanbul"], text="İstanbul")
@example(phrases=["strasse", "straße"], text="Straße and STRASSE")
@given(
    phrases=st.lists(st.text(alphabet=HIT_ALPHABET, min_size=1, max_size=4), min_size=1,
                     max_size=4),
    text=st.text(alphabet=HIT_ALPHABET, max_size=40),
)
def test_trigger_hits_hold_every_prefilter_match(phrases, text):
    phrases = tuple(phrases)
    prefilter = alumni._trigger_patterns(phrases)[0]
    hits = alumni._trigger_hits(text, phrases)
    assert {m.start() for m in prefilter.finditer(text)} <= set(hits)
    assert all(prefilter.match(text, at) for at in hits)


@settings(max_examples=500)
@given(data=st.data())
def test_split_containing_keeps_sentences_holding_an_offset(data):
    pieces = st.sampled_from([".", "a", " ", "\n", "|", "[[", "]]", "[[a]]", "[[a.b]]",
                              "[[File:x|"])
    text = "".join(data.draw(st.lists(pieces, max_size=25)))
    offsets = data.draw(st.lists(st.integers(-2, len(text) + 2), max_size=4))
    expected = []
    start = 0
    for sentence in per_char_split(text):
        end = start + len(sentence.text)
        if any(start <= off < end for off in offsets):
            expected.append(sentence)
        start = end
    assert split_sentences(text, containing=offsets) == expected


@pytest.mark.parametrize(
    "text, step",
    [
        ("[[File:a|" + "He studied there. " * 28_000, 1000),  # never closed
        ("[[a.b]] " * 62_500, 8),  # one sentence, an offset at each link
        ("[[File:a|[[b]]. c.]] d. " * 21_000, 24),  # captions, an offset at each
        ("[[a]] " * 83_000 + "b.", 83_000 * 6),  # plain links, one offset at the end
    ],
    ids=["unclosed_caption", "dotted_links", "closed_captions", "plain_links"],
)
def test_split_is_linear_on_nested_text(text, step):
    offsets = range(0, len(text), step)
    started = time.monotonic()
    got = split_sentences(text, containing=offsets)
    assert time.monotonic() - started < 5
    expected = []
    start = 0
    for sentence in per_char_split(text):
        end = start + len(sentence.text)
        if -(-start // step) * step < end:  # the first offset at or after start
            expected.append(sentence)
        start = end
    assert got == expected


def test_trigger_ending_in_full_stop(registry):
    # the phrase matches at the very end of its sentence, where the
    # sentence's last '.' is the phrase's; in the whole text 'D' follows
    dictionary = MarkerDictionary(("born",), ("ph.",))
    text = "At [[Univ A]] he got a Ph.D. in 1990."
    records = match_records(*person(text), registry, dictionary)
    assert [(r.university_name, r.sentence, r.trigger) for r in records] == [
        ("Univ A", "At [[Univ A]] he got a Ph.", "ph.")
    ]


def test_find_trigger_runs_only_on_trigger_sentences(registry, monkeypatch):
    calls = []
    real = alumni.find_trigger
    monkeypatch.setattr(alumni, "find_trigger", lambda s, d: calls.append(s) or real(s, d))
    sentences = [f"He lived near [[Nowhere]] in year {i}." for i in range(2000)]
    sentences[100] = "He graduated from [[Univ A]]."
    sentences[1000] = "She studied at [[Univ B]] for a year."
    sentences[1999] = "Then he received degree at [[Northwestern University]]."
    text = " ".join(sentences)
    assert len(split_sentences(text)) == 2000
    records = match_records(*person(text), registry, DICT)
    assert sorted(r.university_name for r in records) == [
        "Northwestern University", "Univ A", "Univ B"
    ]
    assert len(calls) <= 3
