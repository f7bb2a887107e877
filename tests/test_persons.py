import re

import pytest
from hypothesis import given, settings, strategies as st

from wikialumni.dump import WikiPage
from wikialumni.persons import (
    BIRTH_YEAR_MIN,
    WORD_WINDOW,
    detect_person,
    extract_birth_year,
    load_person_file,
    persist_person,
    person_filename,
)
from wikialumni.registry import MarkerDictionary

DICT = MarkerDictionary(
    person_markers=("births]]", "born", "Category:Living people"),
    trigger_words=("graduated",),
)

CURRENT_YEAR = 2018  # pinned so the suite never drifts with the clock


def page(text, title="Some Person", page_id=1, lang="en"):
    return WikiPage(
        title=title, lang=lang, namespace=0, redirect_target=None,
        wikitext=text, page_id=page_id,
    )


def oracle_birth_year(text, current_year=CURRENT_YEAR):
    """Independent brute-force scan: walk the first 1000 whitespace
    words, take the first standalone 4-digit run inside them that lies
    in [800, current_year]."""
    for word in text.split()[:1000]:
        for i in range(len(word)):
            chunk = word[i : i + 4]
            if len(chunk) == 4 and chunk.isdigit():
                before = word[i - 1] if i > 0 else ""
                after = word[i + 4] if i + 4 < len(word) else ""
                if not before.isdigit() and not after.isdigit():
                    year = int(chunk)
                    if 800 <= year <= current_year:
                        return year
    return None


def test_detect_category_marker():
    assert detect_person(page("Text [[Category:1955 births]]"), DICT) == "births]]"


def test_detect_miss():
    assert detect_person(page("An article about a bridge."), DICT) is None


def test_detect_case_insensitive():
    assert detect_person(page("(BORN 8 January 1942)"), DICT) == "born"


def test_detect_returns_first_in_dictionary_order():
    # both markers present; dictionary order wins, not text order
    assert detect_person(page("born ... [[Category:1980 births]]"), DICT) == "births]]"


def test_hawking_birth_year():
    text = "(born 8 January 1942) was an English theoretical physicist."
    assert extract_birth_year(page(text), CURRENT_YEAR) == 1942


def test_out_of_range_token_then_real_year():
    text = "released album 3000 copies and more text born 1971 in June"
    assert extract_birth_year(page(text), CURRENT_YEAR) == 1971


def test_window_boundary():
    junk = " ".join(f"w{i}" for i in range(WORD_WINDOW))
    assert extract_birth_year(page(junk + " 1971"), CURRENT_YEAR) is None
    within = " ".join(f"w{i}" for i in range(WORD_WINDOW - 1))
    assert extract_birth_year(page(within + " 1971"), CURRENT_YEAR) == 1971


# 30 hand-built wikitext cases for the heuristic, checked one-for-one
# against the brute-force oracle above.
BIRTH_YEAR_CASES = [
    "(born 8 January 1942) was an English theoretical physicist",
    "'''Ada Lovelace''' (1815-1852) was a mathematician",
    "no digits at all in this page",
    "123 not enough digits 45",
    "12345 five digits is not a year 678",
    "year 0799 below range then 0800 exactly at floor",
    "3000 exceeds current year, continue to 1971",
    "2019 is next year relative to the pin, then 2017",
    "born in 800",
    "born in 2018",
    "{{Infobox person|birth_date=1955|occupation=programmer}}",
    "[[Category:1980 births]] [[Category:Living people]]",
    "word " * 999 + "1984",
    "word " * 1000 + "1984",
    "word " * 500 + "9999 " + "word " * 498 + "1960",
    "text with year glued to letters abc1955def and standalone 1956",
    "1955",
    "  \t\n  1955  ",
    "1955-06-08 dash separated",
    "08.01.1942 dotted date",
    "20,000 leagues then born 1870",
    "ISBN 978-0-306-40615-7 then 1943",
    "he scored 1000 runs in 1999",
    "page about the year 1066 battle",
    "0001 0099 0800",
    "2018 2017 2016",
    "x1234 5678x 1234x x5678 1900",
    "born c. 1265 in Florence",
    "«родился в 1952 году» in Leningrad",
    "price was $2,499 in 1995",
]


@pytest.mark.parametrize("text", BIRTH_YEAR_CASES, ids=range(len(BIRTH_YEAR_CASES)))
def test_birth_year_agrees_with_oracle(text):
    assert extract_birth_year(page(text), CURRENT_YEAR) == oracle_birth_year(text)


def test_birth_year_range_invariant():
    for text in BIRTH_YEAR_CASES:
        year = extract_birth_year(page(text), CURRENT_YEAR)
        assert year is None or BIRTH_YEAR_MIN <= year <= CURRENT_YEAR


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=1100), max_size=400))
def test_birth_year_matches_oracle_on_random_text(text):
    assert extract_birth_year(page(text), CURRENT_YEAR) == oracle_birth_year(text)


# every separator str.split() knows, some in runs
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2002\u2028\u2029\u3000"


def split_all_birth_year(text, window=WORD_WINDOW):
    """The earlier definition: split the whole text, keep the first
    window words."""
    for word in text.split()[:window]:
        for match in re.finditer(r"(?<!\d)\d{4}(?!\d)", word):
            if BIRTH_YEAR_MIN <= int(match.group()) <= CURRENT_YEAR:
                return int(match.group())
    return None


def test_birth_year_window_with_mixed_whitespace():
    # out-of-range years and plain words up to the window, the only
    # valid years after it, separated by runs of mixed whitespace
    words = [f"{i % 700:04d}" if i % 2 else f"w{i}" for i in range(WORD_WINDOW)]
    words += ["1950", "1960"] + ["w"] * 50

    def text():
        seps = [WHITESPACE[i % len(WHITESPACE)] * (1 + i % 3) for i in range(len(words))]
        return "\u3000\n" + "".join(w + sep for w, sep in zip(words, seps))

    assert len(text().split()) > 1000
    assert extract_birth_year(page(text()), CURRENT_YEAR) is None
    assert split_all_birth_year(text()) is None
    words[WORD_WINDOW - 1] = "1940"
    assert extract_birth_year(page(text()), CURRENT_YEAR) == 1940
    assert split_all_birth_year(text()) == 1940


@given(
    st.lists(st.sampled_from(["1950", "0700", "19", "a"] + list(WHITESPACE)), max_size=30),
    st.integers(1, 6),
)
def test_birth_year_matches_split_all_definition(pieces, window):
    text = "".join(pieces)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("wikialumni.persons.WORD_WINDOW", window)
        assert extract_birth_year(page(text), CURRENT_YEAR) == split_all_birth_year(text, window)


# in range, out of range, glued to letters or digits, and in Arabic-Indic
# and fullwidth digits, which \d and int() both accept
YEAR_WORDS = ["1950", "0700", "x1950", "1950x", "19501", "195", "١٩٥٠", "１９５０",
              "a١٩٥٠b", "٠٧٠٠", "12x1960"]


@settings(max_examples=400, deadline=None)
@given(
    at=st.sampled_from([0, 1, WORD_WINDOW - 2, WORD_WINDOW - 1, WORD_WINDOW, WORD_WINDOW + 1]),
    words=st.lists(st.sampled_from(YEAR_WORDS + ["w"]), min_size=1, max_size=5),
    seps=st.lists(st.text(alphabet=WHITESPACE, min_size=1, max_size=2), min_size=1, max_size=3),
    lead=st.text(alphabet=WHITESPACE, max_size=2),
)
def test_birth_year_matches_per_word_scan_near_the_window(at, words, seps, lead):
    words = ["w"] * at + words
    text = lead + "".join(word + seps[i % len(seps)] for i, word in enumerate(words))
    assert extract_birth_year(page(text), CURRENT_YEAR) == split_all_birth_year(text)


@given(st.integers(1000, 2018))
def test_window_property_junk_prefix_flips_to_empty(year):
    text = f"born {year} and so on"
    assert extract_birth_year(page(text), CURRENT_YEAR) == year
    padded = "pad " * WORD_WINDOW + text
    assert extract_birth_year(page(padded), CURRENT_YEAR) is None


def test_person_filename():
    assert person_filename(42, 1955) == "page_42_1955.xml"
    assert person_filename(7, None) == "page_7_.xml"


def test_persist_and_load_roundtrip(tmp_path):
    p = page("He was born 1955. <&> special chars.", title="A <Person> & Co", page_id=42)
    path = persist_person(p, 1955, tmp_path)
    assert path.name == "page_42_1955.xml"
    loaded, birth_year = load_person_file(path, "en")
    assert loaded.title == p.title
    assert loaded.wikitext == p.wikitext
    assert loaded.page_id == 42
    assert birth_year == 1955


def test_persist_idempotent(tmp_path):
    p = page("born 1955.", page_id=3)
    first = persist_person(p, 1955, tmp_path).read_bytes()
    second = persist_person(p, 1955, tmp_path).read_bytes()
    assert first == second


def test_persist_empty_year(tmp_path):
    p = page("born sometime.", page_id=7)
    path = persist_person(p, None, tmp_path)
    assert path.name == "page_7_.xml"
    assert load_person_file(path, "en")[1] is None
