import pytest
from hypothesis import given, settings, strategies as st

from wikialumni import registry as registry_module
from wikialumni.errors import DictionaryError, RegistryError
from wikialumni.registry import (
    Registry,
    University,
    bundled_dictionary_path,
    load_dictionary,
    load_registry,
    normalize_title,
)

from conftest import write_universities_file


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("Harvard_University", "Harvard University"),
        ("harvard University", "Harvard University"),
        ("Harvard  University", "Harvard University"),
        ("Harvard University#History", "Harvard University"),
        ("Harvard University|Harvard", "Harvard University"),
        ("  MIT ", "MIT"),
        ("", ""),
    ],
)
def test_normalize_title(raw, expected):
    assert normalize_title(raw) == expected


TITLE_CHARS = st.sampled_from(list("ab _|#\t\n\u3000\xa0ßŉǆﬁİı")) | st.characters()


@settings(max_examples=500)
@given(st.text(alphabet=TITLE_CHARS, max_size=12))
def test_normalize_title_is_idempotent(raw):
    # ingest stores links normalized and extract resolves them, which
    # normalizes them again
    once = normalize_title(raw)
    assert normalize_title(once) == once


def registry_file(tmp_path, rows):
    return write_universities_file(tmp_path / "universities.tsv", rows)


def test_alias_expansion_via_redirects(tmp_path):
    path = registry_file(tmp_path, [(1, "Harvard University", "en", "Harvard University")])
    registry = load_registry(path, {"en": {"Harvard": "Harvard University"}})
    assert registry.resolve_link("Harvard University", "en") == 1
    assert registry.resolve_link("Harvard", "en") == 1


def test_title_collision_names_both(tmp_path):
    path = registry_file(
        tmp_path,
        [(1, "Columbia University", "en", "Columbia"), (2, "Columbia College", "en", "Columbia")],
    )
    with pytest.raises(RegistryError) as exc:
        load_registry(path)
    assert "Columbia University" in str(exc.value)
    assert "Columbia College" in str(exc.value)


def test_duplicate_id_conflicting_names(tmp_path):
    path = registry_file(
        tmp_path, [(1, "Harvard University", "en", "Harvard"), (1, "Yale University", "en", "Yale")]
    )
    with pytest.raises(RegistryError, match="duplicate id"):
        load_registry(path)


def test_registry_size_464(tmp_path):
    rows = [(i, f"University {i}", "en", f"University {i}") for i in range(1, 465)]
    registry = load_registry(registry_file(tmp_path, rows))
    assert len(registry.universities) == 464


def test_resolve_underscore_and_case(tmp_path):
    registry = load_registry(
        registry_file(tmp_path, [(1, "Harvard University", "en", "Harvard University")])
    )
    assert registry.resolve_link("Harvard_University", "en") == 1
    assert registry.resolve_link("harvard University", "en") == 1
    assert registry.resolve_link("Hogwarts", "en") is None


def test_resolve_is_language_scoped(tmp_path):
    registry = load_registry(
        registry_file(tmp_path, [(1, "Harvard University", "en", "Harvard University")])
    )
    assert registry.resolve_link("Harvard University", "ru") is None


def test_redirect_alias_fixture_mit(tmp_path):
    path = registry_file(
        tmp_path, [(1, "Massachusetts Institute of Technology", "en",
                    "Massachusetts Institute of Technology")]
    )
    registry = load_registry(path, {"en": {"MIT": "Massachusetts Institute of Technology"}})
    assert registry.resolve_link("MIT", "en") == 1


def test_every_alias_resolves_to_owner(tmp_path):
    rows = [
        (1, "Harvard University", "en", "Harvard University"),
        (1, "Harvard University", "ru", "Гарвардский университет"),
        (2, "Yale University", "en", "Yale University"),
    ]
    redirects = {
        "en": {"Harvard": "Harvard University", "Yale": "Yale University"},
        "ru": {"Гарвард": "Гарвардский университет"},
    }
    registry = load_registry(registry_file(tmp_path, rows), redirects)
    for uni in registry.universities.values():
        for lang, titles in uni.titles.items():
            for title in titles:
                assert registry.resolve_link(title, lang) == uni.id


@given(
    st.lists(
        st.tuples(st.integers(1, 30), st.text(st.characters(min_codepoint=65, max_codepoint=122), min_size=3, max_size=12)),
        min_size=1,
        max_size=30,
        unique_by=lambda t: t[1].lower(),
    )
)
def test_resolve_link_pure_over_generated_registries(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("reg")
    unique = {}
    for uid, title in rows:
        unique.setdefault(normalize_title(title), uid)
    file_rows = [(uid, f"U{uid}", "en", title) for title, uid in unique.items()]
    # one id may own many titles; the same title never maps to two ids here
    try:
        registry = load_registry(write_universities_file(tmp_path / "u.tsv", file_rows))
    except RegistryError:
        return
    for title, uid in unique.items():
        assert registry.resolve_link(title, "en") == uid
        assert registry.resolve_link(title, "en") == uid  # pure: stable on repeat


def quadratic_fold_registry(rows, redirect_maps):
    """The alias fold as first written, kept as the oracle: every
    university walks every redirect map and normalizes every target."""
    universities = {}
    for uid, name, lang, title in rows:
        uni = universities.setdefault(uid, University(uid, name))
        norm = normalize_title(title)
        uni.titles.setdefault(lang, set()).add(norm)
        uni.canonical_titles.setdefault(lang, norm)
    for uni in universities.values():
        for lang, redirects in redirect_maps.items():
            owned = uni.titles.get(lang)
            if not owned:
                continue
            for alias, target in redirects.items():
                if normalize_title(target) in owned:
                    owned.add(normalize_title(alias))
    return Registry(universities)


def snapshot(build):
    """Every observable of a registry load, set and dict order included,
    or the RegistryError text."""
    try:
        reg = build()
    except RegistryError as exc:
        return ("error", str(exc))
    return (
        [(uid, {lang: list(titles) for lang, titles in uni.titles.items()},
          uni.canonical_titles) for uid, uni in reg.universities.items()],
        list(reg._index.items()),
    )


# "a", "A", "a_" and " a" all normalize to "A": aliases that land on an
# earlier title or alias, chains, and titles claimed twice are common.
TINY_TITLE = st.text(alphabet="ab_ A", min_size=1, max_size=3).filter(normalize_title)
LANGS = st.sampled_from(["en", "ru", "de"])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(1, 4), st.sampled_from(["en", "ru"]), TINY_TITLE),
                  min_size=1, max_size=8),
    redirect_maps=st.dictionaries(LANGS, st.dictionaries(TINY_TITLE, TINY_TITLE, max_size=12),
                                  max_size=3),
)
def test_alias_fold_matches_quadratic_oracle(tmp_path_factory, rows, redirect_maps):
    rows = [(uid, f"U{uid}", lang, title) for uid, lang, title in rows]
    path = write_universities_file(tmp_path_factory.getbasetemp() / "oracle_u.tsv", rows)
    assert snapshot(lambda: load_registry(path, redirect_maps)) == snapshot(
        lambda: quadratic_fold_registry(rows, redirect_maps)
    )


def test_alias_added_earlier_matches_later_redirect(tmp_path):
    path = registry_file(tmp_path, [(1, "Harvard University", "en", "Harvard University")])
    # "Harvard" becomes an alias first, so "Harvard College" -> "Harvard" follows it;
    # "Crimson" comes before "Cambridge U" is an alias, so it does not
    registry = load_registry(path, {"en": {
        "Crimson": "Cambridge U", "Harvard": "Harvard University",
        "Harvard College": "harvard", "Cambridge U": "Harvard_College",
    }})
    assert registry.universities[1].titles["en"] == {
        "Harvard University", "Harvard", "Harvard College", "Cambridge U"
    }
    assert registry.resolve_link("Crimson", "en") is None


def test_alias_fold_normalizes_linearly(tmp_path, monkeypatch):
    n_unis, n_redirects = 60, 3000
    rows = [(uid, f"U{uid}", "en", f"University {uid}") for uid in range(n_unis)]
    redirects = {f"Alias {i}": f"University {i % (2 * n_unis)}" for i in range(n_redirects)}
    path = registry_file(tmp_path, rows)
    calls = 0
    real = registry_module.normalize_title

    def counting(raw):
        nonlocal calls
        calls += 1
        return real(raw)

    monkeypatch.setattr(registry_module, "normalize_title", counting)
    registry = load_registry(path, {"en": redirects})
    assert calls <= len(rows) + 2 * n_redirects  # the quadratic fold made 181,560
    assert registry.resolve_link("Alias 121", "en") == 1


def dictionary_file(tmp_path, body):
    path = tmp_path / "dict.txt"
    path.write_text(body, encoding="utf-8")
    return path


def test_load_dictionary(tmp_path):
    path = dictionary_file(
        tmp_path,
        "# comment\n[person_markers]\nborn\nbirths]]\n\n[trigger_words]\ngraduated  # inline\nalumni\n",
    )
    d = load_dictionary(path)
    assert d.person_markers == ("born", "births]]")
    assert d.trigger_words == ("graduated", "alumni")


def test_dictionary_requires_both_sections(tmp_path):
    path = dictionary_file(tmp_path, "[person_markers]\nborn\n")
    with pytest.raises(DictionaryError):
        load_dictionary(path)


def test_dictionary_rejects_unknown_section(tmp_path):
    path = dictionary_file(tmp_path, "[mystery]\nfoo\n")
    with pytest.raises(DictionaryError, match="mystery"):
        load_dictionary(path)


@pytest.mark.parametrize("lang", ["en", "ru"])
def test_bundled_starter_dictionaries(lang):
    d = load_dictionary(bundled_dictionary_path(lang))
    assert d.person_markers and d.trigger_words
