import pytest
from click.testing import CliRunner

from wikialumni.cli import main
from wikialumni.config import ENV_CACHE_DIR, ENV_RATE_LIMIT, load_config
from wikialumni.errors import ConfigError

from mini_corpus import build_mini_project


@pytest.fixture
def project(tmp_path):
    return build_mini_project(tmp_path / "proj")


def test_load_config_defaults(project):
    config = load_config(project)
    assert config.analysis_year == 2017
    assert config.pageview_mode == "fixture"
    assert [lang.code for lang in config.languages] == ["en", "ru"]
    assert config.correlation_method == "spearman"
    assert len(config.config_hash) == 16


def test_env_overrides(project, monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
    monkeypatch.setenv(ENV_RATE_LIMIT, "7.5")
    config = load_config(project)
    assert config.cache_dir == tmp_path / "elsewhere"
    assert config.rate_limit == 7.5


def test_config_hash_stable(project):
    assert load_config(project).config_hash == load_config(project).config_hash


def rewrite(project, old, new):
    project.write_text(project.read_text().replace(old, new))


def test_live_mode_year_floor(project):
    rewrite(project, "mode: fixture", "mode: live")
    rewrite(project, "analysis_year: 2017", "analysis_year: 2014")
    with pytest.raises(ConfigError, match="2015"):
        load_config(project)


def test_fixture_mode_accepts_any_year(project):
    rewrite(project, "analysis_year: 2017", "analysis_year: 2010")
    assert load_config(project).analysis_year == 2010


def test_unknown_mode_rejected(project):
    rewrite(project, "mode: fixture", "mode: psychic")
    with pytest.raises(ConfigError, match="psychic"):
        load_config(project)


def test_missing_universities_file(project):
    (project.parent / "universities.tsv").unlink()
    with pytest.raises(ConfigError, match="universities"):
        load_config(project)


def test_invalid_filter_rejected(project):
    rewrite(project, "min_birth_year: 1948", "min_birth_year: 2100\n    max_birth_year: 1900")
    with pytest.raises(ConfigError, match="modern"):
        load_config(project)


def test_no_languages_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("universities_file: u.tsv\n")
    with pytest.raises(ConfigError, match="languages"):
        load_config(path)


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("analysis_year: 2017", "analysis_year: twenty", "analysis_year"),
        ("analysis_year: 2017", "analysis_year: true", "analysis_year"),
        ("analysis_year: 2017", "analysis_year: 2017.9", "analysis_year"),
        ("seed: 7", "seed: lucky", "audit.seed"),
        ("rate: 1.0", "rate: all", "audit.rate"),
        ("pageviews:\n", "pageviews:\n  rate_limit: fast\n", "pageviews.rate_limit"),
    ],
    ids=["analysis_year", "analysis_year_bool", "analysis_year_fraction", "audit.seed",
         "audit.rate", "pageviews.rate_limit"],
)
def test_non_numeric_value_is_config_error(project, old, new, key):
    assert old in project.read_text()
    rewrite(project, old, new)
    result = CliRunner().invoke(main, ["audit", "-c", str(project)])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("config error: ") and key in line


@pytest.mark.parametrize(
    "old, new, key",
    [
        (None, "- en\n- ru\n", "top level"),  # None: new is the whole file
        ("pageviews:\n  mode: fixture\n  fixture_views: views.tsv\n  fixture_langlinks: langlinks.tsv\n",
         "pageviews: fixture\n", "pageviews"),
        ("audit:\n  rate: 1.0\n  seed: 7\n", "audit: 5\n", "audit"),
        ("  - name: full\n", "  - full\n", "filters[0]"),
        ("  - name: QS-like\n    file:", "  - file:", "external_rankings entry missing 'name'"),
        ("    mapping: external_map.tsv\n", "", "external_rankings entry missing 'mapping'"),
        ("min_views_exclusive: 999", 'min_views_exclusive: "999"', "min_views_exclusive"),
        ("min_birth_year: 1948", 'min_birth_year: "1948"', "min_birth_year"),
        ("min_birth_year: 1948", "min_birth_year: 1948.5", "min_birth_year"),
        ("min_birth_year: 1948", 'min_birth_year: 1948\n    require_birth_year: "no"',
         "require_birth_year"),
    ],
    ids=["top-level-list", "pageviews-scalar", "audit-scalar", "filter-scalar",
         "ranking-without-name", "ranking-without-mapping", "quoted-min-views",
         "quoted-min-year", "fractional-min-year", "quoted-require-year"],
)
def test_misshapen_config_is_config_error(project, old, new, key):
    text = project.read_text()
    assert old is None or text.count(old) == 1
    project.write_text(new if old is None else text.replace(old, new))
    result = CliRunner().invoke(main, ["audit", "-c", str(project)])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("config error: ") and key in line


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("  - name: popular\n", "  - name: modern\n", "filters[2].name 'modern'"),
        ("  - name: full\n", "  - name: a/b\n", "filters[0].name"),
        ("  - name: full\n", '  - name: "a\\tb"\n', "filters[0].name"),
        ("  - name: full\n", '  - name: "a\\nb"\n', "filters[0].name"),
        ("  - name: full\n", "  - name: 2020\n", "filters[0].name"),
        ("  - name: QS-like\n", "  - name: 2020\n", "external_rankings[0].name"),
        ("  - name: QS-like\n", '  - name: "QS\\tlike"\n', "external_rankings[0].name"),
    ],
    ids=["duplicate-filter", "filter-slash", "filter-tab", "filter-line-break", "filter-number",
         "ranking-number", "ranking-tab"],
)
def test_unusable_name_is_config_error(project, old, new, key):
    text = project.read_text()
    assert text.count(old) == 1
    project.write_text(text.replace(old, new))
    result = CliRunner().invoke(main, ["audit", "-c", str(project)])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("config error: ") and key in line


@pytest.mark.parametrize("rate", ["5", "0", "-0.5"])
def test_audit_rate_out_of_range_is_config_error(project, rate):
    rewrite(project, "rate: 1.0", f"rate: {rate}")
    result = CliRunner().invoke(main, ["ingest", "-c", str(project)])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("config error: ") and "audit.rate" in line


def test_dump_date_without_a_year_is_config_error(project):
    rewrite(project, 'dump_date: "2018-09-01"', 'dump_date: "latest"')
    with pytest.raises(ConfigError, match="dump_date.*latest"):
        load_config(project)


def test_non_numeric_rate_limit_env_is_config_error(project, monkeypatch):
    monkeypatch.setenv(ENV_RATE_LIMIT, "fast")
    result = CliRunner().invoke(main, ["audit", "-c", str(project)])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("config error: ") and ENV_RATE_LIMIT in line


@pytest.mark.parametrize("value", ["0", "-2", ".nan", ".inf"])
def test_rate_limit_that_turns_limiting_off_is_config_error(project, value):
    rewrite(project, "pageviews:\n", f"pageviews:\n  rate_limit: {value}\n")
    result = CliRunner().invoke(main, ["views", "-c", str(project)])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("config error: ") and "pageviews.rate_limit" in line


@pytest.mark.parametrize("value", ["0", "-2", "nan", "inf"])
def test_rate_limit_env_that_turns_limiting_off_is_config_error(project, monkeypatch, value):
    monkeypatch.setenv(ENV_RATE_LIMIT, value)
    result = CliRunner().invoke(main, ["views", "-c", str(project)])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("config error: ") and ENV_RATE_LIMIT in line


@pytest.mark.parametrize(
    "code, why",
    [("en", "is already the code of languages[0]"), ("7", "must be text"),
     ("../../escape", "must be text")],
    ids=["duplicate", "yaml-integer", "path"],
)
def test_unusable_language_code_is_config_error(project, code, why):
    rewrite(project, "  - code: ru\n", f"  - code: {code}\n")
    result = CliRunner().invoke(main, ["ingest", "-c", str(project)])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("config error: languages[1].code ") and why in line
    assert not (project.parent / "out").exists()
