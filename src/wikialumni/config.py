"""Pipeline configuration: one declarative YAML file, env overrides for
cache dir and rate limit."""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .analytics import FilterSpec, METHOD_PEARSON, METHOD_SPEARMAN
from .errors import ConfigError

ENV_CACHE_DIR = "WIKIALUMNI_CACHE_DIR"
ENV_RATE_LIMIT = "WIKIALUMNI_RATE_LIMIT"

MODE_LIVE = "live"
MODE_FIXTURE = "fixture"

PAGEVIEW_API_FLOOR_YEAR = 2015

# the shape of a Wikipedia language code; a code names persons/<code>/,
# redirects/<code>.tsv, candidates/<code>.tsv and the host
# <code>.wikipedia.org.  It holds no '.', so the spill files
# candidates/<code>.<offset>.spill of one code never match another's.
_LANG_CODE = re.compile(r"[a-z][a-z0-9-]*")


@dataclass(frozen=True)
class LanguageConfig:
    code: str
    dump: Path
    dictionary: Path
    dump_date: str  # '' when not configured


@dataclass(frozen=True)
class ExternalRankingConfig:
    name: str
    file: Path
    mapping: Path


@dataclass(frozen=True)
class NamedFilter:
    name: str
    spec: FilterSpec


@dataclass(frozen=True)
class PipelineConfig:
    languages: tuple[LanguageConfig, ...]
    universities_file: Path
    output_dir: Path
    cache_dir: Path
    analysis_year: int
    pageview_mode: str
    fixture_views: Path | None
    fixture_langlinks: Path | None
    rate_limit: float
    agent: str
    correlation_method: str
    filters: tuple[NamedFilter, ...]
    external_rankings: tuple[ExternalRankingConfig, ...]
    audit_rate: float
    audit_seed: int
    config_hash: str


def dump_year(lang: LanguageConfig) -> int | None:
    """The year of lang.dump_date ('2018-09-01' or '20180901'), or None
    when no dump date is set."""
    if not lang.dump_date:
        return None
    if not re.match(r"[0-9]{4}", lang.dump_date):
        raise ConfigError(
            f"dump_date for {lang.code!r} must start with a four-digit year, "
            f"got {lang.dump_date!r}"
        )
    return int(lang.dump_date[:4])


def _filter_from_dict(raw: dict, index: int) -> NamedFilter:
    if raw.get("name") is None:
        raise ConfigError("every filter needs a name")
    name = _name(f"filters[{index}].name", raw["name"])
    bounds = {
        key: None if raw.get(key) is None else _number(int, f"filter {name!r} {key}", raw[key])
        for key in ("min_birth_year", "max_birth_year", "min_views_exclusive")
    }
    require = raw.get("require_birth_year", False)
    if not isinstance(require, bool):  # bool("no") would read as true
        raise ConfigError(
            f"filter {name!r} require_birth_year must be true or false, got {require!r}"
        )
    try:
        spec = FilterSpec(**bounds, require_birth_year=require)
    except ValueError as exc:
        raise ConfigError(f"filter {name!r}: {exc}") from exc
    return NamedFilter(name=name, spec=spec)


def _name(key: str, value) -> str:
    """value if it can name a report file and fill a TSV cell: YAML text
    with no '/', tab or line break, else a ConfigError that names the key."""
    text = value if isinstance(value, str) else ""
    if text.splitlines() != [text] or "/" in text or "\t" in text:
        raise ConfigError(f"{key} must be text with no '/', tab or line break, got {value!r}")
    return value


def _language_code(index: int, value, earlier: list[LanguageConfig]) -> str:
    """value if it is YAML text shaped like a Wikipedia language code
    and no earlier language has it, else a ConfigError that names
    languages[index].code."""
    key = f"languages[{index}].code"
    if not isinstance(value, str) or not _LANG_CODE.fullmatch(value):
        raise ConfigError(f"{key} must be text matching {_LANG_CODE.pattern}, got {value!r}")
    for j, lang in enumerate(earlier):
        if lang.code == value:
            raise ConfigError(f"{key} {value!r} is already the code of languages[{j}]")
    return value


def _mapping(key: str, value) -> dict:
    """value if it is a YAML mapping, else a ConfigError that names the key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got a {type(value).__name__}")
    return value


def _entries(raw: dict, key: str, required: tuple[str, ...]) -> list[dict]:
    """The mappings listed under key (none if it is absent), each with
    every required key."""
    items = raw.get(key, [])
    if not isinstance(items, list):
        raise ConfigError(f"{key} must be a list, got a {type(items).__name__}")
    for i, item in enumerate(items):
        _mapping(f"{key}[{i}]", item)
        for name in required:
            if name not in item:
                raise ConfigError(f"{key} entry missing {name!r}: {item}")
    return items


def _number(kind: type, key: str, value):
    """kind(value), or a ConfigError that names the key.  Text is read
    only as a float, which an environment variable may set."""
    try:
        # YAML true/false (int(True) would read as 1), or quoted text as an integer
        if isinstance(value, bool) or (kind is int and isinstance(value, str)):
            raise TypeError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError  # int(2017.9) would truncate to 2017
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw_bytes = path.read_bytes()
    try:
        raw = _mapping(f"{path}: the top level", yaml.safe_load(raw_bytes) or {})
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc

    base = path.parent

    def _resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    languages = []
    for i, item in enumerate(_entries(raw, "languages", ("code", "dump", "dictionary"))):
        languages.append(
            LanguageConfig(
                code=_language_code(i, item["code"], languages),
                dump=_resolve(item["dump"]),
                dictionary=_resolve(item["dictionary"]),
                dump_date=str(item.get("dump_date", "")),
            )
        )
        dump_year(languages[-1])  # fails here, not in ingest, on a date without a year
    if not languages:
        raise ConfigError("no languages configured")

    if "universities_file" not in raw:
        raise ConfigError("universities_file is required")

    pv = _mapping("pageviews", raw.get("pageviews", {}))
    mode = pv.get("mode", MODE_FIXTURE)
    if mode not in (MODE_LIVE, MODE_FIXTURE):
        raise ConfigError(f"pageviews.mode must be live or fixture, got {mode!r}")

    year = _number(int, "analysis_year", raw.get("analysis_year", 2017))
    if mode == MODE_LIVE and year < PAGEVIEW_API_FLOOR_YEAR:
        raise ConfigError(
            f"analysis_year {year} predates the pageview service "
            f"({PAGEVIEW_API_FLOOR_YEAR}); use fixture mode"
        )

    method = raw.get("correlation_method", METHOD_SPEARMAN)
    if method not in (METHOD_SPEARMAN, METHOD_PEARSON):
        raise ConfigError(f"unknown correlation_method {method!r}")

    cache_dir = os.environ.get(ENV_CACHE_DIR) or raw.get("cache_dir", "cache")
    rate_env = os.environ.get(ENV_RATE_LIMIT)
    rate_key = ENV_RATE_LIMIT if rate_env else "pageviews.rate_limit"
    rate_limit = _number(float, rate_key, rate_env or pv.get("rate_limit", 1.0))
    if not 0 < rate_limit < math.inf:  # 0, a negative, nan or inf would turn limiting off
        raise ConfigError(f"{rate_key} must be a positive finite number, got {rate_limit!r}")

    externals = tuple(
        ExternalRankingConfig(
            name=_name(f"external_rankings[{i}].name", item["name"]),
            file=_resolve(item["file"]),
            mapping=_resolve(item["mapping"]),
        )
        for i, item in enumerate(_entries(raw, "external_rankings", ("name", "file", "mapping")))
    )

    filters = tuple(
        _filter_from_dict(item, i) for i, item in enumerate(_entries(raw, "filters", ()))
    )
    first: dict[str, int] = {}
    for i, nf in enumerate(filters):  # each filter writes reports/ranking_<name>.tsv
        if first.setdefault(nf.name, i) != i:
            raise ConfigError(
                f"filters[{i}].name {nf.name!r} is already the name of filters[{first[nf.name]}]"
            )

    audit = _mapping("audit", raw.get("audit", {}))
    audit_rate = _number(float, "audit.rate", audit.get("rate", 0.05))
    if not 0 < audit_rate <= 1:
        raise ConfigError(f"audit.rate must be in (0, 1], got {audit_rate!r}")

    config = PipelineConfig(
        languages=tuple(languages),
        universities_file=_resolve(raw["universities_file"]),
        output_dir=_resolve(raw.get("output_dir", "out")),
        cache_dir=_resolve(cache_dir),
        analysis_year=year,
        pageview_mode=mode,
        fixture_views=_resolve(pv["fixture_views"]) if "fixture_views" in pv else None,
        fixture_langlinks=(
            _resolve(pv["fixture_langlinks"]) if "fixture_langlinks" in pv else None
        ),
        rate_limit=rate_limit,
        agent=pv.get("agent", "all-agents"),
        correlation_method=method,
        filters=filters,
        external_rankings=externals,
        audit_rate=audit_rate,
        audit_seed=_number(int, "audit.seed", audit.get("seed", 0)),
        config_hash=hashlib.sha256(raw_bytes).hexdigest()[:16],
    )

    validate_preflight(config)
    return config


def validate_preflight(config: PipelineConfig) -> None:
    """Fail at load, not mid-stage, on any configured input file that is
    missing."""
    for lang in config.languages:
        _require(lang.dump, f"dump for {lang.code!r}")
        _require(lang.dictionary, f"dictionary for {lang.code!r}")
    _require(config.universities_file, "universities file")
    if config.pageview_mode == MODE_FIXTURE and config.fixture_views is None:
        raise ConfigError("fixture mode requires pageviews.fixture_views")
    _require(config.fixture_views, "pageviews.fixture_views")
    _require(config.fixture_langlinks, "pageviews.fixture_langlinks")
    for ext in config.external_rankings:
        _require(ext.file, f"file of external ranking {ext.name!r}")
        _require(ext.mapping, f"mapping of external ranking {ext.name!r}")


def _require(path: Path | None, key: str) -> None:
    if path is not None and not path.exists():
        raise ConfigError(f"{key} not found: {path}")
