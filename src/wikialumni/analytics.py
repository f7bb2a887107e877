"""Descriptive statistics, university rankings, and rank correlations.

View sums are exact integer arithmetic; correlations run in double
precision.  Spearman (rank correlation with average-rank ties) is the
default method; Pearson on raw scores is available behind a flag.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .alumni import AlumniRecord
from .errors import CorrelationError, ExternalRankingError
from .registry import Registry
from .tsv import read_tsv, write_tsv

METHOD_SPEARMAN = "spearman"
METHOD_PEARSON = "pearson_on_scores"

MAX_UNMAPPED_FRACTION = 0.2  # of an external ranking's rows


@dataclass(frozen=True)
class FilterSpec:
    min_birth_year: int | None = None
    max_birth_year: int | None = None
    min_views_exclusive: int | None = None
    require_birth_year: bool = False

    def __post_init__(self):
        if (
            self.min_birth_year is not None
            and self.max_birth_year is not None
            and self.min_birth_year > self.max_birth_year
        ):
            raise ValueError("min_birth_year exceeds max_birth_year")
        if self.min_views_exclusive is not None and self.min_views_exclusive < 0:
            raise ValueError("min_views_exclusive must be >= 0")

    @property
    def has_year_bound(self) -> bool:
        return self.min_birth_year is not None or self.max_birth_year is not None


@dataclass(frozen=True)
class DescriptiveStats:
    n_alumni: int
    n_universities: int
    mean_views: float | None
    median_views: float | None
    stddev_views: float | None


@dataclass(frozen=True)
class Ranking:
    """Entries sorted by score descending; view-sum ties break by
    canonical name ascending."""

    entries: tuple[tuple[int, float], ...]
    name: str = ""

    def scores(self) -> dict[int, float]:
        return dict(self.entries)


class CorrelationResult(NamedTuple):
    coefficient: float
    n_common: int


def apply_filter(
    records: Iterable[AlumniRecord], spec: FilterSpec
) -> list[AlumniRecord]:
    out = []
    for rec in records:
        if spec.has_year_bound or spec.require_birth_year:
            if rec.birth_year is None:
                continue
            if spec.min_birth_year is not None and rec.birth_year < spec.min_birth_year:
                continue
            if spec.max_birth_year is not None and rec.birth_year > spec.max_birth_year:
                continue
        if spec.min_views_exclusive is not None:
            if rec.views_total is None or rec.views_total <= spec.min_views_exclusive:
                continue
        out.append(rec)
    return out


def describe(records: Sequence[AlumniRecord]) -> DescriptiveStats:
    """Mean/median/stddev of views_total; stddev uses the population
    form (divisor n), median averages the two middle values for even n."""
    views = [r.views_total for r in records]
    if any(v is None for v in views):
        raise ValueError("describe requires views_total on every record")
    n = len(views)
    n_universities = len({r.university_id for r in records})
    if n == 0:
        return DescriptiveStats(0, 0, None, None, None)
    return DescriptiveStats(
        n_alumni=n,
        n_universities=n_universities,
        mean_views=statistics.fmean(views),
        median_views=float(statistics.median(views)),
        stddev_views=statistics.pstdev(views),
    )


def rank_universities(records: Iterable[AlumniRecord], name: str) -> Ranking:
    """Rank by exact integer sum of views_total per university; records
    without views_total are skipped."""
    sums: dict[int, int] = {}
    names: dict[int, str] = {}
    for rec in records:
        if rec.views_total is None:
            continue
        sums[rec.university_id] = sums.get(rec.university_id, 0) + rec.views_total
        names[rec.university_id] = rec.university_name
    ordered = sorted(sums.items(), key=lambda kv: (-kv[1], names[kv[0]]))
    return Ranking(entries=tuple((uid, float(score)) for uid, score in ordered), name=name)


def ranking_from_scores(scores: dict[int, float], names: dict[int, str], name: str) -> Ranking:
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], names.get(kv[0], str(kv[0]))))
    return Ranking(entries=tuple(ordered), name=name)


def correlate(rank_a: Ranking, rank_b: Ranking, method: str) -> CorrelationResult:
    """Correlation over the entity intersection of the two rankings.

    Spearman is the Pearson correlation of the score-derived rank
    vectors with average-rank tie handling.
    """
    if method not in (METHOD_SPEARMAN, METHOD_PEARSON):
        raise ValueError(f"unknown correlation method: {method}")
    scores_a = rank_a.scores()
    scores_b = rank_b.scores()
    common = sorted(set(scores_a) & set(scores_b))
    if len(common) < 3:
        raise CorrelationError(
            f"rankings share only {len(common)} entities; need at least 3 "
            "for a meaningful correlation"
        )
    a = [scores_a[uid] for uid in common]
    b = [scores_b[uid] for uid in common]
    if method == METHOD_SPEARMAN:
        coef = _pearson(_average_ranks(a), _average_ranks(b))
    else:
        coef = _pearson(a, b)
    return CorrelationResult(coefficient=coef, n_common=len(common))


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; each group of tied values gets the mean of its
    positions."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    for _, tied in itertools.groupby(order, key=values.__getitem__):
        tied = list(tied)
        end = start + len(tied)
        for i in tied:
            ranks[i] = (start + 1 + end) / 2
        start = end
    return ranks


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sums are math.fsum (correctly rounded), so the result does not
    depend on the Python version's float summation."""
    mean_x = math.fsum(x) / len(x)
    mean_y = math.fsum(y) / len(y)
    xc = [v - mean_x for v in x]
    yc = [v - mean_y for v in y]
    denom = math.sqrt(math.fsum(v * v for v in xc) * math.fsum(v * v for v in yc))
    if denom == 0:
        raise CorrelationError("constant scores; correlation undefined")
    return math.fsum(u * v for u, v in zip(xc, yc)) / denom


def correlation_matrix(rankings: Sequence[Ranking], method: str) -> list[list[float]]:
    """Symmetric matrix with unit diagonal; cells whose pair cannot be
    correlated are NaN."""
    if len(rankings) < 2:
        raise ValueError("need at least 2 rankings")
    n = len(rankings)
    matrix = [[1.0 if i == j else math.nan for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            try:
                coef = correlate(rankings[i], rankings[j], method).coefficient
            except CorrelationError:
                coef = math.nan
            matrix[i][j] = matrix[j][i] = coef
    return matrix


def render_matrix(matrix: Sequence[Sequence[float]], labels: Sequence[str]) -> str:
    """Lower-triangular text rendering."""
    lines = ["\t" + "\t".join(labels)]
    for i, label in enumerate(labels):
        cells = []
        for j in range(len(labels)):
            if j > i:
                cells.append("")
            elif math.isnan(matrix[i][j]):
                cells.append("n/a")
            else:
                cells.append(f"{matrix[i][j]:.2f}")
        lines.append(label + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"


def load_external_ranking(
    ranking_file: str | Path,
    name: str,
    registry: Registry,
    mapping_file: str | Path,
) -> tuple[Ranking, list[str]]:
    """Load an external ranking aligned to registry ids.

    ranking file: TSV with header (name, rank) or (name, score); the
    mapping file is TSV with header (external_name, university_id).
    Returns (ranking, unmapped names).  Rank positions are negated into
    scores so that "sorted by score descending" means "best rank first".
    """
    _, rows = read_tsv(
        mapping_file, headers=[["external_name", "university_id"]], error=ExternalRankingError,
        parse=lambda fields: (fields[0], int(fields[1])),
    )
    mapping = dict(rows)

    header, rows = read_tsv(
        ranking_file, headers=[["name", "rank"], ["name", "score"]], error=ExternalRankingError,
        parse=lambda fields: (fields[0], _finite(fields[1])),
    )
    is_rank = header[1] == "rank"
    scores: dict[int, float] = {}
    names: dict[int, str] = {}
    unmapped: list[str] = []
    for ext_name, value in rows:
        uid = mapping.get(ext_name)
        if uid is None or uid not in registry.universities:
            unmapped.append(ext_name)
            continue
        scores[uid] = -value if is_rank else value
        names[uid] = registry.name_of(uid)
    if rows and len(unmapped) / len(rows) > MAX_UNMAPPED_FRACTION:
        raise ExternalRankingError(
            f"{ranking_file}: {len(unmapped)}/{len(rows)} names unmapped "
            f"(limit {MAX_UNMAPPED_FRACTION:.0%}): {unmapped[:5]}"
        )
    ranking = ranking_from_scores(scores, names, name=name)
    return ranking, unmapped


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def audit_sample(
    records: Sequence[AlumniRecord], rate: float, seed: int
) -> list[AlumniRecord]:
    """Uniform seeded sample for manual review; deterministic per seed."""
    if not 0 < rate <= 1:
        raise ValueError("rate must be in (0, 1]")
    rng = random.Random(seed)
    return [rec for rec in records if rng.random() < rate]


def write_audit_file(sample: Sequence[AlumniRecord], path: str | Path) -> Path:
    rows = [
        (rec.person_link, rec.university_name, rec.trigger, " ".join(rec.sentence.split()))
        for rec in sample
    ]
    return write_tsv(path, ["person_link", "university_name", "trigger", "sentence"], rows)
