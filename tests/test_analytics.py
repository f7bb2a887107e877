import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wikialumni.alumni import AlumniRecord
from wikialumni.analytics import (
    _average_ranks,
    METHOD_PEARSON,
    METHOD_SPEARMAN,
    FilterSpec,
    Ranking,
    apply_filter,
    audit_sample,
    correlate,
    correlation_matrix,
    describe,
    load_external_ranking,
    rank_universities,
    ranking_from_scores,
    render_matrix,
    write_audit_file,
)
from wikialumni.errors import CorrelationError, ExternalRankingError
from wikialumni.registry import load_registry

from conftest import TABLE5_ORDER, table_records, write_universities_file


def rec(uid=1, name="U", person="P", year=1950, views=100, lang="en"):
    return AlumniRecord(uid, name, person, year, lang, views_total=views)


# ---------------------------------------------------------------- filters

def test_table5_membership(table45_records=None):
    records = table_records()
    survivors = apply_filter(records, FilterSpec(min_birth_year=1948))
    assert {r.person_link for r in survivors} == set(TABLE5_ORDER)
    ordered = sorted(survivors, key=lambda r: -r.views_total)
    assert [r.person_link for r in ordered] == TABLE5_ORDER


def test_empty_filter_is_identity():
    records = table_records()
    assert apply_filter(records, FilterSpec()) == records


def test_views_bound_is_strict():
    exactly = rec(views=999)
    above = rec(person="Q", views=1000)
    out = apply_filter([exactly, above], FilterSpec(min_views_exclusive=999))
    assert out == [above]


def test_year_bound_drops_missing_years():
    no_year = rec(person="N", year=None)
    with_year = rec(person="Y", year=1950)
    assert apply_filter([no_year, with_year], FilterSpec(min_birth_year=1900)) == [with_year]
    assert apply_filter([no_year, with_year], FilterSpec()) == [no_year, with_year]


def test_require_birth_year():
    no_year = rec(person="N", year=None)
    assert apply_filter([no_year], FilterSpec(require_birth_year=True)) == []


def test_filterspec_validation():
    with pytest.raises(ValueError):
        FilterSpec(min_birth_year=2000, max_birth_year=1900)
    with pytest.raises(ValueError):
        FilterSpec(min_views_exclusive=-1)


# ------------------------------------------------------------------ stats

def test_describe_hand_computed():
    stats = describe([rec(person=str(i), views=v) for i, v in enumerate((1, 2, 3))])
    assert stats.n_alumni == 3
    assert stats.mean_views == 2
    assert stats.median_views == 2
    assert math.isclose(stats.stddev_views, math.sqrt(2 / 3), rel_tol=1e-12)


def test_describe_single_record():
    stats = describe([rec(views=42)])
    assert stats.stddev_views == 0
    assert stats.median_views == 42


def test_describe_empty():
    stats = describe([])
    assert stats.n_alumni == 0
    assert stats.mean_views is None


def test_describe_table4_frozen_oracle():
    # values recomputed independently by spreadsheet-style arithmetic
    # over the ten published view counts and frozen here
    from conftest import TABLE4

    stats = describe(table_records(TABLE4))
    assert stats.n_alumni == 10
    assert stats.n_universities == 9  # Cambridge appears twice
    assert math.isclose(stats.mean_views, 13440184.8, rel_tol=1e-12)
    assert stats.median_views == 10826073.0
    assert math.isclose(stats.stddev_views, 6603184.680057098, rel_tol=1e-9)


def test_describe_counts_distinct_universities():
    records = [rec(uid=1, person="a"), rec(uid=1, person="b"), rec(uid=2, person="c")]
    assert describe(records).n_universities == 2


# --------------------------------------------------------------- rankings

def test_rank_order_simple():
    records = [
        rec(uid=1, name="First", person="a", views=10),
        rec(uid=1, name="First", person="b", views=20),
        rec(uid=2, name="Second", person="c", views=25),
    ]
    ranking = rank_universities(records, name="")
    assert ranking.entries == ((1, 30.0), (2, 25.0))


def test_cambridge_aggregation():
    from conftest import TABLE4

    ranking = rank_universities(table_records(TABLE4), name="")
    scores = ranking.scores()
    assert scores[2] == 19183278 + 12944420 == 32127698
    # above any single-alumnus university in the fixture except Markle's
    single_best = max(v for uid, v in scores.items() if uid not in (1, 2))
    assert scores[2] > single_best


def test_rank_empty():
    assert rank_universities([], name="").entries == ()


def test_rank_tie_breaks_by_name():
    records = [
        rec(uid=2, name="Beta", person="a", views=10),
        rec(uid=1, name="Alpha", person="b", views=10),
    ]
    assert [uid for uid, _ in rank_universities(records, name="").entries] == [1, 2]


def test_rank_permutation_invariant():
    records = table_records()
    shuffled = records[:]
    random.Random(7).shuffle(shuffled)
    assert rank_universities(records, name="") == rank_universities(shuffled, name="")


def test_describe_rank_sum_agreement():
    records = table_records()
    ranking = rank_universities(records, name="")
    assert sum(int(s) for _, s in ranking.entries) == sum(r.views_total for r in records)


# ----------------------------------------------------------- correlations

def ranking_of(scores, name=""):
    return ranking_from_scores(dict(enumerate(scores)), {}, name=name)


def ranking_with_rank_order(ranks):
    """Entity i gets rank ranks[i]; higher score = better rank."""
    n = len(ranks)
    return ranking_from_scores({i: float(n - r) for i, r in enumerate(ranks)}, {}, name="")


def test_spearman_oracle_06():
    # definitional formula: 1 - 6*sum(d^2)/(n(n^2-1)) with d^2 = 4 -> 0.6
    a = ranking_with_rank_order((1, 2, 3, 4))
    b = ranking_with_rank_order((2, 1, 4, 3))
    result = correlate(a, b, METHOD_SPEARMAN)
    assert math.isclose(result.coefficient, 0.6, abs_tol=1e-9)
    assert result.n_common == 4


def test_spearman_correlates_ranks_and_pearson_scores():
    # ranks agree exactly, raw scores do not lie on a line
    a = ranking_of([1, 2, 100])
    b = ranking_of([1, 2, 3])
    assert correlate(a, b, METHOD_SPEARMAN).coefficient == 1.0
    pearson = correlate(a, b, METHOD_PEARSON).coefficient
    assert math.isclose(pearson, 0.8704, abs_tol=1e-4)


def test_identical_rankings_are_one():
    a = ranking_of([5, 4, 3, 2, 1])
    assert abs(correlate(a, a, METHOD_SPEARMAN).coefficient - 1.0) < 1e-12


def test_reversed_rankings_are_minus_one():
    a = ranking_of([5, 4, 3, 2, 1])
    b = ranking_of([1, 2, 3, 4, 5])
    assert abs(correlate(a, b, METHOD_SPEARMAN).coefficient + 1.0) < 1e-12


def test_small_intersection_refused():
    a = ranking_from_scores({1: 1.0, 2: 2.0}, {}, name="")
    b = ranking_from_scores({1: 1.0, 2: 2.0, 3: 3.0}, {}, name="")
    with pytest.raises(CorrelationError, match="2"):
        correlate(a, b, METHOD_SPEARMAN)


def test_correlate_over_intersection_only():
    a = ranking_from_scores({1: 3.0, 2: 2.0, 3: 1.0, 99: 50.0}, {}, name="")
    b = ranking_from_scores({1: 30.0, 2: 20.0, 3: 10.0, 42: 5.0}, {}, name="")
    result = correlate(a, b, METHOD_SPEARMAN)
    assert result.n_common == 3
    assert abs(result.coefficient - 1.0) < 1e-12


def test_spearman_handles_ties_with_average_ranks():
    # hand computation: a = (1,1,2) has ranks (1.5,1.5,3), centred (-.5,-.5,1);
    # b's ranks (1,2,3) centre to (-1,0,1); r = 1.5 / sqrt(1.5 * 2) = sqrt(3)/2
    a = ranking_from_scores({1: 1.0, 2: 1.0, 3: 2.0}, {}, name="")
    b = ranking_from_scores({1: 1.0, 2: 2.0, 3: 3.0}, {}, name="")
    coefficient = correlate(a, b, METHOD_SPEARMAN).coefficient
    assert math.isclose(coefficient, math.sqrt(3) / 2, abs_tol=1e-12)


def oracle_average_ranks(values):
    """By definition: a value's rank is the mean of the 1-based sorted
    positions its tie group occupies, (#smaller + 1 + #smaller-or-equal) / 2."""
    return [(sum(v < x for v in values) + 1 + sum(v <= x for v in values)) / 2 for x in values]


@given(st.lists(st.integers(-3, 3) | st.floats(-1e6, 1e6), max_size=40))
def test_average_ranks_match_definition(values):
    assert _average_ranks(values) == oracle_average_ranks(values)


def test_pearson_on_scores():
    a = ranking_of([1.0, 2.0, 3.0])
    b = ranking_of([2.0, 4.0, 6.0])
    assert abs(correlate(a, b, METHOD_PEARSON).coefficient - 1.0) < 1e-12


@given(st.lists(st.integers(0, 10**6), min_size=4, max_size=20, unique=True))
def test_spearman_symmetry_and_monotone_invariance(scores):
    a = ranking_of(scores)
    b = ranking_of(list(reversed(scores)))
    ab = correlate(a, b, METHOD_SPEARMAN).coefficient
    ba = correlate(b, a, METHOD_SPEARMAN).coefficient
    assert abs(ab - ba) < 1e-12
    # strictly increasing transform of one side leaves spearman unchanged
    transformed = ranking_of([s * 3 + 7 for s in scores])
    assert abs(correlate(transformed, b, METHOD_SPEARMAN).coefficient - ab) < 1e-12


def test_matrix_2x2():
    a = ranking_of([1, 2, 3])
    m = correlation_matrix([a, a], METHOD_SPEARMAN)
    assert len(m) == 2 and all(len(row) == 2 for row in m)
    assert all(math.isclose(v, 1.0) for row in m for v in row)


def test_matrix_duplicate_ranking_offdiag_one():
    a = ranking_of([3, 1, 2, 5])
    m = correlation_matrix([a, ranking_of([9, 2, 4]), a], METHOD_SPEARMAN)
    assert abs(m[0][2] - 1.0) < 1e-12


def test_matrix_unavailable_cell_is_nan():
    a = ranking_of([1, 2, 3])
    b = ranking_from_scores({10: 1.0, 11: 2.0, 12: 3.0}, {}, name="")
    m = correlation_matrix([a, b], METHOD_SPEARMAN)
    assert math.isnan(m[0][1]) and math.isnan(m[1][0])
    assert m[0][0] == m[1][1] == 1.0


def test_nested_cohorts_all_positive():
    rng = random.Random(3)
    records = []
    for uid in range(12):
        for p in range(30):
            year = rng.randint(1900, 2000)
            views = rng.randint(1, 10_000) * (uid + 1)
            records.append(rec(uid=uid, name=f"U{uid}", person=f"p{uid}_{p}",
                               year=year, views=views))
    cohorts = [None, 1900, 1948, 1965, 1980]
    rankings = [
        rank_universities(apply_filter(records, FilterSpec(min_birth_year=y)), name="")
        for y in cohorts
    ]
    m = correlation_matrix(rankings, METHOD_SPEARMAN)
    assert all(v > 0 for row in m for v in row)


def test_render_matrix_lower_triangular():
    a = ranking_of([1, 2, 3])
    text = render_matrix(correlation_matrix([a, a], METHOD_SPEARMAN), ["first", "second"])
    lines = text.splitlines()
    assert lines[1].split("\t") == ["first", "1.00", ""]
    assert lines[2].split("\t") == ["second", "1.00", "1.00"]


# ------------------------------------------------------- external rankings

@pytest.fixture
def ext_registry(tmp_path):
    rows = [(i, f"University {i}", "en", f"University {i}") for i in range(1, 11)]
    return load_registry(write_universities_file(tmp_path / "u.tsv", rows))


def write_ext(tmp_path, rows, header="name\trank"):
    path = tmp_path / "ext.tsv"
    path.write_text(header + "\n" + "\n".join(f"{n}\t{r}" for n, r in rows) + "\n")
    return path


def write_mapping(tmp_path, pairs):
    path = tmp_path / "map.tsv"
    lines = ["external_name\tuniversity_id"] + [f"{n}\t{u}" for n, u in pairs]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_external_fully_mapped(tmp_path, ext_registry):
    rows = [(f"Uni {i}", i) for i in range(1, 11)]
    mapping = write_mapping(tmp_path, [(f"Uni {i}", i) for i in range(1, 11)])
    ranking, unmapped = load_external_ranking(
        write_ext(tmp_path, rows), "QS", ext_registry, mapping
    )
    assert len(ranking.entries) == 10
    assert unmapped == []
    # best rank first
    assert ranking.entries[0][0] == 1


def test_external_one_unmapped_reported(tmp_path, ext_registry):
    rows = [(f"Uni {i}", i) for i in range(1, 10)] + [("Mystery Inst", 10)]
    mapping = write_mapping(tmp_path, [(f"Uni {i}", i) for i in range(1, 10)])
    ranking, unmapped = load_external_ranking(
        write_ext(tmp_path, rows), "QS", ext_registry, mapping
    )
    assert len(ranking.entries) == 9
    assert unmapped == ["Mystery Inst"]


def test_external_too_many_unmapped(tmp_path, ext_registry):
    rows = [("A", 1), ("B", 2), ("C", 3), ("D", 4)]
    mapping = write_mapping(tmp_path, [("A", 1), ("B", 2), ("C", 3)])
    with pytest.raises(ExternalRankingError):
        load_external_ranking(write_ext(tmp_path, rows), "QS", ext_registry, mapping)


def test_external_score_header(tmp_path, ext_registry):
    rows = [("Uni 1", 88.5), ("Uni 2", 92.0), ("Uni 3", 10.0)]
    mapping = write_mapping(tmp_path, [(f"Uni {i}", i) for i in (1, 2, 3)])
    ranking, _ = load_external_ranking(
        write_ext(tmp_path, rows, header="name\tscore"), "ARWU", ext_registry, mapping
    )
    assert [uid for uid, _ in ranking.entries] == [2, 1, 3]


@pytest.mark.parametrize("value", ["501-510", "nan", "inf"])
def test_external_value_checked_on_unmapped_row(tmp_path, ext_registry, value):
    rows = [(f"Uni {i}", i) for i in range(1, 10)] + [("Mystery Inst", value)]
    mapping = write_mapping(tmp_path, [(f"Uni {i}", i) for i in range(1, 10)])
    with pytest.raises(ExternalRankingError, match=rf"ext\.tsv:11: .*{value}"):
        load_external_ranking(write_ext(tmp_path, rows), "QS", ext_registry, mapping)


# ------------------------------------------------------------------ audit

def test_audit_rate_one_returns_all():
    records = table_records()
    assert audit_sample(records, 1.0, seed=5) == records


def test_audit_deterministic():
    records = table_records()
    assert audit_sample(records, 0.5, 11) == audit_sample(records, 0.5, 11)


def test_audit_binomial_bounds():
    records = [rec(person=str(i)) for i in range(1000)]
    n = len(audit_sample(records, 0.1, seed=123))
    sigma = math.sqrt(1000 * 0.1 * 0.9)
    assert abs(n - 100) <= 3 * sigma


def test_audit_rejects_bad_rate():
    with pytest.raises(ValueError):
        audit_sample([], 0.0, 1)
    with pytest.raises(ValueError):
        audit_sample([], 1.5, 1)


def test_audit_file_format(tmp_path):
    record = AlumniRecord(
        1, "Univ A", "Someone", 1950, "en",
        sentence="He graduated from [[Univ A]].", trigger="graduated",
    )
    path = write_audit_file([record], tmp_path / "audit.tsv")
    lines = path.read_text().splitlines()
    assert lines[0] == "person_link\tuniversity_name\ttrigger\tsentence"
    assert lines[1] == "Someone\tUniv A\tgraduated\tHe graduated from [[Univ A]]."
