"""Output checks computed from the generator's plan alone.

``Expected(plan)`` derives, without running any pipeline code, every
artifact line the pipeline must produce for the planted corpus: person
files, dataset rows, enriched rows, university views, rankings, the
Spearman cells, evidence rows and the number of live requests.  The
``check_*`` functions compare one pass's output directory against it and
return a list of human-readable failures (empty when the pass is right).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path


def _spearman(a: dict[int, float], b: dict[int, float]) -> Fraction | str:
    """Spearman over the common ids with the no-ties formula
    1 - 6*sum(d^2) / (n(n^2-1)), rendered as the report renders it."""
    common = sorted(set(a) & set(b))
    n = len(common)
    if n < 3:
        return "n/a"
    for scores in (a, b):
        values = [scores[u] for u in common]
        if len(set(values)) != n:
            raise ValueError("plan has tied scores; the no-ties formula does not apply")
    rank_a = {u: r for r, u in enumerate(sorted(common, key=a.__getitem__), 1)}
    rank_b = {u: r for r, u in enumerate(sorted(common, key=b.__getitem__), 1)}
    d2 = sum((rank_a[u] - rank_b[u]) ** 2 for u in common)
    return Fraction(1) - Fraction(6 * d2, n * (n * n - 1))


class Expected:
    def __init__(self, plan: dict):
        self.plan = plan
        year = plan["analysis_year"]
        views = {(lang, title): total for lang, title, total in plan["views"]}
        names = {u["id"]: u["name"] for u in plan["universities"]}
        persons = {(p["lang"], p["title"]): p for p in plan["persons"]}

        self.pages_total = sum(plan["pages"].values())
        self.person_files = {lang: set() for lang in plan["langs"]}
        for p in plan["persons"]:
            year_s = "" if p["birth_year"] is None else str(p["birth_year"])
            self.person_files[p["lang"]].add(f"page_{p['page_id']}_{year_s}.xml")
        self.n_persons = sum(len(files) for files in self.person_files.values())

        def total(p: dict) -> int:
            value = views.get((p["lang"], p["title"]), 0)
            if p["title_en"] and p["title_en"] != p["title"]:
                value += views.get(("en", p["title_en"]), 0)
            return value

        pairs = sorted(plan["pairs"], key=lambda q: (q["university_id"], q["person"], q["lang"]))
        self.n_records = len(pairs)
        self.dataset = ["university_id\tuniversity_name\tperson_link\tbirth_year\tlang"]
        self.enriched = [self.dataset[0] + "\tperson_link_en\tviews_total"]
        self.evidence = ["university_id\tuniversity_name\tperson_link\tlang\ttrigger\tsentence"]
        self.enriched_values = set()
        for q in pairs:
            p = persons[(q["lang"], q["person"])]
            uid = q["university_id"]
            row = (f"{uid}\t{names[uid]}\t{q['person']}\t"
                   f"{'' if p['birth_year'] is None else p['birth_year']}\t{q['lang']}")
            self.dataset.append(row)
            self.enriched.append(f"{row}\t{p['title_en'] or ''}\t{total(p)}")
            self.enriched_values.add((uid, q["person"], q["lang"], p["title_en"], total(p)))
            self.evidence.append(
                f"{uid}\t{names[uid]}\t{q['person']}\t{q['lang']}\t{q['trigger']}\t{q['sentence']}"
            )

        self.university_totals = {
            u["id"]: sum(views.get((lang, t), 0) for lang, t in u["titles"].items())
            for u in plan["universities"]
        }
        self.university_views = ["university_id\tuniversity_name\tyear\tviews"] + [
            f"{uid}\t{names[uid]}\t{year}\t{self.university_totals[uid]}"
            for uid in sorted(self.university_totals)
        ]

        # rankings: (-sum, name) order over records surviving each filter
        scores: dict[str, dict[int, float]] = {}
        self.rankings: dict[str, list[str]] = {}
        for f in plan["filters"]:
            sums: dict[int, int] = {}
            for q in pairs:
                p = persons[(q["lang"], q["person"])]
                if "min_birth_year" in f and (
                    p["birth_year"] is None or p["birth_year"] < f["min_birth_year"]
                    or total(p) <= f["min_views_exclusive"]
                ):
                    continue
                sums[q["university_id"]] = sums.get(q["university_id"], 0) + total(p)
            order = sorted(sums, key=lambda u: (-sums[u], names[u]))
            self.rankings[f["name"]] = ["rank\tuniversity_id\tuniversity_name\tscore"] + [
                f"{pos}\t{u}\t{names[u]}\t{sums[u]}" for pos, u in enumerate(order, 1)
            ]
            scores[f["name"]] = {u: float(s) for u, s in sums.items()}
        for ext in plan["external_rankings"]:
            scores[ext["name"]] = {uid: -float(rank) for uid, rank in ext["ranks"]}
        labels = [f["name"] for f in plan["filters"]] + [e["name"] for e in plan["external_rankings"]]
        self.matrix_labels = labels
        self.matrix = {
            (labels[i], labels[j]): _spearman(scores[labels[i]], scores[labels[j]])
            for i in range(len(labels)) for j in range(i)
        }
        self.alumni_vs_university = _spearman(
            scores[plan["filters"][0]["name"]],
            {u: float(v) for u, v in self.university_totals.items()},
        )

        # a cold live pass asks once per distinct lookup
        lookups = set()
        for q in pairs:
            p = persons[(q["lang"], q["person"])]
            lookups.add(("views", q["lang"], q["person"]))
            if q["lang"] != "en":
                lookups.add(("enlink", q["lang"], q["person"]))
                if p["title_en"] and p["title_en"] != p["title"]:
                    lookups.add(("views", "en", p["title_en"]))
        for u in plan["universities"]:
            for lang, t in u["titles"].items():
                lookups.add(("views", lang, t))
        self.live_requests = len(lookups)


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _compare(what: str, got: list[str], want: list[str]) -> list[str]:
    if got == want:
        return []
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return [f"{what}: line {i + 1} is {g!r}, expected {w!r}"]
    return [f"{what}: {len(got)} lines, expected {len(want)}"]


def _close(cell: str, want) -> bool:
    if want == "n/a" or cell == "n/a":
        return cell == want
    return abs(float(cell) - float(want)) <= 0.005 + 1e-9


def check_outputs(exp: Expected, out: Path) -> list[str]:
    """Every artifact of ingest, extract, cold views, report and audit."""
    failures: list[str] = []
    manifest = json.loads((out / "ingest_manifest.json").read_text(encoding="utf-8"))
    for lang, files in exp.person_files.items():
        got = {p.name for p in (out / "persons" / lang).iterdir()}
        if got != files:
            failures.append(f"person files ({lang}): {len(got)} written, {len(files)} planted, "
                            f"{len(got ^ files)} differ")
        entry = manifest["languages"][lang]
        if entry["pages"] != exp.plan["pages"][lang] or entry["persons"] != len(files):
            failures.append(f"manifest ({lang}): {entry['pages']} pages / {entry['persons']} "
                            f"persons, expected {exp.plan['pages'][lang]} / {len(files)}")
    failures += _compare("dataset.tsv", _lines(out / "dataset.tsv"), exp.dataset)
    failures += _compare("evidence.tsv", _lines(out / "evidence.tsv"), exp.evidence)
    failures += _compare("dataset_enriched.tsv", _lines(out / "dataset_enriched.tsv"), exp.enriched)
    failures += _compare("university_views.tsv", _lines(out / "university_views.tsv"),
                         exp.university_views)
    reports = out / "reports"
    for name, want in exp.rankings.items():
        got = [ln for ln in _lines(reports / f"ranking_{name}.tsv") if not ln.startswith("#")]
        failures += _compare(f"ranking_{name}.tsv", got, want)
    failures += _check_matrix(exp, reports / "correlation_matrix.txt")
    for line in _lines(reports / "alumni_vs_university.txt"):
        if line.startswith("spearman\t") and not _close(line.split("\t")[1], exp.alumni_vs_university):
            failures.append(f"alumni_vs_university spearman {line.split(chr(9))[1]}, "
                            f"expected {float(exp.alumni_vs_university):.4f}")
    failures += _check_audit(out / "audit_sample.tsv", exp.evidence[1:])
    return failures


def _check_matrix(exp: Expected, path: Path) -> list[str]:
    lines = [ln for ln in _lines(path) if not ln.startswith("#")]
    labels = lines[0].split("\t")[1:]
    if labels != exp.matrix_labels:
        return [f"correlation matrix labels {labels}, expected {exp.matrix_labels}"]
    failures = []
    for i, line in enumerate(lines[1:]):
        cells = line.split("\t")[1:]
        for j in range(i):
            want = exp.matrix[(labels[i], labels[j])]
            if not _close(cells[j], want):
                failures.append(f"spearman({labels[i]}, {labels[j]}) = {cells[j]}, "
                                f"expected {want if want == 'n/a' else f'{float(want):.4f}'}")
    return failures


def _check_audit(path: Path, evidence: list[str]) -> list[str]:
    """Each audit row is an evidence row whose sentence holds its trigger."""
    known = set()
    for row in evidence:
        _uid, name, person, _lang, trigger, sentence = row.split("\t")
        known.add(f"{person}\t{name}\t{trigger}\t{sentence}")
    failures = []
    for row in _lines(path)[1:]:
        if row not in known:
            failures.append(f"audit row is not an evidence row: {row[:80]!r}")
            continue
        _person, _name, trigger, sentence = row.split("\t")
        if not re.search(r"(?<!\w)" + re.escape(trigger) + r"(?!\w)", sentence, re.IGNORECASE):
            failures.append(f"audit sentence lacks its trigger {trigger!r}: {sentence[:80]!r}")
    return failures


def check_warm(cold_enriched: bytes, cold_uni: bytes, out: Path, requests: int) -> list[str]:
    """A re-run on the warm cache asks the backend nothing and writes the
    same bytes."""
    failures = []
    if requests:
        failures.append(f"warm views issued {requests} backend requests, expected 0")
    if (out / "dataset_enriched.tsv").read_bytes() != cold_enriched:
        failures.append("warm views changed dataset_enriched.tsv")
    if (out / "university_views.tsv").read_bytes() != cold_uni:
        failures.append("warm views changed university_views.tsv")
    return failures


def check_live(exp: Expected, records, totals: dict[int, int], requests: int) -> list[str]:
    """Live mode yields the fixture-mode values, one request per lookup."""
    failures = []
    got = {(r.university_id, r.person_link, r.lang, r.person_link_en, r.views_total)
           for r in records}
    if got != exp.enriched_values or len(records) != exp.n_records:
        failures.append(f"live views: {len(got ^ exp.enriched_values)} records differ from plan")
    if totals != exp.university_totals:
        failures.append("live views: university totals differ from plan")
    if requests != exp.live_requests:
        failures.append(f"live views: {requests} requests, expected {exp.live_requests}")
    return failures


def unresolved_rows(enriched: bytes) -> int:
    """Rows of an enriched dataset whose views_total is empty."""
    lines = enriched.decode("utf-8").splitlines()[1:]
    return sum(1 for line in lines if line and line.endswith("\t"))
