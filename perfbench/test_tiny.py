"""The benchmark's tiny mode: every workload, every check, in seconds."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen_corpus  # noqa: E402


def test_tiny_mode_runs_every_workload_with_its_checks():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--seed", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(summary["workloads"]) == {w["name"] for w in spec["workloads"]}
    for metrics in summary["workloads"].values():
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert metrics[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert metrics["registry.load_registry_calls"]["value"] == 4


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    for workload in gen_corpus.WORKLOADS:
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        gen_corpus.generate(workload, 5, a, "tiny")
        gen_corpus.generate(workload, 5, b, "tiny")
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (workload, name)


def test_checks_catch_an_output_that_disagrees_with_the_plan(tmp_path):
    import stages  # imports the package from src/

    corpus = tmp_path / "corpus"
    plan = gen_corpus.generate("paper_registry_gz", 7, corpus, "tiny")
    # The program reads views.tsv; the plan now claims one more view for
    # a planted alumnus, so the enriched dataset and rankings disagree.
    lang, title, total = next(v for v in plan["views"]
                              if [v[0], v[1]] in ([p["lang"], p["person"]] for p in plan["pairs"]))
    plan["views"] = [[lang, title, total + 1] if [v[0], v[1]] == [lang, title] else v
                     for v in plan["views"]]
    (corpus / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    result = stages.run_corpus(corpus, tmp_path / "work", 0)
    assert any("dataset_enriched.tsv" in f for f in result["failures"]), result["failures"]
