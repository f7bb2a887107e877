"""Pipeline benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload bz2_sparse_2lang --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --tiny                    # every workload, tiny, in seconds

A run (1) generates the workload's corpus for the seed, once, under
``.perfbench_work/corpus`` (untimed, outside the measured process);
(2) times ``SETUP_REPS`` fresh interpreters from launch to a loaded
config (``setup_s``); (3) starts one fresh process, ``stages.py``, that
runs whole pipeline passes for ``--seconds`` and checks every output
against the generator's plan.  It prints each metric by name with its
unit and, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  A failed check prints ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import gen_corpus  # noqa: E402

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150

# name -> unit; directions and bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "ingest_pages_per_s": "pages/s",
    "extract_persons_per_s": "persons/s",
    "views_records_per_s": "records/s",
    "views_warm_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "views_live_requests": "requests",
}
PER_LAYER = {
    "config.import_s": "s",
    "config.load_config_s": "s",
    "dump.stream_pages_s": "s",
    "dump.pages": "count",
    "dump.redirect_pages": "count",
    "dump.collect_redirects_s": "s",
    "dump.retained_bytes_per_page": "B/page",
    "persons.detect_person_s": "s",
    "persons.detect_person_calls": "count",
    "persons.detect_person_hits": "count",
    "persons.extract_birth_year_s": "s",
    "persons.persist_person_s": "s",
    "persons.files_written": "count",
    "persons.load_person_file_s": "s",
    "alumni.split_sentences_s": "s",
    "alumni.sentences": "count",
    "alumni.find_trigger_s": "s",
    "alumni.find_trigger_calls": "count",
    "alumni.find_trigger_hits": "count",
    "alumni.match_alumni_s": "s",
    "registry.resolve_link_s": "s",
    "registry.resolve_link_calls": "count",
    "registry.resolve_link_hits": "count",
    "registry.load_registry_s": "s",
    "registry.load_registry_calls": "count",
    "registry.load_dictionary_calls": "count",
    "alumni.write_dataset_s": "s",
    "alumni.read_dataset_s": "s",
    "pageviews.cache_get_s": "s",
    "pageviews.cache_get_calls": "count",
    "pageviews.cache_hits": "count",
    "pageviews.cache_put_s": "s",
    "pageviews.cache_puts": "count",
    "pageviews.backend_s": "s",
    "pageviews.backend_calls": "count",
    "pageviews.live_retries": "count",
    "pageviews.enrich_records_s": "s",
    "pageviews.university_views_s": "s",
    "analytics.rank_universities_s": "s",
    "analytics.correlation_matrix_s": "s",
    "analytics.load_external_ranking_s": "s",
    "analytics.audit_sample_s": "s",
    "cli.ingest_self_s": "s",
    "cli.extract_self_s": "s",
    "cli.views_self_s": "s",
    "cli.report_self_s": "s",
    "cli.audit_self_s": "s",
    "trace.overhead_s": "s",
}


def measure_setup(config: Path, reps: int) -> dict[str, float]:
    """Median over reps of: launch to loaded config, and the probe's own
    import and load_config times."""
    walls, imports, loads = [], [], []
    for _ in range(reps):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(config)],
            stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            walls.append(perf_counter() - t0)
            probe.stdout.read()
            if probe.wait(timeout=60) != 0 or not line:
                raise RuntimeError("set-up probe failed")
        parts = json.loads(line)
        imports.append(parts["import_s"])
        loads.append(parts["load_config_s"])
    return {
        "setup_s": statistics.median(walls),
        "config.import_s": statistics.median(imports),
        "config.load_config_s": statistics.median(loads),
    }


def run_child(corpora: list[Path], seconds: float, trace: bool, run_dir: Path) -> list[dict]:
    result = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "stages.py"), "--work", str(run_dir),
           "--seconds", str(seconds), "--result", str(result)]
    if trace:
        cmd += ["--spans-dir", str(WORK / "traces")]
    for corpus in corpora:
        cmd += ["--corpus", str(corpus)]
    subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S + seconds, stdout=sys.stderr)
    return json.loads(result.read_text(encoding="utf-8"))


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, res: dict, setup: dict, end_to_end: bool, per_layer: bool) -> dict:
    """Print one workload's metrics; return them as name -> value/unit."""
    chosen: dict[str, dict] = {}
    if end_to_end:
        values = {"setup_s": setup["setup_s"], **res["end_to_end"]}
        chosen.update({n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()
                       if n in values})
    if per_layer:
        values = {k: setup[k] for k in ("config.import_s", "config.load_config_s")}
        values.update(res["per_layer"])
        chosen.update({n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()
                       if n in values})
    print(f"== {workload}: {res['passes']} passes, {res['attempted']} operations, "
          f"{res['failed']} failed")
    for name, metric in chosen.items():
        print(f"{workload}  {name} = {_fmt(metric['value'])} {metric['unit']}")
    for failure in res["failures"]:
        print(f"{workload}  CHECK FAILED: {failure}")
    return chosen


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *gen_corpus.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpora, one untraced and one traced pass each")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wikialumni" / "cli.py").is_file():
        print(f"perfbench: no wikialumni sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(gen_corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    scale = "tiny" if args.tiny else "normal"
    corpora = [gen_corpus.ensure_corpus(WORK, w, args.seed, scale) for w in workloads]

    run_dir = WORK / "runs" / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.tiny:
            setup = measure_setup(corpora[0] / "config.yaml", 1)
            results = run_child(corpora, 0, True, run_dir)
            setups = [setup] * len(corpora)
        else:
            results, setups = [], []
            for corpus in corpora:
                setups.append(measure_setup(corpus / "config.yaml", SETUP_REPS))
                results += run_child([corpus], args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {
        w: report(w, res, setup, end_to_end=args.tiny or not args.trace,
                  per_layer=args.tiny or bool(args.trace))
        for w, res, setup in zip(workloads, results, setups)
    }
    correct = all(not res["failures"] for res in results)
    summary = {
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
    }
    if len(workloads) == 1:
        summary["metrics"] = metrics[workloads[0]]
    else:
        summary["workloads"] = metrics
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
