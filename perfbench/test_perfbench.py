"""Tests of the benchmark's own code:  python3 -m pytest perfbench -q"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import EXACT_COUNTERS, Tracer  # noqa: E402
from workloads import Tally, load_reference, run_pass, setup  # noqa: E402

# A few fast jobs that still reach every wrapped layer.
SMALL = {"synth-grid": {"hyperbola[D=1,l=3]", "intro_cubic[D=1,l=4]"},
         "verify-box": {"box:intro_cubic", "check:fibonacci_cassini",
                        "check:solution_check"}}


def traced_counters(seed: int) -> dict:
    reference = load_reference()
    counters: dict = {}
    for name, keep in SMALL.items():
        w = setup(name, seed, reference)
        w.jobs = [job for job in w.jobs if job[0] in keep]
        tracer, tally = Tracer(), Tally()
        tracer.install(w.mods)
        try:
            run_pass(w, random.Random(seed), tally, tracer)
        finally:
            tracer.uninstall()
        assert tally.failures == []
        metrics = tracer.metrics(0, 0)
        counters.update({f"{name}:{k}": metrics[k] for k in EXACT_COUNTERS})
    return counters


def test_exact_counters_repeat_across_traced_runs():
    first, second = traced_counters(seed=3), traced_counters(seed=3)
    assert first == second
    for key in ("polyring.compose_calls", "polyring.evaluate_calls",
                "groebner.rabinowitsch_runs", "groebner.nf_pair_calls",
                "groebner.square_probe_calls", "solve.box_points", "budget.steps"):
        assert first[f"verify-box:{key}"] > 0, key
    assert first["synth-grid:synthesis.rounds"] > 0


def test_uninstall_restores_every_wrapped_attribute():
    w = setup("synth-paper", 1, load_reference())
    mods = w.mods
    targets = [(mods.pipeline, "run_pipeline"), (mods.pipeline, "Budget"),
               (mods.solve, "buchberger"), (mods.groebner, "normal_form"),
               (mods.polyring.Polynomial, "compose")]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = Tracer()
    tracer.install(mods)
    assert all(getattr(o, a) is not b for (o, a), b in zip(targets, before))
    tracer.uninstall()
    assert all(getattr(o, a) is b for (o, a), b in zip(targets, before))


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_names = set(Tracer().metrics(0, 0)) | {"problemfile.parse_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}
    assert set(EXACT_COUNTERS) <= layer_names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synth-paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
