"""loopsynth benchmark: one closed-loop process, one job at a time.

    python3 perfbench/run.py --workload synth-paper --seed 1 --seconds 40 --trace 0

Set-up (import, parsing, building inputs) runs SETUP_REPEATS times, then
once more before each pass; the median is reported.  Passes over the
workload's jobs, each in an order drawn from --seed, run until the next one
would end after --seconds.  Every output is checked against
reference.json and, outside the timed passes, against sympy and plain
Python arithmetic.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, with the spans written to
perfbench/out/.  The last line of stdout is one JSON object; human-readable
lines come before it.  --workload all runs every workload in turn, each in
its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from spans import Tracer, median_metrics
from workloads import (HERE, PROBLEMS, ROOT, WORKLOADS, Tally,
                       independent_checks, load_reference, run_pass, setup)

SETUP_REPEATS = 5


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def environment(mods) -> dict:
    """Facts that decide whether two results may be compared."""
    solver = mods.solve.discover_solver()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "solver": solver[0] if solver else None,
            "comparable": solver is None}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "loopsynth").is_dir() or not PROBLEMS.is_dir():
        print(f"no loopsynth sources or problem files under {ROOT}", file=sys.stderr)
        return 2
    # Pin the solver route: a configured solver would change what is measured.
    os.environ.pop("LOOPSYNTH_SOLVER", None)
    sys.path.insert(0, str(ROOT / "src"))
    reference = load_reference()

    setup_times, parse_times = [], []

    def timed_setup():
        t0 = time.perf_counter()
        built = setup(name, seed, reference)
        setup_times.append(time.perf_counter() - t0)
        parse_times.append(built.parse_s)
        return built

    for _ in range(SETUP_REPEATS):
        w = timed_setup()
    env = environment(w.mods)

    rng = random.Random(seed)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    plain: list[float] = []
    decided: list[int] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    tracer = Tracer() if trace else None
    while True:
        # One more set-up per pass, left unused: set-up samples then span
        # the run, as the pass samples do, instead of only its first second.
        timed_setup()
        before = tally.decided
        plain.append(run_pass(w, rng, tally))
        decided.append(tally.decided - before)
        expected = statistics.median(plain)
        if tracer is not None:
            first, budgets_from = len(tracer.spans), len(tracer.budgets)
            tracer.install(w.mods)
            try:
                traced.append(run_pass(w, rng, tally, tracer))
            finally:
                tracer.uninstall()
            per_pass.append(tracer.metrics(first, budgets_from))
            expected += statistics.median(traced)
        if time.perf_counter() + expected > deadline:
            break
    # read before the sympy checks, whose import would set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        independent_checks(w, tally)
    except Exception as exc:
        tally.check(False, f"independent checks: {type(exc).__name__}: {exc}")

    pass_s = statistics.median(plain)
    failed = len(tally.failures)
    print(f"# env {json.dumps(env)}")
    if not env["comparable"]:
        print(f"# WARNING: solver {env['solver']} found; not comparable with solver-less runs")
    print(f"# {name} seed {seed}: {len(plain)} untraced and {len(traced)} traced passes "
          f"of {len(w.jobs)} jobs; untraced pass_s {[round(t, 3) for t in plain]}")
    for what in tally.failures[:20]:
        print(f"# FAILED {what}", file=sys.stderr)
    ends = {"setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (pass_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}
    shown = dict(ends)
    if name == "verify-box":
        shown["loops_verified_per_s"] = (statistics.median(
            n / t for n, t in zip(decided, plain)), "1/s")
    shown["failed_ratio"] = (failed / max(tally.attempted, 1), "ratio")
    for key, (value, u) in shown.items():
        print(f"{key} {value:.6g} {u}")

    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in ends.items()}
    else:
        layers = median_metrics(per_pass)
        layers["problemfile.parse_s"] = statistics.median(parse_times)
        layers["trace.overhead_s"] = statistics.median(traced) - pass_s
        for key, value in layers.items():
            print(f"{key} {value:.6g} {unit(key)}")
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in layers.items()}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{name}-seed{seed}.spans.jsonl",
                     {"workload": name, "seed": seed, "env": env,
                      "passes": len(traced), "fields": ["name", "start", "end",
                                                        "parent", "job"]})
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
