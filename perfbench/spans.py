"""Layer-by-layer tracing of loopsynth from outside the package.

The tracer replaces public functions at every module attribute their
callers bind (``pipeline.generate_loops``, ``solve.buchberger``, ...) with
wrappers that record one span per call: name, start, end, parent span and
job.  Spans stay in memory and are written out once the run ends.  Nothing
under ``src/`` is changed; uninstall() puts every original back.

Self time of a span is its duration minus the time its direct children
cover.  Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import time

# span record fields
NAME, START, END, PARENT, JOB, INFO = range(6)

# Counters that must repeat exactly between runs of the same inputs.
EXACT_COUNTERS = (
    "polyring.compose_calls", "polyring.evaluate_calls",
    "groebner.basis_runs", "groebner.rabinowitsch_runs",
    "groebner.basis_size_out", "groebner.nf_pair_calls",
    "groebner.nf_membership_calls", "groebner.square_probe_calls",
    "groebner.square_probe_hits", "groebner.radical_queries",
    "synthesis.rounds", "synthesis.q_count",
    "synthesis.check_invariants_calls", "solve.box_points", "solve.box_hits",
    "pipeline.status_ok", "pipeline.status_TL", "pipeline.status_error",
    "budget.steps",
)


class Tracer:
    """Wraps loopsynth's layers in place; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.budgets: list = []
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._undo: list = []
        self._remainder = None  # (parent span, last nonzero membership remainder)

    # -- installing -------------------------------------------------------

    def install(self, mods) -> None:
        """Wrap every layer boundary the benchmark measures."""
        Polynomial = mods.polyring.Polynomial
        self._wrap(Polynomial, "compose", "polyring.compose")
        self._wrap(Polynomial, "evaluate", "polyring.evaluate")
        self._wrap(mods.groebner, "normal_form", "groebner.normal_form",
                   self._membership_info)
        for owner in (mods.groebner, mods.solve):
            self._wrap(owner, "buchberger", "groebner.buchberger",
                       lambda rec, args, out: (args[0][0].context.t_name is not None,
                                               len(out)))
        self._wrap(mods.synthesis, "all_in_radical", "synthesis.all_in_radical",
                   lambda rec, args, out: len(args[0]))
        for owner in (mods.pipeline, mods.synthesis):
            self._wrap(owner, "check_invariants", "synthesis.check_invariants")
            self._wrap(owner, "simulate", "synthesis.simulate")
        self._wrap(mods.pipeline, "generate_loops", "synthesis.generate_loops")
        self._wrap(mods.pipeline, "classify_finiteness", "solve.classify_finiteness")
        self._wrap(mods.pipeline, "solve", "solve.solve")
        self._wrap(mods.solve, "brute_force_box", "solve.brute_force_box",
                   lambda rec, args, out: ((2 * args[1] + 1) ** len(args[0].context.names),
                                           len(out)))
        report_info = lambda rec, args, out: (out.status, out.rounds or 0, out.q_count or 0)
        self._wrap(mods.pipeline, "run_pipeline", "pipeline.run_pipeline", report_info)
        self._wrap(mods.pipeline, "run_check", "pipeline.run_pipeline", report_info)

        base = mods.pipeline.Budget
        tracer = self

        class RecordingBudget(base):
            """Budget that registers itself so its steps can be read later."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.budgets.append((tracer.job, self))

        self._undo.append((mods.pipeline, "Budget", base))
        mods.pipeline.Budget = RecordingBudget

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, owner, attr: str, name: str, info=None) -> None:
        original = getattr(owner, attr)
        wrapper = self._wrappers.get(original)
        if wrapper is None:
            wrapper = self._wrappers[original] = self._make(original, name, info)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _make(self, fn, name: str, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(rec, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _membership_info(self, rec, args, out):
        """Tag normal forms asked by all_in_radical; a call is a square probe
        when its argument is the square of the previous remainder there."""
        parent = rec[PARENT]
        if parent < 0 or self.spans[parent][NAME] != "synthesis.all_in_radical":
            return None
        prev = self._remainder
        probe = prev is not None and prev[0] == parent and _is_square(args[0], prev[1])
        self._remainder = None if probe or out.is_zero else (parent, out)
        return ("probe", out.is_zero) if probe else "member"

    # -- reading ----------------------------------------------------------

    def metrics(self, first: int, budgets_from: int) -> dict:
        """Per-layer metrics over spans[first:] and budgets[budgets_from:]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans[first:]:
            if rec[PARENT] >= first:
                child[rec[PARENT]] += rec[END] - rec[START]
        count: dict = {}
        total: dict = {}
        own: dict = {}

        def add(key, rec, i):
            count[key] = count.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + rec[END] - rec[START]
            own[key] = own.get(key, 0.0) + rec[END] - rec[START] - child[i]

        basis_out = radical_queries = probe_hits = 0
        box_points = box_hits = rounds = q_count = 0
        status = {"ok": 0, "TL": 0, "error": 0}
        for i in range(first, len(spans)):
            rec = spans[i]
            name, info = rec[NAME], rec[INFO]
            if name == "groebner.buchberger":
                with_t, size = info
                add("rabinowitsch" if with_t else "basis", rec, i)
                if not with_t:
                    basis_out += size
            elif name == "groebner.normal_form":
                parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
                if parent == "groebner.buchberger":
                    add("nf_pair", rec, i)
                elif info is not None:
                    add("nf_membership", rec, i)
                    if info != "member":
                        add("probe", rec, i)
                        probe_hits += info[1]
            elif name == "synthesis.all_in_radical":
                radical_queries += info
                add(name, rec, i)
            elif name == "solve.brute_force_box":
                box_points += info[0]
                box_hits += info[1]
                add(name, rec, i)
            elif name == "pipeline.run_pipeline":
                if rec[PARENT] < 0:
                    status[info[0]] = status.get(info[0], 0) + 1
                    rounds += info[1]
                    q_count += info[2]
                    add(name, rec, i)
            else:
                add(name, rec, i)

        def n(key):
            return count.get(key, 0)

        return {
            "polyring.compose_calls": n("polyring.compose"),
            "polyring.compose_self_s": own.get("polyring.compose", 0.0),
            "polyring.evaluate_calls": n("polyring.evaluate"),
            "polyring.evaluate_self_s": own.get("polyring.evaluate", 0.0),
            "groebner.basis_runs": n("basis"),
            "groebner.basis_self_s": own.get("basis", 0.0),
            "groebner.rabinowitsch_runs": n("rabinowitsch"),
            "groebner.rabinowitsch_self_s": own.get("rabinowitsch", 0.0),
            "groebner.basis_size_out": basis_out,
            "groebner.nf_pair_calls": n("nf_pair"),
            "groebner.nf_pair_s": total.get("nf_pair", 0.0),
            "groebner.nf_membership_calls": n("nf_membership"),
            "groebner.nf_membership_s": total.get("nf_membership", 0.0),
            "groebner.square_probe_calls": n("probe"),
            "groebner.square_probe_hits": probe_hits,
            "groebner.radical_queries": radical_queries,
            "groebner.rabinowitsch_share": n("rabinowitsch") / radical_queries
                                           if radical_queries else 0.0,
            "synthesis.generate_loops_s": total.get("synthesis.generate_loops", 0.0),
            "synthesis.rounds": rounds,
            "synthesis.q_count": q_count,
            "synthesis.check_invariants_calls": n("synthesis.check_invariants"),
            "synthesis.check_invariants_self_s": own.get("synthesis.check_invariants", 0.0),
            "synthesis.simulate_s": total.get("synthesis.simulate", 0.0),
            "solve.classify_finiteness_s": total.get("solve.classify_finiteness", 0.0),
            "solve.box_points": box_points,
            "solve.box_hits": box_hits,
            "solve.box_hit_ratio": box_hits / box_points if box_points else 0.0,
            "solve.brute_force_box_s": total.get("solve.brute_force_box", 0.0),
            "solve.solve_s": total.get("solve.solve", 0.0),
            "pipeline.run_pipeline_self_s": own.get("pipeline.run_pipeline", 0.0),
            "pipeline.status_ok": status["ok"],
            "pipeline.status_TL": status["TL"],
            "pipeline.status_error": status["error"],
            "budget.steps": sum(b.steps for _, b in self.budgets[budgets_from:]),
        }

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines after one header line; INFO is dropped."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec[:INFO]) + "\n")


def _is_square(f, r) -> bool:
    # cheap necessary conditions first: r*r on a large r costs seconds
    if f.context != r.context or len(f) > len(r) * (len(r) + 1) // 2:
        return False
    if f.total_degree() != 2 * r.total_degree():
        return False
    return f == r * r


def median_metrics(per_pass: list[dict]) -> dict:
    """Counters from the first traced pass, timings as medians over passes."""
    out = dict(per_pass[0])
    for key, value in out.items():
        if key not in EXACT_COUNTERS and isinstance(value, float):
            out[key] = statistics.median(p[key] for p in per_pass)
    return out
