"""The traced run: per-layer metrics from spans around dichain's calls.

Runs the workload untraced, traced, traced, untraced (fresh
interpreters), then the kernel microtimings.  Counts come from the
first traced run and must repeat exactly in the second; self times are
the mean of the two; the overhead is the traced over the untraced wall
time at reference host speed, minus 1.
"""
from __future__ import annotations

import json
import os
from collections import Counter

import workloads

# span name -> the metrics taken from it
SPAN_METRICS = {
    "model.force": ("calls", "self_s"),
    "microsim.integrate": ("self_s",),
    "ansatz.interp": ("calls", "self_s"),
    "ansatz.sample": ("calls", "self_s"),
    "ansatz.residual_norm": ("calls", "self_s"),
    "amplitude.strang_step": ("calls", "self_s"),
    "amplitude.fields": ("calls", "self_s"),
    "amplitude.make_solution": ("self_s",),
    "amplitude.second_order": ("self_s",),
    "resonance.solve_family_ratio": ("calls", "self_s"),
    "harness.setup_run": ("calls", "self_s"),
    "harness.observer": ("self_s",),
    "cli.write_csv": ("self_s",),
}


def self_times(spans):
    """Per-name (calls, self seconds); self time is a span's duration
    minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = Counter(), Counter()
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
    return calls, self_s


def _load(path):
    with open(path) as fh:
        doc = json.load(fh)
    calls, self_s = self_times(doc["spans"])
    total = sum(end - start for _, start, end, parent in doc["spans"] if parent < 0)
    counts = {f"{name}.calls": n for name, n in calls.items()}
    counts.update(doc["counts"])
    return counts, self_s, total


def run(runner):
    res, problems, failed = {}, [], 0
    for key, mode in (("u1", "run"), ("t1", "trace"), ("t2", "trace"), ("u2", "run")):
        _, r, problem = runner.child(mode, spans=f"{key}.json")
        if r is None or not r["ok"]:
            failed += 1
            problems.append(problem or ("; ".join(r["problems"]) if r else "no result"))
        res[key] = r
    _, kern, problem = runner.kernels()
    if kern is None:
        failed += 1
        problems.append(problem or "kernels: no result")
    attempted = 5
    if kern is None or any(r is None for r in res.values()):
        return attempted, failed, problems, None

    (c1, s1, total1), (c2, s2, total2) = (
        _load(os.path.join(runner.workdir, f"{k}.json")) for k in ("t1", "t2"))
    if c1 != c2:
        failed += 1
        diff = sorted(k for k in set(c1) | set(c2) if c1.get(k) != c2.get(k))
        problems.append(f"counts differ between two traced runs: {diff}")

    metrics = {}
    for name, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            metrics[f"{name}.calls"] = (c1.get(f"{name}.calls", 0), "count")
        metrics[f"{name}.self_s"] = ((s1.get(name, 0.0) + s2.get(name, 0.0)) / 2, "s")
    metrics["microsim.integrate.steps"] = (c1.get("microsim.integrate.steps", 0), "count")
    at_calls = c1.get("ansatz.at_tau.calls", 0)
    metrics["ansatz.at_tau.hit_ratio"] = (
        c1.get("ansatz.at_tau.hits", 0) / at_calls if at_calls else 0.0, "ratio")
    metrics["amplitude.strang.checkpoints"] = (c1.get("amplitude.strang.checkpoints", 0),
                                               "count")
    traced = [res["t1"], res["t2"]]
    metrics["harness.cpu_util"] = (sum(r["cpu_s"] / r["wall_s"] for r in traced) / 2,
                                   "ratio")
    untraced = res["u1"]["wall_ref_s"] + res["u2"]["wall_ref_s"]
    metrics["trace.overhead_frac"] = (sum(r["wall_ref_s"] for r in traced) / untraced - 1.0,
                                      "frac")
    for name, (median, spread) in kern.items():
        metrics[name] = (median, "us" if ".us_" in name else "ms")
        metrics[f"{name}.spread"] = (spread, "frac")

    total = (total1 + total2) / 2
    shares = sorted(((s1[k] + s2.get(k, 0.0)) / 2 / total, k) for k in s1)[::-1]
    print("self-time shares (traced): " + ", ".join(f"{k} {v:.1%}" for v, k in shares[:6]))
    seed = workloads.SEED_COUNTS[runner.workload]
    print("counts vs seed commit: " + ", ".join(
        f"{k} {c1.get(k, 0)} (seed {v})" for k, v in seed.items()))
    return attempted, failed, problems, metrics
