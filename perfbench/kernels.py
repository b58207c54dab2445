"""Microtimings of the kernels the ROADMAP names, in a fresh interpreter.

Each kernel is called in batches; a batch's time divided by its calls is
one sample, and the result is the median sample with its spread (the
distance between the quartiles over the median).  Inputs come from the
shipped resonant config (c = 1; the c = 0.5 family for the Strang step,
whose group velocities are nonzero) at eps = 0.1 (N = 400) and
eps = 0.025 (N = 1600).  Prints one JSON line {metric: [median, spread]}.
"""
from __future__ import annotations

import json
import statistics
import time

from dichain import amplitude, ansatz, harness, microsim
from dichain.microsim import SimConfig

import workloads

BATCHES = 9


def _time(fn, calls: int, scale: float):
    fn()  # warm caches and lazy set-up
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls * scale)
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return [med, (q3 - q1) / med]


def _setup(config_path: str, eps: float):
    cfg = harness.config_from_dict(workloads.load_config(config_path))
    return cfg, harness.setup_run(cfg, eps)


def main() -> None:
    out = {}
    _, s400 = _setup("configs/convergence_resonant.json", 0.1)
    cfg, s1600 = _setup("configs/convergence_resonant.json", 0.025)
    for N, s in ((400, s400), (1600, s1600)):
        pos = ansatz.initial_state(s.spec).pos
        out[f"model.force.us_N{N}"] = _time(lambda: microsim.force(s.p, pos), 200, 1e6)

    steps = 200
    p, spec = s1600.p, s1600.spec
    s0 = ansatz.initial_state(spec)
    sim = SimConfig(dt=cfg.dt, T=steps * cfg.dt)
    out["microsim.step.us_N1600"] = _time(lambda: microsim.integrate(p, s0, sim), 1, 1e6 / steps)

    b1 = spec.solution.fields(0.5)[0]
    out["ansatz.interp.us_N1600"] = _time(lambda: spec.interp(b1), 200, 1e6)
    t = 0.5 / spec.eps
    out["ansatz.sample.us_N1600"] = _time(lambda: ansatz.sample_first_order(spec, t), 200, 1e6)
    for N, s in ((400, s400), (1600, s1600)):
        t = 0.5 / s.spec.eps
        h0 = max(0.01, 5e-5 / s.spec.eps ** 2)
        out[f"ansatz.residual_norm.ms_N{N}"] = _time(
            lambda: ansatz.residual_norm(s.p, s.spec, t, h0=h0), 3, 1e3)

    _, half = _setup("perfbench/configs/ansatz_scaling_res_c05.json", 0.025)
    macro, L = half.spec.macro, half.spec.L
    fields = half.spec.solution.fields(0.0)
    out["amplitude.strang_step.us_n256"] = _time(
        lambda: amplitude.strang_step(macro, fields, L, 1e-3), 200, 1e6)

    for eps in (0.1, 0.025):
        out[f"harness.setup_run.ms_eps{eps}"] = _time(lambda: harness.setup_run(cfg, eps), 3, 1e3)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
