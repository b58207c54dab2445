"""Spans around dichain's public calls, recorded from outside the package.

Each public name is wrapped where it is looked up at call time: for
example ``microsim.force`` rather than ``model.force``, because microsim
imports ``force`` by name.  A span is (name, start, end, parent index);
spans stay in memory and are written out once, when the run ends.
Counters that are not spans (leapfrog steps, ``at_tau`` cache hits,
Strang checkpoints) are kept beside them.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter

from dichain import amplitude, ansatz, cli, harness, microsim


class Tracer:
    """Wraps dichain's public calls in spans and keeps counters beside them."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self.stack = []
        self.counts = Counter()

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                return fn(*args, **kw)
            finally:
                spans[idx][2] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr, name):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self):
        counts = self.counts
        self._patch(microsim, "force", "model.force")
        self._patch(harness, "setup_run", "harness.setup_run")
        self._patch(harness, "solve_family_ratio", "resonance.solve_family_ratio")
        self._patch(amplitude, "strang_step", "amplitude.strang_step")
        self._patch(amplitude, "make_solution", "amplitude.make_solution")
        for cls in (amplitude.TransportSolution, amplitude.ODEReferenceSolution,
                    amplitude.StrangSolution):
            self._patch(cls, "fields", "amplitude.fields")
        self._patch(ansatz, "second_order_amplitudes", "amplitude.second_order")
        self._patch(ansatz.AnsatzSpec, "interp", "ansatz.interp")
        self._patch(ansatz, "sample_first_order", "ansatz.sample")
        self._patch(ansatz, "residual_norm", "ansatz.residual_norm")
        self._patch(cli, "write_csv", "cli.write_csv")

        integrate = self.wrap("microsim.integrate", harness.integrate)

        def traced_integrate(p, s0, cfg, observer=None):
            counts["microsim.integrate.steps"] += cfg.n_steps
            if observer is not None:
                observer = self.wrap("harness.observer", observer)
            return integrate(p, s0, cfg, observer)
        harness.integrate = traced_integrate

        at_tau = self.wrap("ansatz.at_tau", ansatz.AnsatzSpec.at_tau)

        def traced_at_tau(spec, tau):
            counts["ansatz.at_tau.calls"] += 1
            counts["ansatz.at_tau.hits"] += tau in spec._cache
            return at_tau(spec, tau)
        ansatz.AnsatzSpec.at_tau = traced_at_tau

        extend = amplitude.StrangSolution._extend

        def traced_extend(sol, k):
            n0 = len(sol._states)
            extend(sol, k)
            counts["amplitude.strang.checkpoints"] += len(sol._states) - n0
        amplitude.StrangSolution._extend = traced_extend

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

