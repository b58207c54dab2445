"""The benchmark's workloads: the dichain commands one run executes.

Each workload is a list of CLI invocations of ``dichain.cli.main``; one
run executes all of them in one fresh interpreter, in the listed order
(that of tests/test_acceptance.py).  The order is fixed because it moves
peak RSS: the next command reuses freed heap, and on lemma_halfpi the
two orders peak at about 128 and 163 MB.  Config paths are relative to
the checkout root.  Every config writes its ``out`` CSV relative to the
working directory, which the benchmark points at a scratch directory.
"""
from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS/OpenMP thread per process: a spinning OpenBLAS worker would
# hold the second core and make timings depend on neighbour load.  A fixed
# string-hash seed: with random hashing the peak RSS of one and the same
# convergence run fell into two modes 7 MB apart.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _cmd(sub, config):
    return {"argv": [sub, "--config", config], "config": config}


WORKLOADS = {
    # the 5-eps resonant sweep, N = 400..1600: bound by model.force
    "convergence_resonant": [_cmd("validate", "configs/convergence_resonant.json")],
    # acceptance criterion 5 (P_NONRES and the c = 1 family): no lattice
    # integration, dominated by the dense AnsatzSpec.interp
    "lemma_scalings": [_cmd("validate", f"perfbench/configs/{k}_{s}.json")
                       for s in ("nonres", "res_c1")
                       for k in ("ansatz_scaling", "residual_scaling")],
    # the same lemmas on the c = 0.5 family (theta1 = pi/2): the only
    # workload on which StrangSolution runs
    "lemma_halfpi": [_cmd("validate", f"perfbench/configs/{k}_res_c05.json")
                     for k in ("ansatz_scaling", "residual_scaling")],
}

# Counts the traced run must reproduce at the seed commit; printed next
# to the measured counts so a change that moves them is visible.
SEED_COUNTS = {
    "convergence_resonant": {"model.force.calls": 56155, "amplitude.strang_step.calls": 0},
    "lemma_scalings": {"model.force.calls": 0, "amplitude.strang_step.calls": 80},
    "lemma_halfpi": {"model.force.calls": 0, "amplitude.strang_step.calls": 8124},
}


def load_config(rel: str) -> dict:
    with open(ROOT / rel) as fh:
        return json.load(fh)

