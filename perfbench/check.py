"""Correctness check of a run's science numbers against committed references.

Each command's output is reduced to named lists of numbers: the per-eps
rows of a scaling CSV and the exponent fitted to them (recomputed here,
independently of dichain).

``refs/<workload>.json`` holds, per config, the numbers of the seed
commit (``seed``) and, where the workload has a time step, of the same
run at 4x finer resolution (``fine``).  A number x passes when

* with a fine reference f:  |x - f| <= FINE_SLACK * |s - f| + RTOL * |f| + q
* otherwise:                |x - s| <= RTOL * |s| + q

where s is the seed value and q an allowance for how the number is
produced: 1e-3 relative for residual_scaling rows, whose second difference over h^2 ~ 1e-9 turns
1e-15 relative noise in the sampled ansatz into ~1e-4 in the residual.
So round-off changes pass everywhere, and a change of discretisation
passes only if it stays about as close to the finer run as the seed
commit is.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FINE_SLACK = 1.25
RTOL = 1e-6
RESIDUAL_RTOL = 1e-3
REFS = Path(__file__).resolve().parent / "refs"


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    return header, rows


def science(config: dict) -> dict:
    """Named numbers of one command's output: {name: [(value, q), ...]}."""
    header, rows = _read_csv(config["out"])
    if header != ["eps", "error"]:
        raise ValueError(f"{config['out']}: unexpected header {header}")
    eps = [r[0] for r in rows]
    val = [r[1] for r in rows]
    slope = float(np.polyfit(np.log(eps), np.log(val), 1)[0])
    rel = RESIDUAL_RTOL if config["kind"] == "residual_scaling" else 0.0
    return {"eps": [(e, 0.0) for e in eps], "rows": [(v, rel * abs(v)) for v in val],
            "exponent": [(slope, rel * abs(slope))]}


def load_refs(workload: str, refs_dir=None) -> dict:
    with open(Path(refs_dir or REFS) / f"{workload}.json") as fh:
        return json.load(fh)


def compare(numbers: dict, seed: dict, fine=None):
    """Check one command's numbers; returns (problems, ref_dev, fine_dev)."""
    problems, ref_dev, fine_dev = [], 0.0, 0.0
    for name, ref_vals in seed.items():
        got = numbers.get(name)
        if got is None or len(got) != len(ref_vals):
            problems.append(f"{name}: {0 if got is None else len(got)} values, "
                            f"reference has {len(ref_vals)}")
            continue
        fine_vals = (fine or {}).get(name)
        for i, ((x, q), s) in enumerate(zip(got, ref_vals)):
            if not math.isfinite(x):
                problems.append(f"{name}[{i}] = {x}")
                continue
            ref_dev = max(ref_dev, abs(x - s) / abs(s) if s else abs(x))
            if fine_vals is not None:
                f = fine_vals[i]
                fine_dev = max(fine_dev, abs(x - f) / abs(f) if f else abs(x))
                tol = FINE_SLACK * abs(s - f) + RTOL * abs(f) + q
                if abs(x - f) > tol:
                    problems.append(f"{name}[{i}] = {x!r}: {abs(x - f):.3g} from the fine "
                                    f"reference {f!r}, allowed {tol:.3g}")
            elif abs(x - s) > RTOL * abs(s) + q:
                problems.append(f"{name}[{i}] = {x!r}, reference {s!r}")
    return problems, ref_dev, fine_dev
