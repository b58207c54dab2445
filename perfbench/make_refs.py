"""Regenerate the committed references in perfbench/refs/.

Usage: python3 perfbench/make_refs.py [workload ...]

For every command of a workload this records the science numbers of the
current code (``seed``) and, where the workload has a time step, of the
same command at 4x finer resolution (``fine``): lattice dt = 0.0005
instead of 0.002, Strang dtau = 2.5e-4 instead of the 1e-3 default.
Run it only to re-base the benchmark; a change that claims a gain keeps
the references it was measured against.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import tempfile

import workloads

os.environ.update(workloads.PINNED_ENV)
os.environ.pop("DICHAIN_THREADS", None)
sys.path.insert(0, str(workloads.ROOT / "src"))

from dichain import amplitude, cli  # noqa: E402

import check  # noqa: E402

FINE_DT = 0.0005
FINE_DTAU = 2.5e-4


def _run(config: dict) -> dict:
    """Run one config in the current (scratch) directory; its numbers."""
    with open("config.json", "w") as fh:
        json.dump(config, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["validate", "--config", "config.json"])
    if rc != 0:
        raise SystemExit(f"{config}: exit code {rc}")
    numbers = check.science(config)
    return {name: [v for v, _ in vals] for name, vals in numbers.items()}


def _fine(workload: str, config: dict):
    if workload == "convergence_resonant":
        return _run(dict(config, dt=FINE_DT))
    if workload == "lemma_halfpi":
        coarse = amplitude.make_solution
        amplitude.make_solution = functools.partial(coarse, dtau=FINE_DTAU)
        try:
            return _run(config)
        finally:
            amplitude.make_solution = coarse
    return None


def main(names) -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as workdir:
        os.chdir(workdir)
        try:
            _make(names)
        finally:
            os.chdir(home)


def _make(names) -> None:
    for workload in names:
        refs = {}
        for c in workloads.WORKLOADS[workload]:
            config = workloads.load_config(c["config"])
            refs[c["config"]] = {"seed": _run(config)}
            fine = _fine(workload, config)
            if fine is not None:
                refs[c["config"]]["fine"] = fine
            print(f"{workload}: {c['config']} done", file=sys.stderr)
        with open(check.REFS / f"{workload}.json", "w") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(workloads.WORKLOADS))
