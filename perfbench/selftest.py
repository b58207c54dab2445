"""Self-test of the correctness check: it passes correct output and
catches wrong output.

Usage (from the checkout root): python3 perfbench/selftest.py [workload ...]

Runs each workload once in three ways, through the benchmark's own
Runner and child, and exits 0 only if every verdict is as expected:

* ``control``: the code and references as committed; must pass.
* ``refs x1.05``: every science number of the references (per-eps rows
  and fitted exponents, seed and 4x finer) scaled by 1.05, the echoed
  eps grid left exact; must fail.
* ``k2 x1.01``: a copy of src/ whose quadratic bond coefficient is 1 %
  larger in ``model.nonlinear_apply``, checked against the committed
  references; must fail.  This shows that the tolerances themselves
  catch a real change of the physics, not only a rescaled reference.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads
from check import REFS

PERTURBATION = 1.05
SCIENCE = ("rows", "exponent")
MUTATION = ("x * x * (c.k2 + c.k3 * x)", "x * x * (1.01 * c.k2 + c.k3 * x)")


def _perturbed(doc):
    """The references with every science number scaled."""
    return {config: {level: {name: [v * PERTURBATION for v in vals] if name in SCIENCE
                             else vals for name, vals in numbers.items()}
                     for level, numbers in ref.items()}
            for config, ref in doc.items()}


def _write_perturbed_refs(dest):
    for name in os.listdir(REFS):
        with open(REFS / name) as fh, open(os.path.join(dest, name), "w") as out:
            json.dump(_perturbed(json.load(fh)), out)


def _write_mutant(dest):
    shutil.copytree(workloads.ROOT / "src", dest)
    path = os.path.join(dest, "dichain", "model.py")
    with open(path) as fh:
        text = fh.read()
    if text.count(MUTATION[0]) != 1:
        raise SystemExit(f"selftest: cannot apply the k2 mutation to {path}")
    with open(path, "w") as fh:
        fh.write(text.replace(*MUTATION))


def _verdict(workload, refs_dir=None, src=None):
    runner = run.Runner(workload, refs_dir)
    if src is not None:
        runner.env["PYTHONPATH"] = src
    try:
        _, res, problem = runner.child("run")
    finally:
        runner.close()
    if res is None:
        return None, problem
    return res["ok"], (res["problems"] or ["no problem"])[0]


def main(names) -> int:
    ok = True
    os.makedirs(workloads.ROOT / ".perfbench_work", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.ROOT / ".perfbench_work") as tmp:
        refs, src = os.path.join(tmp, "refs"), os.path.join(tmp, "src")
        os.mkdir(refs)
        _write_perturbed_refs(refs)
        _write_mutant(src)
        for w in names:
            for case, kwargs, expect in (("control", {}, True),
                                         ("refs x1.05", {"refs_dir": refs}, False),
                                         ("k2 x1.01", {"src": src}, False)):
                passed, detail = _verdict(w, **kwargs)
                good = passed is expect
                print(f"{w} / {case}: {'ok' if good else 'WRONG'} "
                      f"(check {'passed' if passed else 'failed'}: {detail})")
                ok = ok and good
    try:
        os.rmdir(workloads.ROOT / ".perfbench_work")
    except OSError:
        pass  # another run still uses it
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
