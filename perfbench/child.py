"""One benchmark run in a fresh interpreter.

Usage: child.py '<json job>' with keys ``workload``, ``refs`` (reference
directory or null), ``mode`` ("setup", "run" or "trace") and ``spans``
(trace output path).

The child starts a host-speed sampler, imports numpy, scipy and
dichain, validates the workload's configs and prints ``ready``: the
parent times set-up up to that line.  Unless the mode is "setup" it then
calls ``dichain.cli.main`` for each command, checks the outputs, and
prints one JSON line with the wall time from the first call to the
checked result (raw and at reference host speed), CPU time, peak RSS and
the check's verdict.  Every result line carries the host-speed samples
taken during set-up, which the parent needs to rescale its set-up time.
"""
from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time

import hostspeed

SAMPLER = hostspeed.Sampler()
SAMPLER.start()  # before the imports, which are part of set-up

import numpy  # noqa: E402  set-up cost is part of what is measured
import scipy  # noqa: E402
from dichain import cli, harness  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402


def _blas() -> str:
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        return "unknown"


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    job = json.loads(sys.argv[1])
    cmds = workloads.WORKLOADS[job["workload"]]
    for c in cmds:
        harness.config_from_dict(workloads.load_config(c["config"]))
    print("ready", flush=True)
    setup_cal = SAMPLER.take()
    if job["mode"] == "setup":
        SAMPLER.stop()
        print(json.dumps({"setup_cal": setup_cal, "env": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas()}}))
        return 0

    tracer = None
    if job["mode"] == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        run_main = tracer.wrap("cli.main", cli.main)
    else:
        run_main = cli.main
    refs = check.load_refs(job["workload"], job.get("refs"))

    SAMPLER.take()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    problems, ref_dev, fine_dev = [], 0.0, 0.0
    for c in cmds:
        with contextlib.redirect_stdout(io.StringIO()):  # keep stdout for the result
            rc = run_main([c["argv"][0], "--config", str(workloads.ROOT / c["config"])])
        if rc != 0:
            problems.append(f"{c['config']}: exit code {rc}")
            continue
        numbers = check.science(workloads.load_config(c["config"]))
        ref = refs[c["config"]]
        p, rd, fd = check.compare(numbers, ref["seed"], ref.get("fine"))
        problems += [f"{c['config']}: {m}" for m in p]
        ref_dev, fine_dev = max(ref_dev, rd), max(fine_dev, fd)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    run_cal = SAMPLER.stop()

    if tracer is not None:
        tracer.dump(job["spans"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"ok": not problems, "problems": problems[:10], "wall_s": wall,
                      "wall_ref_s": hostspeed.at_reference(wall, run_cal),
                      "setup_cal": setup_cal, "cpu_s": cpu, "ref_dev": ref_dev,
                      "fine_dev": fine_dev, "peak_rss_mb": peak_rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
