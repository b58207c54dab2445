"""dichain benchmark: the paper's validation experiments as workloads.

Usage (from the checkout root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run of a workload is a fresh interpreter (perfbench/child.py) with
one BLAS/OpenMP thread, DICHAIN_THREADS unset and a scratch working
directory under .perfbench_work/, one at a time (closed loop).  Nothing
in the lab is random, so the seed changes no input; it is recorded.

--trace 0 runs the workload back to back for S seconds and reports the
end-to-end metrics: median wall time of a run, median set-up time of a
fresh interpreter, median peak RSS and the share of runs that passed the
correctness check.  Wall and set-up times are reported in seconds at a
fixed reference host speed (see hostspeed.py); the summary also prints
the raw times.  --trace 1 runs it untraced, traced, traced, untraced,
times the named kernels, and reports the per-layer metrics.
The last line of stdout is the JSON result; the lines before it are the
human-readable summary.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import hostspeed
import tracing_report
import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
MIN_SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170.0


class Runner:
    """Spawns benchmark children in one scratch directory."""

    def __init__(self, workload: str, refs_dir=None):
        self.workload = workload
        self.refs_dir = refs_dir
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("DICHAIN_THREADS", "PYTHONPATH")}
        self.env.update(workloads.PINNED_ENV, PYTHONPATH=str(ROOT / "src"))
        os.makedirs(ROOT / ".perfbench_work", exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=ROOT / ".perfbench_work")

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(ROOT / ".perfbench_work")
        except OSError:
            pass  # another run still uses it

    def _spawn(self, script: str, job=None):
        """Run one child; returns (seconds to its ``ready`` line or None,
        its last stdout line parsed as JSON or None, problem text or None)."""
        argv = [sys.executable, str(HERE / script)] + ([json.dumps(job)] if job else [])
        err_path = os.path.join(self.workdir, "stderr.txt")
        t0 = time.perf_counter()
        with open(err_path, "w") as err:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, text=True,
                                    stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0 if first.strip() == "ready" else None
            lines = (first + proc.stdout.read()).strip().splitlines()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if proc.returncode != 0:
            with open(err_path) as fh:
                tail = fh.read().strip().splitlines()[-1:] or ["(no stderr)"]
            return setup_s, None, f"{script} exit code {proc.returncode}: {tail[0]}"
        try:
            return setup_s, json.loads(lines[-1]), None
        except (IndexError, json.JSONDecodeError):
            return setup_s, None, f"{script}: no result line"

    def child(self, mode: str, spans=None):
        job = {"workload": self.workload, "refs": self.refs_dir,
               "mode": mode, "spans": spans and os.path.join(self.workdir, spans)}
        return self._spawn("child.py", job)

    def kernels(self):
        return self._spawn("kernels.py")


def _fmt_env(env: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in env.items())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _percentile_line(name: str, values, unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"{name}: median {statistics.median(values):.4g} {unit}, n={n}"
    if n >= 11:
        ordered = sorted(values)
        pct = 100.0 * (n - 10) / n
        line += f", p{pct:.0f} {ordered[n - 11]:.4g} {unit}"
    else:
        line += " (no percentile has 10 samples beyond it)"
    return line


def measure(runner: Runner, seconds: float):
    runs, setups, problems = [], [], []  # setups: (raw, at reference speed)
    deadline = time.perf_counter() + seconds
    while True:
        setup_s, res, problem = runner.child("run")
        if setup_s is not None and res is not None:
            setups.append((setup_s, hostspeed.at_reference(setup_s, res["setup_cal"])))
        runs.append(res)
        if res is None or not res["ok"]:
            problems.append(problem or ("; ".join(res["problems"]) if res else "no result"))
        if time.perf_counter() >= deadline:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setup_s, res, problem = runner.child("setup")
        if res is None:
            problems.append(problem)
            break
        setups.append((setup_s, hostspeed.at_reference(setup_s, res["setup_cal"])))

    done = [r for r in runs if r is not None]
    failed = sum(1 for r in runs if r is None or not r["ok"])
    if not done or not setups:
        return len(runs), failed, problems, None
    walls = [r["wall_ref_s"] for r in done]
    print(_percentile_line("wall_s", walls, "s at reference speed"))
    print(_percentile_line("raw wall_s", [r["wall_s"] for r in done], "s"))
    print(_percentile_line("setup_s", [ref for _, ref in setups], "s at reference speed"))
    print(_percentile_line("raw setup_s", [raw for raw, _ in setups], "s"))
    print(f"fail_frac: {failed}/{len(runs)} = {failed / len(runs):.3g}")
    print(f"ref_dev: {max(r['ref_dev'] for r in done):.3g} (largest relative deviation "
          f"from the seed references); fine_dev: {max(r['fine_dev'] for r in done):.3g} "
          f"(from the 4x finer references, where the workload has them)")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done), "MB"),
        "pass_frac": ((len(runs) - failed) / len(runs), "ratio"),
    }
    return len(runs), failed, problems, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dichain" / "cli.py").is_file():
        print(f"no dichain sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload)
    try:
        _, warm, problem = runner.child("setup")  # warm-up: bytecode, file cache
        if problem:
            print(problem, file=sys.stderr)
            return 1
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}")
        print(f"environment: {_fmt_env(warm['env'])}, nproc={os.cpu_count()}, "
              f"cpu={_cpu_model()}, {_fmt_env(workloads.PINNED_ENV)}")
        if args.trace:
            attempted, failed, problems, metrics = tracing_report.run(runner)
        else:
            attempted, failed, problems, metrics = measure(runner, args.seconds)
    finally:
        runner.close()
    for p in problems[:5]:
        print(f"FAILED: {p}")
    if metrics is None:
        print("no run completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
