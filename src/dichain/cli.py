"""Command-line interface: dispersion tables, resonance scans, envelope
trajectories, lattice simulation, and the validation experiments.

All file outputs are CSV with fixed headers; a run is fully determined
by its configuration file.  Exit codes: 0 success/PASS, 2 an experiment
ran but failed its threshold, 1 usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import amplitude as amp
from . import ansatz as anz
from . import harness
from .harness import ConfigError, ExperimentConfig, config_from_dict, params_from_dict
from .microsim import integrate
from .model import LatticeState


def write_csv(path: str, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row))
            fh.write("\n")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")


def _config(args, kind: str = None) -> ExperimentConfig:
    """The config file of ``args``, with ``kind`` and a given --out in
    place of its own."""
    over = {"kind": kind, "out": getattr(args, "out", None)}
    return config_from_dict(_load_json(args.config), **{k: v for k, v in over.items() if v})


def _report(cfg: ExperimentConfig, rep) -> int:
    if cfg.out:
        write_csv(cfg.out, rep.header, rep.rows)
    print(f"{'PASS' if rep.passed else 'FAIL'} {cfg.kind}: {rep.summary}")
    return 0 if rep.passed else 2


def cmd_dispersion(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n: need at least 1 row, got {args.n}")
    rep = harness.dispersion_table(params_from_dict(_load_json(args.params)), args.n)
    write_csv(args.out, rep.header, rep.rows)
    print(f"PASS dispersion: wrote {len(rep.rows)} rows to {args.out}")
    return 0


def cmd_resonance(args) -> int:
    if args.config:
        cfg = _config(args, "resonance_scan")
    else:
        scan = {k: [float(x) for x in v.split(",")]
                for k, v in (("gamma", args.gamma), ("c", args.c)) if v is not None}
        cfg = config_from_dict({"kind": "resonance_scan", "scan": scan, "out": args.out})
    return _report(cfg, harness.run_experiment(cfg))


def cmd_validate(args) -> int:
    cfg = _config(args, args.kind)
    return _report(cfg, harness.run_experiment(cfg))


def cmd_amplitudes(args) -> int:
    cfg = _config(args, "amplitudes")
    spec = harness.setup_run(cfg, cfg.eps[0]).spec
    n_steps = max(1, int(round(cfg.tau0 / cfg.dtau)))
    stride = max(1, n_steps // (cfg.n_snapshots - 1))
    sol = amp.StrangSolution(spec.macro, spec.solution.fields(0.0), cfg.L_y, cfg.tau0 / n_steps)
    snapshots = sorted(set(range(0, n_steps + 1, stride)) | {n_steps})
    y = amp.grid_points(cfg.L_y, cfg.n_grid)
    rows = []
    for k in snapshots:
        tau = k * sol.dtau
        b1, b2 = sol.fields(tau)
        rows.extend((tau, float(y[m]), float(b1[m].real), float(b1[m].imag),
                     float(b2[m].real), float(b2[m].imag)) for m in range(len(y)))
    write_csv(cfg.out, "tau,y,reA1_1,imA1_1,reA1_2,imA1_2", rows)
    print(f"PASS amplitudes: wrote {len(snapshots)} snapshots to {cfg.out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _config(args, "simulate")
    setup = harness.setup_run(cfg, cfg.eps[0])
    p, spec = setup.p, setup.spec
    if args.init_file:
        data = np.loadtxt(args.init_file, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (spec.N, 5):
            raise ConfigError(f"--init-file: expected N = {spec.N} rows of j,u1,u2,v1,v2, "
                              f"got {data.shape[0]} rows of {data.shape[1]} columns")
        order = np.argsort(data[:, 0])
        if not np.array_equal(data[order, 0], np.arange(spec.N)):
            raise ConfigError(f"--init-file: the j column must list each site 0 .. {spec.N - 1} "
                              "exactly once")
        s0 = LatticeState(data[order, 1:3], data[order, 3:5], 0.0)
    else:
        s0 = anz.initial_state(spec, improved=True)
    T = cfg.tau0 / spec.eps
    rows = []

    def observer(t, state):
        for j in range(state.N):
            rows.append((float(t), j, float(state.pos[j, 0]), float(state.pos[j, 1]),
                         float(state.vel[j, 0]), float(state.vel[j, 1])))

    integrate(p, s0, harness._experiment_sim(cfg, p, T), observer)
    write_csv(cfg.out, "t,j,u1,u2,v1,v2", rows)
    print(f"PASS simulate: wrote snapshots to {cfg.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dichain",
                                 description="diatomic-chain wave laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dispersion", help="branch frequencies and group velocities")
    d.add_argument("--params", required=True, help="JSON file with V1,V2,W1,W2")
    d.add_argument("--out", required=True)
    d.add_argument("--n", type=int, default=harness.DISPERSION_ROWS)
    d.set_defaults(run=cmd_dispersion)

    r = sub.add_parser("resonance", help="family resonance scan + impossibility checks")
    r.add_argument("--config", help="JSON config with a scan section")
    r.add_argument("--gamma", help="comma-separated gamma values")
    r.add_argument("--c", help="comma-separated c values")
    r.add_argument("--out")
    r.set_defaults(run=cmd_resonance)

    a = sub.add_parser("amplitudes", help="envelope trajectory snapshots")
    a.add_argument("--config", required=True)
    a.add_argument("--out")
    a.set_defaults(run=cmd_amplitudes)

    s = sub.add_parser("simulate", help="full lattice simulation snapshots")
    s.add_argument("--config", required=True)
    s.add_argument("--init-file", help="CSV with j,u1,u2,v1,v2 initial data")
    s.add_argument("--out")
    s.set_defaults(run=cmd_simulate)

    v = sub.add_parser("validate", help="run a named experiment from config")
    v.add_argument("--config", required=True)
    v.set_defaults(run=cmd_validate, kind=None)

    g = sub.add_parser("generate", help="the wave-generation experiment")
    g.add_argument("--config", required=True)
    g.set_defaults(run=cmd_validate, kind="generation")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
