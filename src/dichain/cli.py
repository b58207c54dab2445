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
from .resonance import (acoustic_acoustic_scan, family_params,
                        optical_closure_margin, solve_family_ratio, third_order_margin)
from .spectrum import ACOUSTIC, OPTICAL, group_velocity, omega


def _fmt(x) -> str:
    return f"{x:.17g}"


def write_csv(path: str, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
            fh.write("\n")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")


def cmd_dispersion(args) -> int:
    p = params_from_dict(_load_json(args.params))
    thetas = np.linspace(-np.pi, np.pi, args.n + 1)[1:]
    rows = [(float(t),
             float(omega(p, ACOUSTIC, t)), float(omega(p, OPTICAL, t)),
             float(group_velocity(p, ACOUSTIC, t)), float(group_velocity(p, OPTICAL, t)))
            for t in thetas]
    write_csv(args.out, "theta,omega_acoustic,omega_optical,vg_acoustic,vg_optical", rows)
    print(f"PASS dispersion: wrote {len(rows)} rows to {args.out}")
    return 0


def _resonance_scan(gammas, cs, out):
    rows, ok = [], True
    for g in gammas:
        c_e, max_g = acoustic_acoustic_scan(g)
        if max_g > 1e-12:
            ok = False
        for c in cs:
            ratio = solve_family_ratio(g, c)
            if ratio is None:
                rows.append((float(g), float(c), float("nan"), float("nan"), float("nan")))
                continue
            p = family_params(g, ratio)
            if optical_closure_margin(p) <= 0.0 or third_order_margin(p) <= 0.0:
                ok = False
            theta = float(np.arccos(2.0 * c - 1.0))
            resid = abs(2.0 * omega(p, ACOUSTIC, theta) - omega(p, OPTICAL, 2.0 * theta))
            rows.append((float(g), float(c), float(ratio), theta, float(resid)))
    if out:
        write_csv(out, "gamma,c,b_over_a,theta_star,residual", rows)
    return rows, ok


def cmd_resonance(args) -> int:
    if args.config:
        doc = _load_json(args.config)
        scan = doc.get("scan") or {}
        gammas = scan.get("gamma", [2.0])
        cs = scan.get("c", [1.0])
        out = args.out or doc.get("out")
    else:
        gammas = [float(x) for x in args.gamma.split(",")]
        cs = [float(x) for x in args.c.split(",")]
        out = args.out
    rows, ok = _resonance_scan(gammas, cs, out)
    n_res = sum(1 for r in rows if np.isfinite(r[2]))
    status = "PASS" if ok else "FAIL"
    print(f"{status} resonance scan: {n_res}/{len(rows)} family points resonant; "
          f"impossibility invariants {'hold' if ok else 'VIOLATED'}")
    return 0 if ok else 2


def cmd_amplitudes(args) -> int:
    cfg = config_from_dict(_load_json(args.config))
    setup = harness.setup_run(cfg, cfg.eps[0])
    spec = setup.spec
    f0 = spec.solution.fields(0.0)
    n_steps = max(1, int(round(cfg.tau0 / cfg.dtau)))
    stride = max(1, n_steps // max(1, cfg.n_snapshots - 1))
    traj = amp.evolve(spec.macro, f0, cfg.L_y, cfg.tau0, cfg.dtau, store_stride=stride)
    y = amp.grid_points(cfg.L_y, cfg.n_grid)
    rows = []
    for tau, (b1, b2) in zip(traj.taus, traj.fields):
        for m in range(len(y)):
            rows.append((float(tau), float(y[m]),
                         float(b1[m].real), float(b1[m].imag),
                         float(b2[m].real), float(b2[m].imag)))
    out = args.out or cfg.out
    write_csv(out, "tau,y,reA1_1,imA1_1,reA1_2,imA1_2", rows)
    print(f"PASS amplitudes: wrote {len(traj.taus)} snapshots to {out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = config_from_dict(_load_json(args.config))
    setup = harness.setup_run(cfg, cfg.eps[0])
    p, spec = setup.p, setup.spec
    if args.init_file:
        data = np.loadtxt(args.init_file, delimiter=",", skiprows=1)
        pos = data[:, 1:3].copy()
        vel = data[:, 3:5].copy()
        s0 = LatticeState(pos, vel, 0.0)
    else:
        s0 = anz.initial_state(spec, improved=True)
    T = cfg.tau0 / spec.eps
    rows = []

    def observer(t, state):
        for j in range(state.N):
            rows.append((float(t), j, float(state.pos[j, 0]), float(state.pos[j, 1]),
                         float(state.vel[j, 0]), float(state.vel[j, 1])))

    integrate(p, s0, harness._experiment_sim(cfg, p, T), observer)
    out = args.out or cfg.out
    write_csv(out, "t,j,u1,u2,v1,v2", rows)
    print(f"PASS simulate: wrote snapshots to {out}")
    return 0


def _run_experiment(cfg: ExperimentConfig):
    if cfg.kind == "convergence":
        rep = harness.run_convergence(cfg)
    elif cfg.kind == "residual_scaling":
        rep = harness.run_residual_scaling(cfg)
    elif cfg.kind == "ansatz_scaling":
        rep = harness.run_ansatz_scaling(cfg)
    elif cfg.kind == "generation":
        if cfg.resonant_family is not None:
            rep = harness.run_generation(cfg)
        else:
            rep = harness.run_generation_control(cfg)
    else:
        raise ConfigError(f"kind: {cfg.kind} is not runnable via validate")
    return rep


def cmd_validate(args, forced_kind=None) -> int:
    doc = _load_json(args.config)
    if forced_kind is not None:
        doc = dict(doc, kind=forced_kind)
    cfg = config_from_dict(doc)
    if cfg.kind == "dispersion_table":
        out = cfg.out or "dispersion.csv"
        p = cfg.params
        if p is None:
            raise ConfigError("params: required for dispersion_table")
        thetas = np.linspace(-np.pi, np.pi, 1025)[1:]
        rows = [(float(t), float(omega(p, ACOUSTIC, t)), float(omega(p, OPTICAL, t)),
                 float(group_velocity(p, ACOUSTIC, t)), float(group_velocity(p, OPTICAL, t)))
                for t in thetas]
        write_csv(out, "theta,omega_acoustic,omega_optical,vg_acoustic,vg_optical", rows)
        print(f"PASS dispersion_table: wrote {len(rows)} rows to {out}")
        return 0
    if cfg.kind == "resonance_scan":
        scan = cfg.scan or {"gamma": [2.0], "c": [1.0]}
        rows, ok = _resonance_scan(scan.get("gamma", [2.0]), scan.get("c", [1.0]), cfg.out)
        print(f"{'PASS' if ok else 'FAIL'} resonance_scan")
        return 0 if ok else 2

    rep = _run_experiment(cfg)
    if isinstance(rep, harness.GenerationReport):
        if cfg.out:
            write_csv(cfg.out, "t,theta,modal_mass", rep.series)
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} generation: eps={rep.eps:.4g} discrepancy={rep.discrepancy:.3f} "
              f"initial_mass={rep.initial_mass:.3e} final_mass={rep.final_mass:.3e} "
              f"predicted={rep.predicted_mass:.3e}")
        return 0 if rep.passed else 2
    if cfg.out:
        write_csv(cfg.out, "eps,error", rep.rows)
    status = "PASS" if rep.passed else "FAIL"
    print(f"{status} {cfg.kind} ({rep.label}): exponent={rep.exponent:.3f} "
          f"fit_residual={rep.fit_residual:.3f}")
    return 0 if rep.passed else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dichain",
                                 description="diatomic-chain wave laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dispersion", help="branch frequencies and group velocities")
    d.add_argument("--params", required=True, help="JSON file with V1,V2,W1,W2")
    d.add_argument("--out", required=True)
    d.add_argument("--n", type=int, default=1024)

    r = sub.add_parser("resonance", help="family resonance scan + impossibility checks")
    r.add_argument("--config", help="JSON config with a scan section")
    r.add_argument("--gamma", default="2.0", help="comma-separated gamma values")
    r.add_argument("--c", default="1.0", help="comma-separated c values")
    r.add_argument("--out")

    a = sub.add_parser("amplitudes", help="envelope trajectory snapshots")
    a.add_argument("--config", required=True)
    a.add_argument("--out")

    s = sub.add_parser("simulate", help="full lattice simulation snapshots")
    s.add_argument("--config", required=True)
    s.add_argument("--init-file", help="CSV with j,u1,u2,v1,v2 initial data")
    s.add_argument("--out")

    v = sub.add_parser("validate", help="run a named experiment from config")
    v.add_argument("--config", required=True)

    g = sub.add_parser("generate", help="the wave-generation experiment")
    g.add_argument("--config", required=True)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command == "dispersion":
            return cmd_dispersion(args)
        if args.command == "resonance":
            return cmd_resonance(args)
        if args.command == "amplitudes":
            return cmd_amplitudes(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "generate":
            return cmd_validate(args, forced_kind="generation")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
