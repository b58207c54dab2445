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
import warnings

import numpy as np

from . import harness
from .harness import ConfigError, ExperimentConfig, config_from_dict
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
    try:
        return config_from_dict(_load_json(args.config), **{k: v for k, v in over.items() if v})
    except harness.NoOutputPath as exc:
        if "out" not in args:  # only the subcommands that write a CSV take --out
            raise
        raise ConfigError(f"{exc} or pass --out") from None


def _report(cfg: ExperimentConfig, rep) -> int:
    if cfg.out:
        write_csv(cfg.out, rep.header, rep.rows)
    print(f"{'PASS' if rep.passed else 'FAIL'} {cfg.kind}: {rep.summary}")
    return 0 if rep.passed else 2


def cmd_validate(args) -> int:
    cfg = _config(args, args.kind)
    return _report(cfg, harness.run_experiment(cfg))


def cmd_dispersion(args) -> int:
    cfg = config_from_dict({"kind": "dispersion_table", "out": args.out,
                            "params": _load_json(args.params)})
    return _report(cfg, harness.run_experiment(cfg))


def _numbers(flag: str, text: str) -> list:
    """The values of --gamma or --c, each in the resonant family's range."""
    ok, need = harness.FAMILY_RANGE[flag]
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"--{flag}: expected comma-separated numbers, got {text!r}")
    if not all(map(ok, values)):
        raise ConfigError(f"--{flag}: expected comma-separated {need}, got {text!r}")
    return values


def cmd_resonance(args) -> int:
    if args.config:
        for flag in ("gamma", "c"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag}: cannot be combined with --config; "
                                  "set the config's scan instead")
        cfg = _config(args, "resonance_scan")
    else:
        scan = {k: _numbers(k, v) for k, v in (("gamma", args.gamma), ("c", args.c))
                if v is not None}
        cfg = config_from_dict({"kind": "resonance_scan", "scan": scan, "out": args.out})
    return _report(cfg, harness.run_experiment(cfg))


def _init_file(path: str):
    """The state the --init-file CSV ``path`` lists, as a function of the run's N."""
    try:
        with warnings.catch_warnings():
            # an empty file: the row-count check below names it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--init-file: {exc}") from None

    def initial(N: int) -> LatticeState:
        if data.shape != (N, 5):
            raise ConfigError(f"--init-file: expected N = {N} rows of j,u1,u2,v1,v2, "
                              f"got {data.shape[0]} rows of {data.shape[1]} columns")
        order = np.argsort(data[:, 0])
        if not np.array_equal(data[order, 0], np.arange(N)):
            raise ConfigError(f"--init-file: the j column must list each site 0 .. {N - 1} "
                              "exactly once")
        bad = np.flatnonzero(~np.isfinite(data[order, 1:]).all(axis=1))
        if bad.size:
            raise ConfigError(f"--init-file: u1,u2,v1,v2 must be finite numbers, "
                              f"got a non-finite value at site j = {bad[0]}")
        return LatticeState(data[order, 1:3], data[order, 3:5], 0.0)
    return initial


def cmd_simulate(args) -> int:
    cfg = _config(args, "simulate")
    initial = _init_file(args.init_file) if args.init_file else None
    return _report(cfg, harness.run_experiment(cfg, initial=initial))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dichain",
                                 description="diatomic-chain wave laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dispersion", help="branch frequencies and group velocities")
    d.add_argument("--params", required=True, help="JSON file with V1,V2,W1,W2")
    d.add_argument("--out", required=True)
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
    a.set_defaults(run=cmd_validate, kind="amplitudes")

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
