"""Validation experiments: error-scaling sweeps, wave generation, and the
supporting configuration/report plumbing.

Each experiment turns one of the asymptotic claims about the two-scale
approximation into a measured exponent or discrepancy with a fixed
pass/fail gate; runs are deterministic for a fixed configuration.
"""
from __future__ import annotations

import copy
import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import amplitude as amp
from . import ansatz as anz
from .microsim import SimConfig, default_dt, integrate, integrate_rings, modal_mass
from .model import (ChainParams, LatticeState, StabilityError, energy_norm, make_params,
                    norm_l2_pair)
from .resonance import (NL_KEYS, acoustic_acoustic_scan, family_params,
                        optical_closure_margin, resonance_defect, solve_family_ratio,
                        third_order_margin, wrap_theta)
from .spectrum import ACOUSTIC, OPTICAL, group_velocity, omega, polarization


class ConfigError(ValueError):
    """Malformed experiment configuration; the message names the key."""


class NoOutputPath(ConfigError):
    """A kind that writes a CSV was given no ``out``."""


# size bounds, checked before any compute: a run holds about 1 KB per
# lattice site and up to 20 KB per envelope grid point (kept envelope
# states, snapshot stacks, and a lattice sweep's shared samples, at most
# 1.5 KB), so these keep it within about 300 MB each; a lattice sweep runs
# every eps's lattice at once, so its sites are summed
MAX_SITES = 2 ** 18
MAX_GRID = 2 ** 14
# a lattice run takes at least max(T/dt, n_samples) steps to T = tau0/eps;
# at 0.23 ms a step at N = 1,600 (2 cores), this keeps a run within minutes
MAX_STEPS = 10 ** 6


def _is_real(x) -> bool:
    # finite: json.load reads NaN and Infinity as floats; huge ints are refused too
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _is_int(x) -> bool:
    return isinstance(x, int) and _is_real(x)


def _positive(x) -> bool:
    return _is_real(x) and x > 0


def _reals(xs, ok=_is_real) -> bool:
    return isinstance(xs, (list, tuple)) and len(xs) > 0 and all(map(ok, xs))


def _wave_ok(w) -> bool:
    return (isinstance(w, dict) and set(w) <= {"branch", "theta"}
            and w.get("branch") in (ACOUSTIC, OPTICAL) and _is_real(w.get("theta")))


# the resonant family's range, for resonant_family, for every scan point
# and for the resonance command's flags: key -> (test, what it must be)
FAMILY_RANGE = {"gamma": (lambda g: _is_real(g) and g > 1.0, "numbers > 1"),
                "c": (lambda c: _is_real(c) and 0.0 <= c <= 1.0, "numbers in [0, 1]")}


def _family_ok(f) -> bool:
    nl = f.get("nl", {}) if isinstance(f, dict) else None
    return f is None or (isinstance(nl, dict) and set(nl) <= set(NL_KEYS)
                         and all(map(_is_real, nl.values())) and set(f) <= {"gamma", "c", "nl"}
                         and all(ok(f.get(k)) for k, (ok, _) in FAMILY_RANGE.items()))


def _scan_ok(s) -> bool:
    return s is None or (isinstance(s, dict) and set(s) <= set(FAMILY_RANGE)
                         and all(_reals(v, FAMILY_RANGE[k][0]) for k, v in s.items()))


# key -> (default, test of its value, what the value must be): every config
# is held to every row, so a bad value fails even where its kind ignores it;
# a required key's default fails its own test
SCHEMA = {
    "kind": (None, lambda k: isinstance(k, str) and k in KINDS, "an experiment kind"),
    # parsed by params_from_dict before the check
    "params": (None, lambda p: p is None or isinstance(p, ChainParams), "chain parameters"),
    "resonant_family": (None, _family_ok, '{"gamma": number > 1, "c": number in [0, 1], '
                        '"nl": {"v12": number, ...}}'),
    "waves": (None, lambda ws: ws is None or (isinstance(ws, list) and len(ws) <= 2
                                              and all(map(_wave_ok, ws))),
              'a list of at most two {"branch": "acoustic" or "optical", "theta": number}'),
    "eps": ([0.1, 0.0707, 0.05, 0.0354, 0.025],
            lambda e: _reals(e, lambda x: _is_real(x) and 0 < x <= 0.2)
            and all(a > b for a, b in zip(e, e[1:])),
            "a strictly decreasing, non-empty list of numbers in (0, 0.2]"),
    # bounded: it sets how far the envelopes are stepped, lazily, and how
    # long a lattice run lasts (t = tau0/eps)
    "tau0": (1.0, lambda t: _positive(t) and t <= 100, "a positive number <= 100"),
    "a0": ([1.0, 0.5], _reals, "a non-empty list of numbers"),
    "nu": (0.5, _positive, "a positive number"),
    "L_y": (40.0, _positive, "a positive number"),
    "n_grid": (256, lambda n: _is_int(n) and 16 <= n <= MAX_GRID and n & (n - 1) == 0,
               f"a power of two in [16, {MAX_GRID}]"),
    "dt": (0.1, _positive, "a positive number"),
    "n_samples": (50, lambda n: _is_int(n) and n >= 1, "an integer >= 1"),
    # checked here, so that a bad path fails before the run, not after it
    "out": (None, lambda o: o is None or (isinstance(o, str) and os.path.basename(o) != ""
                                          and not os.path.isdir(o)
                                          and os.path.isdir(os.path.dirname(o) or ".")),
            "a file path in an existing directory, not a directory"),
    "scan": (None, _scan_ok, '{"gamma": [numbers > 1], "c": [numbers in [0, 1]]}'),
    "n_snapshots": (11, lambda n: _is_int(n) and n >= 2, "an integer >= 2"),
}


class ExperimentConfig(SimpleNamespace):
    """One experiment: an attribute per SCHEMA key, as config_from_dict builds it."""

    def validate(self):
        for key, (_, ok, need) in SCHEMA.items():
            if not ok(getattr(self, key)):
                raise ConfigError(f"{key}: must be {need}, got {getattr(self, key)!r}")
        for key in ("params", "waves"):
            if self.resonant_family is not None and getattr(self, key) is not None:
                raise ConfigError(f"{key}: cannot be combined with resonant_family")
        if KINDS[self.kind].sweep:
            # the kinds whose lattices run at once (_lattice_peak)
            lattices = (self.kind == "convergence"
                        or self.kind == "generation" and self.resonant_family is None)
            fitted = lattices or self.kind in ("residual_scaling", "ansatz_scaling")
            if fitted and len(self.eps) < 3:
                raise ConfigError(f"eps: {self.kind} fits an exponent, so it needs at "
                                  f"least 3 values, got {self.eps!r}")
            if round(self.L_y / self.eps[0]) < 4:
                raise ConfigError(f"L_y: L_y/eps gives fewer than 4 lattice sites "
                                  f"at eps={self.eps[0]}")
            held = self.eps if lattices else self.eps[-1:]
            if sum(round(self.L_y / e) for e in held) > MAX_SITES:
                where = (f"summed over eps={self.eps}, whose lattices run at once"
                         if lattices else f"at eps={self.eps[-1]}")
                raise ConfigError(f"eps: L_y/eps gives more than {MAX_SITES} lattice sites "
                                  + where)
            sites = [lattice_sites(self.L_y, e) for e in self.eps]
            for e0, e1, n0, n1 in zip(self.eps, self.eps[1:], sites, sites[1:]):
                if fitted and n0 == n1:
                    raise ConfigError(f"eps: {e0} and {e1} both give N = {n1} lattice sites, "
                                      f"so the fit would see one eps twice")
            T = self.tau0 * sites[-1] / self.L_y  # tau0/eps at the smallest snapped eps
            steps = {"dt": T / self.dt, "n_samples": self.n_samples}
            key = max(steps, key=steps.get)
            if steps[key] > MAX_STEPS:
                raise ConfigError(f"{key}: a lattice run to t = tau0/eps = {T:.6g} takes at "
                                  f"least {steps[key]:.3g} steps, more than {MAX_STEPS}")
            if self.resonant_family is None:
                if self.params is None:
                    raise ConfigError("params: chain parameters or resonant_family required")
                if not self.waves:
                    raise ConfigError("waves: one or two waves required with params")
            if len(self.a0) < (2 if self.resonant_family is not None else len(self.waves)):
                raise ConfigError(f"a0: one amplitude per wave required, got {self.a0!r}")
            # the kinds that measure the waves they seed: generation with a
            # family seeds only the acoustic wave, one-wave params only a0[0]
            if self.kind in ("convergence", "ansatz_scaling", "residual_scaling", "generation"):
                one = (self.resonant_family is None and len(self.waves) == 1
                       or self.kind == "generation" and self.resonant_family is not None)
                seeded = self.a0[:1 if one else 2]
                if not any(seeded):
                    raise ConfigError(f"a0: the amplitudes {self.kind} seeds, {seeded!r}, "
                                      f"are all zero, so there is nothing to measure")
        if KINDS[self.kind].writes and self.out is None:
            raise NoOutputPath(f"out: {self.kind} writes a CSV; set its path in the config")
        if self.kind == "dispersion_table" and self.params is None:
            raise ConfigError("params: required for dispersion_table")
        return self


_POTENTIALS = ("V1", "V2", "W1", "W2")


def params_from_dict(d) -> ChainParams:
    """The chain of a ``params`` object, each potential checked like a config key."""
    if not isinstance(d, dict):
        raise ConfigError("params: expected an object with V1,V2,W1,W2")
    for key in sorted(set(d) | set(_POTENTIALS)):
        if key not in _POTENTIALS:
            raise ConfigError(f"params.{key}: unknown potential, expected V1, V2, W1 or W2")
        if key not in d:
            raise ConfigError(f"params.{key}: missing")
        co = d[key]
        if not (isinstance(co, dict) and "k1" in co and set(co) <= {"k1", "k2", "k3"}
                and all(map(_is_real, co.values()))):
            raise ConfigError(f'params.{key}: must be {{"k1": number, "k2": number, '
                              f'"k3": number}} with k2 and k3 optional, got {co!r}')
    try:
        return make_params(*(tuple(float(d[k].get(c, 0.0)) for c in ("k1", "k2", "k3"))
                             for k in _POTENTIALS))
    except StabilityError as exc:
        raise ConfigError(f"params: {exc}") from None


def config_from_dict(doc, **override) -> ExperimentConfig:
    """The validated config of a JSON document, with ``override`` keys
    (a subcommand's fixed kind or its --out) in place of the document's."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    for key in doc:
        if key not in SCHEMA:
            raise ConfigError(f"{key}: unknown configuration key")
    kw = {key: copy.deepcopy(default) for key, (default, _, _) in SCHEMA.items()} | doc | override
    if kw["params"] is not None:
        kw["params"] = params_from_dict(kw["params"])
    return ExperimentConfig(**kw).validate()


# ---------------------------------------------------------------------------
# per-epsilon experiment assembly


def snap_theta(theta: float, N: int) -> float:
    return 2.0 * np.pi * round(theta * N / (2.0 * np.pi)) / N


def lattice_sites(L_y: float, eps: float) -> int:
    """The lattice size N of a target eps: round(L_y/eps) less its
    remainder mod 4, which keeps +-pi/2 and pi carriers commensurate."""
    N = int(round(L_y / eps))
    return N - N % 4


@dataclass
class RunSetup:
    p: ChainParams
    spec: anz.AnsatzSpec


def setup_run(cfg: ExperimentConfig, eps_target: float, a0=None) -> RunSetup:
    """Assemble the per-epsilon spec: lattice size, snapped carriers,
    re-solved resonant parameters, envelope fields, and the macroscopic
    solution provider."""
    N = lattice_sites(cfg.L_y, eps_target)
    eps = cfg.L_y / N
    a0 = list(cfg.a0 if a0 is None else a0)

    if cfg.resonant_family is not None:
        fam = cfg.resonant_family
        theta1 = snap_theta(float(np.arccos(2.0 * float(fam["c"]) - 1.0)), N)
        c_snap = (np.cos(theta1) + 1.0) / 2.0
        ratio = solve_family_ratio(float(fam["gamma"]), float(c_snap))
        if ratio is None:
            raise ConfigError(f"resonant_family: no positive ratio at c={c_snap}")
        p = family_params(float(fam["gamma"]), ratio, nl=fam.get("nl"))
        w1 = polarization(p, ACOUSTIC, theta1)
        w2 = polarization(p, OPTICAL, wrap_theta(2.0 * theta1))
    else:
        p = cfg.params
        wspecs = list(cfg.waves) + ([{"branch": OPTICAL, "theta": 0.6}]
                                    if len(cfg.waves) == 1 else [])
        if len(cfg.waves) == 1:
            a0 = [a0[0], 0.0]
        w1, w2 = (polarization(p, wd["branch"], snap_theta(float(wd["theta"]), N))
                  for wd in wspecs)

    macro = amp.build_macro_system(p, w1, w2)
    sol = _envelope_solution(amp.make_solution, macro, cfg.L_y, cfg.n_grid,
                             tuple(a0[:2]), cfg.nu)
    spec = anz.AnsatzSpec(p, eps, N, cfg.n_grid, macro, sol)
    return RunSetup(p, spec)


@lru_cache(maxsize=1)
def _envelope_solution(make, macro, L, n, a0, nu):
    """The solution of one envelope system from sech initial data.  The
    envelope equations do not depend on eps, so every eps of a sweep, and
    the next command with the same envelopes, share one solution and the
    steps it has taken.  ``make`` is ``amp.make_solution`` as looked up
    at the call, so a substitute provider gets a solution of its own."""
    f0 = tuple(amp.sech_envelope(L, n, a, nu) for a in a0)
    return make(macro, f0, L)


# ---------------------------------------------------------------------------
# scaling reports


@dataclass
class ScalingReport:
    """(eps, value) rows with a fitted log-log exponent, and the max/min
    ratio of the series the experiment holds bounded."""

    rows: list
    exponent: float
    fit_residual: float
    ratio: float
    passed: bool
    label: str = ""
    header = "eps,error"

    @property
    def summary(self) -> str:
        return (f"{self.label} exponent={self.exponent:.3f} "
                f"fit_residual={self.fit_residual:.3f}")


def fit_loglog(rows):
    """Least-squares slope of log(value) vs log(eps) over the rows with a
    positive value, and the rms residual of the fit."""
    kept = [(e, v) for e, v in rows if v > 0.0]
    if len(kept) < 3:
        raise ValueError(f"need >= 3 usable rows for a fit, have {len(kept)}")
    x = np.log([e for e, _ in kept])
    y = np.log([v for _, v in kept])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), resid


def _sweep(cfg: ExperimentConfig, label: str, measure, gate) -> ScalingReport:
    """The eps sweep of a scaling experiment: ``measure`` takes the setups
    of the eps, made one at a time as it asks for them, and gives per eps
    the snapped eps, the value whose log-log slope is fitted and the value
    of the series held bounded; ``gate(report)`` decides the verdict."""
    measured = measure(setup_run(cfg, eps_t) for eps_t in cfg.eps)
    rows = [(eps, value) for eps, value, _ in measured]
    bounded = [b for _, _, b in measured]
    exponent, resid = fit_loglog(rows)
    rep = ScalingReport(rows, exponent, resid, max(bounded) / min(bounded), False, label)
    rep.passed = bool(gate(rep))
    return rep


def _each(measure):
    """A sweep's measurement made at each eps in turn, one setup alive at
    a time: ``measure(setup)`` gives the fitted and the bounded value."""
    return lambda setups: [(s.spec.eps, *measure(s)) for s in setups]


def _phase_times(cfg: ExperimentConfig, spec: anz.AnsatzSpec):
    """Eight times over one acoustic period from half the horizon, t0 = tau0/(2 eps)."""
    t0 = 0.5 * cfg.tau0 / spec.eps
    period = 2.0 * np.pi / spec.macro.waves[0].omega
    return [t0 + f * period for f in np.linspace(0.0, 1.0, 8, endpoint=False)]


def run_residual_scaling(cfg: ExperimentConfig) -> ScalingReport:
    """Defect of the improved ansatz: raw size should scale like
    eps^{5/2}; the normalized value stays bounded."""
    def measure(setup):
        spec = setup.spec
        h0 = max(0.01, 5e-5 / spec.eps ** 2)
        val = max(anz.residual_norm(setup.p, spec, _phase_times(cfg, spec), h0=h0))
        return val, val / spec.eps ** 2.5

    return _sweep(cfg, "residual_norm", _each(measure),
                  lambda r: r.exponent >= 2.4 and r.ratio < 4.0)


def run_ansatz_scaling(cfg: ExperimentConfig) -> ScalingReport:
    """Gap between improved and leading approximations in the energy norm
    (eps^{3/2} law) plus the sup-norm boundedness check."""
    def measure(setup):
        spec = setup.spec
        times = _phase_times(cfg, spec)
        spec.at_taus([spec.eps * t for t in times])  # one snapshot stack, read by at_tau
        gap, sup = 0.0, 0.0
        for t in times:
            # each carrier sum once: leading positions and velocities, then
            # the improved ones as those plus the corrector terms
            pos, vel = anz.sample_first_order(spec, t), anz.first_order_velocity(spec, t)
            pos2 = pos + anz.corrector_sum(spec, t)
            vel2 = vel + anz.corrector_sum(spec, t, time_derivative=True)
            gap = max(gap, energy_norm(LatticeState(pos2 - pos, vel2 - vel, t), setup.p))
            sup = max(sup, float(np.abs(pos2).max()))
        return gap, sup / spec.eps

    return _sweep(cfg, "ansatz_gap", _each(measure),
                  lambda r: abs(r.exponent - 1.5) <= 0.1 and r.ratio <= 2.0)


def _lattice_sim(cfg: ExperimentConfig, p: ChainParams, T: float, spacing: float) -> SimConfig:
    """Lattice run to T whose stride lands on every multiple of ``spacing``:
    the fewest steps per spacing that keep dt at or below cfg.dt and the
    stability cap default_dt, to SimConfig.validate's 1e-12 relative."""
    stride = math.ceil(spacing / min(cfg.dt, default_dt(p)) / (1 + 1e-12))
    return SimConfig(dt=spacing / stride, T=T, stride=stride)


def _lattice_peak(cfg: ExperimentConfig, observable, law: float):
    """The measurement of a lattice sweep: every eps's lattice from
    improved initial data to t = tau0/eps, all in one run
    (``integrate_rings``); per eps the largest observable(spec, t, state)
    at its sampling times, and that peak over eps^law.  The i-th sampling
    time t of each eps has eps*t = tau_i = i*tau0/n_samples up to
    rounding, and the rings that share one envelope solution read their
    envelopes at tau_i from one ``anz.SweepSamples`` table, whose grid
    pass per sample serves all of them and which keeps a bounded number
    of samples."""
    def measure(setups):
        setups = list(setups)
        peaks = [0.0] * len(setups)
        runs = []
        for i, s in enumerate(setups):
            def observer(t, state, i=i, spec=s.spec):
                peaks[i] = max(peaks[i], observable(spec, t, state))

            T = cfg.tau0 / s.spec.eps
            runs.append((s.p, anz.initial_state(s.spec, improved=True),
                         _lattice_sim(cfg, s.p, T, T / cfg.n_samples), observer))
        # rings whose snapped carriers differ have envelope solutions of their own
        shared = {}
        for s in setups:
            shared.setdefault(id(s.spec.solution), []).append(s.spec)
        for specs in shared.values():
            anz.SweepSamples(specs, cfg.L_y, cfg.tau0, cfg.n_samples)
        integrate_rings(runs)
        return [(s.spec.eps, peak, peak / s.spec.eps ** law) for s, peak in zip(setups, peaks)]
    return measure


def run_convergence(cfg: ExperimentConfig) -> ScalingReport:
    """Central claim at desk scale: with improved initial data, the full
    lattice stays eps^{3/2}-close to the leading approximation in the
    (l2)^4 norm up to t = tau0/eps."""
    def error(spec, t, state):
        return norm_l2_pair(state.pos - anz.sample_first_order(spec, t),
                            state.vel - anz.first_order_velocity(spec, t))

    return _sweep(cfg, "sup_error", _lattice_peak(cfg, error, 1.5),
                  lambda r: r.exponent >= 1.3 and r.fit_residual <= 0.1)


# ---------------------------------------------------------------------------
# wave generation


@dataclass
class GenerationReport:
    eps: float
    discrepancy: float
    initial_mass: float
    final_mass: float
    predicted_mass: float
    passed: bool
    rows: list = field(default_factory=list)   # (t, theta, modal_mass)
    header = "t,theta,modal_mass"

    @property
    def summary(self) -> str:
        return (f"eps={self.eps:.4g} discrepancy={self.discrepancy:.3f} "
                f"initial_mass={self.initial_mass:.3e} final_mass={self.final_mass:.3e} "
                f"predicted={self.predicted_mass:.3e}")


def _optical_left_vector(p: ChainParams, w1, w2):
    """Row vector annihilating the acoustic eigenvector and normalized
    against the optical one (dual basis at the generated wavenumber)."""
    v_ac = np.array(w1.amplitude_vector(1.0), dtype=complex)
    v_op = np.array(w2.amplitude_vector(1.0), dtype=complex)
    basis = np.column_stack([v_ac, v_op])
    return np.linalg.inv(basis)[1]


def run_generation(cfg: ExperimentConfig) -> GenerationReport:
    """Acoustic-only initial data at exact resonance: an optical envelope
    must emerge and match the coupled-equation prediction.

    The optical envelope is extracted from the lattice by a per-site
    least-squares fit of the carrier lines over one acoustic period,
    then projected on the dual basis of the generated branch.
    """
    setup = setup_run(cfg, cfg.eps[0], a0=[cfg.a0[0], 0.0])
    p, spec = setup.p, setup.spec
    if not spec.macro.resonant:
        raise ConfigError("resonant_family: configured pair is not resonant")
    if spec.macro.k2 == 0:
        raise ConfigError("resonant_family.nl: no quadratic coupling (k2 = 0), so the "
                          "predicted optical envelope is identically zero")
    w1, w2 = spec.macro.waves
    om1, om2 = w1.omega, w2.omega
    theta2 = w2.theta
    ell = _optical_left_vector(p, w1, w2)
    demod = np.exp(-1j * np.arange(spec.N) * theta2)

    T = cfg.tau0 / spec.eps
    window = 2.0 * np.pi / om1
    sample_dt = T / cfg.n_samples
    fine_target = window / 96.0
    # end on a sampling time, so the fit window holds the same times at any dt
    T_end = fine_target * round((T + window / 2.0) / fine_target)

    series = []          # (t, theta2, modal_mass) at the coarse sample times
    win_t, win_u = [], []
    next_sample = [0.0]

    def observer(t, state):
        if t >= T - window / 2.0 - 1e-9:
            win_t.append(t)
            win_u.append(state.pos.copy())
        if t >= next_sample[0] - 1e-9:
            next_sample[0] += sample_dt
            series.append((t, theta2, modal_mass(state, theta2, 1)))

    s0 = anz.initial_state(spec, improved=False)
    # the optical-branch modal amplitude of the initial state
    q, qd = (ell @ (x * demod[:, None]).mean(axis=0) for x in (s0.pos, s0.vel))
    initial_mass = float(abs(0.5 * (q - 1j * qd / om2)))
    integrate(p, s0, _lattice_sim(cfg, p, T_end, fine_target), observer)

    # per-site least squares on the carrier lines over the final window;
    # the e^{+i om2 t} coefficient is eps * A_{1,2} times the polarization
    ts = np.array(win_t)
    U = np.stack(win_u)
    lines = np.array([0.0, om1, -om1, om2, -om2, 3 * om1, -3 * om1, 4 * om1, -4 * om1])
    G = np.exp(1j * np.outer(ts, lines))
    coef = np.linalg.pinv(G) @ U.reshape(len(ts), -1)
    z = coef[3].reshape(spec.N, 2) * demod[:, None]
    a2_lat = z @ ell

    pred = spec.eps * spec.interp(spec.solution.fields(cfg.tau0)[1])
    discrepancy = float(np.linalg.norm(a2_lat - pred) / np.linalg.norm(pred))
    final_mass = float(np.sqrt(np.mean(np.abs(a2_lat) ** 2)))
    predicted_mass = float(np.sqrt(np.mean(np.abs(pred) ** 2)))
    grew = initial_mass <= 1e-3 * spec.eps and final_mass >= 0.1 * predicted_mass
    passed = discrepancy <= 0.20 and grew
    return GenerationReport(spec.eps, discrepancy, initial_mass, final_mass,
                            predicted_mass, passed, series)


def run_generation_control(cfg: ExperimentConfig) -> ScalingReport:
    """Non-resonant control: second-harmonic modal mass stays O(eps^2)."""
    def second_harmonic(spec, t, state):
        theta2 = wrap_theta(2.0 * spec.macro.waves[0].theta)
        return max(modal_mass(state, theta2, 1), modal_mass(state, theta2, 2))

    return _sweep(cfg, "second_harmonic_mass", _lattice_peak(cfg, second_harmonic, 2),
                  lambda r: r.exponent >= 1.7 and r.ratio <= 2.0)


# ---------------------------------------------------------------------------
# tables: the dispersion relation, the resonant-family scan, and the
# envelope and lattice trajectories


@dataclass
class TableReport:
    """CSV rows of a table experiment with its verdict and a summary."""

    header: str
    rows: list
    passed: bool
    summary: str


DISPERSION_ROWS = 1024
SCAN_DEFAULT = {"gamma": [2.0], "c": [1.0]}


def dispersion_table(cfg: ExperimentConfig) -> TableReport:
    """Branch frequencies and group velocities of ``cfg.params`` at
    DISPERSION_ROWS wavenumbers in (-pi, pi]."""
    p = cfg.params
    thetas = np.linspace(-np.pi, np.pi, DISPERSION_ROWS + 1)[1:]
    rows = [(float(t), float(omega(p, ACOUSTIC, t)), float(omega(p, OPTICAL, t)),
             float(group_velocity(p, ACOUSTIC, t)), float(group_velocity(p, OPTICAL, t)))
            for t in thetas]
    return TableReport("theta,omega_acoustic,omega_optical,vg_acoustic,vg_optical",
                       rows, True, f"wrote {len(rows)} rows to {cfg.out}")


def resonance_scan(scan: dict = None) -> TableReport:
    """Family ratio b/a and resonance residual at every (gamma, c) of
    ``scan`` (a missing list taken from SCAN_DEFAULT); fails when an
    impossibility invariant is violated at any point."""
    scan = {**SCAN_DEFAULT, **(scan or {})}
    rows, ok = [], True
    for g in scan["gamma"]:
        _, max_g = acoustic_acoustic_scan(g)
        if max_g > 1e-12:
            ok = False
        for c in scan["c"]:
            ratio = solve_family_ratio(g, c)
            if ratio is None:
                rows.append((float(g), float(c), float("nan"), float("nan"), float("nan")))
                continue
            p = family_params(g, ratio)
            if optical_closure_margin(p) <= 0.0 or third_order_margin(p) <= 0.0:
                ok = False
            theta = float(np.arccos(2.0 * c - 1.0))
            rows.append((float(g), float(c), float(ratio), theta,
                         float(abs(resonance_defect(p, theta)))))
    n_res = sum(1 for r in rows if np.isfinite(r[2]))
    return TableReport("gamma,c,b_over_a,theta_star,residual", rows, ok,
                       f"{n_res}/{len(rows)} family points resonant; "
                       f"impossibility invariants {'hold' if ok else 'VIOLATED'}")


def run_amplitudes(cfg: ExperimentConfig) -> TableReport:
    """The envelopes of the first eps's own solution at n_snapshots evenly
    spaced tau over [0, tau0]."""
    sol = setup_run(cfg, cfg.eps[0]).spec.solution
    y = amp.grid_points(cfg.L_y, cfg.n_grid)
    rows = []
    for tau in np.linspace(0.0, cfg.tau0, cfg.n_snapshots):
        b1, b2 = sol.fields(tau)
        rows.extend((float(tau), float(y[m]), float(b1[m].real), float(b1[m].imag),
                     float(b2[m].real), float(b2[m].imag)) for m in range(len(y)))
    return TableReport("tau,y,reA1_1,imA1_1,reA1_2,imA1_2", rows, True,
                       f"wrote {cfg.n_snapshots} snapshots to {cfg.out}")


def run_simulate(cfg: ExperimentConfig, initial=None) -> TableReport:
    """Every atom at the sampling times of a lattice run at the first eps
    to t = tau0/eps, from improved initial data or from ``initial(N)``."""
    setup = setup_run(cfg, cfg.eps[0])
    p, spec = setup.p, setup.spec
    s0 = anz.initial_state(spec, improved=True) if initial is None else initial(spec.N)
    rows = []

    def observer(t, state):
        for j in range(state.N):
            rows.append((float(t), j, float(state.pos[j, 0]), float(state.pos[j, 1]),
                         float(state.vel[j, 0]), float(state.vel[j, 1])))

    T = cfg.tau0 / spec.eps
    integrate(p, s0, _lattice_sim(cfg, p, T, T / cfg.n_samples), observer)
    return TableReport("t,j,u1,u2,v1,v2", rows, True, f"wrote snapshots to {cfg.out}")


# ---------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class Kind:
    """How ``run_experiment`` runs a kind, whether the kind sweeps eps, and
    whether its output is only the CSV, so that a config must name ``out``."""

    run: object
    sweep: bool
    writes: bool = False


KINDS = {
    "convergence": Kind(run_convergence, True),
    "generation": Kind(lambda cfg: (run_generation if cfg.resonant_family is not None
                                    else run_generation_control)(cfg), True),
    "residual_scaling": Kind(run_residual_scaling, True),
    "ansatz_scaling": Kind(run_ansatz_scaling, True),
    "dispersion_table": Kind(dispersion_table, False, writes=True),
    "resonance_scan": Kind(lambda cfg: resonance_scan(cfg.scan), False),
    "amplitudes": Kind(run_amplitudes, True, writes=True),
    "simulate": Kind(run_simulate, True, writes=True),
}


def run_experiment(cfg: ExperimentConfig, **kw):
    """The report of the experiment ``cfg.kind`` names (``kw``: simulate's ``initial``)."""
    return KINDS[cfg.kind].run(cfg, **kw)
