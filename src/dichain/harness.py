"""Validation experiments: error-scaling sweeps, wave generation, and the
supporting configuration/report plumbing.

Each experiment turns one of the asymptotic claims about the two-scale
approximation into a measured exponent or discrepancy with a pass/fail
threshold.  All defaults are recorded in the reports; runs are
deterministic for a fixed configuration.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import amplitude as amp
from . import ansatz as anz
from .microsim import SimConfig, default_dt, integrate, modal_mass
from .model import ChainParams, LatticeState, energy_norm, make_params, norm_l2_pair
from .resonance import (NL_KEYS, acoustic_acoustic_scan, family_params,
                        optical_closure_margin, solve_family_ratio, third_order_margin,
                        wrap_theta)
from .spectrum import ACOUSTIC, OPTICAL, group_velocity, omega, polarization


class ConfigError(ValueError):
    """Malformed experiment configuration; the message names the key."""

# every lattice run is Yoshida's order-4 triple jump; ``dt`` is the length
# of its whole composed step (three force calls)
LATTICE_ORDER = 4


@dataclass
class ExperimentConfig:
    """One experiment, deserializable from a flat JSON document."""

    kind: str
    params: ChainParams = None
    resonant_family: dict = None          # {"gamma": g, "c": c, "nl": {...}}
    waves: list = field(default_factory=list)   # [{"branch", "theta"}, ...]
    eps: list = field(default_factory=lambda: [0.1, 0.0707, 0.05, 0.0354, 0.025])
    beta: float = 1.5
    tau0: float = 1.0
    a0: list = field(default_factory=lambda: [1.0, 0.5])
    nu: float = 0.5
    L_y: float = 40.0
    n_grid: int = 256
    dt: float = 0.02
    n_samples: int = 50
    noise_floor: float = 0.0
    out: str = None
    scan: dict = None                     # resonance_scan: {"gamma": [...], "c": [...]}
    dtau: float = 1e-3
    n_snapshots: int = 11

    def validate(self):
        for keys, ok, need in _CHECKS:
            for key in keys.split():
                if not ok(getattr(self, key)):
                    raise ConfigError(f"{key}: must be {need}, got {getattr(self, key)!r}")
        if KINDS[self.kind].sweep:
            if round(self.L_y / self.eps[0]) < 4:
                raise ConfigError(f"L_y: L_y/eps gives fewer than 4 lattice sites "
                                  f"at eps={self.eps[0]}")
            if self.resonant_family is None:
                if self.params is None:
                    raise ConfigError("params: chain parameters or resonant_family required")
                if not self.waves:
                    raise ConfigError("waves: one or two waves required with params")
            if len(self.a0) < (2 if self.resonant_family is not None else len(self.waves)):
                raise ConfigError(f"a0: one amplitude per wave required, got {self.a0!r}")
        if KINDS[self.kind].run is None and self.out is None:
            raise ConfigError(f"out: {self.kind} writes a CSV, in the config or as --out")
        if self.kind == "dispersion_table":
            if self.params is None:
                raise ConfigError("params: required for dispersion_table")
            self.out = self.out or "dispersion.csv"
        return self


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive(x) -> bool:
    return _is_real(x) and x > 0


def _reals(xs, ok=_is_real) -> bool:
    return isinstance(xs, (list, tuple)) and len(xs) > 0 and all(map(ok, xs))


def _wave_ok(w) -> bool:
    return (isinstance(w, dict) and set(w) <= {"branch", "theta"}
            and w.get("branch") in (ACOUSTIC, OPTICAL) and _is_real(w.get("theta")))


# the resonant family's range, for resonant_family and for every scan point
_FAMILY_RANGE = {"gamma": lambda g: _is_real(g) and g > 1.0,
                 "c": lambda c: _is_real(c) and 0.0 <= c <= 1.0}


def _family_ok(f) -> bool:
    nl = f.get("nl", {}) if isinstance(f, dict) else None
    return (isinstance(nl, dict) and set(nl) <= set(NL_KEYS) and all(map(_is_real, nl.values()))
            and set(f) <= {"gamma", "c", "nl"}
            and all(ok(f.get(k)) for k, ok in _FAMILY_RANGE.items()))


def _scan_ok(s) -> bool:
    return (isinstance(s, dict) and set(s) <= set(_FAMILY_RANGE)
            and all(_reals(v, _FAMILY_RANGE[k]) for k, v in s.items()))


# (keys, test of each key's value, what the value must be): every config
# is held to every row, so a bad value fails even where its kind ignores it
_CHECKS = (
    ("kind", lambda k: isinstance(k, str) and k in KINDS, "an experiment kind"),
    ("dt L_y tau0 nu dtau", _positive, "a positive number"),
    ("n_samples", lambda n: _is_int(n) and n >= 1, "an integer >= 1"),
    ("eps", lambda e: _reals(e, lambda x: _is_real(x) and 0 < x <= 0.2)
     and all(a > b for a, b in zip(e, e[1:])),
     "a strictly decreasing, non-empty list of numbers in (0, 0.2]"),
    ("beta", lambda b: _is_real(b) and 1.0 < b <= 1.5, "a number in (1, 1.5]"),
    ("n_grid", lambda n: _is_int(n) and n >= 16 and n & (n - 1) == 0, "a power of two >= 16"),
    ("a0", _reals, "a non-empty list of numbers"),
    ("noise_floor", lambda x: _is_real(x) and x >= 0, "a number >= 0"),
    ("n_snapshots", lambda n: _is_int(n) and n >= 2, "an integer >= 2"),
    ("waves", lambda ws: isinstance(ws, list) and len(ws) <= 2 and all(map(_wave_ok, ws)),
     'a list of at most two {"branch": "acoustic" or "optical", "theta": number}'),
    ("resonant_family", lambda f: f is None or _family_ok(f),
     '{"gamma": number > 1, "c": number in [0, 1], "nl": {"v12": number, ...}}'),
    ("scan", lambda s: s is None or _scan_ok(s),
     '{"gamma": [numbers > 1], "c": [numbers in [0, 1]]}'),
    ("out", lambda o: o is None or isinstance(o, str), "a file path"),
)


def _coeffs_from_dict(d, key):
    try:
        return (float(d["k1"]), float(d.get("k2", 0.0)), float(d.get("k3", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected an object with numeric k1[,k2,k3]") from exc


def params_from_dict(d) -> ChainParams:
    if not isinstance(d, dict):
        raise ConfigError("params: expected an object with V1,V2,W1,W2")
    for key in ("V1", "V2", "W1", "W2"):
        if key not in d:
            raise ConfigError(f"params.{key}: missing")
    return make_params(v1=_coeffs_from_dict(d["V1"], "params.V1"),
                       v2=_coeffs_from_dict(d["V2"], "params.V2"),
                       w1=_coeffs_from_dict(d["W1"], "params.W1"),
                       w2=_coeffs_from_dict(d["W2"], "params.W2"))


def config_from_dict(doc, **override) -> ExperimentConfig:
    """The validated config of a JSON document, with ``override`` keys
    (a subcommand's fixed kind or its --out) in place of the document's."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration key")
    kw = dict(doc, **override)
    if "kind" not in kw:
        raise ConfigError("kind: missing")
    if kw.get("params") is not None:
        kw["params"] = params_from_dict(kw["params"])
    return ExperimentConfig(**kw).validate()


# ---------------------------------------------------------------------------
# per-epsilon experiment assembly


def snap_theta(theta: float, N: int) -> float:
    return 2.0 * np.pi * round(theta * N / (2.0 * np.pi)) / N


@dataclass
class RunSetup:
    p: ChainParams
    spec: anz.AnsatzSpec


def setup_run(cfg: ExperimentConfig, eps_target: float, a0=None) -> RunSetup:
    """Assemble the per-epsilon spec: lattice size, snapped carriers,
    re-solved resonant parameters, envelope fields, and the macroscopic
    solution provider."""
    N = int(round(cfg.L_y / eps_target))
    N -= N % 4  # keeps +-pi/2 and pi carriers commensurate
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
    f0 = tuple(amp.sech_envelope(cfg.L_y, cfg.n_grid, a, cfg.nu) for a in a0[:2])
    sol = amp.make_solution(macro, f0, cfg.L_y, tau_max=cfg.tau0 + 0.5)
    spec = anz.AnsatzSpec(p, eps, N, cfg.n_grid, macro, sol)
    return RunSetup(p, spec)


# ---------------------------------------------------------------------------
# scaling reports


@dataclass
class ScalingReport:
    """(eps, value) rows with a fitted log-log exponent."""

    rows: list
    exponent: float
    fit_residual: float
    passed: bool
    label: str = ""
    extra: dict = field(default_factory=dict)
    header = "eps,error"

    @property
    def summary(self) -> str:
        return (f"{self.label} exponent={self.exponent:.3f} "
                f"fit_residual={self.fit_residual:.3f}")


def fit_loglog(rows, noise_floor: float = 0.0):
    """Least-squares slope of log(value) vs log(eps); rows below ten times
    the noise floor are excluded to protect the estimate."""
    kept = [(e, v) for e, v in rows if v > 10.0 * noise_floor and v > 0.0]
    if len(kept) < 3:
        raise ValueError(f"need >= 3 usable rows for a fit, have {len(kept)}")
    x = np.log([e for e, _ in kept])
    y = np.log([v for _, v in kept])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), resid


def _phase_times(cfg: ExperimentConfig, spec: anz.AnsatzSpec, n_phases: int = 8):
    """Times over one acoustic period from half the horizon, t0 = tau0/(2 eps)."""
    t0 = 0.5 * cfg.tau0 / spec.eps
    period = 2.0 * np.pi / spec.macro.waves[0].omega
    return [t0 + f * period for f in np.linspace(0.0, 1.0, n_phases, endpoint=False)]


def run_residual_scaling(cfg: ExperimentConfig) -> ScalingReport:
    """Defect of the improved ansatz: raw size should scale like
    eps^{5/2}; the normalized value stays bounded."""
    def one(eps_t):
        setup = setup_run(cfg, eps_t)
        spec = setup.spec
        h0 = max(0.01, 5e-5 / spec.eps ** 2)
        val = max(anz.residual_norm(setup.p, spec, t, h0=h0) for t in _phase_times(cfg, spec))
        return spec.eps, val

    rows = [one(e) for e in cfg.eps]
    exponent, resid = fit_loglog(rows, cfg.noise_floor)
    normalized = [v / e ** 2.5 for e, v in rows]
    passed = exponent >= 2.4 and max(normalized) / min(normalized) < 4.0
    return ScalingReport(rows, exponent, resid, passed, "residual_norm",
                         {"normalized": normalized, "threshold_exponent": 2.4})


def run_ansatz_scaling(cfg: ExperimentConfig) -> ScalingReport:
    """Gap between improved and leading approximations in the energy norm
    (eps^{3/2} law) plus the sup-norm boundedness check."""
    gap_rows, inf_rows = [], []
    for eps_t in cfg.eps:
        setup = setup_run(cfg, eps_t)
        spec = setup.spec
        gap, sup = 0.0, 0.0
        for t in _phase_times(cfg, spec):
            dpos = anz.sample_improved(spec, t) - anz.sample_first_order(spec, t)
            dvel = anz.improved_velocity(spec, t) - anz.first_order_velocity(spec, t)
            gap = max(gap, energy_norm(LatticeState(dpos, dvel, t), setup.p))
            sup = max(sup, float(np.abs(anz.sample_improved(spec, t)).max()))
        gap_rows.append((spec.eps, gap))
        inf_rows.append((spec.eps, sup / spec.eps))
    exponent, resid = fit_loglog(gap_rows, cfg.noise_floor)
    infs = [v for _, v in inf_rows]
    inf_ok = max(infs) / min(infs) <= 2.0
    passed = abs(exponent - 1.5) <= 0.1 and inf_ok
    return ScalingReport(gap_rows, exponent, resid, passed, "ansatz_gap",
                         {"sup_over_eps": inf_rows, "sup_ratio": max(infs) / min(infs),
                          "threshold_exponent": (1.4, 1.6)})


def _dt_target(cfg: ExperimentConfig, p: ChainParams) -> float:
    return min(cfg.dt, default_dt(p, LATTICE_ORDER))


def _experiment_sim(cfg: ExperimentConfig, p: ChainParams, T: float) -> SimConfig:
    """Lattice run to T whose stride lands on the n_samples sampling times.

    Rounding the stride can stretch the step to 1.5x the target; the
    default_dt cap leaves room for that in the longest substep.
    """
    sample_dt = T / cfg.n_samples
    stride = max(1, int(round(sample_dt / _dt_target(cfg, p))))
    return SimConfig(dt=sample_dt / stride, T=T, stride=stride, order=LATTICE_ORDER)


def _lattice_peak(cfg: ExperimentConfig, eps_t: float, observable):
    """(eps, largest observable(spec, t, state) at the sampling times) of a
    lattice run from improved initial data to t = tau0/eps."""
    setup = setup_run(cfg, eps_t)
    p, spec = setup.p, setup.spec
    s0 = anz.initial_state(spec, improved=True)
    peak = 0.0

    def observer(t, state):
        nonlocal peak
        peak = max(peak, observable(spec, t, state))

    integrate(p, s0, _experiment_sim(cfg, p, cfg.tau0 / spec.eps), observer)
    return spec.eps, peak


def run_convergence(cfg: ExperimentConfig) -> ScalingReport:
    """Central claim at desk scale: with improved initial data, the full
    lattice stays eps^{3/2}-close to the leading approximation in the
    (l2)^4 norm up to t = tau0/eps."""
    def error(spec, t, state):
        return norm_l2_pair(state.pos - anz.sample_first_order(spec, t),
                            state.vel - anz.first_order_velocity(spec, t))

    rows = [_lattice_peak(cfg, e, error) for e in cfg.eps]
    exponent, resid = fit_loglog(rows, cfg.noise_floor)
    passed = exponent >= cfg.beta - 0.2
    return ScalingReport(rows, exponent, resid, passed, "sup_error",
                         {"threshold_exponent": cfg.beta - 0.2, "fit_residual_max": 0.1})


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
    extra: dict = field(default_factory=dict)
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
    if cfg.resonant_family is None:
        raise ConfigError("resonant_family: generation requires the resonant family")
    eps_t = cfg.eps[0]
    setup = setup_run(cfg, eps_t, a0=[cfg.a0[0], 0.0])
    p, spec = setup.p, setup.spec
    if not spec.macro.resonant:
        raise ConfigError("resonant_family: configured pair is not resonant")
    w1, w2 = spec.macro.waves
    om1, om2 = w1.omega, w2.omega
    theta2 = w2.theta
    ell = _optical_left_vector(p, w1, w2)
    j = np.arange(spec.N)
    demod = np.exp(-1j * j * theta2)

    T = cfg.tau0 / spec.eps
    window = 2.0 * np.pi / om1
    sample_dt = T / cfg.n_samples
    fine_target = window / 96.0
    stride = max(1, int(round(fine_target / _dt_target(cfg, p))))
    # end on a sampling time, so the fit window holds the same times at any dt
    T_end = fine_target * round((T + window / 2.0) / fine_target)

    series = []          # (t, theta2, modal_mass) at the coarse sample times
    masses = []          # (t, instantaneous optical-branch modal amplitude)
    win_t, win_u = [], []
    next_sample = [0.0]

    def observer(t, state):
        if t >= T - window / 2.0 - 1e-9:
            win_t.append(t)
            win_u.append(state.pos.copy())
        if t >= next_sample[0] - 1e-9:
            next_sample[0] += sample_dt
            series.append((t, theta2, modal_mass(state, theta2, 1)))
            ub = (state.pos * demod[:, None]).mean(axis=0)
            vb = (state.vel * demod[:, None]).mean(axis=0)
            q, qd = ell @ ub, ell @ vb
            masses.append((t, abs(0.5 * (q - 1j * qd / om2))))

    s0 = anz.initial_state(spec, improved=False)
    integrate(p, s0, SimConfig(dt=fine_target / stride, T=T_end, stride=stride,
                               order=LATTICE_ORDER), observer)

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
    initial_mass = float(masses[0][1])
    grew = initial_mass <= 1e-3 * spec.eps and final_mass >= 0.1 * predicted_mass
    passed = discrepancy <= 0.20 and grew
    return GenerationReport(spec.eps, discrepancy, initial_mass, final_mass,
                            predicted_mass, passed, series,
                            {"k1": spec.macro.k1, "k2": spec.macro.k2,
                             "branch_mass_series": masses})


def run_generation_control(cfg: ExperimentConfig) -> ScalingReport:
    """Non-resonant control: second-harmonic modal mass stays O(eps^2)."""
    def second_harmonic(spec, t, state):
        theta2 = wrap_theta(2.0 * spec.macro.waves[0].theta)
        return max(modal_mass(state, theta2, 1), modal_mass(state, theta2, 2))

    rows = [_lattice_peak(cfg, e, second_harmonic) for e in cfg.eps]
    exponent, resid = fit_loglog(rows, cfg.noise_floor)
    normalized = [v / e ** 2 for e, v in rows]
    passed = exponent >= 1.7
    return ScalingReport(rows, exponent, resid, passed, "second_harmonic_mass",
                         {"normalized": normalized, "threshold_exponent": 1.7})


# ---------------------------------------------------------------------------
# tables: the dispersion relation and the resonant-family scan


@dataclass
class TableReport:
    """CSV rows of a table experiment with its verdict and a summary."""

    header: str
    rows: list
    passed: bool
    summary: str


DISPERSION_ROWS = 1024
SCAN_DEFAULT = {"gamma": [2.0], "c": [1.0]}


def dispersion_table(p: ChainParams, n: int = DISPERSION_ROWS) -> TableReport:
    """Branch frequencies and group velocities at n wavenumbers in (-pi, pi]."""
    thetas = np.linspace(-np.pi, np.pi, n + 1)[1:]
    rows = [(float(t), float(omega(p, ACOUSTIC, t)), float(omega(p, OPTICAL, t)),
             float(group_velocity(p, ACOUSTIC, t)), float(group_velocity(p, OPTICAL, t)))
            for t in thetas]
    return TableReport("theta,omega_acoustic,omega_optical,vg_acoustic,vg_optical",
                       rows, True, f"{len(rows)} rows")


def resonance_scan(scan: dict = None) -> TableReport:
    """Family ratio b/a and resonance residual at every (gamma, c) of
    ``scan`` (a missing list taken from SCAN_DEFAULT); fails when an
    impossibility invariant is violated at any point."""
    scan = {**SCAN_DEFAULT, **(scan or {})}
    rows, ok = [], True
    for g in scan["gamma"]:
        c_e, max_g = acoustic_acoustic_scan(g)
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
            resid = abs(2.0 * omega(p, ACOUSTIC, theta) - omega(p, OPTICAL, 2.0 * theta))
            rows.append((float(g), float(c), float(ratio), theta, float(resid)))
    n_res = sum(1 for r in rows if np.isfinite(r[2]))
    return TableReport("gamma,c,b_over_a,theta_star,residual", rows, ok,
                       f"{n_res}/{len(rows)} family points resonant; "
                       f"impossibility invariants {'hold' if ok else 'VIOLATED'}")


# ---------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class Kind:
    """How ``run_experiment`` runs a kind and whether the kind sweeps eps.

    ``run`` is None for amplitudes and simulate: only their own
    subcommands run them, and these always write the ``out`` CSV.
    """

    run: object
    sweep: bool


KINDS = {
    "convergence": Kind(run_convergence, True),
    "generation": Kind(lambda cfg: (run_generation if cfg.resonant_family is not None
                                    else run_generation_control)(cfg), True),
    "residual_scaling": Kind(run_residual_scaling, True),
    "ansatz_scaling": Kind(run_ansatz_scaling, True),
    "dispersion_table": Kind(lambda cfg: dispersion_table(cfg.params), False),
    "resonance_scan": Kind(lambda cfg: resonance_scan(cfg.scan), False),
    "amplitudes": Kind(None, True),
    "simulate": Kind(None, True),
}


def run_experiment(cfg: ExperimentConfig):
    """The report of the experiment ``cfg.kind`` names."""
    run = KINDS[cfg.kind].run
    if run is None:
        raise ConfigError(f"kind: {cfg.kind} is not runnable via validate")
    return run(cfg)
