import ast
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _helpers import LEAPFROG, p0
from dichain import amplitude as amp
from dichain import ansatz as anz
from dichain import cli, harness, microsim, model
from dichain.harness import SCHEMA, ConfigError, config_from_dict, fit_loglog
from dichain.microsim import SCHEME, SimConfig, default_dt

ROOT = Path(__file__).resolve().parents[1]

P_NL = {
    "V1": {"k1": 1.0, "k2": 0.3, "k3": 0.1},
    "V2": {"k1": 2.0, "k2": 0.4, "k3": 0.0},
    "W1": {"k1": 1.0, "k2": 0.25, "k3": 0.05},
    "W2": {"k1": 1.0, "k2": 0.35, "k3": 0.0},
}
FAM = {"gamma": 2.0, "c": 1.0, "nl": {"v12": 0.3, "v22": 0.2, "w12": 0.4, "w22": 1.0}}
WAVES = [{"branch": "acoustic", "theta": 0.3}, {"branch": "optical", "theta": 0.6}]


def small_cfg(**over):
    doc = dict(kind="residual_scaling", params=P_NL, waves=WAVES,
               eps=[0.1, 0.0707, 0.05], tau0=0.5, L_y=25.6, n_grid=64)
    doc.update(over)
    return config_from_dict(doc)


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict({"kind": "nope"})


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict({"kind": "convergence", "bogus": 1})


def test_config_rejects_bad_eps():
    with pytest.raises(ConfigError, match="eps"):
        small_cfg(eps=[0.05, 0.1])
    with pytest.raises(ConfigError, match="eps"):
        small_cfg(eps=[0.3, 0.1])


@pytest.mark.parametrize("kind,family,fitted", [
    ("convergence", None, True), ("residual_scaling", None, True),
    ("ansatz_scaling", None, True), ("generation", None, True),
    ("generation", FAM, False), ("amplitudes", FAM, False), ("simulate", None, False)])
def test_config_needs_three_eps_to_fit_an_exponent(kind, family, fitted):
    """Every kind that fits an exponent over eps refuses fewer than three,
    naming eps; a kind that runs one eps takes one."""
    over = dict(kind=kind, out="o.csv", eps=[0.1, 0.0707])
    if family is not None:
        over.update(resonant_family=family, params=None, waves=None)
    if fitted:
        with pytest.raises(ConfigError, match=r"^eps: .*at least 3"):
            small_cfg(**over)
        small_cfg(**dict(over, eps=[0.1, 0.0707, 0.05]))
    else:
        small_cfg(**dict(over, eps=[0.1]))


def test_config_rejects_bad_params():
    with pytest.raises(ConfigError, match="params.W2"):
        config_from_dict({"kind": "convergence", "eps": [0.1, 0.05, 0.025],
                          "params": {"V1": {"k1": 1}, "V2": {"k1": 2}, "W1": {"k1": 1}}})


@pytest.mark.parametrize("params,key", [
    (dict(P_NL, V1={"k1": 1, "K2": 0.3}), "params.V1"),
    (dict(P_NL, V3={"k1": 1.0}), "params.V3"),
    (dict(P_NL, W1={"k1": "1.0"}), "params.W1"),
    (dict(P_NL, W2={"k1": True}), "params.W2"),
    (dict(P_NL, V2={"k1": float("nan")}), "params.V2"),
    (dict(P_NL, V1={"k1": 2.0}, V2={"k1": 1.0}), "params"),
], ids=["key-typo", "extra-potential", "string-k1", "bool-k1", "nan-k1", "unstable"])
def test_params_checked_as_strictly_as_config_keys(tmp_path, capsys, params, key):
    # the config key and dispersion --params share one check
    with pytest.raises(ConfigError, match=key):
        small_cfg(params=params)
    (tmp_path / "p.json").write_text(json.dumps(params))
    rc = cli.main(["dispersion", "--params", str(tmp_path / "p.json"),
                   "--out", str(tmp_path / "d.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and f"{key}:" in err and "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()


def _readme_config_table():
    """key -> default cell of the README's configuration table."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration schema", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        keys = re.findall(r"`([^`]+)`", cells[0]) if len(cells) == 3 else []
        defaults = re.findall(r"`([^`]+)`", cells[2]) if keys else []
        for i, key in enumerate(keys):
            table[key] = ast.literal_eval(defaults[i]) if defaults else cells[2]
    return table


def test_readme_defaults_match_experiment_config():
    table = _readme_config_table()
    assert set(table) == set(SCHEMA)
    for key, documented in table.items():
        default, ok, _ = SCHEMA[key]
        # a required key's default is refused by its own check
        assert ok(default) == (documented != "required"), key
        if documented in ("required", "—", "none"):
            assert default is None, key
        else:
            assert default == documented and type(default) is type(documented), key


CONFIGS = [*sorted(set(ROOT.glob("configs/*.json")) - {ROOT / "configs/p0.json"}),
           *sorted(ROOT.glob("perfbench/configs/*.json"))]


# the lattice step of the benchmark's fine reference runs
FINE_DT = float(re.search(r"^FINE_DT = (.+)$", (ROOT / "perfbench/make_refs.py").read_text(),
                          re.M).group(1))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_shipped_config_loads(path):
    # the schema is checked in seconds against every config a run or the
    # benchmark reads, also at the step of its fine references, which the
    # bound on lattice steps must admit
    doc = json.loads(path.read_text())
    config_from_dict(doc)
    config_from_dict(dict(doc, dt=FINE_DT))


LATTICE_CONFIGS = ["convergence_resonant", "convergence_nonresonant", "generation",
                   "generation_control"]


@pytest.mark.parametrize("name", LATTICE_CONFIGS)
def test_lattice_config_dt_is_a_stable_default_step(name):
    # a SimConfig of the config's dt and the default scheme passes the
    # stability cap of the config's chain, as the benchmark's step timing needs
    cfg = config_from_dict(json.loads((ROOT / f"configs/{name}.json").read_text()))
    p = harness.setup_run(cfg, cfg.eps[0]).p
    SimConfig(dt=cfg.dt, T=1.0).validate(p)


def test_config_rejects_bad_beta_tau0():
    # beta is no longer a key: even its one value in use is refused
    with pytest.raises(ConfigError, match="beta: unknown"):
        small_cfg(beta=1.5)
    with pytest.raises(ConfigError, match="tau0"):
        small_cfg(tau0=-1.0)


def test_fit_loglog_and_floor():
    rows = [(0.1, 0.1 ** 2.5), (0.05, 0.05 ** 2.5), (0.025, 0.025 ** 2.5)]
    slope, resid = fit_loglog(rows)
    assert abs(slope - 2.5) < 1e-12 and resid < 1e-12
    # a row without a logarithm is excluded
    slope2, _ = fit_loglog(rows + [(0.0125, 0.0)])
    assert slope2 == slope
    with pytest.raises(ValueError):
        fit_loglog(rows[:2] + [(0.0125, 0.0)])


@pytest.mark.parametrize("run,wobble,passed", [
    (harness.run_convergence, [1, 1, 1, 1, 1], True),
    # exponent 1.500 with fit residual 0.199
    (harness.run_convergence, [1, 1.5, 1, 1.5, 1], False),
    (harness.run_generation_control, [1, 1, 1, 1, 1], True),
    # exponent 2.000 with max/min of mass/eps^2 at 2.5
    (harness.run_generation_control, [1, 1, 2.5, 1, 1], False),
], ids=["convergence-pass", "convergence-rough-fit", "control-pass", "control-unbounded"])
def test_lattice_gates(monkeypatch, run, wobble, passed):
    # each gate holds the criterion its acceptance test asserts; the lattice
    # peak at the i-th eps is replaced by eps^law * wobble[i]
    cfg = small_cfg(eps=[0.1, 0.0707, 0.05, 0.0354, 0.025])
    monkeypatch.setattr(harness, "setup_run",
                        lambda cfg, eps: harness.RunSetup(None, SimpleNamespace(eps=eps)))

    def lattice_peak(cfg, observable, law):
        def measure(setups):
            return [(s.spec.eps, s.spec.eps ** law * w, w) for s, w in zip(setups, wobble)]
        return measure

    monkeypatch.setattr(harness, "_lattice_peak", lattice_peak)
    assert run(cfg).passed is passed


def test_scaling_report_regime_stability():
    rep = harness.run_residual_scaling(small_cfg(eps=[0.1, 0.0707, 0.05, 0.0354]))
    assert rep.passed
    slope_all, _ = fit_loglog(rep.rows)
    slope_trim, _ = fit_loglog(rep.rows[1:])
    assert abs(slope_all - slope_trim) <= 0.15


def test_setup_run_adjusts_eps_exactly():
    cfg = small_cfg()
    setup = harness.setup_run(cfg, 0.0707)
    assert abs(setup.spec.eps * setup.spec.N - cfg.L_y) < 1e-12
    assert setup.spec.N % 4 == 0


def _c05_cfg(**over):
    doc = dict(kind="residual_scaling", resonant_family=dict(FAM, c=0.5),
               eps=[0.1, 0.0707, 0.05], tau0=0.5, L_y=25.6, n_grid=64)
    doc.update(over)
    return config_from_dict(doc)


@pytest.mark.parametrize("over", [dict(a0=[1.0, 0.4]), dict(nu=0.6), dict(n_grid=128),
                                  dict(resonant_family=FAM)],
                         ids=["a0", "nu", "n_grid", "family"])
def test_setup_run_shares_one_envelope_solution(over):
    """Every eps of a sweep gets one solution object; other envelopes get
    their own."""
    sol = harness.setup_run(_c05_cfg(), 0.1).spec.solution
    assert harness.setup_run(_c05_cfg(), 0.05).spec.solution is sol
    assert harness.setup_run(_c05_cfg(**over), 0.1).spec.solution is not sol


def test_setup_run_solution_follows_make_solution(monkeypatch):
    """A substitute provider, as a finer reference's dtau, gets a solution
    of its own, not the one the default provider built."""
    assert harness.setup_run(_c05_cfg(), 0.1).spec.solution.dtau == amp.STRANG_DTAU
    monkeypatch.setattr(amp, "make_solution", functools.partial(amp.make_solution, dtau=2.5e-4))
    assert harness.setup_run(_c05_cfg(), 0.1).spec.solution.dtau == 2.5e-4


def test_shared_solution_gives_the_rows_of_fresh_ones(monkeypatch):
    """Sweeps on one solution, the second after the first has stepped it,
    give the rows of sweeps that build a fresh solution per eps."""
    shared = [harness.run_ansatz_scaling(_c05_cfg(kind="ansatz_scaling")),
              harness.run_residual_scaling(_c05_cfg())]
    monkeypatch.setattr(harness, "_envelope_solution", harness._envelope_solution.__wrapped__)
    assert (harness.setup_run(_c05_cfg(), 0.1).spec.solution
            is not harness.setup_run(_c05_cfg(), 0.05).spec.solution)
    fresh = [harness.run_ansatz_scaling(_c05_cfg(kind="ansatz_scaling")),
             harness.run_residual_scaling(_c05_cfg())]
    for a, b in zip(shared, fresh):
        assert np.array_equal(a.rows, b.rows)


def test_single_wave_config():
    cfg = small_cfg(waves=[{"branch": "acoustic", "theta": 0.3}])
    setup = harness.setup_run(cfg, 0.1)
    b2 = setup.spec.solution.fields(0.0)[1]
    assert np.all(b2 == 0.0)


def test_determinism_identical_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        rep = harness.run_residual_scaling(small_cfg())
        cli.write_csv(str(out), "eps,error", rep.rows)
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_dispersion(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"V1": {"k1": 1.0}, "V2": {"k1": 2.0},
                                  "W1": {"k1": 1.0}, "W2": {"k1": 1.0}}))
    out = tmp_path / "disp.csv"
    rc = cli.main(["dispersion", "--params", str(params), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,omega_acoustic,omega_optical,vg_acoustic,vg_optical"
    assert len(lines) == 1025
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_cli_runs_every_command_without_scipy(tmp_path):
    """Every subcommand runs on numpy alone: in a fresh interpreter in which
    scipy cannot be imported, each exits 0."""
    sim = dict(SIM_N40, out="snap.csv")
    val = dict(kind="residual_scaling", params=P_NL, waves=WAVES, eps=[0.1, 0.0707, 0.05],
               tau0=0.5, L_y=25.6, n_grid=64, out="res.csv")
    for name, doc in (("sim.json", sim), ("val.json", val)):
        (tmp_path / name).write_text(json.dumps(doc))
    commands = [["dispersion", "--params", str(ROOT / "configs/p0.json"), "--out", "disp.csv"],
                ["resonance", "--gamma", "1.5,2,3", "--c", "0.2,0.5,1.0", "--out", "scan.csv"],
                ["amplitudes", "--config", str(ROOT / "configs/amplitudes.json")],
                ["simulate", "--config", "sim.json"],
                ["validate", "--config", "val.json"],
                ["generate", "--config", str(ROOT / "configs/generation.json")]]
    code = ("import sys; sys.modules['scipy'] = None; from dichain import cli; "
            f"print([cli.main(argv) for argv in {commands!r}])")
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == str([0] * len(commands)), run.stdout + run.stderr


# what perfbench/kernels.py calls, in the shapes it calls them, under
# perfbench/tracing.py's wrappers: every name the benchmark looks up
BENCH_CALLS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.Tracer()
tracer.install()
from dichain import amplitude, ansatz, harness, microsim
cfg = harness.config_from_dict(dict(kind="residual_scaling", n_grid=16, tau0=0.1,
                                    resonant_family={"gamma": 2.0, "c": 0.5}))
s = harness.setup_run(cfg, 0.1)
p, spec = s.p, s.spec
microsim.force(p, ansatz.initial_state(spec).pos)
fields = spec.solution.fields(0.06)
spec.interp(fields[0])
ansatz.sample_first_order(spec, 0.5 / spec.eps)
ansatz.residual_norm(p, spec, 0.5 / spec.eps, h0=0.01)
amplitude.strang_step(spec.macro, fields, spec.L, 1e-3)
print(json.dumps([sorted({span[0] for span in tracer.spans}), tracer.counts]))
"""


def test_benchmark_finds_the_names_it_traces_and_times():
    """In a fresh interpreter, perfbench's tracer installs on dichain and
    the calls of its kernel timings run in their shapes: residual_norm
    with h0, strang_step(macro, fields, L, dt), setup_run's .p and .spec.
    A rename in src/ fails here, not only in the traced benchmark run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", BENCH_CALLS, str(ROOT / "perfbench")],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    names, counts = json.loads(run.stdout.strip().splitlines()[-1])
    assert {"harness.setup_run", "model.force", "amplitude.make_solution", "amplitude.fields",
            "ansatz.interp", "ansatz.sample", "ansatz.residual_norm",
            "amplitude.strang_step"} <= set(names)
    # residual_norm at tau = 0.5 reaches whole steps 1 to 20 of 0.025
    assert counts["amplitude.strang.checkpoints"] == 20


def test_cli_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "convergence", "epz": [0.1]}')
    rc = cli.main(["validate", "--config", str(bad)])
    assert rc == 1
    assert "epz" in capsys.readouterr().err


def test_cli_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = cli.main(["validate", "--config", str(bad)])
    assert rc == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_cli_validate_pass(tmp_path, capsys):
    doc = dict(kind="ansatz_scaling", params=P_NL, waves=WAVES,
               eps=[0.1, 0.0707, 0.05], tau0=0.5, L_y=25.6, n_grid=64,
               out=str(tmp_path / "gap.csv"))
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(doc))
    rc = cli.main(["validate", "--config", str(cfgf)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS")
    lines = (tmp_path / "gap.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,error"
    assert len(lines) == 4


def test_cli_resonance_scan(tmp_path):
    out = tmp_path / "scan.csv"
    rc = cli.main(["resonance", "--gamma", "2.0", "--c", "0.2,1.0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma,c,b_over_a,theta_star,residual"
    assert len(lines) == 3
    assert "nan" in lines[1]  # c=0.2 has no positive ratio


def test_cli_amplitudes_and_simulate(tmp_path, capsys):
    doc = dict(kind="amplitudes", resonant_family=FAM, eps=[0.05], tau0=0.2,
               L_y=25.6, n_grid=32, a0=[1.0, 0.3], n_snapshots=3,
               out=str(tmp_path / "traj.csv"))
    f = tmp_path / "amp.json"
    f.write_text(json.dumps(doc))
    assert cli.main(["amplitudes", "--config", str(f)]) == 0
    lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
    assert lines[0] == "tau,y,reA1_1,imA1_1,reA1_2,imA1_2"

    doc = dict(kind="simulate", params=P_NL, waves=[{"branch": "acoustic", "theta": 0.3}],
               eps=[0.1], tau0=0.05, L_y=12.8, n_grid=16, a0=[0.5],
               n_samples=2, out=str(tmp_path / "snap.csv"))
    f2 = tmp_path / "sim.json"
    f2.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(f2)]) == 0
    lines = (tmp_path / "snap.csv").read_text().strip().splitlines()
    assert lines[0] == "t,j,u1,u2,v1,v2"
    N = 128 - 128 % 4
    assert len(lines) == 1 + 3 * N


# the three envelope regimes and the solution make_solution gives each
AMP_REGIMES = {
    "nonresonant": (dict(params=P_NL, waves=WAVES), amp.TransportSolution),
    "resonant-c1": (dict(resonant_family=FAM), amp.StrangSolution),
    "resonant-c05": (dict(resonant_family=dict(FAM, c=0.5)), amp.StrangSolution),
}


@pytest.mark.parametrize("regime", AMP_REGIMES)
def test_cli_amplitudes_writes_regime_solution(tmp_path, regime):
    """amplitudes writes the first eps's own envelope solution at evenly
    spaced tau, whatever the regime."""
    keys, solution_type = AMP_REGIMES[regime]
    doc = dict(kind="amplitudes", eps=[0.05], tau0=0.3, L_y=25.6, n_grid=32, n_snapshots=4,
               out=str(tmp_path / "a.csv"), **keys)
    (tmp_path / "amp.json").write_text(json.dumps(doc))
    assert cli.main(["amplitudes", "--config", str(tmp_path / "amp.json")]) == 0
    data = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
    sol = harness.setup_run(config_from_dict(doc), 0.05).spec.solution
    assert type(sol) is solution_type
    taus = np.linspace(0, 0.3, 4)
    assert np.array_equal(data[:, 0], np.repeat(taus, 32))
    for i, tau in enumerate(taus):
        rows = data[32 * i:32 * (i + 1)]
        b1, b2 = sol.fields(tau)
        assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], b1)
        assert np.array_equal(rows[:, 4] + 1j * rows[:, 5], b2)


def test_eps_sweep_deterministic():
    a = harness.run_residual_scaling(small_cfg())
    b = harness.run_residual_scaling(small_cfg())
    assert a.rows == b.rows and a.exponent == b.exponent
    assert [e for e, _ in a.rows] == sorted((e for e, _ in a.rows), reverse=True)
    assert a.passed and b.passed


# (key, a value its check refuses), each in a config that sets resonant_family
BAD_KEYS = [
    ("dt", 0), ("dt", -1), ("dt", "x"),
    ("n_samples", 0), ("n_samples", 2.5),
    ("L_y", 0), ("L_y", -40.0), ("L_y", "x"), ("L_y", 0.05),
    ("eps", ["x"]), ("eps", [0.1, 0.05, 0]), ("eps", 0.1), ("eps", [True]),
    ("a0", [1.0]), ("dtau", 0), ("tau0", "1"), ("beta", "x"), ("n_grid", "x"),
    ("noise_floor", "x"), ("nu", 0), ("n_snapshots", 0), ("out", 5),
    ("resonant_family", {"c": 1.0}), ("resonant_family", {"gamma": 2.0}),
    ("resonant_family", dict(FAM, nl={"v21": 0.3})), ("waves", [{"branch": "acoustic"}]),
    ("scan", {"gamma": "x"}), ("n_grid", 12), ("n_grid", 48),
    # json.dumps writes these as Infinity and NaN, which json.load reads back
    ("L_y", float("inf")), ("tau0", float("inf")), ("a0", [float("nan"), 0.5]),
    ("nu", float("inf")), ("dt", float("inf")),
    ("resonant_family", dict(FAM, gamma=float("inf"))),
    pytest.param("n_samples", 10 ** 400, id="n_samples-past-float-range"),
    # resonant_family sets the chain and both waves
    pytest.param("params", P_NL, id="params-with-resonant_family"),
    pytest.param("waves", WAVES, id="waves-with-resonant_family"),
    # refused before the run, not after it
    pytest.param("out", "no_such_dir/conv.csv", id="out-in-missing-dir"),
    pytest.param("out", "", id="out-empty"),
    pytest.param("out", ".", id="out-is-a-directory"),
    # a fitted sweep needs three eps: refused before the run, not by the fit after it
    pytest.param("eps", [0.1, 0.0707], id="eps-two-values"),
    # too large to allocate: refused before the run, not by numpy in it
    pytest.param("eps", [1e-8, 5e-9, 2.5e-9], id="eps-too-many-sites"),
    pytest.param("n_grid", 2 ** 40, id="n_grid-too-large"),
    # a fitted sweep whose eps snap to one lattice, and runs of too many
    # lattice steps: refused before the run, not by the fit or a timeout
    pytest.param("eps", [0.1, 0.0999, 0.0998], id="eps-snap-to-one-lattice"),
    pytest.param("dt", 1e-9, id="dt-too-many-steps"),
    pytest.param("n_samples", 10 ** 12, id="n_samples-too-many-steps"),
    # a run that seeds no wave: refused before the run, not by the fit after it
    pytest.param("a0", [0.0, 0.0], id="a0-all-zero"),
]


@pytest.mark.parametrize("key,value", BAD_KEYS)
def test_cli_rejects_bad_integration_keys(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.setattr(harness, "setup_run", _no_compute)
    doc = dict(kind="convergence", resonant_family=FAM, eps=[0.1, 0.0707, 0.05],
               out=str(tmp_path / "conv.csv"))
    doc[key] = value
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(doc))
    rc = cli.main(["validate", "--config", str(cfgf)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{key}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "conv.csv").exists()


def _no_compute(*args, **kw):
    raise AssertionError("a malformed config reached the computation")


# (command, config, a0): the amplitudes each run seeds are all zero; a
# one-wave params run and generate with a family seed only a0[0]
SEEDS_NOTHING = [
    ("validate", dict(kind="ansatz_scaling", params=P_NL, waves=WAVES), [0, 0]),
    ("validate", dict(kind="residual_scaling", params=P_NL, waves=WAVES), [0.0, 0.0]),
    ("validate", dict(kind="convergence", params=P_NL, waves=WAVES[:1]), [0, 1]),
    ("validate", dict(kind="generation", params=P_NL, waves=WAVES[:1]), [0, 1]),
    ("generate", dict(kind="generation", resonant_family=FAM), [0, 1]),
]


@pytest.mark.parametrize("command,doc,a0", SEEDS_NOTHING,
                         ids=["ansatz", "residual", "one-wave", "control", "generate"])
def test_cli_refuses_a_run_that_seeds_no_wave(tmp_path, capsys, monkeypatch, command, doc, a0):
    monkeypatch.setattr(harness, "setup_run", _no_compute)
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(dict(doc, a0=a0, eps=[0.1, 0.0707, 0.05])))
    rc = cli.main([command, "--config", str(cfgf)])
    err = capsys.readouterr().err
    assert rc == 1 and "a0:" in err and "Traceback" not in err
    # one seeded wave is enough, and a table kind takes zero amplitudes
    config_from_dict(dict(doc, a0=[1.0] + a0[1:], eps=[0.1, 0.0707, 0.05]))
    config_from_dict(dict(doc, kind="simulate", out="o.csv", a0=[0, 0], eps=[0.1]))


def test_cli_generate_refuses_a_family_without_quadratic_coupling(tmp_path, capsys):
    """With k2 = 0 the predicted optical envelope is zero, so generate
    exits 1 naming resonant_family's nl before any lattice step, not 2
    with a discrepancy of inf."""
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(dict(kind="generation", resonant_family={"gamma": 2, "c": 0.72})))
    with np.errstate(all="raise"):
        rc = cli.main(["generate", "--config", str(cfgf)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("config error: resonant_family.nl:") and "Traceback" not in err


def test_size_bounds_admit_their_limit_and_refuse_past_it():
    """MAX_SITES lattice sites summed over a lattice sweep's eps (whose
    lattices run at once) or at the smallest eps of any other sweep, an
    n_grid of MAX_GRID and a run of MAX_STEPS lattice steps pass; one site
    more, the next power of two, or a longer run fail naming the key (for
    the steps, the key of the larger term of max(T/dt, n_samples))."""
    doc = dict(kind="convergence", resonant_family=FAM, L_y=40.0)
    # round(L_y/eps) = 400 + 800 + the rest of MAX_SITES
    eps = [0.1, 0.05, 40.0 / (harness.MAX_SITES - 1200)]
    config_from_dict(dict(doc, eps=eps, n_grid=harness.MAX_GRID))
    config_from_dict(dict(doc, kind="generation", params=P_NL, waves=WAVES[:1],
                          resonant_family=None, eps=eps))
    with pytest.raises(ConfigError, match="^eps: .* more than 262144 lattice sites summed"):
        config_from_dict(dict(doc, eps=eps[:2] + [40.0 / (harness.MAX_SITES - 1199)]))
    with pytest.raises(ConfigError, match="^eps: .* more than 262144 lattice sites summed"):
        config_from_dict(dict(doc, kind="generation", params=P_NL, waves=WAVES[:1],
                              resonant_family=None,
                              eps=eps[:2] + [40.0 / (harness.MAX_SITES - 1199)]))
    # a sweep that holds one lattice at a time is bounded at its smallest eps
    one = dict(doc, kind="residual_scaling")
    config_from_dict(dict(one, eps=[0.1, 0.05, 40.0 / harness.MAX_SITES]))
    with pytest.raises(ConfigError, match="^eps: .* more than 262144 lattice sites at eps"):
        config_from_dict(dict(one, eps=[0.1, 0.05, 40.0 / (harness.MAX_SITES + 1)]))
    with pytest.raises(ConfigError, match="^n_grid: "):
        config_from_dict(dict(doc, n_grid=2 * harness.MAX_GRID))
    doc["eps"] = [0.1, 0.05, 0.025]  # T = tau0/eps = 40
    config_from_dict(dict(doc, n_samples=harness.MAX_STEPS))
    config_from_dict(dict(doc, dt=1.001 * 40.0 / harness.MAX_STEPS))
    with pytest.raises(ConfigError, match="^n_samples: .* more than 1000000"):
        config_from_dict(dict(doc, n_samples=harness.MAX_STEPS + 1))
    with pytest.raises(ConfigError, match="^dt: .* more than 1000000"):
        config_from_dict(dict(doc, dt=0.999 * 40.0 / harness.MAX_STEPS))


def test_cli_reports_memory_error_in_one_line(tmp_path, capsys, monkeypatch):
    """An allocation that fails in a run, past validation, exits 1 with
    one error line and no traceback."""
    def allocate(*args, **kw):
        raise MemoryError("Unable to allocate 238. GiB for an array with shape (4, 4000000000)")

    monkeypatch.setattr(harness, "setup_run", allocate)
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(dict(kind="convergence", resonant_family=FAM,
                                    eps=[0.1, 0.0707, 0.05])))
    rc = cli.main(["validate", "--config", str(cfgf)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: out of memory: Unable to allocate 238. GiB")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_rejection_tests_cover_every_schema_key():
    # kind and params also have tests of their own: test_config_rejects_unknown_kind
    # and test_config_rejects_bad_params
    tested = {getattr(case, "values", case)[0] for case in BAD_KEYS} | {"kind", "params"}
    assert set(SCHEMA) <= tested


@pytest.mark.parametrize("command,kind", [("amplitudes", "amplitudes"),
                                          ("simulate", "simulate"),
                                          ("validate", "amplitudes"),
                                          ("validate", "simulate")],
                         ids=["amplitudes", "simulate", "validate-amplitudes",
                              "validate-simulate"])
def test_cli_output_commands_require_out(tmp_path, capsys, monkeypatch, command, kind):
    """The missing path is named; --out is offered only where the
    subcommand has it."""
    monkeypatch.setattr(harness, "setup_run", _no_compute)
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(dict(kind=kind, resonant_family=FAM, eps=[0.05])))
    rc = cli.main([command, "--config", str(cfgf)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "out:" in err
    assert ("--out" in err) == (command != "validate")
    assert "Traceback" not in err


SIM_N40 = dict(kind="simulate", params=P_NL, waves=[{"branch": "acoustic", "theta": 0.3}],
               eps=[0.1], tau0=0.05, L_y=4.0, n_grid=16, a0=[0.5], n_samples=2)
SCAN = dict(kind="resonance_scan", scan={"gamma": [2.0], "c": [1.0]})
# c = 1: the envelopes would be stepped by Strang to tau = tau0
HUGE_TAU0 = dict(kind="amplitudes", resonant_family=FAM, eps=[0.05], tau0=1e300)


def _init_rows(sites):
    """An init file with one row per site in ``sites``, u1 = j/1000 at site j;
    a string in ``sites`` is a row as it stands."""
    return "j,u1,u2,v1,v2\n" + "".join(j + "\n" if isinstance(j, str) else
                                       f"{j},{j / 1000},0.02,0,0\n" for j in sites)


@pytest.mark.parametrize("argv,sites,flag", [
    # dispersion has no --n: every table has DISPERSION_ROWS rows
    (["dispersion", "--params", "p.json", "--n", "0"], [], "--n"),
    (["dispersion", "--params", "p.json", "--n", "-5"], [], "--n"),
    (["simulate", "--config", "sim.json", "--init-file", "init.csv"], range(1),
     "--init-file: expected N = 40"),
    (["simulate", "--config", "sim.json", "--init-file", "init.csv"], range(3),
     "--init-file: expected N = 40"),
    (["simulate", "--config", "sim.json", "--init-file", "init.csv"], [0, 0, *range(2, 40)],
     "--init-file: the j column"),
    (["simulate", "--config", "sim.json", "--init-file", "init.csv"], [0.5, *range(1, 40)],
     "--init-file: the j column"),
    # integrating NaN would fail one sample later, naming neither the flag nor t = 0
    (["simulate", "--config", "sim.json", "--init-file", "init.csv"],
     [*range(7), "7,0.007,0.02,nan,0", *range(8, 40)],
     "config error: --init-file: u1,u2,v1,v2 must be finite"),
    (["resonance", "--gamma", "abc"], [], "--gamma:"),
    (["resonance", "--gamma", "2", "--c", "0.5,x"], [], "--c:"),
    (["resonance", "--gamma", "0.5"], [], "--gamma:"),
    (["resonance", "--gamma", "2,nan"], [], "--gamma:"),
    (["resonance", "--gamma", "2", "--c", "0.5,1.5"], [], "--c:"),
    (["resonance", "--c", "inf"], [], "--c:"),
    # the scan comes from the config or from the flags, never both
    (["resonance", "--config", "scan.json", "--gamma", "3", "--c", "0.5"], [], "--gamma:"),
    (["resonance", "--config", "scan.json", "--c", "0.5"], [], "--c:"),
    (["amplitudes", "--config", "tau0.json"], [], "config error: tau0: "),
    (["simulate", "--config", "sim.json", "--init-file", "nope.csv"], [],
     "config error: --init-file: nope.csv not found"),
    (["simulate", "--config", "sim.json", "--init-file", "init.csv"], ["0,a,0,0,0"],
     "config error: --init-file: could not convert"),
    # no rows at all: numpy's own warning is not shown
    (["simulate", "--config", "sim.json", "--init-file", "init.csv"], [],
     "--init-file: expected N = 40"),
], ids=["n-zero", "n-negative", "init-one-row", "init-wrong-N", "init-duplicate-j",
        "init-fractional-j", "init-nonfinite", "gamma-not-a-number", "c-not-a-number",
        "gamma-out-of-range", "gamma-nan", "c-out-of-range", "c-infinite", "config-and-flags",
        "config-and-c", "tau0-huge", "init-missing", "init-not-a-number", "init-empty"])
@pytest.mark.filterwarnings("error")
def test_cli_rejects_bad_options(tmp_path, capsys, monkeypatch, argv, sites, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps(P_NL))
    (tmp_path / "sim.json").write_text(json.dumps(SIM_N40))
    (tmp_path / "scan.json").write_text(json.dumps(SCAN))
    (tmp_path / "tau0.json").write_text(json.dumps(HUGE_TAU0))
    (tmp_path / "init.csv").write_text(_init_rows(sites))
    rc = cli.main(argv + ["--out", "o.csv"])
    err = capsys.readouterr().err
    assert rc == 1
    assert flag in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_cli_simulate_starts_from_init_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(json.dumps(SIM_N40))
    for sites in (range(40), range(39, -1, -1)):  # each row lands on its site j
        (tmp_path / "init.csv").write_text(_init_rows(sites))
        rc = cli.main(["simulate", "--config", "sim.json", "--init-file", "init.csv",
                       "--out", "o.csv"])
        assert rc == 0
        first = np.loadtxt(tmp_path / "o.csv", delimiter=",", skiprows=1)[:40]
        assert np.array_equal(first[:, :3],
                              np.c_[np.zeros(40), np.arange(40), np.arange(40) / 1000])
        assert np.all(first[:, 3:] == [0.02, 0.0, 0.0])


def test_validate_dispersion_table_matches_dispersion(tmp_path):
    params = {"V1": {"k1": 1.0}, "V2": {"k1": 2.0}, "W1": {"k1": 1.0}, "W2": {"k1": 1.0}}
    (tmp_path / "p.json").write_text(json.dumps(params))
    rc = cli.main(["dispersion", "--params", str(tmp_path / "p.json"),
                   "--out", str(tmp_path / "a.csv")])
    assert rc == 0
    doc = dict(kind="dispersion_table", params=params, out=str(tmp_path / "b.csv"))
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(tmp_path / "cfg.json")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_validate_dispersion_table_requires_out(tmp_path, capsys, monkeypatch):
    # like every kind whose only output is a CSV: no path, no run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(dict(kind="dispersion_table", params=P_NL)))
    rc = cli.main(["validate", "--config", "cfg.json"])
    err = capsys.readouterr().err
    assert rc == 1 and "config error: out: dispersion_table" in err and "Traceback" not in err
    assert list(tmp_path.glob("*.csv")) == []


def test_validate_amplitudes_matches_amplitudes(tmp_path):
    doc = dict(kind="amplitudes", resonant_family=FAM, eps=[0.05], tau0=0.1, L_y=25.6,
               n_grid=16, n_snapshots=3, out=str(tmp_path / "a.csv"))
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(cfgf)]) == 0
    rc = cli.main(["amplitudes", "--config", str(cfgf), "--out", str(tmp_path / "b.csv")])
    assert rc == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_validate_resonance_scan_matches_resonance(tmp_path):
    doc = dict(kind="resonance_scan", scan={"gamma": [1.5, 2.0], "c": [0.2, 0.72, 1.0]},
               out=str(tmp_path / "a.csv"))
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(cfgf)]) == 0
    rc = cli.main(["resonance", "--config", str(cfgf), "--out", str(tmp_path / "b.csv")])
    assert rc == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_fourth_order_convergence_matches_fine_leapfrog(monkeypatch):
    # the order-4 sweep at the default dt = 0.1 must sit at least as close
    # to a dt = 0.0005 leapfrog run as leapfrog at dt = 0.002 does (with
    # 1.25x slack), row by row; half the shipped horizon keeps it short
    base = dict(kind="convergence", resonant_family=FAM, eps=[0.1, 0.0707, 0.05], tau0=0.5)
    rows = {}
    for name, weights, over in (("order4", SCHEME, {}), ("leapfrog", LEAPFROG, dict(dt=0.002)),
                                ("fine", LEAPFROG, dict(dt=0.0005))):
        monkeypatch.setattr(microsim, "SCHEME", weights)
        rep = harness.run_convergence(config_from_dict(dict(base, **over)))
        rows[name] = [v for _, v in rep.rows]
    for x, s, f in zip(rows["order4"], rows["leapfrog"], rows["fine"]):
        assert abs(x - f) <= 1.25 * abs(s - f)


# the envelope providers of a lattice sweep: Strang at rest (c = 1, one
# solution for every eps), the moving c = 0.5 family, and exact transport
SWEEPS = [dict(resonant_family=FAM), dict(resonant_family=dict(FAM, c=0.5)),
          dict(params=P_NL, waves=WAVES)]
SWEEP_IDS = ["c1", "half-pi", "nonresonant"]


def _sweep_cfg(source):
    return config_from_dict(dict(kind="convergence", eps=[0.1, 0.0707, 0.05], tau0=0.5,
                                 n_grid=64, n_samples=20, **source))


def _rows_ring_by_ring(cfg):
    """The convergence rows with each eps's lattice run alone and its
    observer reading its own envelopes at eps*t, as before the rings of a
    sweep shared their samples."""
    rows = []
    for eps in cfg.eps:
        s = harness.setup_run(cfg, eps)
        peak = [0.0]

        def observer(t, state, spec=s.spec):
            peak[0] = max(peak[0], model.norm_l2_pair(
                state.pos - anz.sample_first_order(spec, t),
                state.vel - anz.first_order_velocity(spec, t)))

        T = cfg.tau0 / s.spec.eps
        microsim.integrate(s.p, anz.initial_state(s.spec, improved=True),
                           harness._lattice_sim(cfg, s.p, T, T / cfg.n_samples), observer)
        rows.append((s.spec.eps, peak[0]))
    return rows


@pytest.mark.parametrize("source", SWEEPS, ids=SWEEP_IDS)
def test_shared_sweep_samples_match_each_ring_alone(source):
    """Reading the envelopes at tau_i = i*tau0/n_samples from the shared
    table, not at each ring's eps*t, moves each row by rounding only."""
    cfg = _sweep_cfg(source)
    shared = harness.run_convergence(cfg).rows
    for (eps, value), (eps_ref, ref) in zip(shared, _rows_ring_by_ring(cfg)):
        assert eps == eps_ref
        assert abs(value - ref) <= 1e-13 * ref


def test_sweep_asks_the_envelopes_once_per_sample_time(monkeypatch):
    """The rings of a c = 1 sweep share one envelope solution; during the
    lattice run it is asked for each sample time i*tau0/n_samples once,
    not once per ring and sample."""
    cfg = _sweep_cfg(SWEEPS[0])
    asked, running = [], []
    fields = amp.StrangSolution.fields

    def counted(sol, tau):
        if running:
            asked.append(tau)
        return fields(sol, tau)

    def run(runs, _rings=harness.integrate_rings):
        running.append(len(runs))
        return _rings(runs)

    monkeypatch.setattr(amp.StrangSolution, "fields", counted)
    monkeypatch.setattr(harness, "integrate_rings", run)
    harness.run_convergence(cfg)
    assert running == [3]
    assert asked == [i * cfg.tau0 / cfg.n_samples for i in range(cfg.n_samples + 1)]


def test_sweep_samples_past_the_cap_keep_their_bits(monkeypatch):
    """With n_samples above the table's cap, the table holds at most the
    cap, and the samples it cannot keep are built again for each ring with
    the same bits."""
    cfg = _sweep_cfg(SWEEPS[0])
    shared = harness.run_convergence(cfg).rows
    kept = []

    def watched(table, spec, tau, _snapshot=anz.SweepSamples.snapshot):
        snap = _snapshot(table, spec, tau)
        kept.append(len(table._kept))
        return snap

    monkeypatch.setattr(anz, "KEEP_SAMPLES", 3)
    monkeypatch.setattr(anz.SweepSamples, "snapshot", watched)
    assert harness.run_convergence(cfg).rows == shared
    assert max(kept) == 3 < cfg.n_samples
    spec = harness.setup_run(cfg, 0.1).spec
    table = anz.SweepSamples([spec], cfg.L_y, cfg.tau0, cfg.n_samples)
    with pytest.raises(ValueError, match="not a sample time"):
        table.snapshot(spec, 0.5 * cfg.tau0 / cfg.n_samples)


def test_stiff_chain_sweep_keeps_substeps_stable():
    # omega_max = 10 and sample spacings of 0.013-0.018, below the stability
    # cap default_dt = 0.033: the step is the spacing itself, and the longest
    # order-4 drift (0.605 dt) must pass SimConfig.validate
    stiff = {"V1": {"k1": 1.0}, "V2": {"k1": 2.0}, "W1": {"k1": 1.0}, "W2": {"k1": 96.0}}
    cfg = config_from_dict(dict(kind="convergence", params=stiff, waves=WAVES[:1],
                                eps=[0.1, 0.0707, 0.05], tau0=0.065, L_y=25.6, n_grid=64))
    rep = harness.run_convergence(cfg)
    assert all(np.isfinite(v) for _, v in rep.rows)


def test_lattice_step_never_exceeds_its_target():
    # the stride is the fewest steps per sample spacing that keep dt at or
    # below min(cfg.dt, default_dt); rounding would stretch 2.5 to 2 steps
    p = p0()
    cap = default_dt(p)
    for target in (0.1, 0.04, 1.0):
        cfg = small_cfg(dt=target)
        for spacing in (0.05, 0.1, 0.25, 0.2823, 0.8, 3.0):
            sim = harness._lattice_sim(cfg, p, 10 * spacing, spacing)
            bound = min(target, cap)
            assert sim.dt <= bound and sim.stride * sim.dt == pytest.approx(spacing)
            assert sim.stride == 1 or spacing / (sim.stride - 1) > bound
            sim.validate(p)


def test_lattice_stride_of_an_integer_ratio_up_to_rounding():
    # 0.14/0.02 is 7.000000000000001 in floating point; within the 1e-12 of
    # SimConfig.validate it is 7 steps per spacing, not 8 (14 % more force
    # calls)
    p = p0()
    assert 0.14 / 0.02 > 7 and default_dt(p) > 0.02
    sim = harness._lattice_sim(small_cfg(dt=0.02), p, 1.4, 0.14)
    assert sim.stride == 7 and sim.dt == pytest.approx(0.02, rel=1e-12)
    sim.validate(p)
    cap = default_dt(p)  # the stability cap, met the same way
    sim = harness._lattice_sim(small_cfg(dt=1.0), p, 30 * cap, 3 * cap * (1 + 1e-15))
    assert sim.stride == 3
    sim.validate(p)


def test_generation_window_independent_of_dt():
    # the carrier fit window must hold the same sampling times at every dt,
    # so the discrepancy moves only by the integration error between steps
    doc = dict(kind="generation", resonant_family=FAM, eps=[0.05], tau0=1.0,
               a0=[1.0, 0.0])
    d = [harness.run_generation(config_from_dict(dict(doc, dt=dt))).discrepancy
         for dt in (0.02, 0.01)]
    assert abs(d[0] - d[1]) < 1e-4
