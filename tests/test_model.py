import ast
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from _helpers import (hamiltonian_energy, linear_apply, lipschitz_constant,
                      nonlinear_apply, norm_equivalence_interval, p0, random_valid_params,
                      roll_force, roll_stencil)
from dichain import model
from dichain.model import (ChainParams, LatticeState, PotentialCoeffs, Rings, StabilityError,
                           carrier_product_force, cell_pack, cell_unpack, energy_norm, force,
                           make_params, norm_m, validate_params)

P0 = p0()
ROOT = Path(__file__).resolve().parents[1]


def test_validate_p0():
    validate_params(P0)
    assert P0.c1 == 3.0 and P0.c2 == 5.0
    assert P0.M_w == 2.0 and P0.m_w == 1.0


def test_validate_negative_onsite():
    with pytest.raises(StabilityError, match=r"w_\{1,1\}>0"):
        make_params(v1=(1.0,), v2=(2.0,), w1=(-1.0,), w2=(1.0,))


def test_validate_branch_order():
    with pytest.raises(StabilityError, match="c2>c1"):
        make_params(v1=(2.0,), v2=(1.0,), w1=(1.0,), w2=(1.0,))


def test_linear_zero():
    assert np.all(linear_apply(P0, np.zeros((8, 2))) == 0.0)


def test_linear_uniform():
    out = linear_apply(P0, np.ones((8, 2)))
    np.testing.assert_allclose(out, np.tile([-1.0, -1.0], (8, 1)), atol=1e-15)


def test_linear_single_excitation():
    pos = np.zeros((8, 2))
    pos[0, 0] = 1.0
    out = linear_apply(P0, pos)
    np.testing.assert_allclose(out[0], [-3.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(out[1], [0.0, 2.0], atol=1e-15)
    assert np.all(out[2:] == 0.0)


def test_nonlinear_zero_and_uniform():
    p = make_params(v1=(1.0,), v2=(2.0,), w1=(1.0, 0.5, 0.1), w2=(1.0, 0.3, 0.0))
    assert np.all(nonlinear_apply(p, np.zeros((8, 2))) == 0.0)
    out = nonlinear_apply(p, np.ones((8, 2)))
    np.testing.assert_allclose(out, np.tile([-0.6, -0.3], (8, 1)), atol=1e-15)


def dichain_rhs_unpacked(x, p, part="full"):
    """Brute-force oracle on the flat two-atom chain (periodic)."""
    n = len(x)

    def f(c, s):
        lin = c.k1 * s
        nl = s * s * (c.k2 + c.k3 * s)
        return {"full": lin + nl, "linear": lin, "nonlinear": nl}[part]

    out = np.empty(n)
    for k in range(n):
        right = x[(k + 1) % n]
        left = x[(k - 1) % n]
        if k % 2 == 1:
            out[k] = f(p.V1, right - x[k]) - f(p.V1, x[k] - left) - f(p.W1, x[k])
        else:
            out[k] = f(p.V2, right - x[k]) - f(p.V2, x[k] - left) - f(p.W2, x[k])
    return out


def test_force_matches_unpacked_oracle():
    rng = np.random.RandomState(1)
    p = make_params(v1=(1.0, 0.4, -0.2), v2=(2.0, -0.3, 0.1),
                    w1=(1.0, 0.2, 0.3), w2=(1.5, -0.1, 0.05))
    x = rng.randn(16)
    # the nonlinear remainder brackets each atom's bonds as
    # d*(k2*sigma + k3*(sigma^2 - q)) of the difference, sum and product
    # of its stretches, not the oracle's x*x*(k2 + k3*x) per bond: equal
    # up to round-off
    assert_close_to(nonlinear_apply(p, cell_pack(x)),
                    cell_pack(dichain_rhs_unpacked(x, p, "nonlinear")))
    assert np.array_equal(linear_apply(p, cell_pack(x)),
                          cell_pack(dichain_rhs_unpacked(x, p, "linear")))
    # the combined force differs from the physical-form evaluation only in
    # summation order
    full = cell_pack(dichain_rhs_unpacked(x, p, "full"))
    np.testing.assert_allclose(force(p, cell_pack(x)), full, rtol=0, atol=1e-14)


def test_force_is_sum_of_parts():
    rng = np.random.RandomState(2)
    p = make_params(v1=(1.0, 0.4, -0.2), v2=(2.0, -0.3, 0.1),
                    w1=(1.0, 0.2, 0.3), w2=(1.5, -0.1, 0.05))
    pos = rng.randn(10, 2)
    # L and M are force on the linear and on the nonlinear part; the force
    # itself brackets them in one product per atom, as roll_force does
    assert np.array_equal(force(p, pos), roll_force(p, pos))
    assert_close_to(force(p, pos), linear_apply(p, pos) + nonlinear_apply(p, pos))


def test_cell_pack_examples():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    u = cell_pack(x)
    np.testing.assert_array_equal(u, [[1.0, 0.0], [3.0, 2.0]])
    rng = np.random.RandomState(3)
    y = rng.randn(20)
    assert np.array_equal(cell_unpack(cell_pack(y)), y)
    assert np.all(cell_pack(np.zeros(6)) == 0.0)
    with pytest.raises(ValueError):
        cell_pack(np.zeros(5))


def test_energy_norm_examples():
    s = LatticeState.zeros(8)
    assert energy_norm(s, P0) == 0.0
    s.pos[0, 0] = 1.0
    assert abs(energy_norm(s, P0) - np.sqrt(6.0)) < 1e-14
    s = LatticeState.zeros(8)
    s.vel[0, 1] = 3.0
    assert abs(energy_norm(s, P0) - 3.0) < 1e-14


def test_hamiltonian_examples():
    s = LatticeState.zeros(8)
    assert hamiltonian_energy(s, P0) == 0.0
    s.vel[0, 0] = 2.0
    assert abs(hamiltonian_energy(s, P0) - 2.0) < 1e-14
    s = LatticeState.zeros(8)
    s.pos[0, 0] = 1.0
    assert abs(hamiltonian_energy(s, P0) - 1.5) < 1e-14


def test_linearity_property():
    rng = np.random.RandomState(4)
    for _ in range(20):
        p = random_valid_params(rng)
        u, w = rng.randn(12, 2), rng.randn(12, 2)
        a, b = rng.randn(2)
        lhs = linear_apply(p, a * u + b * w)
        rhs = a * linear_apply(p, u) + b * linear_apply(p, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_nonlinear_vanishes_for_harmonic():
    rng = np.random.RandomState(5)
    assert np.all(nonlinear_apply(P0, rng.randn(12, 2)) == 0.0)


def test_lipschitz_bound():
    rng = np.random.RandomState(6)
    for _ in range(25):
        p = random_valid_params(rng, nonlinear=True)
        C = lipschitz_constant(p)
        assert np.isfinite(C)
        u = rng.uniform(-0.5, 0.5, (16, 2))
        w = rng.uniform(-0.5, 0.5, (16, 2))
        lhs = norm_m(nonlinear_apply(p, u) - nonlinear_apply(p, w), p)
        sup = np.abs(u).max() + np.abs(w).max()
        rhs = C * sup * norm_m(u - w, p)
        assert lhs <= rhs + 1e-14


def test_norm_equivalence():
    rng = np.random.RandomState(7)
    for _ in range(5):
        p = random_valid_params(rng)
        lo, hi, _, _ = norm_equivalence_interval(p)
        assert 0.0 < lo <= hi
        for _ in range(20):
            s = LatticeState(rng.randn(32, 2), rng.randn(32, 2))
            plain = np.sqrt(np.sum(s.pos ** 2) + np.sum(s.vel ** 2))
            ratio = energy_norm(s, p) / plain
            assert lo - 1e-9 <= ratio <= hi + 1e-9


def test_energy_norm_preserved_by_linear_flow():
    """High-accuracy reference integration of the linearized system keeps
    the energy norm constant to 1e-8 over t=100."""
    p = P0
    N = 16
    rng = np.random.RandomState(8)
    s0 = LatticeState(0.1 * rng.randn(N, 2), 0.1 * rng.randn(N, 2))

    def rhs(_t, z):
        pos = z[:2 * N].reshape(N, 2)
        vel = z[2 * N:].reshape(N, 2)
        return np.concatenate([vel.ravel(), linear_apply(p, pos).ravel()])

    z0 = np.concatenate([s0.pos.ravel(), s0.vel.ravel()])
    sol = solve_ivp(rhs, (0.0, 100.0), z0, method="DOP853", rtol=1e-12, atol=1e-13,
                    t_eval=np.linspace(0.0, 100.0, 11))
    e0 = energy_norm(s0, p)
    for col in sol.y.T:
        s = LatticeState(col[:2 * N].reshape(N, 2), col[2 * N:].reshape(N, 2))
        assert abs(energy_norm(s, p) - e0) / e0 <= 1e-8


def test_hamiltonian_conserved_mass_consistent():
    """mu*V2' = V1' makes the weighted energy an exact invariant; on-site
    nonlinearity never breaks it."""
    p = make_params(v1=(1.0, 0.2, 0.05), v2=(2.0, 0.4, 0.1),
                    w1=(1.0, 0.3, 0.2), w2=(1.0, 0.5, 0.0))
    N = 12
    rng = np.random.RandomState(9)
    s0 = LatticeState(0.1 * rng.randn(N, 2), 0.1 * rng.randn(N, 2))

    def rhs(_t, z):
        pos = z[:2 * N].reshape(N, 2)
        vel = z[2 * N:].reshape(N, 2)
        return np.concatenate([vel.ravel(), force(p, pos).ravel()])

    z0 = np.concatenate([s0.pos.ravel(), s0.vel.ravel()])
    sol = solve_ivp(rhs, (0.0, 20.0), z0, method="DOP853", rtol=1e-12, atol=1e-13,
                    t_eval=[0.0, 7.0, 20.0])
    h0 = hamiltonian_energy(s0, p)
    for col in sol.y.T:
        s = LatticeState(col[:2 * N].reshape(N, 2), col[2 * N:].reshape(N, 2))
        assert abs(hamiltonian_energy(s, p) - h0) <= 1e-9 * abs(h0)


P_NL = make_params(v1=(1.0, 0.4, -0.2), v2=(2.0, -0.3, 0.1),
                   w1=(1.0, 0.2, 0.3), w2=(1.5, -0.1, 0.05))


def assert_close_to(actual, expected, bound=1e-15):
    """|actual - expected| <= bound*max|expected| everywhere."""
    expected = np.asarray(expected)
    scale = np.abs(expected).max(initial=0.0)
    np.testing.assert_allclose(actual, expected, rtol=0, atol=bound * scale)


def term_scale(p, pos):
    """Per element, the sum of the magnitudes |k1*x| + |k2*x^2| + |k3*x^3|
    of the terms roll_stencil adds into L + M, over the element's two bond
    stretches and its on-site displacement x: the scale of the rounding of
    that sum in any order, also where L and M, or the terms of L, cancel."""
    pos = np.asarray(pos, dtype=float)
    u1, u2 = pos[:, 0], pos[:, 1]
    s_a = np.roll(u2, -1) - u1
    s_b = u1 - u2
    s_c = np.roll(s_a, 1)

    def size(c, x):
        a = np.abs(x)
        return a * (abs(c.k1) + a * (abs(c.k2) + a * abs(c.k3)))

    scale = np.empty_like(pos)
    scale[:, 0] = size(p.V1, s_a) + size(p.V1, s_b) + size(p.W1, u1)
    scale[:, 1] = size(p.V2, s_b) + size(p.V2, s_c) + size(p.W2, u2)
    return scale


def assert_matches_roll_stencil(p, pos):
    lin, nl = roll_stencil(p, pos)
    assert np.array_equal(linear_apply(p, pos), lin)
    assert_close_to(nonlinear_apply(p, pos), nl)
    excess = np.abs(force(p, pos) - (lin + nl)) - 1e-15 * term_scale(p, pos)
    assert np.all(excess <= 0.0), excess.max()
    assert np.array_equal(force(p, pos), roll_force(p, pos))


@pytest.mark.parametrize("N", [0, 1, 2, 3, 400])
def test_force_matches_roll_stencil(N):
    pos = np.random.RandomState(10 + N).randn(N, 2)
    assert_matches_roll_stencil(P_NL, pos)


def test_force_matches_roll_stencil_odd_layouts():
    rng = np.random.RandomState(11)
    big = rng.randn(14, 2)
    assert not big[::2].flags.contiguous
    assert_matches_roll_stencil(P_NL, big[::2])
    assert_matches_roll_stencil(P_NL, np.asfortranarray(big))
    assert_matches_roll_stencil(P_NL, big.tolist())
    assert_matches_roll_stencil(P_NL, rng.randint(-3, 4, (9, 2)))
    # the (N, 2) view integrate hands to force: negative column stride
    for N in (7, 1600):
        cells = cell_pack(rng.randn(2 * N))
        assert cells.strides[1] < 0
        assert_matches_roll_stencil(P_NL, cells)


def test_force_alternating_chains_and_sizes():
    """Calls that alternate two chains and two sizes each get their own
    chain's force at their own size: the kernel of the last (chain, N)
    is reused only for that chain and size."""
    q = make_params(v1=(1.0, -0.1, 0.3), v2=(3.0, 0.2, -0.1),
                    w1=(0.5, 0.1, 0.0), w2=(2.0, 0.3, 0.2))
    rng = np.random.RandomState(31)
    cases = [(p, cell_pack(rng.randn(2 * N))) for N in (8, 12) for p in (P_NL, q)]
    want = [roll_force(p, pos) for p, pos in cases]
    for _ in range(3):
        for (p, pos), w in zip(cases, want):
            assert np.array_equal(force(p, pos), w)
            assert np.array_equal(force(replace(p), pos), w)  # an equal chain


def _layouts(rng, N):
    """(N, 2) cells of random data in the layouts force meets."""
    big = rng.randn(2 * N, 2)
    yield rng.randn(N, 2)
    yield big[::2]
    yield np.asfortranarray(big[:N])
    yield cell_pack(rng.randn(2 * N))  # integrate's view: negative column stride


@pytest.mark.parametrize("N", [0, 1, 2, 3, 400])
@pytest.mark.parametrize("cubic", [True, False])
def test_force_matches_roll_stencil_random_chains(N, cubic):
    # roll_stencil takes x*x*(k2 + k3*x) per bond; the bracket
    # d*(k1 + k2*sigma + k3*(sigma^2 - q)) stays within 1e-15 of the
    # magnitudes of its terms, also at ten times the amplitude, where the
    # cubic term dominates and sigma^2 - q may cancel
    rng = np.random.RandomState(20 + N)
    for _ in range(10):
        p = random_valid_params(rng, nonlinear=True)
        if not cubic:
            p = ChainParams(*(PotentialCoeffs(c.k1, c.k2) for c in (p.V1, p.V2, p.W1, p.W2)))
        for pos in _layouts(rng, N):
            assert_matches_roll_stencil(p, pos)
            assert_matches_roll_stencil(p, 10.0 * pos)


def test_force_is_negative_hamiltonian_gradient():
    """With mass-consistent bonds (mu*V2' = V1', mu = v11/v21), force rows
    are -dH/du_{j,1} and -(1/mu)*dH/du_{j,2}; checked by central differences."""
    rng = np.random.RandomState(12)
    h = 1e-6
    for _ in range(10):
        q = random_valid_params(rng, nonlinear=True)
        mu = q.V1.k1 / q.V2.k1
        p = replace(q, V2=PotentialCoeffs(q.V2.k1, q.V1.k2 / mu, q.V1.k3 / mu))
        pos = 0.5 * rng.randn(6, 2)
        grad = np.empty_like(pos)
        for idx in np.ndindex(*pos.shape):
            up, dn = pos.copy(), pos.copy()
            up[idx] += h
            dn[idx] -= h
            grad[idx] = (hamiltonian_energy(LatticeState(up, np.zeros_like(up)), p)
                         - hamiltonian_energy(LatticeState(dn, np.zeros_like(dn)), p)) / (2 * h)
        f = force(p, pos)
        np.testing.assert_allclose(f[:, 0], -grad[:, 0], rtol=0, atol=1e-7)
        np.testing.assert_allclose(f[:, 1], -grad[:, 1] / mu, rtol=0, atol=1e-7)


# wavenumber indices on a 16-cell ring: theta = 0, pi/2, pi and a generic 3pi/8
PRODUCT_RING = 16
PRODUCT_KS = (0, 4, 8, 3)


@pytest.mark.parametrize("ka", PRODUCT_KS)
@pytest.mark.parametrize("kc", PRODUCT_KS)
def test_carrier_product_force_is_the_lattice_bilinear_force(ka, kc):
    """The stencil against model.force itself: on a k3 = 0 chain the
    bilinear part M(u + v) - M(u) - M(v) of two real carriers
    u = 2Re(a e^{i theta_a j}) and v = 2Re(c e^{i theta_c j}) (L cancels),
    projected by a DFT on every wavenumber, is 2B(a^s, c^t) summed over the
    signs s, t whose wavenumber s*theta_a + t*theta_c is that bin, with
    a^- = conj(a) at -theta_a.  So the bins theta_a +- theta_c carry the
    mixed and conjugate products, and v = u the self and mean products.
    At theta = 0 or pi a real carrier's two halves share one bin, and the
    sum takes both.  At theta_a = theta_c = 0 every stretch product
    r_a r_c - l_a l_c vanishes identically, so only the on-site terms are
    checked there."""
    rng = np.random.default_rng(100 * ka + kc)
    k2 = rng.uniform(-0.5, 0.5, 4)
    p = make_params(v1=(1.0, k2[0], 0.0), v2=(2.0, k2[1], 0.0),
                    w1=(1.0, k2[2], 0.0), w2=(1.0, k2[3], 0.0))
    N, j = PRODUCT_RING, np.arange(PRODUCT_RING)
    a, c = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    carriers = [(a, ka)] + ([(c, kc)] if kc != ka else [(a, ka)])  # v = u on the diagonal
    u, v = (2.0 * np.real(np.outer(np.exp(2j * np.pi * k * j / N), x)) for x, k in carriers)
    bilinear = force(p, u + v) - force(p, u) - force(p, v)
    measured = np.fft.fft(bilinear, axis=0) / N

    expected = np.zeros((N, 2), dtype=complex)
    (x, kx), (y, ky) = carriers
    for s in (1, -1):
        for t in (1, -1):
            xs, ys = (x if s > 0 else np.conj(x)), (y if t > 0 else np.conj(y))
            expected[(s * kx + t * ky) % N] += 2.0 * carrier_product_force(
                p, xs, s * 2 * np.pi * kx / N, ys, t * 2 * np.pi * ky / N)
    assert np.abs(expected).max() > 1e-3
    # the tolerance is the rounding of the forces whose linear parts cancel
    scale = np.abs(force(p, u + v)).max()
    np.testing.assert_allclose(measured, expected, rtol=0, atol=1e-13 * scale)


def _selftest_mutation():
    """perfbench/selftest.py's MUTATION pair (text, mutant text), read from
    its source without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench/selftest.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["MUTATION"])


def test_benchmark_mutation_anchor_reaches_both_force_paths(monkeypatch):
    """The benchmark's selftest patches one text of model.py, the on-site
    x*x*(k2 + k3*x) of _fnl, to show that its gates catch a 1 % larger k2.
    That text occurs once, and force on a Rings prefix and on one ring
    both go through _fnl, so a kernel that inlines or drops it fails
    here."""
    anchor, _ = _selftest_mutation()
    assert Path(model.__file__).read_text().count(anchor) == 1
    assert inspect.getsource(model._fnl).count(anchor) == 1
    rng = np.random.RandomState(32)
    cells = [rng.randn(6, 2), rng.randn(4, 2)]
    rings = Rings((P_NL, P_NL), [len(c) for c in cells])
    y = np.zeros(rings.size)
    for c, atoms in zip(cells, rings.atoms):
        y[atoms] = cell_unpack(c)

    def forces():
        f = force(rings, y)
        return [f[atoms] for atoms in rings.atoms] + [force(P_NL, cells[0])]

    before = forces()
    fnl = model._fnl
    monkeypatch.setattr(model, "_fnl", lambda c, x: fnl(replace(c, k2=1.01 * c.k2), x))
    for a, b in zip(forces(), before):
        assert not np.array_equal(a, b)
