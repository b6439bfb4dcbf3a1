"""1D variational solver: quadrature, energies, gradients, adaptivity.

Oracles: scipy.integrate.quad for energies and seminorms, central finite
differences for the knot gradient, and the identity relating the H1 error
of a Galerkin state to its energy.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded

import cpwlrelu.galerkin1d as G
from cpwlrelu.errors import KnotOrderViolated, TargetUnreachable
from cpwlrelu.galerkin1d import (
    Bvp1dProblem,
    SolverConfig,
    energy,
    eval_state,
    grad_knots,
    h1_error,
    make_state,
    nodal_values,
    solve_afem,
    solve_algorithm1,
    solve_fem_on_grid,
    state_to_network,
)
from cpwlrelu.relu_net import eval_network


@pytest.fixture(scope="module")
def problem():
    return Bvp1dProblem.standard()


GAP_FLOOR = 1e-3


def _random_state(problem, rng, n_cells=12, quad_order=40):
    """Knots ``0 = t_0 < ... < t_n = 1`` whose every gap exceeds GAP_FLOOR:
    each gap is the floor plus a random share of the length the floors
    leave, so any cell count returns at once."""
    share = rng.uniform(0.05, 1.0, n_cells)
    gaps = GAP_FLOOR + (1.0 - n_cells * GAP_FLOOR) * share / share.sum()
    t = np.concatenate([[0.0], np.cumsum(gaps)[:-1], [1.0]])
    theta = rng.normal(size=n_cells)
    return t, theta


def test_random_state_keeps_the_gap_floor_for_many_cells(problem, rng):
    t, theta = _random_state(problem, rng, n_cells=200)
    assert len(t) == 201 and theta.shape == (200,)
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.min(np.diff(t)) > GAP_FLOOR


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


def test_exact_solution_boundary_and_forcing(problem):
    assert problem.u(0.0) == pytest.approx(0.0, abs=1e-12)
    assert problem.u(1.0) == pytest.approx(0.0, abs=1e-9)
    # f equals -u'' (second central difference)
    for x in (0.21, 0.333, 0.41, 0.7):
        h = 1e-5
        upp = (problem.u(x + h) - 2 * problem.u(x) + problem.u(x - h)) / h**2
        assert problem.f(x) == pytest.approx(-upp, rel=1e-4)
    # du matches a central difference of u
    for x in (0.15, 0.34, 0.8):
        h = 1e-6
        fd = (problem.u(x + h) - problem.u(x - h)) / (2 * h)
        assert problem.du(x) == pytest.approx(fd, rel=1e-6)


def test_seminorm_oracle(problem):
    ref, _ = quad(lambda x: problem.du(x) ** 2, 0.0, 1.0, limit=200)
    assert problem.seminorm_sq() == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# State evaluation
# ---------------------------------------------------------------------------


def test_nodal_values_and_eval_oracle():
    t = np.array([0.0, 0.5, 1.0])
    theta = np.array([2.0, -2.0])
    v = nodal_values(t, theta)
    assert np.allclose(v, [0.0, 1.0, 0.0])
    x = np.array([0.25, 0.5, 0.75])
    assert np.allclose(eval_state(t, theta, x), [0.5, 1.0, 0.5])


def test_check_knots_rejects_disorder():
    with pytest.raises(KnotOrderViolated):
        energy(Bvp1dProblem.standard(), np.array([0.0, 0.6, 0.4, 1.0]),
               np.array([1.0, 1.0, 1.0]))


_UNORDERED = np.array([0.0, 0.6, 0.4, 1.0])


@pytest.mark.parametrize("call", [
    lambda p, t: energy(p, t, np.ones(len(t) - 1)),
    lambda p, t: grad_knots(p, t, np.ones(len(t) - 1)),
    lambda p, t: solve_fem_on_grid(p, t),
    lambda p, t: h1_error(p, t, np.ones(len(t) - 1)),
    lambda p, t: make_state(p, t),
    lambda p, t: solve_algorithm1(p, SolverConfig(N=len(t)), t_init=t),
], ids=["energy", "grad_knots", "solve_fem_on_grid", "h1_error", "make_state",
        "solve_algorithm1"])
def test_every_knot_entry_point_checks_its_knots(problem, call):
    """The solver loops call unchecked kernels; each public entry point
    still checks the knots it is given."""
    with pytest.raises(KnotOrderViolated):
        call(problem, _UNORDERED)


def test_energy_quad_oracle(problem):
    t = np.array([0.0, 0.3, 0.7, 1.0])
    theta = np.array([1.0, -0.5, 0.25])

    def u_h(x):
        return float(eval_state(t, theta, np.array([x]))[0])

    load, _ = quad(lambda x: problem.f(x) * u_h(x), 0, 1, limit=400)
    stiff = float(np.sum(theta**2 * np.diff(t)))
    ref = 0.5 * stiff - load
    assert energy(problem, t, theta, quad_order=60) == pytest.approx(ref, rel=1e-9)


def test_h1_error_oracle(problem):
    t = np.linspace(0, 1, 9)
    theta = np.diff([problem.u(x) for x in t]) / np.diff(t)

    def integrand(x):
        j = min(np.searchsorted(t, x, side="right") - 1, len(theta) - 1)
        return (problem.du(x) - theta[j]) ** 2

    ref = np.sqrt(sum(quad(integrand, t[j], t[j + 1], limit=100)[0]
                      for j in range(len(theta))))
    assert h1_error(problem, t, theta, quad_order=60) == pytest.approx(ref, rel=1e-8)


# ---------------------------------------------------------------------------
# Galerkin solve
# ---------------------------------------------------------------------------


def test_fem_minimizes_energy_over_grid(problem, rng):
    t = np.linspace(0, 1, 15)
    theta = solve_fem_on_grid(problem, t)
    e_star = energy(problem, t, theta, quad_order=40)
    for _ in range(10):
        pert = theta + rng.normal(scale=0.05, size=theta.shape)
        assert energy(problem, t, pert, quad_order=40) >= e_star - 1e-12


def test_energy_error_identity(problem):
    """For a Galerkin state: |u - u_h|^2 = |u|^2 + 2 E(u_h)."""
    for N in (9, 17):
        t = np.linspace(0, 1, N)
        theta = solve_fem_on_grid(problem, t)
        lhs = h1_error(problem, t, theta, quad_order=60) ** 2
        rhs = problem.seminorm_sq() + 2.0 * energy(problem, t, theta, quad_order=60)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_uniform_convergence(problem):
    errs = []
    for N in (9, 17, 33):
        t = np.linspace(0, 1, N)
        theta = solve_fem_on_grid(problem, t)
        errs.append(h1_error(problem, t, theta))
    assert errs[0] > errs[1] > errs[2]
    # first-order rate: halving h roughly halves the error
    assert errs[0] / errs[1] > 1.6
    assert errs[1] / errs[2] > 1.6


# ---------------------------------------------------------------------------
# Knot gradient
# ---------------------------------------------------------------------------


def test_grad_matches_central_differences(problem, rng):
    for trial in range(5):
        t, theta = _random_state(problem, rng)
        g = grad_knots(problem, t, theta, quad_order=40)
        assert g[0] == 0.0 and g[-1] == 0.0
        fd = np.zeros_like(g)
        h = 1e-7
        for j in range(1, len(t) - 1):
            tp, tm = t.copy(), t.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (
                energy(problem, tp, theta, quad_order=40)
                - energy(problem, tm, theta, quad_order=40)
            ) / (2 * h)
        denom = max(1.0, np.linalg.norm(fd))
        assert np.linalg.norm(g - fd) / denom < 1e-6


# ---------------------------------------------------------------------------
# Adaptive refinement and knot optimization
# ---------------------------------------------------------------------------


def test_afem_knot_count_and_quality(problem):
    for N in (13, 23):
        t = solve_afem(problem, N)
        assert len(t) == N
        assert t[0] == 0.0 and t[-1] == 1.0
        assert np.all(np.diff(t) > 0)
        theta_a = solve_fem_on_grid(problem, t)
        theta_u = solve_fem_on_grid(problem, np.linspace(0, 1, N))
        assert h1_error(problem, t, theta_a) < h1_error(
            problem, np.linspace(0, 1, N), theta_u
        )


def test_afem_rejects_tiny_targets(problem):
    with pytest.raises(TargetUnreachable):
        solve_afem(problem, 4)


def test_optimizer_monotone_energy(problem):
    cfg = SolverConfig(N=13, max_iter=12)
    state = solve_algorithm1(problem, cfg, t_init="uniform")
    energies = [row["energy"] for row in state.trace]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert state.energy <= energies[0]
    assert len(state.t) == 13


def test_optimizer_beats_its_initialization(problem):
    cfg = SolverConfig(N=17, max_iter=30)
    t0 = np.linspace(0, 1, 17)
    theta0 = solve_fem_on_grid(problem, t0)
    state = solve_algorithm1(problem, cfg, t_init="uniform")
    assert state.energy < energy(problem, t0, theta0) - 1e-6
    assert state.h1_error < h1_error(problem, t0, theta0)


def test_make_state_defaults_to_galerkin(problem):
    t = np.linspace(0, 1, 11)
    state = make_state(problem, t, quad_order=40)
    assert np.allclose(state.theta, solve_fem_on_grid(problem, t, quad_order=40))
    assert state.energy == pytest.approx(
        energy(problem, t, state.theta, quad_order=40), rel=1e-12
    )
    assert state.h1_error == pytest.approx(
        h1_error(problem, t, state.theta, quad_order=40), rel=1e-12
    )


def test_optimizer_converged_exit(problem, monkeypatch):
    """A gradient tolerance above any gradient stops before the first move."""
    monkeypatch.setattr(G, "GRAD_TOL", 1e9)
    state = solve_algorithm1(problem, SolverConfig(N=9))
    assert state.converged and not state.stalled
    assert len(state.trace) == 1
    assert np.array_equal(state.t, solve_afem(problem, 9))


def test_optimizer_keeps_knot_gaps_above_the_floor(problem):
    """Every accepted knot step keeps the knots strictly increasing, with no
    gap below ``GAP_FLOOR``."""
    state = solve_algorithm1(problem, SolverConfig(N=23, max_iter=30), t_init="uniform")
    assert np.all(np.diff(state.t) > 0)
    assert np.diff(state.t).min() >= G.GAP_FLOOR


def test_optimizer_stalled_exit(problem):
    """A first step below ``eta_min`` stalls the line search, and the knots
    stay where the adaptive initialization put them."""
    state = solve_algorithm1(problem, SolverConfig(N=9, eta=1e-20))
    assert state.stalled and not state.converged
    assert np.array_equal(state.t, solve_afem(problem, 9))


def test_solver_rejects_bad_init(problem):
    cfg = SolverConfig(N=9)
    with pytest.raises(KnotOrderViolated):
        solve_algorithm1(problem, cfg, t_init=np.array([0.0, 0.7, 0.3, 1.0] + [0.8] * 5))


# ---------------------------------------------------------------------------
# Vectorized kernels against per-knot loops
# ---------------------------------------------------------------------------


def _gauss_cells_loop(t, order):
    gx, gw = np.polynomial.legendre.leggauss(order)
    a, b = t[:-1][:, None], t[1:][:, None]
    return 0.5 * (b - a) * gx[None, :] + 0.5 * (a + b), 0.5 * (b - a) * gw[None, :]


def _grad_knots_loop(problem, t, theta, quad_order=5):
    X, W = _gauss_cells_loop(t, quad_order)
    F_cell = np.sum(W * problem.f(X), axis=1)
    tails = float(np.sum(F_cell)) - np.cumsum(F_cell)
    g = np.zeros_like(t)
    for j in range(1, len(t) - 1):
        g[j] = 0.5 * (theta[j - 1] ** 2 - theta[j] ** 2) + (
            theta[j] - theta[j - 1]
        ) * tails[j - 1]
    return g


def _solve_fem_on_grid_loop(problem, t, quad_order=5):
    h = np.diff(t)
    N = len(t) - 2
    if N == 0:
        return np.zeros(1)
    X, W = _gauss_cells_loop(t, quad_order)
    fX = problem.f(X)
    lam_right = (X - t[:-1][:, None]) / h[:, None]
    load_right = np.sum(W * fX * lam_right, axis=1)
    load_left = np.sum(W * fX * (1.0 - lam_right), axis=1)
    b = np.zeros(N)
    for j in range(1, N + 1):
        b[j - 1] = load_right[j - 1] + load_left[j]
    ab = np.zeros((3, N))
    ab[1] = 1.0 / h[:-1] + 1.0 / h[1:]
    ab[0, 1:] = -1.0 / h[1:-1]
    ab[2, :-1] = -1.0 / h[1:-1]
    v = np.concatenate([[0.0], solve_banded((1, 1), ab, b), [0.0]])
    return np.diff(v) / h


def test_gauss_rule_is_cached_and_read_only():
    gx, gw = G._gauss_rule(5)
    assert G._gauss_rule(5)[0] is gx
    ref_x, ref_w = np.polynomial.legendre.leggauss(5)
    assert np.array_equal(gx, ref_x) and np.array_equal(gw, ref_w)
    for arr in (gx, gw):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_vectorized_kernels_equal_loops_bit_for_bit(problem, rng):
    for n_cells in (1, 2, 7, 22, 60, 200):
        for order in (5, 9):
            t = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, n_cells - 1)), [1.0]])
            theta = rng.normal(size=n_cells)
            assert np.array_equal(
                grad_knots(problem, t, theta, order),
                _grad_knots_loop(problem, t, theta, order),
            )
            assert np.array_equal(
                solve_fem_on_grid(problem, t, order),
                _solve_fem_on_grid_loop(problem, t, order),
            )


def test_free_knot_solve_unchanged_by_vectorization(problem, monkeypatch):
    state = solve_algorithm1(problem, SolverConfig(N=23))
    # The solver calls the kernels behind the public knot checks.
    monkeypatch.setattr(G.grad_knots, "unchecked", _grad_knots_loop)
    monkeypatch.setattr(G.solve_fem_on_grid, "unchecked", _solve_fem_on_grid_loop)
    ref = solve_algorithm1(problem, SolverConfig(N=23))
    assert np.array_equal(state.t, ref.t)
    assert np.array_equal(state.theta, ref.theta)
    # The energy these per-knot loops reached before vectorization.
    assert state.energy == pytest.approx(-0.7380096784351625, rel=1e-12)


# ---------------------------------------------------------------------------
# Network export
# ---------------------------------------------------------------------------


def test_state_to_network_exact(problem):
    state = solve_algorithm1(problem, SolverConfig(N=9, max_iter=3), t_init="uniform")
    net = state_to_network(state)
    x = np.linspace(0, 1, 501)
    ref = eval_state(state.t, state.theta, x)
    assert np.max(np.abs(eval_network(net, x[:, None]) - ref)) < 1e-12
    assert net.hidden_layer_count == 1
    assert net.layers[0][0].shape[0] == len(state.t) - 1
