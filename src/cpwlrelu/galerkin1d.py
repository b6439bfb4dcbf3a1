"""1D variational solver with free-knot piecewise-linear trial functions.

Solves ``-u'' = f`` on [0, 1] with zero boundary values by minimizing the
energy ``E(v) = 1/2 |v'|^2 - (f, v)`` over continuous piecewise-linear
functions.  A trial function is parameterized by its interior knots
``t_1 < ... < t_N`` and per-cell slopes ``theta_1 .. theta_(N+1)``; for
fixed knots the optimal slopes come from the standard linear finite
element solve, and the knots then move along the (exact, fixed-slope)
energy gradient with an Armijo backtracking line search.  Because the
slopes are re-solved after every knot move, the full energy decreases
monotonically.

The optimized state converts to a one-hidden-layer ReLU network with one
unit per knot (`state_to_network`), which is the bridge to the network
compilation half of the package.

Also included: the benchmark problem (a Gaussian bump profile), a plain
adaptive mesh refinement loop (`solve_afem`) used both for comparison and
to initialize the knot optimization, and the error/energy reporting used
by the command-line ``report`` command.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.integrate import quad
from scipy.linalg import solve_banded

from .errors import KnotOrderViolated, TargetUnreachable
from .relu_net import ReluNetwork

logger = logging.getLogger(__name__)

#: Gauss-Legendre points per cell for every integral the solvers take.
QUAD_ORDER = 5
#: Armijo sufficient-decrease constant of the knot line search.
ARMIJO_C = 1e-4
#: The knot optimization has converged once the gradient's max-abs is below this.
GRAD_TOL = 1e-10
#: A knot step that pushes two knots closer than this is rejected; being
#: positive, it keeps every accepted step strictly increasing, so the solver
#: checks its knots only once.
GAP_FLOOR = 1e-6
#: The line search has stalled once its step falls below this.
ETA_MIN = 1e-14
#: Share of the total error indicator that one adaptive pass marks.
AFEM_THETA = 0.5


# ---------------------------------------------------------------------------
# Problem definition
# ---------------------------------------------------------------------------


@dataclass
class Bvp1dProblem:
    """The boundary value problem ``-u'' = f`` on [0, 1], ``u(0)=u(1)=0``.

    Attributes:
        u: Exact solution (vectorized callable).
        du: Its derivative.
        f: Right-hand side (vectorized callable).
        name: Label used in reports.
    """

    u: callable
    du: callable
    f: callable
    name: str = "custom"
    _seminorm_sq: float | None = field(default=None, init=False, repr=False)

    @classmethod
    def standard(cls, K: float = 0.01) -> "Bvp1dProblem":
        """The benchmark problem: ``u = x (exp(-(x-1/3)^2/K) - exp(-4/(9K)))``.

        ``u`` vanishes at both endpoints exactly (``(1 - 1/3)^2 = 4/9``) and
        has a sharp feature near ``x = 1/3`` for small ``K``.
        """
        C = math.exp(-4.0 / (9.0 * K))

        def u(x):
            x = np.asarray(x, dtype=float)
            s = x - 1.0 / 3.0
            return x * (np.exp(-s * s / K) - C)

        def du(x):
            x = np.asarray(x, dtype=float)
            s = x - 1.0 / 3.0
            E = np.exp(-s * s / K)
            return (E - C) + x * E * (-2.0 * s / K)

        def f(x):
            x = np.asarray(x, dtype=float)
            s = x - 1.0 / 3.0
            E = np.exp(-s * s / K)
            return E * (4.0 * s / K + x * (2.0 / K - 4.0 * s * s / (K * K)))

        return cls(u=u, du=du, f=f, name=f"bump(K={K})")

    def seminorm_sq(self) -> float:
        """``int_0^1 u'(x)^2 dx`` by adaptive quadrature (cached)."""
        if self._seminorm_sq is None:
            val, _ = quad(lambda x: float(self.du(x)) ** 2, 0.0, 1.0, limit=200)
            self._seminorm_sq = float(val)
        return self._seminorm_sq


@dataclass
class SolverConfig:
    """Knot-optimization settings.  The line search's other constants are
    the module's ``ARMIJO_C``, ``GRAD_TOL``, ``GAP_FLOOR``, ``ETA_MIN`` and
    ``QUAD_ORDER``.

    Attributes:
        N: Total number of knots including the two endpoints (the uniform
            grid with ``N`` knots has spacing ``1/(N-1)``).
        eta: Initial line-search step.
        max_iter: Maximum knot-update iterations.
    """

    N: int
    eta: float = 0.5
    max_iter: int = 200


@dataclass
class Bvp1dState:
    """A free-knot trial function together with its quality numbers.

    Attributes:
        t: All knots including endpoints, shape ``(N+2,)``, ascending,
            ``t[0] = 0`` and ``t[-1] = 1``.
        theta: Per-cell slopes, shape ``(N+1,)``; ``theta[i]`` is the slope
            on ``[t[i], t[i+1]]``.
        energy: ``E(u_h)`` for this state.
        h1_error: ``|u_h - u|`` in the H1 seminorm.
        trace: Per-iteration records from the solver that produced it.
        converged: Gradient tolerance was reached.
        stalled: The line search could not find an acceptable step.
    """

    t: NDArray[np.float64]
    theta: NDArray[np.float64]
    energy: float
    h1_error: float
    trace: list[dict] = field(default_factory=list)
    converged: bool = False
    stalled: bool = False


def _check_knots(t: NDArray[np.float64]) -> NDArray[np.float64]:
    """``t`` as a float array, once checked to be ``0 = t_0 < ... < t_n = 1``."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.shape[0] < 2:
        raise KnotOrderViolated("need at least the two endpoint knots")
    if abs(t[0]) > 1e-14 or abs(t[-1] - 1.0) > 1e-14:
        raise KnotOrderViolated("knots must start at 0 and end at 1")
    if np.any(np.diff(t) <= 0):
        raise KnotOrderViolated("knots must be strictly increasing")
    return t


def _knots_checked(kernel):
    """The public form of ``kernel(problem, t, ...)``: it checks the knots
    ``t`` first.  Loops whose knots stay ordered by construction call the
    kernel itself, kept as ``.unchecked``."""

    @functools.wraps(kernel)
    def public(problem, t, *args, **kwargs):
        return kernel(problem, _check_knots(t), *args, **kwargs)

    public.unchecked = kernel
    return public


@functools.lru_cache(maxsize=8)
def _gauss_rule(order: int) -> tuple[NDArray, NDArray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    Every caller shares the cached arrays, so they are read-only.
    """
    gx, gw = np.polynomial.legendre.leggauss(order)
    gx.flags.writeable = False
    gw.flags.writeable = False
    return gx, gw


def _gauss_cells(t: NDArray, order: int) -> tuple[NDArray, NDArray]:
    """Gauss-Legendre nodes/weights mapped to every cell of the grid ``t``.

    Returns arrays of shape ``(cells, order)``.
    """
    gx, gw = _gauss_rule(order)
    a = t[:-1][:, None]
    b = t[1:][:, None]
    X = 0.5 * (b - a) * gx[None, :] + 0.5 * (a + b)
    W = 0.5 * (b - a) * gw[None, :]
    return X, W


# ---------------------------------------------------------------------------
# Energy, gradient, fixed-grid solve, error
# ---------------------------------------------------------------------------


def nodal_values(t: NDArray, theta: NDArray) -> NDArray:
    """Trial function values at the knots (starts at 0 by construction)."""
    return np.concatenate([[0.0], np.cumsum(theta * np.diff(t))])


def eval_state(t: NDArray, theta: NDArray, x: NDArray) -> NDArray:
    """Evaluates the piecewise-linear trial function at points ``x``."""
    v = nodal_values(t, theta)
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(theta) - 1)
    return v[idx] + theta[idx] * (x - t[idx])


@_knots_checked
def energy(
    problem: Bvp1dProblem, t: NDArray, theta: NDArray, quad_order: int = QUAD_ORDER
) -> float:
    """``E(u_h) = 1/2 int (u_h')^2 - int f u_h`` by per-cell Gauss rules."""
    theta = np.asarray(theta, dtype=float)
    h = np.diff(t)
    stiff = 0.5 * float(np.sum(theta**2 * h))
    X, W = _gauss_cells(t, quad_order)
    v = nodal_values(t, theta)
    U = v[:-1][:, None] + theta[:, None] * (X - t[:-1][:, None])
    load = float(np.sum(W * problem.f(X) * U))
    return stiff - load


@_knots_checked
def grad_knots(
    problem: Bvp1dProblem, t: NDArray, theta: NDArray, quad_order: int = QUAD_ORDER
) -> NDArray:
    """Exact fixed-slope energy gradient with respect to the interior knots.

    For interior knot ``j``:
    ``dE/dt_j = (theta_j^2 - theta_(j+1)^2)/2
    + (theta_(j+1) - theta_j) * int_(t_j)^1 f``.
    Endpoint entries are zero.  Valid for any slope vector, not just the
    fixed-grid optimum (which is what the finite-difference test checks).
    """
    theta = np.asarray(theta, dtype=float)
    X, W = _gauss_cells(t, quad_order)
    F_cell = np.sum(W * problem.f(X), axis=1)
    total = float(np.sum(F_cell))
    tails = total - np.cumsum(F_cell)  # tails[i] = int_{t_(i+1)}^1 f
    # float_power squares through libm pow, as a float64 scalar ``**`` does;
    # ``theta ** 2`` takes NumPy's x*x fast path, which differs in the last
    # bit on about 0.1% of inputs and would move the optimized knots.
    sq = np.float_power(theta, 2)
    g = np.zeros_like(t)
    g[1:-1] = 0.5 * (sq[:-1] - sq[1:]) + (theta[1:] - theta[:-1]) * tails[:-1]
    return g


@_knots_checked
def solve_fem_on_grid(
    problem: Bvp1dProblem, t: NDArray, quad_order: int = QUAD_ORDER
) -> NDArray:
    """Optimal slopes: standard P1 finite element solve on the grid ``t``.

    Assembles the tridiagonal stiffness system for the interior nodal
    values and converts them to per-cell slopes.

    Returns:
        Slope vector of shape ``(len(t) - 1,)``.
    """
    h = np.diff(t)
    N = len(t) - 2
    if N == 0:
        return np.zeros(1)
    X, W = _gauss_cells(t, quad_order)
    fX = problem.f(X)
    # Per-cell load split onto the cell's two nodal hat functions.
    lam_right = (X - t[:-1][:, None]) / h[:, None]  # weight of node i+1 on cell i
    load_right = np.sum(W * fX * lam_right, axis=1)
    load_left = np.sum(W * fX * (1.0 - lam_right), axis=1)
    b = load_right[:-1] + load_left[1:]
    ab = np.zeros((3, N))
    ab[1] = 1.0 / h[:-1] + 1.0 / h[1:]
    ab[0, 1:] = -1.0 / h[1:-1]
    ab[2, :-1] = -1.0 / h[1:-1]
    v_int = solve_banded((1, 1), ab, b)
    v = np.concatenate([[0.0], v_int, [0.0]])
    return np.diff(v) / h


@_knots_checked
def h1_error(
    problem: Bvp1dProblem, t: NDArray, theta: NDArray, quad_order: int = QUAD_ORDER
) -> float:
    """H1-seminorm error ``(int (u_h' - u')^2)^(1/2)`` by per-cell Gauss."""
    X, W = _gauss_cells(t, quad_order)
    diff = np.asarray(theta)[:, None] - problem.du(X)
    return float(np.sqrt(np.sum(W * diff * diff)))


def make_state(
    problem: Bvp1dProblem, t: NDArray, theta: NDArray | None = None, quad_order: int = QUAD_ORDER
) -> Bvp1dState:
    """Bundles a grid (and optionally slopes) into an evaluated state."""
    t = _check_knots(t)
    if theta is None:
        theta = solve_fem_on_grid.unchecked(problem, t, quad_order)
    return Bvp1dState(
        t=t,
        theta=np.asarray(theta, dtype=float),
        energy=energy.unchecked(problem, t, theta, quad_order),
        h1_error=h1_error.unchecked(problem, t, theta, quad_order),
    )


# ---------------------------------------------------------------------------
# Adaptive refinement (comparison method and knot initializer)
# ---------------------------------------------------------------------------


def solve_afem(problem: Bvp1dProblem, N: int) -> NDArray:
    """Adaptive bisection refinement until exactly ``N`` knots in total.

    Starts from a uniform grid with 5 knots.  Each pass solves the
    fixed-grid problem, computes per-cell H1 error indicators against the
    exact solution, marks a minimal set of cells holding an ``AFEM_THETA``
    share of the total indicator (largest first), and bisects them.  The
    final pass marks only as many cells as still fit the target.

    Returns:
        The knot vector (ascending, with endpoints), length ``N``.

    Raises:
        TargetUnreachable: If ``N < 5``.
    """
    if N < 5:
        raise TargetUnreachable("adaptive refinement starts from 5 knots")
    target_N = N - 2
    t = np.linspace(0.0, 1.0, 5)
    while len(t) - 2 < target_N:
        theta = solve_fem_on_grid.unchecked(problem, t)
        X, W = _gauss_cells(t, QUAD_ORDER)
        diff = theta[:, None] - problem.du(X)
        eta_cells = np.sum(W * diff * diff, axis=1)
        order = np.argsort(eta_cells)[::-1]
        csum = np.cumsum(eta_cells[order])
        mark = int(np.searchsorted(csum, AFEM_THETA * csum[-1])) + 1
        room = target_N - (len(t) - 2)
        mark = min(mark, room)
        mids = 0.5 * (t[order[:mark]] + t[order[:mark] + 1])
        t = np.sort(np.concatenate([t, mids]))
    return t


# ---------------------------------------------------------------------------
# Knot optimization (slopes re-solved each step)
# ---------------------------------------------------------------------------


def solve_algorithm1(
    problem: Bvp1dProblem,
    config: SolverConfig,
    t_init: NDArray | str = "afem",
) -> Bvp1dState:
    """Alternates fixed-grid solves with gradient knot moves.

    Each iteration: solve for the optimal slopes on the current knots,
    compute the fixed-slope knot gradient, and backtrack from
    ``config.eta`` until the fixed-slope energy decreases sufficiently
    (Armijo) while knots stay ordered with gaps above ``GAP_FLOOR``.
    Re-solving the slopes afterwards can only decrease the energy further,
    so the full energy is monotone.

    Args:
        problem: The boundary value problem.
        config: Solver settings.
        t_init: Initial knots: an explicit vector, ``"afem"`` (adaptive
            refinement with ``config.N`` knots — the default, which makes
            the optimized energy start at most at the adaptive grid's), or
            ``"uniform"``.

    Returns:
        The final state with the full iteration trace.

    Raises:
        KnotOrderViolated: If the initial knots are not ``0 = t_0 < ... <
            t_n = 1``.  They are checked once: every accepted step keeps
            the gaps above ``GAP_FLOOR > 0`` and the endpoints fixed.
    """
    if isinstance(t_init, str):
        if t_init == "afem":
            t = solve_afem(problem, config.N)
        elif t_init == "uniform":
            t = np.linspace(0.0, 1.0, config.N)
        else:
            raise ValueError(f"unknown initializer {t_init!r}")
    else:
        t = np.array(t_init, dtype=float)
    t = _check_knots(t)
    trace: list[dict] = []
    converged = False
    stalled = False
    theta = solve_fem_on_grid.unchecked(problem, t)
    for it in range(config.max_iter):
        E0 = energy.unchecked(problem, t, theta)
        g = grad_knots.unchecked(problem, t, theta)
        gnorm = float(np.max(np.abs(g)))
        trace.append(
            {
                "iter": it,
                "energy": E0,
                "h1_error": h1_error.unchecked(problem, t, theta),
                "grad_norm": gnorm,
            }
        )
        if gnorm < GRAD_TOL:
            converged = True
            break
        gsq = float(np.sum(g * g))
        eta = config.eta
        while eta >= ETA_MIN:
            t_try = t - eta * g
            if not np.any(np.diff(t_try) < GAP_FLOOR) and (
                energy.unchecked(problem, t_try, theta) <= E0 - ARMIJO_C * eta * gsq
            ):
                break
            eta *= 0.5
        else:
            stalled = True
            logger.warning("line search stalled at iteration %d", it)
            break
        trace[-1]["eta"] = eta
        t = t_try
        theta = solve_fem_on_grid.unchecked(problem, t)
    state = make_state(problem, t, theta)
    state.trace = trace
    state.converged = converged
    state.stalled = stalled
    return state


# ---------------------------------------------------------------------------
# Conversion to a ReLU network and reporting
# ---------------------------------------------------------------------------


def state_to_network(state: Bvp1dState) -> ReluNetwork:
    """One-hidden-layer network computing the trial function on [0, 1].

    Unit ``i`` is ``relu(x - t_i)`` for ``i = 0 .. N``; output weights are
    the slope jumps ``theta_(i+1) - theta_i`` (with ``theta_0 = 0``).  The
    final knot carries no unit: the function ends at value 0 by the
    zero-mean slope constraint of the solve.
    """
    t = state.t
    theta = state.theta
    W0 = np.ones((len(t) - 1, 1))
    b0 = -t[:-1].copy()
    wout = np.diff(np.concatenate([[0.0], theta]))[None, :]
    return ReluNetwork(1, [(W0, b0), (wout, np.zeros(1))])


def report_table(problem: Bvp1dProblem, Ns: list[int]) -> list[dict]:
    """H1 errors and energies for uniform / adaptive / optimized-knot runs.

    For each ``N`` (total number of knots including endpoints): the uniform
    grid with ``h = 1/(N-1)``, the adaptive grid with the same knot count,
    and the knot-optimized solution initialized from that adaptive grid.

    Returns:
        One dict per ``N`` with keys ``N``, ``err_uniform``, ``err_afem``,
        ``err_opt``, ``energy_uniform``, ``energy_afem``, ``energy_opt``.
    """
    rows = []
    for N in Ns:
        st_u = make_state(problem, np.linspace(0.0, 1.0, N))
        t_a = solve_afem(problem, N)
        st_a = make_state(problem, t_a)
        st_o = solve_algorithm1(problem, SolverConfig(N=N), t_init=t_a)
        rows.append(
            {
                "N": N,
                "err_uniform": st_u.h1_error,
                "err_afem": st_a.h1_error,
                "err_opt": st_o.h1_error,
                "energy_uniform": st_u.energy,
                "energy_afem": st_a.energy,
                "energy_opt": st_o.energy,
            }
        )
        logger.info(
            "N=%d: err %.4f/%.4f/%.4f energy %.4f/%.4f/%.4f",
            N, st_u.h1_error, st_a.h1_error, st_o.h1_error,
            st_u.energy, st_a.energy, st_o.energy,
        )
    return rows
