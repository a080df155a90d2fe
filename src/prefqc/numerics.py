"""Numerical primitives shared by the likelihood and EM code.

Hand-rolled on purpose: the digamma evaluation, the trapezoid grid, and the
damped Newton solver are pinned to specific algorithms so their accuracy is
testable against independent oracles, and none of them needs more than a
screenful of code.

The Beta moment solve works on Python floats: its Newton system is 2 x 2,
so it calls `_psi`, the one-float twin of the array `digamma` (the same
recurrence and series), and numpy's per-call overhead on 2- and 3-element
arrays stays out of every EM iteration.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Upward-recurrence threshold for digamma; beyond it the asymptotic series
# truncated at the x^-14 term is accurate to ~1e-13.
_DIGAMMA_SHIFT = 6.0

# Admissible floor for Beta shape parameters (strictly > 1 family).
BETA_SHAPE_FLOOR = 1.0 + 1e-6

# Newton's shape box: above the finite-difference trigamma's step, and below
# where that difference, about 1e-6 / x, sinks under digamma's rounding.
_LOG_SHAPE_MIN = math.log(1e-6)
_LOG_SHAPE_MAX = math.log(1e8)

# A given start is dropped for the fixed-point start once Newton from it has
# taken this many steps, or a step fails to halve the residual. From the
# previous EM iteration's solution, Newton took at most 5 steps on the
# Beta(3, 5) fits of the benchmark, each cutting the residual fivefold or
# more.
_WARM_ITERS = 10
_WARM_GAIN = 0.5

# Newton solves the Beta system once both residuals are at most _BETA_TOL;
# from the fixed-point start it fails after _BETA_MAX_ITERS steps.
_BETA_TOL = 1e-9
_BETA_MAX_ITERS = 200


def _series_tail(u):
    """Bernoulli-number tail of digamma's asymptotic series at u = 1 / x^2.

    Horner form, terms through x^-14. Works on floats and arrays alike.
    """
    return u * (
        1.0 / 12.0
        - u * (
            1.0 / 120.0
            - u * (
                1.0 / 252.0
                - u * (
                    1.0 / 240.0
                    - u * (
                        1.0 / 132.0
                        - u * (691.0 / 32760.0 - u * (1.0 / 12.0))
                    )
                )
            )
        )
    )


def digamma(x):
    """Digamma psi(x) for x > 0, absolute error <= 1e-10.

    Uses the recurrence psi(x) = psi(x+1) - 1/x to push the argument to
    x >= 6, then the asymptotic series
    psi(x) ~ ln x - 1/(2x) - sum_n B_{2n} / (2n x^{2n}).

    Accepts scalars or arrays; returns matching shape.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return arr.copy()
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("digamma requires finite x > 0")
    scalar = arr.ndim == 0
    work = np.atleast_1d(arr).astype(float).copy()
    acc = np.zeros_like(work)
    mask = work < _DIGAMMA_SHIFT
    while mask.any():
        acc[mask] -= 1.0 / work[mask]
        work[mask] += 1.0
        mask = work < _DIGAMMA_SHIFT
    out = acc + np.log(work) - 0.5 / work - _series_tail(1.0 / (work * work))
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _psi(x: float) -> float:
    """`digamma` of one float x > 0, by the same recurrence and series."""
    acc = 0.0
    while x < _DIGAMMA_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    return acc + math.log(x) - 0.5 / x - _series_tail(1.0 / (x * x))


def log_beta(alpha: float, beta: float) -> float:
    """log B(alpha, beta) = lgamma(a) + lgamma(b) - lgamma(a+b), a,b > 0."""
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError("log_beta requires positive arguments")
    return math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)


def log_sum_exp(values, axis: int | None = None):
    """Stable log(sum(exp(values))).

    Max-shifted so large negative magnitudes cannot underflow the result;
    returns -inf exactly when every input is -inf. With `axis` the reduction
    is applied along that axis of an array; an array with no rows gives an
    empty result.
    """
    arr = np.asarray(values, dtype=float)
    if axis is None:
        if arr.size == 0:
            raise ValueError("log_sum_exp of an empty sequence")
        m = float(np.max(arr))
        if not np.isfinite(m):
            # All -inf, or a stray +inf dominates either way.
            return m
        return m + math.log(float(np.sum(np.exp(arr - m))))
    m = np.max(arr, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    # One temporary, exponentiated in place: on an EM-sized matrix a second
    # one raises peak memory and, once the allocator hands it back to the
    # system, costs fresh page faults on every call.
    terms = arr - shift
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore"):
        out = np.squeeze(shift, axis=axis) + np.log(np.sum(terms, axis=axis))
    return out


@dataclass(frozen=True)
class QuadratureGrid:
    """Trapezoid rule on [0, 1]: nodes cover the interval, weights sum to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size < 2:
            raise ValueError("grid needs matching 1-D nodes/weights, >= 2 nodes")
        if nodes[0] != 0.0 or nodes[-1] != 1.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must increase strictly from 0 to 1")
        if np.any(weights <= 0.0) or abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, num_nodes: int = 1025) -> "QuadratureGrid":
        """Uniformly spaced grid; 1025 nodes is the library default."""
        if num_nodes < 2:
            raise ValueError("need at least 2 nodes")
        nodes = np.linspace(0.0, 1.0, num_nodes)
        h = 1.0 / (num_nodes - 1)
        weights = np.full(num_nodes, h)
        weights[0] = weights[-1] = h / 2.0
        return cls(nodes, weights)

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


class SolverError(RuntimeError):
    """Newton solve did not reach tolerance; carries the last iterate."""

    def __init__(self, message: str, alpha: float, beta: float, residuals):
        super().__init__(
            f"{message} (last iterate alpha={alpha:.6g} beta={beta:.6g}, "
            f"residuals={residuals[0]:.3e},{residuals[1]:.3e})"
        )
        self.alpha = alpha
        self.beta = beta
        self.residuals = tuple(residuals)


class BetaSolution(NamedTuple):
    alpha: float
    beta: float
    clamped: bool


def _trigamma_fd(x: float) -> float:
    # Finite-difference trigamma, total step 1e-6; adequate for Newton here.
    h = 5e-7
    return (_psi(x + h) - _psi(x - h)) / (2.0 * h)


def _inv_digamma(y: float) -> float:
    """Inverse of digamma on (0, inf), ~1e-12 accurate."""
    x = math.exp(y) + 0.5 if y >= -2.22 else -1.0 / (y + 0.5772156649015329)
    x = max(x, 1e-6)
    for _ in range(8):
        # keep clear of the FD-trigamma domain edge
        x = max(x - (_psi(x) - y) / _trigamma_fd(x), 1e-6)
    return x


def _residuals(alpha: float, beta: float, rhs1: float, rhs2: float):
    psi_ab = _psi(alpha + beta)
    return _psi(alpha) - psi_ab - rhs1, _psi(beta) - psi_ab - rhs2


def beta_moment_jacobian(alpha: float, beta: float):
    """Jacobian in (alpha, beta) of psi(a) - psi(a+b) and psi(b) - psi(a+b), as rows."""
    ta, tb, tab = _trigamma_fd(alpha), _trigamma_fd(beta), _trigamma_fd(alpha + beta)
    return (ta - tab, -tab), (-tab, tb - tab)


def _solve_coordinate(fixed: float, rhs: float, start: float) -> float:
    """Root of psi(b) - psi(fixed + b) = rhs in b, fixed held constant.

    The left side is strictly increasing in b with range (-inf, 0), so a
    damped Newton from any interior start converges.
    """
    b = max(start, 1e-6)
    for _ in range(100):
        f = _psi(b) - _psi(fixed + b) - rhs
        if abs(f) <= 1e-12:
            break
        step = f / (_trigamma_fd(b) - _trigamma_fd(fixed + b))
        nb = b - step
        while nb < 1e-6:
            step *= 0.5
            nb = b - step
        b = nb
    return b


def _newton(a, b, rhs1, rhs2, max_iters, gain=1.0):
    """Damped Newton in (log a, log b) from (a, b); SolverError if it fails.

    A trial point is accepted only inside the shape box, where digamma and
    its finite-difference derivative resolve, and only if it lowers the
    residual. A step that leaves the residual above `gain` times its last
    value fails the solve.
    """
    r1, r2 = _residuals(a, b, rhs1, rhs2)
    norm = max(abs(r1), abs(r2))
    it = 0
    while norm > _BETA_TOL:
        if it >= max_iters:
            raise SolverError("beta system did not converge", a, b, (r1, r2))
        it += 1
        (j11, j12), (j21, j22) = beta_moment_jacobian(a, b)
        # Jacobian wrt (log a, log b): column scaling by a and b.
        j11, j12, j21, j22 = a * j11, b * j12, a * j21, b * j22
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            raise SolverError("singular Jacobian", a, b, (r1, r2))
        du = -(j22 * r1 - j12 * r2) / det
        dv = -(-j21 * r1 + j11 * r2) / det
        lam = 1.0
        for _ in range(50):
            if _in_shape_box(math.log(a) + lam * du, math.log(b) + lam * dv):
                na = a * math.exp(lam * du)
                nb = b * math.exp(lam * dv)
                n1, n2 = _residuals(na, nb, rhs1, rhs2)
                if max(abs(n1), abs(n2)) < norm:
                    break
            lam *= 0.5
        else:
            raise SolverError("damping stalled", a, b, (r1, r2))
        a, b, r1, r2 = na, nb, n1, n2
        last, norm = norm, max(abs(r1), abs(r2))
        if norm > gain * last:
            raise SolverError("too little progress", a, b, (r1, r2))
    return a, b


def _in_shape_box(*log_shapes: float) -> bool:
    return all(_LOG_SHAPE_MIN < u < _LOG_SHAPE_MAX for u in log_shapes)


def solve_beta_system(
    rhs_log_eta: float,
    rhs_log_1meta: float,
    *,
    start: tuple[float, float] | None = None,
) -> BetaSolution:
    """Solve psi(a) - psi(a+b) = rhs1, psi(b) - psi(a+b) = rhs2 for (a, b).

    The right-hand sides are averages of log eta and log(1-eta) over (0,1),
    hence strictly negative. Newton runs in (log a, log b) with step halving;
    a fixed-point sweep through the inverse digamma supplies the start unless
    `start` gives one (callers iterating nearby systems pass the previous
    solution). A given start from which Newton does not reach the root in
    `_WARM_ITERS` steps, each halving the residual, is far from it: the
    solve then restarts from the fixed-point start. The result is clamped to
    a, b > 1 + 1e-6 (the admissible family); when the clamp binds, the free
    coordinate is re-solved and `clamped` is set.
    """
    if not (rhs_log_eta < 0.0 and rhs_log_1meta < 0.0):
        raise ValueError("both right-hand sides must be strictly negative")

    solved = None
    if start is not None and min(start) > 0.0 and _in_shape_box(*map(math.log, start)):
        a, b = float(start[0]), float(start[1])
        try:
            solved = _newton(a, b, rhs_log_eta, rhs_log_1meta, _WARM_ITERS, _WARM_GAIN)
        except SolverError:
            pass  # too far from the root: restart from the fixed point
    if solved is None:
        # Fixed-point warm start: a <- invpsi(psi(a+b) + rhs).
        a, b = 2.0, 2.0
        for _ in range(12):
            psi_ab = _psi(a + b)
            a = _inv_digamma(psi_ab + rhs_log_eta)
            b = _inv_digamma(psi_ab + rhs_log_1meta)
        solved = _newton(a, b, rhs_log_eta, rhs_log_1meta, _BETA_MAX_ITERS)
    a, b = solved

    clamped = False
    if a < BETA_SHAPE_FLOOR and b < BETA_SHAPE_FLOOR:
        a = b = BETA_SHAPE_FLOOR
        clamped = True
    elif a < BETA_SHAPE_FLOOR:
        a = BETA_SHAPE_FLOOR
        b = max(_solve_coordinate(a, rhs_log_1meta, b), BETA_SHAPE_FLOOR)
        clamped = True
    elif b < BETA_SHAPE_FLOOR:
        b = BETA_SHAPE_FLOOR
        a = max(_solve_coordinate(b, rhs_log_eta, a), BETA_SHAPE_FLOOR)
        clamped = True
    return BetaSolution(float(a), float(b), clamped)
