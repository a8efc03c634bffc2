"""Objective functions with neighborhood-local gradients.

Provides the two experiment families (diagonal quadratics with a
controlled condition number, and binary logistic regression), the
primal penalty and dual ascent consensus formulations built on top of
them, optimum oracles, and the average consensus-error metric.

All randomness goes through numpy's PCG64 (``np.random.default_rng``),
drawn node-major, so instances are bit-reproducible from their seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .netgraph import Graph

__all__ = [
    "QuadraticInstance",
    "LogisticInstance",
    "DistributedObjective",
    "make_quadratic",
    "make_logistic",
    "solve_consensus_optimum",
    "consensus_error",
]


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticInstance:
    """Per-node quadratics f_i(x) = 1/2 x'diag(a_i)x + b_i'x.

    ``a`` and ``b`` are (n, p); all a entries must be nonnegative and each
    node's diagonal strictly positive for strong convexity (tests construct
    degenerate convex-only variants on purpose).
    """

    a: np.ndarray
    b: np.ndarray
    eta: float
    seed: int

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.a.shape[1]

    def local_grad(self, i, x_i: np.ndarray) -> np.ndarray:
        """Gradient of f_i at x_i; ``i`` may be an index array or ``...``."""
        return self.a[i] * x_i + self.b[i]

    def grad_all(self, x: np.ndarray) -> np.ndarray:
        return self.local_grad(..., x)


def _exponent_grid(eta: float) -> list:
    """Integer exponent steps 0..eta/2 plus the fractional endpoint."""
    kmax = int(np.floor(eta / 2.0))
    grid = [float(k) for k in range(kmax + 1)]
    if eta / 2.0 != kmax:
        grid.append(eta / 2.0)
    return grid


def make_quadratic(n: int, p: int, eta: float, seed: int) -> QuadraticInstance:
    """Random quadratic instance with condition number 10^eta.

    First p/2 diagonal entries are drawn from {10^0, ..., 10^{eta/2}} and
    the last p/2 from {10^0, ..., 10^{-eta/2}}, so the aggregate sum of the
    A_i has eigenvalues inside [n 10^{-eta/2}, n 10^{eta/2}]. b entries are
    uniform on [0, 1].
    """
    if p % 2 != 0:
        raise ValueError(f"dimension p must be even, got {p}")
    if not np.isfinite(eta):
        raise ValueError(f"condition parameter eta must be finite, got {eta}")
    if eta < 0:
        raise ValueError(f"condition parameter eta must be nonnegative, got {eta}")
    rng = np.random.default_rng(seed)
    grid = np.asarray(_exponent_grid(eta))
    a = np.empty((n, p))
    a[:, : p // 2] = 10.0 ** rng.choice(grid, size=(n, p // 2))
    a[:, p // 2 :] = 10.0 ** (-rng.choice(grid, size=(n, p // 2)))
    b = rng.uniform(0.0, 1.0, size=(n, p))
    return QuadraticInstance(a=a, b=b, eta=float(eta), seed=seed)


@dataclass(frozen=True)
class LogisticInstance:
    """Per-node binary logistic regression samples.

    f_i(x) = lam ||x||^2 / (2n) + sum_l log(1 + exp(-v_il u_il'x)); the
    global regularizer lam ||x||^2 / 2 is split evenly across nodes so the
    consensus aggregate matches the usual regularized objective.
    """

    features: np.ndarray  # (n, q, p)
    labels: np.ndarray  # (n, q) in {-1, +1}
    lam: float
    mu: float
    sigma_pos: float
    sigma_neg: float
    seed: int

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def q(self) -> int:
        return self.features.shape[1]

    @property
    def p(self) -> int:
        return self.features.shape[2]

    @cached_property
    def signed(self) -> np.ndarray:
        """(n, q, p) label-signed features v_il u_il, exact as v_il = +-1."""
        return self.features * self.labels[..., None]

    def local_grad(self, i, x_i: np.ndarray) -> np.ndarray:
        """Gradient of f_i at x_i; with an index array or ``...`` (every
        node), one row per node."""
        w = self.signed[i]
        s = _sigmoid(-np.einsum("...qp,...p->...q", w, x_i))
        return self.lam * x_i / self.n - np.einsum("...q,...qp->...p", s, w)

    def grad_all(self, x: np.ndarray) -> np.ndarray:
        return self.local_grad(..., x)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) in one pass: with e = exp(-|z|), 1 / (1 + e) where
    z >= 0 and e / (1 + e) elsewhere, so no exp overflows. min(z, -z) is
    -|z| that keeps a NaN's sign."""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def make_logistic(
    n: int,
    p: int,
    q: int,
    lam: float,
    mu: float,
    sigma_pos: float,
    sigma_neg: float,
    seed: int,
) -> LogisticInstance:
    """Gaussian class-conditional logistic data, balanced labels per node.

    Each node receives ceil(q/2) positive samples ~ N(mu*1, sigma_pos^2 I)
    and floor(q/2) negative samples ~ N(-mu*1, sigma_neg^2 I), drawn as
    ``rng.normal`` draws them, loc + scale * z, node by node.
    """
    if q <= 0:
        raise ValueError(f"samples per node must be positive, got {q}")
    for name, val in (("lam", lam), ("mu", mu), ("sigma_pos", sigma_pos),
                      ("sigma_neg", sigma_neg)):
        if not np.isfinite(val):
            raise ValueError(f"{name} must be finite, got {val}")
    if lam < 0:
        raise ValueError(f"regularizer must be nonnegative, got {lam}")
    if np.signbit(sigma_pos) or np.signbit(sigma_neg):
        raise ValueError("class deviations must be nonnegative, got "
                         f"{sigma_pos} and {sigma_neg}")
    rng = np.random.default_rng(seed)
    qpos = (q + 1) // 2
    features = rng.standard_normal((n, q, p))
    features[:, :qpos] *= sigma_pos
    features[:, :qpos] += mu
    features[:, qpos:] *= sigma_neg
    features[:, qpos:] += -mu
    labels = np.empty((n, q))
    labels[:, :qpos] = 1.0
    labels[:, qpos:] = -1.0
    return LogisticInstance(
        features=features,
        labels=labels,
        lam=float(lam),
        mu=float(mu),
        sigma_pos=float(sigma_pos),
        sigma_neg=float(sigma_neg),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# distributed objective (primal penalty / dual ascent)
# ---------------------------------------------------------------------------


class DistributedObjective:
    """Consensus problem with a neighborhood-local gradient structure.

    Primal mode minimizes the scaled penalty objective

        F(x) = alpha * sum_i f_i(x_i) + 1/2 x'(I - Z)x,

    whose i-th gradient block is alpha * grad f_i(x_i)
    + sum_{j in n_i} w_ij (x_i - x_j); this is alpha times the penalty
    gradient of the 1/(2 alpha) formulation and is the only scaling under
    which the standard constant stepsizes for DGD and quasi-Newton DGD are
    stable.

    Dual mode minimizes F(nu) = -psi(nu), the negative dual function of the
    consensus-constrained problem; gradients are evaluated through the
    closed-form Lagrangian minimizers (quadratic instances only).
    """

    def __init__(self, instance, graph: Graph, weights, mode: str,
                 alpha: float | None = None):
        if mode not in ("primal", "dual"):
            raise ValueError(f"mode must be 'primal' or 'dual', got {mode!r}")
        if mode == "primal":
            if alpha is None or not 0 < alpha < np.inf:  # NaN too
                raise ValueError("primal mode requires a finite positive penalty "
                                 f"alpha, got {alpha!r}")
        if mode == "dual" and not isinstance(instance, QuadraticInstance):
            raise ValueError("dual mode requires a quadratic instance")
        if weights.shape != (graph.n, graph.n):
            raise ValueError("weight matrix shape does not match graph")
        self.instance = instance
        self.graph = graph
        self.mode = mode
        self.alpha = alpha
        # the one mixing operator: the weights on the layout's slots, as CSR
        # rows; the given array, dense or sparse, may hold nothing else
        lay = graph.layout
        given = sp.csr_array(weights, dtype=float)
        entries = given.tocoo()
        if not np.isfinite(entries.data).all():
            k = np.flatnonzero(~np.isfinite(entries.data))[0]
            raise ValueError(f"weight ({entries.row[k]}, {entries.col[k]}) is not finite")
        self.weights = sp.csr_array((given[lay.rows, lay.cols], lay.cols, lay.indptr),
                                    shape=given.shape)
        stray = (given - self.weights).tocoo()
        if stray.nnz:
            i, j = int(stray.row[0]), int(stray.col[0])
            raise ValueError(f"weight ({i}, {j}) lies outside the closed "
                             f"neighborhood of node {i}")
        self._own_pos = lay.own - lay.indptr[:-1]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def p(self) -> int:
        return self.instance.p

    @cached_property
    def xstar(self) -> np.ndarray:
        """The instance's consensus optimum, solved on first use."""
        return solve_consensus_optimum(self.instance)

    # -- runtime surface: staged evaluation -----------------------------------
    #
    # Stage 1 maps a node's neighborhood view of the iterated variable to its
    # auxiliary block (dual: the Lagrangian minimizer; primal: its own block).
    # Stage 2 maps the auxiliary/variable views to the local gradient of the
    # runtime objective. The synchronous engines evaluate every node at once
    # (*_full); the event simulator evaluates the nodes of an event batch from
    # their dated views (*_block). Both mix neighbors by the one rule
    # sum_j w_ij x_j, added up in ascending neighbor order, so the two forms
    # agree bit for bit and lockstep simulation reproduces the synchronous
    # runtime exactly.

    def _mix_block(self, ids: np.ndarray, view: np.ndarray) -> np.ndarray:
        """sum_j w_ij view_j, slot by slot, as the CSR product sums a row."""
        rows = self.weights.indptr[ids, None] + np.arange(view.shape[1])
        w = self.weights.data.take(rows)
        out = w[:, 0, None] * view[:, 0]
        for k in range(1, view.shape[1]):
            out += w[:, k, None] * view[:, k]
        return out

    def stage1_block(self, ids: np.ndarray, var_view: np.ndarray) -> np.ndarray:
        """Stage 1 of the nodes ``ids`` (one neighborhood size m) from their
        (len(ids), m, p) neighborhood views; one row per node."""
        own = var_view[np.arange(len(ids)), self._own_pos[ids]]
        if self.mode == "primal":
            return own
        slack = own - self._mix_block(ids, var_view)
        return -(self.instance.b[ids] + slack) / self.instance.a[ids]

    def stage2_block(self, ids: np.ndarray, var_view: np.ndarray,
                     aux_view: np.ndarray) -> np.ndarray:
        """Stage 2 of the nodes ``ids`` from views shaped as in stage1_block."""
        own = np.arange(len(ids)), self._own_pos[ids]
        if self.mode == "primal":
            x = var_view[own]
            slack = x - self._mix_block(ids, var_view)
            return self.alpha * self.instance.local_grad(ids, x) + slack
        return -(aux_view[own] - self._mix_block(ids, aux_view))

    def stage1_full(self, var: np.ndarray) -> np.ndarray:
        if self.mode == "primal":
            return var
        slack = var - self.weights @ var
        return -(self.instance.b + slack) / self.instance.a

    def stage2_full(self, var: np.ndarray, aux: np.ndarray) -> np.ndarray:
        if self.mode == "primal":
            return self.alpha * self.instance.grad_all(var) + (var - self.weights @ var)
        return -(aux - self.weights @ aux)

    def runtime_grad(self, var: np.ndarray) -> np.ndarray:
        return self.stage2_full(var, self.stage1_full(var))


# ---------------------------------------------------------------------------
# oracles and metric
# ---------------------------------------------------------------------------


def solve_consensus_optimum(instance) -> np.ndarray:
    """Common minimizer of sum_i f_i over a shared variable.

    Quadratic: closed form -(sum A_i)^{-1} sum b_i (coordinates with zero
    aggregate curvature and zero aggregate slope take the min-norm value 0).
    Logistic: damped Newton to gradient norm <= 1e-12 (requires lam > 0)
    with backtracking; each visited point's margins, sigmoid and value
    are computed once, and an accepted trial point carries its margins
    and value into the next iteration.
    """
    if isinstance(instance, QuadraticInstance):
        sa = instance.a.sum(axis=0)
        sb = instance.b.sum(axis=0)
        out = np.zeros_like(sa)
        pos = sa > 0
        out[pos] = -sb[pos] / sa[pos]
        if np.any(~pos & (sb != 0)):
            raise ValueError("aggregate quadratic is unbounded below")
        return out
    if isinstance(instance, LogisticInstance):
        if instance.lam <= 0:
            raise ValueError("logistic optimum oracle requires lam > 0")
        return _logistic_newton(instance)
    raise TypeError(f"unsupported instance type {type(instance)!r}")


def _logistic_newton(inst: LogisticInstance, tol: float = 1e-12,
                     max_iter: int = 200) -> np.ndarray:
    u = inst.signed.reshape(-1, inst.p)
    lam = inst.lam

    def point(x_):
        """x_ with its margins and its objective value."""
        z_ = -(u @ x_)
        return x_, z_, float(0.5 * lam * x_ @ x_ + np.logaddexp(0.0, z_).sum())

    x, z, fx = point(np.zeros(inst.p))
    for _ in range(max_iter):
        s = _sigmoid(z)
        g = lam * x - s @ u
        if np.linalg.norm(g) <= tol:
            return x
        w = s * (1.0 - s)
        h = lam * np.eye(inst.p) + (u * w[:, None]).T @ u
        step = np.linalg.solve(h, g)
        t = 1.0
        trial = point(x - t * step)
        while trial[2] > fx - 1e-4 * t * (g @ step) and t > 1e-12:
            t *= 0.5
            trial = point(x - t * step)
        # near the optimum the values cannot resolve the decrease; where the
        # search's step leaves x unchanged, take the full Newton step instead
        x, z, fx = point(x - step) if np.array_equal(trial[0], x) else trial
    if not np.linalg.norm(lam * x - _sigmoid(z) @ u) <= tol:  # NaN too
        raise RuntimeError("logistic Newton failed to reach tolerance")
    return x


def consensus_error(x: np.ndarray, xstar: np.ndarray) -> float:
    """Average error (1/n) sum_i ||x_i - xstar||^2 / ||xstar||^2."""
    xstar = np.asarray(xstar, dtype=float)
    denom = float(xstar @ xstar)
    if denom == 0.0:
        raise ValueError("consensus error is undefined for a zero optimum")
    diff = np.asarray(x, dtype=float) - xstar
    return float(np.mean(np.sum(diff * diff, axis=1)) / denom)
