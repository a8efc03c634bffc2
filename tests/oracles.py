"""Textbook oracles the tests check the library against.

Objective values (instances, runtime objective, dual function), per-node
operations of ``DistributedObjective`` in their unscaled form, the
unscaled penalty objective, the two-pass sigmoid, the logistic gradient
and instance generator on unsigned features node by node, the logistic
Newton optimum that evaluates each point several times, the consensus weight
conditions, the classical BFGS update, the round kernel's curvature
update in its one-shot stacked form, the sum of a node's descent
contributions and the dense global descent matrix, the time functions and
staleness bound of a clock schedule, each event's read set and the
dependency levels of its batches, a per-message inbox, graph connectivity by breadth-first search,
and random Metropolis problems. The runtimes never call these; they evaluate the
staged, scaled forms and keep their messages in dated logs.
"""

import heapq
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from dbfgs._kernel import SKIP_THRESHOLD
from dbfgs.curvature import CurvatureState
from dbfgs.netgraph import Graph
from dbfgs.objectives import (DistributedObjective, LogisticInstance,
                              QuadraticInstance, make_quadratic)


def value_all(inst, x: np.ndarray) -> float:
    """sum_i f_i(x_i) of a quadratic or logistic instance; x is (n, p)."""
    if isinstance(inst, QuadraticInstance):
        return float(0.5 * np.sum(inst.a * x * x) + np.sum(inst.b * x))
    z = -np.einsum("iqp,ip->iq", inst.features, x) * inst.labels
    loss = np.logaddexp(0.0, z).sum()
    return float(0.5 * inst.lam * np.sum(x * x) / inst.n + loss)


def runtime_value(obj, var: np.ndarray) -> float:
    """Value of the objective the runtimes descend: the scaled penalty
    alpha sum f_i + 1/2 x'(I-Z)x, or the negative dual function."""
    if obj.mode == "primal":
        pen = 0.5 * np.sum(var * (var - obj.weights @ var))
        return float(obj.alpha * value_all(obj.instance, var) + pen)
    return -dual_function_value(obj, var)


def dual_function_value(obj, nu: np.ndarray) -> float:
    """psi(nu) = L(x(nu), nu) for quadratic instances."""
    if obj.mode != "dual":
        raise ValueError("dual function requires dual mode")
    slack_nu = nu - obj.weights @ nu
    x = -(obj.instance.b + slack_nu) / obj.instance.a
    return float(value_all(obj.instance, x) + np.sum(slack_nu * x))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function in two masked branches, one per sign of z."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_grad(inst: LogisticInstance, i, x_i: np.ndarray) -> np.ndarray:
    """``LogisticInstance.local_grad`` from the unsigned features: margins
    and gradient in two einsums, each applying the labels."""
    u, v = inst.features[i], inst.labels[i]
    s = sigmoid(-np.einsum("...qp,...p->...q", u, x_i) * v)
    return inst.lam * x_i / inst.n - np.einsum("...q,...qp->...p", v * s, u)


def make_logistic_by_node(n: int, p: int, q: int, lam: float, mu: float,
                          sigma_pos: float, sigma_neg: float,
                          seed: int) -> LogisticInstance:
    """``make_logistic`` with two ``rng.normal`` draws per node, positive
    samples first."""
    rng = np.random.default_rng(seed)
    qpos = (q + 1) // 2
    features = np.empty((n, q, p))
    labels = np.empty((n, q))
    for i in range(n):
        features[i, :qpos] = rng.normal(mu, sigma_pos, size=(qpos, p))
        features[i, qpos:] = rng.normal(-mu, sigma_neg, size=(q - qpos, p))
        labels[i, :qpos] = 1.0
        labels[i, qpos:] = -1.0
    return LogisticInstance(features=features, labels=labels, lam=lam, mu=mu,
                            sigma_pos=sigma_pos, sigma_neg=sigma_neg, seed=seed)


def logistic_newton(inst: LogisticInstance, tol: float = 1e-12,
                    max_iter: int = 200) -> np.ndarray:
    """Damped Newton with backtracking that evaluates the margins, the
    sigmoid and the value afresh wherever it needs them; the library's
    optimum must equal it bit for bit."""
    u = inst.features.reshape(-1, inst.p)
    v = inst.labels.reshape(-1)
    lam = inst.lam
    x = np.zeros(inst.p)

    def val(x_):
        return float(0.5 * lam * x_ @ x_ + np.logaddexp(0.0, -(u @ x_) * v).sum())

    def grad(x_):
        s = sigmoid(-(u @ x_) * v)
        return lam * x_ - (v * s) @ u

    for _ in range(max_iter):
        g = grad(x)
        if np.linalg.norm(g) <= tol:
            return x
        s = sigmoid(-(u @ x) * v)
        w = s * (1.0 - s)
        h = lam * np.eye(inst.p) + (u * w[:, None]).T @ u
        step = np.linalg.solve(h, g)
        t, v0 = 1.0, val(x)
        while val(x - t * step) > v0 - 1e-4 * t * (g @ step) and t > 1e-12:
            t *= 0.5
        moved = x - t * step
        # near the optimum the values cannot resolve the decrease; where the
        # search's step leaves x unchanged, take the full Newton step instead
        x = x - step if np.array_equal(moved, x) else moved
    if np.linalg.norm(grad(x)) > tol:
        raise RuntimeError("logistic Newton failed to reach tolerance")
    return x


@dataclass(frozen=True)
class WeightMatrixReport:
    """Pass/fail report from validate_weight_matrix."""

    symmetric: bool
    row_stochastic: bool
    connectivity: bool
    max_asymmetry: float
    max_row_sum_error: float
    second_smallest_eigenvalue: float

    @property
    def ok(self) -> bool:
        return self.symmetric and self.row_stochastic and self.connectivity


def validate_weight_matrix(w) -> WeightMatrixReport:
    """Check the consensus weight conditions.

    Symmetry W = W^T, row sums 1 (tolerance 1e-12), and the null-space
    condition null(I - W) = span(1), checked via the second-smallest
    eigenvalue of I - W being strictly positive (> 1e-10). Dense
    eigensolve: test-scale networks only.
    """
    w = w.toarray() if sp.issparse(w) else np.asarray(w, dtype=float)
    asym = float(np.max(np.abs(w - w.T))) if w.size else 0.0
    row_err = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    evals = np.sort(np.linalg.eigvalsh(np.eye(w.shape[0]) - 0.5 * (w + w.T)))
    lam2 = float(evals[1]) if len(evals) > 1 else np.inf
    return WeightMatrixReport(
        symmetric=asym <= 1e-12,
        row_stochastic=row_err < 1e-12,
        connectivity=lam2 > 1e-10,
        max_asymmetry=asym,
        max_row_sum_error=row_err,
        second_smallest_eigenvalue=lam2,
    )


def _wrow(obj, i: int) -> np.ndarray:
    """Node i's weights over n_i: its layout row."""
    return obj.weights.data[obj.weights.indptr[i]:obj.weights.indptr[i + 1]]


def _check_view(obj, i: int, view) -> np.ndarray:
    view = np.asarray(view, dtype=float)
    want = (obj.graph.m[i], obj.p)
    if view.shape != want:
        raise ValueError(f"neighborhood view for node {i} must have shape {want}, "
                         f"got {view.shape}")
    return view


def _own(obj, i: int) -> int:
    """Position of node i in its sorted closed neighborhood."""
    return obj.graph.neighborhoods[i].index(i)


def primal_grad_i(obj, i: int, x_nbhd) -> np.ndarray:
    """Penalty gradient block grad f_i(x_i) + (1/alpha) sum w_ij (x_i - x_j).

    ``x_nbhd`` is (m_i, p) in sorted-neighborhood order.
    """
    if obj.mode != "primal":
        raise ValueError("primal_grad_i requires primal mode")
    x_nbhd = _check_view(obj, i, x_nbhd)
    x_i = x_nbhd[_own(obj, i)]
    slack = x_i - _wrow(obj, i) @ x_nbhd
    return obj.instance.local_grad(i, x_i) + slack / obj.alpha


def dual_lagrangian_minimizer_i(obj, i: int, nu_i, nu_neighbors) -> np.ndarray:
    """x_i(nu) = -A_i^{-1}(b_i + sum_j w_ij (nu_i - nu_j)).

    ``nu_neighbors`` is (m_i, p), the full neighborhood in sorted order
    (the entry for i itself is taken from ``nu_i``).
    """
    if obj.mode != "dual":
        raise ValueError("dual_lagrangian_minimizer_i requires dual mode")
    view = _check_view(obj, i, nu_neighbors).copy()
    view[_own(obj, i)] = nu_i
    slack = nu_i - _wrow(obj, i) @ view
    return -(obj.instance.b[i] + slack) / obj.instance.a[i]


def dual_grad_i(obj, i: int, x_nbhd) -> np.ndarray:
    """Constraint slack sum_j w_ij (x_i - x_j) over Lagrangian minimizers."""
    x_nbhd = _check_view(obj, i, x_nbhd)
    return x_nbhd[_own(obj, i)] - _wrow(obj, i) @ x_nbhd


def penalty_objective_value(obj, x: np.ndarray) -> float:
    """Unscaled phi(x) = sum f_i + (1/2 alpha) x'(I-Z)x."""
    if obj.mode != "primal":
        raise ValueError("penalty objective requires primal mode")
    pen = 0.5 * np.sum(x * (x - obj.weights @ x)) / obj.alpha
    return float(value_all(obj.instance, x) + pen)


def centralized_bfgs_oracle(b: np.ndarray, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Classical BFGS update; requires v'r > 0."""
    v, r = np.ravel(v), np.ravel(r)
    ip = float(v @ r)
    if ip <= 0.0:
        raise ValueError("centralized BFGS requires positive curvature v'r > 0")
    bv = b @ v
    return b + np.outer(r, r) / ip - np.outer(bv, bv) / float(v @ bv)


def stacked_bfgs_reference(kernel, var_views: list, g_views: list, gamma: float,
                           groups: list) -> np.ndarray:
    """``RoundKernel.bfgs_all`` in its one-shot stacked form: each group's
    update in fresh (g, k, k) arrays, then each accepted node's matrix
    written through ``RoundKernel.write_matrix``. Returns the accept mask.
    The blocked kernel must reproduce it bit for bit."""
    accepted = np.zeros(sum(len(grp.ids) for grp in groups), dtype=bool)
    for grp, vv, gv in zip(groups, var_views, g_views):
        flat = (len(grp.ids), -1)
        v = (kernel.dd[grp.rows] * (vv - kernel.last[0][grp.rows])).reshape(flat)
        dg = (gv - kernel.last[1][grp.rows]).reshape(flat)
        r = dg - gamma * v
        ip = (v * r).sum(axis=1)
        acc = ip > (SKIP_THRESHOLD * np.sqrt((v * v).sum(axis=1))
                    * np.sqrt((r * r).sum(axis=1)))
        if not acc.any():
            continue
        stack = kernel.curvature[grp.msize]
        b = stack[grp.slot]
        bv = np.einsum("gij,gj->gi", b, v)
        vbv = (v * bv).sum(axis=1)
        acc &= vbv > 0
        new = r[:, :, None] * r[:, None, :]
        new /= np.where(acc, ip, 1.0)[:, None, None]
        new += b
        outer = bv[:, :, None] * bv[:, None, :]
        outer /= np.where(acc, vbv, 1.0)[:, None, None]
        new -= outer
        k = grp.msize * kernel.p
        new.reshape(len(grp.ids), k * k)[:, ::k + 1] += gamma
        for i, mat in zip(grp.ids[acc], new[acc]):
            kernel.write_matrix(i, mat)
        accepted[grp.pos] = acc
    return accepted


def curvature_states(eng) -> list:
    """Every node's current curvature in a ``DbfgsSyncEngine``, copied into
    per-node reference ``CurvatureState`` objects."""
    kernel = eng.kernel
    return [replace(CurvatureState.initial(kernel.graph, i, kernel.p, eng.gamma,
                                           eng.big_gamma),
                    matrix=kernel.matrix(i).copy())
            for i in range(kernel.graph.n)]


def aggregate_descent(contributions, expected: int | None = None) -> np.ndarray:
    """d_i = sum of the neighbors' descent contributions for block i."""
    contributions = list(contributions)
    if expected is not None and len(contributions) != expected:
        raise ValueError(f"synchronous aggregation expected {expected} "
                         f"contributions, got {len(contributions)}")
    if not contributions:
        raise ValueError("no descent contributions to aggregate")
    out = np.array(contributions[0], dtype=float, copy=True)
    for c in contributions[1:]:
        out += c
    return out


def assemble_global_descent_matrix(states, graph: Graph, p: int) -> np.ndarray:
    """H + Gamma I with H = sum_i of embedded B_i^{-1}.

    Dense (np x np); inverts every node matrix explicitly, so test-scale
    networks only.
    """
    n = graph.n
    big_gammas = {s.big_gamma for s in states}
    if len(big_gammas) != 1:
        raise ValueError("states disagree on Gamma")
    h = np.zeros((n * p, n * p))
    for i, state in enumerate(states):
        binv = np.linalg.inv(state.matrix)
        idx = np.concatenate([np.arange(j * p, (j + 1) * p) for j in state.nodes])
        h[np.ix_(idx, idx)] += binv
    h[np.diag_indices_from(h)] += big_gammas.pop()
    return h


def _last_before(ticks: np.ndarray, t) -> np.ndarray:
    """max{t_hat in ticks : t_hat < t}, or 0.0 before the first tick."""
    idx = np.searchsorted(ticks, t, side="left") - 1
    vals = ticks[np.clip(idx, 0, None)]
    return np.where(idx < 0, 0.0, vals)


def time_functions(schedule, i: int, j: int, t: float):
    """(pi_i(t), pi_i_j(t)): node i's last availability strictly before t,
    and the generation time of node j's data held by i (pi_j after pi_i)."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    pi_i = float(_last_before(schedule.times[i], t))
    pi_ij = float(_last_before(schedule.times[j], pi_i))
    return pi_i, pi_ij


def measure_asynchronicity(schedule, horizon: float | None = None) -> float:
    """Smallest staleness bound B with t - pi_i_j(t) < B over the event grid.

    Cross-node staleness composes pi_j(pi_i(t)); a node's own block is dated
    at its last availability, so the i = j staleness is t - pi_i(t). The
    cost is O(n^2) searches over the grid.
    """
    grid = np.unique(np.concatenate(schedule.times))
    if horizon is not None:
        grid = grid[grid <= horizon]
    worst = 0.0
    for i in range(schedule.n):
        pi_i = _last_before(schedule.times[i], grid)
        worst = max(worst, float(np.max(grid - pi_i)))
        for j in range(schedule.n):
            if j == i:
                continue
            pi_ij = _last_before(schedule.times[j], pi_i)
            worst = max(worst, float(np.max(grid - pi_ij)))
    return worst


def read_sets(schedule, layout, delta: float, chunks):
    """Per event (time, node), in (time, node) order, the events it reads, as
    (time, node): its node's previous event; per neighbor that does not tick
    at its time, the neighbor's latest package that arrived strictly before
    it (sent before the time less the delay); and per neighbor the events
    whose descent chunk reached it by then: with ``chunks`` "delayed"
    (physical D-BFGS) those whose package did, with "instant" (the virtual
    engine) every earlier one, with None (DD) none."""
    ticks = [t.tolist() for t in schedule.times]
    cols, bounds = layout.cols.tolist(), layout.indptr.tolist()
    out = []
    for t, i in sorted((t, i) for i, own in enumerate(ticks) for t in own):
        reads = {(max(s for s in ticks[i] if s < t), i)} if t > 0 else set()
        for j in cols[bounds[i]:bounds[i + 1]]:
            if j == i:
                continue
            arrived = [s for s in ticks[j] if s + delta < t]
            if t not in ticks[j] and arrived:
                reads.add((arrived[-1], j))
            if chunks is not None:
                reads.update((s, j) for s in (arrived if chunks == "delayed"
                                              else [s for s in ticks[j] if s < t]))
        out.append(((t, i), reads))
    return out


def brute_force_levels(schedule, layout, delta: float, chunks, bl: int, bh: int) -> list:
    """Each batch's level among the batches bl to bh (events sharing a time,
    in time order): one more than the highest level of a batch in that range
    that one of its events reads (``read_sets``), or 0."""
    sets = read_sets(schedule, layout, delta, chunks)
    batch = {t: b for b, t in enumerate(sorted({t for (t, _), _ in sets}))}
    level = {}
    for (t, _), reads in sets:
        if bl <= batch[t] < bh:
            deps = [level[batch[s]] for s, _ in reads if batch[s] >= bl]
            level[batch[t]] = max(level.get(batch[t], 0), 1 + max(deps, default=-1))
    return [level[b] for b in range(bl, bh)]


def is_connected(n: int, edges) -> bool:
    """Breadth-first search from node 0 over an edge list reaches all n."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [j for i in frontier for j in adj[i] if j not in seen]
        seen.update(frontier)
    return len(seen) == n


def metropolis_weights(graph: Graph) -> np.ndarray:
    """Dense Metropolis weights: 1 / (1 + the larger degree) on each edge."""
    w = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        w[i, j] = w[j, i] = 1.0 / max(graph.m[i], graph.m[j])
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


@st.composite
def metropolis_dual(draw, max_n=7):
    """A connected irregular graph (a random tree plus random chords) with
    Metropolis weights and a dual quadratic on it."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    g = Graph.from_edges(n, sorted(edges))
    inst = make_quadratic(n, 4, draw(st.sampled_from([0.0, 1.0, 2.0])),
                          draw(st.integers(0, 2**16)))
    return g, DistributedObjective(inst, g, metropolis_weights(g), "dual")


class Mailbox:
    """Per-node reference inbox: one heap of messages in (arrival time, send
    order), popped one at a time.

    A message is a dated neighbor package, filed under the layout row its
    sender occupies in this node's neighborhood, or a descent chunk (row None).
    """

    def __init__(self):
        self.heap = []
        self.sent = 0

    def push(self, arrival: float, row, payload) -> None:
        heapq.heappush(self.heap, (arrival, self.sent, row, payload))
        self.sent += 1

    def read(self, now: float, known: np.ndarray) -> list:
        """Deliver everything that arrived strictly before ``now``.

        Writes each package to its row of ``known``, so the latest wins,
        and returns the arrived descent chunks in (arrival, send order);
        messages still in flight stay queued.
        """
        chunks = []
        while self.heap and self.heap[0][0] < now:
            _, _, row, payload = heapq.heappop(self.heap)
            if row is None:
                chunks.append(payload)
            else:
                known[:, row] = payload
        return chunks
