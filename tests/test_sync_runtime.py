import re
from dataclasses import replace

import numpy as np
import pytest

import dbfgs
from dbfgs.async_sim import (
    AsyncConfig,
    gen_clock_schedule,
    run_dbfgs_async,
    run_dd_async,
    virtual_replay,
)
from dbfgs.netgraph import Graph, build_d_regular_cycle, build_weight_matrix
from dbfgs.objectives import DistributedObjective, QuadraticInstance, make_quadratic
from dbfgs.sync_runtime import (
    DbfgsSyncEngine,
    SyncConfig,
    exchanges_per_iteration,
    run_admm,
    run_dbfgs_sync,
    run_dd,
    run_dgd,
)
from oracles import (assemble_global_descent_matrix, curvature_states,
                     dual_function_value, metropolis_weights, runtime_value)


def ring_objective(n, d, p, eta, seed, mode, alpha=None):
    g = build_d_regular_cycle(n, d)
    w = build_weight_matrix(g, d)
    inst = make_quadratic(n, p, eta, seed)
    return g, DistributedObjective(inst, g, w, mode, alpha=alpha)


# ---------------------------------------------------------------------------
# config validation and exchange accounting
# ---------------------------------------------------------------------------


def test_config_validation_errors():
    g, obj = ring_objective(6, 2, 2, 1.0, 0, "primal", alpha=1e-2)
    with pytest.raises(ValueError, match="gamma"):
        SyncConfig(method="dbfgs", mode="primal", step_size=0.1,
                   max_iters=5).validate(g, obj, "dbfgs")
    with pytest.raises(ValueError, match="dual mode only"):
        SyncConfig(method="dd", mode="primal", step_size=0.1,
                   max_iters=5).validate(g, obj, "dd")
    with pytest.raises(ValueError, match="does not match"):
        SyncConfig(method="dgd", mode="dual", step_size=0.1,
                   max_iters=5).validate(g, obj, "dgd")
    with pytest.raises(ValueError, match="unknown method"):
        SyncConfig(method="newton", mode="primal", step_size=0.1,
                   max_iters=5).validate(g, obj, "newton")


def validate(**fields):
    """Check a D-BFGS dual config, with ``fields`` changed, on a ring."""
    g, obj = ring_objective(6, 2, 2, 1.0, 0, "dual")
    cfg = SyncConfig(method="dbfgs", mode="dual", step_size=0.1, max_iters=5,
                     gamma=1e-2, big_gamma=1e-3)
    replace(cfg, **fields).validate(g, obj, "dbfgs")


def short_trace_error_at():
    trace = dbfgs.Trace(method="dd", mode="dual", seed=0)
    trace.append(1, 0.5, 1.0, 1)
    trace.error_at(2)


@pytest.mark.parametrize("call, message", [
    (lambda: exchanges_per_iteration("newton", "dual"), "unknown method 'newton'"),
    (lambda: validate(mode="diagonal"), "unknown mode 'diagonal'"),
    (lambda: validate(max_iters=0), "iteration budget must be at least 1"),
    (short_trace_error_at, "trace never reaches iteration 2"),
], ids=["exchanges-method", "mode", "zero-budget", "error-at"])
def test_sync_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


RUNNERS = [(run_dbfgs_sync, "dbfgs", "dual"), (run_dgd, "dgd", "primal"),
           (run_dd, "dd", "dual"), (run_admm, "admm", "dual"),
           (run_dbfgs_async, "dbfgs", "dual"), (virtual_replay, "dbfgs", "dual"),
           (run_dd_async, "dd", "dual")]
RUNNER_IDS = [runner.__name__ for runner, *_ in RUNNERS]


def ring10(mode):
    """The 2-regular ring of 10 nodes and its objective in ``mode``."""
    return ring_objective(10, 2, 2, 1.0, 0, mode,
                          alpha=1e-2 if mode == "primal" else None)


def config_args(runner, method, mode, **fields):
    """A valid config for ``method`` in ``mode`` on ``ring10``, as the
    runner takes it: an async runner's config with a clock schedule."""
    if method == "dbfgs":
        fields.update(gamma=1e-2, big_gamma=1e-3)
    fields.update(method=method, mode=mode, step_size=0.01, max_iters=5)
    if runner in (run_dbfgs_async, virtual_replay, run_dd_async):
        return AsyncConfig(**fields), gen_clock_schedule(10, 1.0, 0.1, 5.0, 0)
    return (SyncConfig(**fields),)


@pytest.mark.parametrize("runner, method, other, mode", [
    (runner, method, "dd" if method == "dbfgs" else "dbfgs", mode)
    for runner, method, mode in RUNNERS],
    ids=lambda v: v.__name__ if callable(v) else None)
def test_runners_reject_a_config_for_another_method(runner, method, other, mode):
    # the config is valid for its own method in this mode; the runner must
    # neither run it under its own name nor fail later inside its kernel
    g, obj = ring10(mode)
    with pytest.raises(ValueError, match=f"'{other}' config .* {method} runner"):
        runner(g, obj, *config_args(runner, other, mode))


@pytest.mark.parametrize("runner, method, mode", RUNNERS, ids=RUNNER_IDS)
def test_runners_reject_a_graph_that_is_not_the_objectives(runner, method, mode):
    # a 2-regular objective run on a 4-regular graph of as many nodes
    _, obj = ring10(mode)
    with pytest.raises(ValueError, match="not the objective's graph"):
        runner(build_d_regular_cycle(10, 4), obj, *config_args(runner, method, mode))


@pytest.mark.parametrize("runner, method, mode", RUNNERS, ids=RUNNER_IDS)
def test_runners_reject_a_var0_that_is_not_n_by_p(runner, method, mode):
    # one (p,) block is not broadcast to every node
    g, obj = ring10(mode)
    args = config_args(runner, method, mode, var0=np.ones(2))
    with pytest.raises(ValueError,
                       match=r"var0 has shape \(2,\), not \(n, p\) = \(10, 2\)"):
        runner(g, obj, *args)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("runner, method, mode, name", [
    (runner, method, mode, name) for runner, method, mode in RUNNERS
    for name in ("step_size", "gamma", "big_gamma")
    if name == "step_size" or method == "dbfgs"],
    ids=lambda v: v.__name__ if callable(v) else None)
def test_runners_reject_a_non_finite_run_parameter(runner, method, mode, name, value):
    # a NaN gamma used to skip every curvature update and end as max_iters
    g, obj = ring10(mode)
    cfg, *schedule = config_args(runner, method, mode)
    with pytest.raises(ValueError, match=f"requires a finite {name} > 0, got {value!r}"):
        runner(g, obj, replace(cfg, **{name: value}), *schedule)


@pytest.mark.parametrize("name, value, message", [
    ("stop_error", np.nan, "stop_error must be finite, got nan"),
    ("stop_error", -np.inf, "stop_error must be finite, got -inf"),
    ("stop_grad_norm", np.nan, "stop_grad_norm must be finite, got nan"),
    ("stop_grad_norm", np.inf, "stop_grad_norm must be finite, got inf"),
    ("max_iters", 2.5, "max_iters must be an int, got 2.5"),
    ("max_iters", True, "max_iters must be an int, got True")])
@pytest.mark.parametrize("runner, method, mode", RUNNERS, ids=RUNNER_IDS)
def test_runners_reject_a_bad_stop_rule(runner, method, mode, name, value, message):
    # a NaN stop_error used to run every round and end as max_iters, and
    # max_iters = 2.5 ran 3 rounds
    g, obj = ring10(mode)
    cfg, *schedule = config_args(runner, method, mode)
    with pytest.raises(ValueError, match=message):
        runner(g, obj, replace(cfg, **{name: value}), *schedule)


def test_exchange_costs():
    assert exchanges_per_iteration("dbfgs", "dual") == 2
    assert exchanges_per_iteration("dbfgs", "primal") == 3
    for m in ("dgd", "dd", "admm"):
        assert exchanges_per_iteration(m, "dual") == 1


def test_trace_exchange_columns():
    g, obj = ring_objective(6, 2, 2, 1.0, 0, "dual")
    cfg = SyncConfig(method="dbfgs", mode="dual", step_size=0.01, max_iters=7,
                     gamma=1e-2, big_gamma=1e-3)
    tr = run_dbfgs_sync(g, obj, cfg)
    assert tr.exchanges == [2 * t for t in tr.iters]


# ---------------------------------------------------------------------------
# D-BFGS fixed points and convergence
# ---------------------------------------------------------------------------


def test_zero_gradient_start_is_fixed_point():
    # b = 0, x(0) = 0: no motion through 30 rounds (engine-level; the error
    # metric is undefined at a zero optimum)
    g = build_d_regular_cycle(6, 2)
    w = build_weight_matrix(g, 2)
    inst = QuadraticInstance(a=np.ones((6, 2)), b=np.zeros((6, 2)),
                             eta=0.0, seed=0)
    obj = DistributedObjective(inst, g, w, "primal", alpha=1e-2)
    eng = DbfgsSyncEngine(g, obj, 1e-2, 1e-3, 0.3)
    for _ in range(30):
        eng.step()
        assert np.array_equal(eng.var, np.zeros((6, 2)))
        assert np.array_equal(eng.g, np.zeros((6, 2)))


def test_two_node_primal_matches_dense_penalty_minimizer():
    # brute-force minimizer of the penalty objective by direct linear solve
    g = Graph.from_edges(2, [(0, 1)])
    w = np.array([[0.75, 0.25], [0.25, 0.75]])
    inst = QuadraticInstance(a=np.array([[2.0], [0.5]]),
                             b=np.array([[1.0], [-0.3]]), eta=0.0, seed=0)
    alpha = 1.0
    obj = DistributedObjective(inst, g, w, "primal", alpha=alpha)
    dense = alpha * np.diag(inst.a.ravel()) + (np.eye(2) - w)
    xopt = np.linalg.solve(dense, -alpha * inst.b.ravel()).reshape(2, 1)
    eng = DbfgsSyncEngine(g, obj, 1e-2, 1e-3, 0.2)
    for _ in range(2000):
        eng.step()
    assert np.linalg.norm(eng.var - xopt) <= 1e-6


def test_dbfgs_dual_converges_on_small_ring():
    g, obj = ring_objective(8, 2, 4, 1.0, 2, "dual")
    cfg = SyncConfig(method="dbfgs", mode="dual", step_size=0.05,
                     max_iters=400, gamma=1e-2, big_gamma=1e-3)
    tr = run_dbfgs_sync(g, obj, cfg)
    assert tr.error[-1] < 0.05 * tr.error[0]


def test_divergence_guard():
    g, obj = ring_objective(6, 2, 2, 1.0, 1, "primal", alpha=1e-3)
    cfg = SyncConfig(method="dgd", mode="primal", step_size=1e5,
                     max_iters=500)
    tr = run_dgd(g, obj, cfg)
    assert tr.status == "diverged"
    assert len(tr.iters) < 500


def test_stop_conditions():
    g, obj = ring_objective(8, 2, 4, 0.0, 3, "dual")
    cfg = SyncConfig(method="admm", mode="dual", step_size=1.0,
                     max_iters=5000, stop_error=1e-8)
    tr = run_admm(g, obj, cfg)
    assert tr.status == "error_stop"
    assert tr.error[-1] <= 1e-8


# ---------------------------------------------------------------------------
# DGD
# ---------------------------------------------------------------------------


def test_dgd_matches_dense_gradient_descent_oracle():
    n, p, alpha, eps = 6, 2, 1e-2, 0.5
    g, obj = ring_objective(n, 2, p, 1.0, 4, "primal", alpha=alpha)
    inst = obj.instance
    w = obj.weights
    xstar = dbfgs.solve_consensus_optimum(inst)
    cfg = SyncConfig(method="dgd", mode="primal", step_size=eps, max_iters=60)
    tr = run_dgd(g, obj, cfg)
    x = np.zeros((n, p))
    for t in range(60):
        x = x - eps * (alpha * (inst.a * x + inst.b) + (x - w @ x))
        oracle_err = dbfgs.consensus_error(x, xstar)
        assert abs(tr.error[t] - oracle_err) <= 1e-12 * max(1.0, oracle_err)


def test_dgd_zero_gradient_no_motion():
    g = build_d_regular_cycle(5, 2)
    w = build_weight_matrix(g, 2)
    a = np.ones((5, 2))
    c = np.array([1.0, -2.0])
    inst = QuadraticInstance(a=a, b=-a * c, eta=0.0, seed=0)
    obj = DistributedObjective(inst, g, w, "primal", alpha=1e-2)
    cfg = SyncConfig(method="dgd", mode="primal", step_size=0.5, max_iters=20,
                     var0=np.tile(c, (5, 1)))
    tr = run_dgd(g, obj, cfg)
    # row sums of the weight scheme are 1 only to machine precision
    assert max(tr.error) <= 1e-28
    assert max(tr.grad_norm) <= 1e-13


# ---------------------------------------------------------------------------
# DD
# ---------------------------------------------------------------------------


def test_dd_symmetric_fixed_point():
    g = build_d_regular_cycle(4, 2)
    w = build_weight_matrix(g, 2)
    inst = QuadraticInstance(a=np.full((4, 2), 2.0), b=np.full((4, 2), 0.7),
                             eta=0.0, seed=0)
    obj = DistributedObjective(inst, g, w, "dual")
    cfg = SyncConfig(method="dd", mode="dual", step_size=0.01, max_iters=25)
    tr = run_dd(g, obj, cfg)
    assert max(tr.error) <= 1e-28
    assert max(tr.grad_norm) <= 1e-13


def test_dd_dual_function_nondecreasing_and_trace_matches_recursion():
    n, p, eps = 3, 2, 0.01
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    w = build_weight_matrix(g, 2)
    inst = make_quadratic(n, p, 1.0, 7)
    obj = DistributedObjective(inst, g, w, "dual")
    xstar = dbfgs.solve_consensus_optimum(inst)
    cfg = SyncConfig(method="dd", mode="dual", step_size=eps, max_iters=80)
    tr = run_dd(g, obj, cfg)
    nu = np.zeros((n, p))
    psi_prev = -np.inf
    for t in range(80):
        aux = obj.stage1_full(nu)
        gvec = obj.stage2_full(nu, aux)
        err = dbfgs.consensus_error(aux, xstar)
        assert abs(tr.error[t] - err) <= 1e-13 * max(1.0, err)
        psi = dual_function_value(obj, nu)
        assert psi >= psi_prev - 1e-12
        psi_prev = psi
        nu = nu - eps * gvec


# ---------------------------------------------------------------------------
# ADMM
# ---------------------------------------------------------------------------


def test_admm_stationary_at_consensus_optimum():
    g, obj = ring_objective(6, 2, 2, 1.0, 9, "dual")
    inst = obj.instance
    xstar = dbfgs.solve_consensus_optimum(inst)
    x0 = np.tile(xstar, (6, 1))
    multipliers = -(inst.a * x0 + inst.b)
    cfg = SyncConfig(method="admm", mode="dual", step_size=0.5, max_iters=30,
                     var0=x0)
    tr = run_admm(g, obj, cfg, initial_multipliers=multipliers)
    assert max(tr.error) <= 1e-24


@pytest.mark.parametrize("shape", [(4,), (3, 4), (4, 8), (8, 4, 1)])
def test_admm_rejects_multipliers_that_are_not_n_by_p(shape):
    # a (p,) vector would broadcast to every node as its multiplier
    g, obj = ring_objective(8, 2, 4, 1.0, 9, "dual")
    cfg = SyncConfig(method="admm", mode="dual", step_size=0.5, max_iters=5)
    with pytest.raises(ValueError, match=re.escape(
            f"initial_multipliers has shape {shape}, not (n, p) = (8, 4)")):
        run_admm(g, obj, cfg, initial_multipliers=np.ones(shape))


def test_admm_converges_to_consensus_optimum():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    w = build_weight_matrix(g, 2)
    inst = make_quadratic(3, 2, 1.0, 10)
    obj = DistributedObjective(inst, g, w, "dual")
    xstar = dbfgs.solve_consensus_optimum(inst)
    cfg = SyncConfig(method="admm", mode="dual", step_size=1.0, max_iters=3000)
    tr = run_admm(g, obj, cfg)
    rms = np.sqrt(tr.error[-1] * float(xstar @ xstar))
    assert rms <= 1e-6


def admm_dense_oracle(graph, inst, rho, iters):
    """(error, residual norm) rows of edge-based ADMM on a dense adjacency."""
    n = graph.n
    adj = np.zeros((n, n))
    for i, j in graph.edges:
        adj[i, j] = adj[j, i] = 1.0
    deg = adj.sum(axis=1)[:, None]
    xstar = dbfgs.solve_consensus_optimum(inst)
    x = np.zeros((n, inst.p))
    mult = np.zeros((n, inst.p))
    rows = []
    for _ in range(iters):
        x = (rho * (deg * x + adj @ x) - mult - inst.b) / (inst.a + 2.0 * rho * deg)
        resid = deg * x - adj @ x
        mult = mult + rho * resid
        rows.append((dbfgs.consensus_error(x, xstar), np.linalg.norm(resid)))
    return np.array(rows)


def test_admm_matches_dense_oracle_on_irregular_graph():
    # neighborhood sizes m = (3, 3, 5, 3, 4, 2), Metropolis weights
    g = Graph.from_edges(6, [(0, 2), (1, 2), (2, 3), (2, 5), (0, 4), (1, 4),
                             (3, 4)])
    obj = DistributedObjective(make_quadratic(6, 4, 2.0, 3), g, metropolis_weights(g),
                               "dual")
    cfg = SyncConfig(method="admm", mode="dual", step_size=0.7, max_iters=200)
    tr = run_admm(g, obj, cfg)
    ref = admm_dense_oracle(g, obj.instance, 0.7, 200)
    assert np.allclose(tr.error, ref[:, 0], rtol=1e-12, atol=0.0)
    assert np.allclose(tr.grad_norm, ref[:, 1], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# runtime invariants
# ---------------------------------------------------------------------------


def test_descent_block_conservation():
    # applied d per round equals -(H + Gamma I) g from the assembly oracle
    g, obj = ring_objective(5, 2, 4, 1.0, 11, "primal", alpha=1e-2)
    eng = DbfgsSyncEngine(g, obj, 1e-2, 1e-3, 0.1)
    for _ in range(20):
        states_before = [st.matrix.copy() for st in curvature_states(eng)]
        g_before = eng.g.copy()
        # the descent step() applies: each node's neighbor contributions
        descent = np.zeros_like(eng.var)
        for grp in eng.kernel.groups:
            descent[grp.ids] = eng.kernel.contrib[eng.kernel.mirror[grp.rows]].sum(axis=1)
        eng.step()
        big = assemble_global_descent_matrix(
            [type(st)(nodes=st.nodes, matrix=mat, gamma=st.gamma,
                      big_gamma=st.big_gamma, d_diag=st.d_diag)
             for st, mat in zip(curvature_states(eng), states_before)], g, 4)
        expected = -(big @ g_before.ravel())
        assert np.linalg.norm(descent.ravel() - expected) <= 1e-10


def test_trajectory_determinism_bit_identical():
    g, obj = ring_objective(8, 4, 4, 2.0, 12, "dual")
    cfg = SyncConfig(method="dbfgs", mode="dual", step_size=0.01,
                     max_iters=40, gamma=1e-2, big_gamma=1e-3, seed=12)
    one = run_dbfgs_sync(g, obj, cfg).to_csv()
    two = run_dbfgs_sync(g, obj, cfg).to_csv()
    assert one == two


def test_monotone_descent_with_theory_stepsize():
    # guaranteed-descent stepsize bound eps < 2*Gamma / (L * Delta^2)
    n, p, gamma, big_gamma, alpha = 10, 4, 1e-2, 1e-3, 1e-3
    g, obj = ring_objective(n, 4, p, 1.0, 5, "primal", alpha=alpha)
    inst = obj.instance
    hess = (np.kron(np.eye(n) - obj.weights, np.eye(p))
            + alpha * np.diag(inst.a.ravel()))
    lips = float(np.linalg.eigvalsh(hess).max())
    delta = big_gamma + n / gamma
    eps = 0.9 * 2.0 * big_gamma / (lips * delta * delta)
    xopt = np.linalg.solve(hess, -alpha * inst.b.ravel()).reshape(n, p)
    fstar = runtime_value(obj, xopt)
    eng = DbfgsSyncEngine(g, obj, gamma, big_gamma, eps)
    vals = [runtime_value(obj, eng.var)]
    for _ in range(50):
        eng.step()
        vals.append(runtime_value(obj, eng.var))
    vals = np.asarray(vals)
    assert np.all(np.diff(vals) <= 0.0)
    logs = np.log(vals[25:] - fstar)
    slope = np.polyfit(np.arange(len(logs)), logs, 1)[0]
    assert slope < 0.0


def test_sublinearity_on_convex_only_instance():
    # one coordinate's curvature zeroed network-wide (matching zero slope):
    # the objective is convex but not strongly convex; t * (f - f*) must not
    # grow at the tail of the run
    n, p = 8, 4
    g = build_d_regular_cycle(n, 2)
    w = build_weight_matrix(g, 2)
    base = make_quadratic(n, p, 1.0, 14)
    a = base.a.copy()
    b = base.b.copy()
    a[:, 0] = 0.0
    b[:, 0] = 0.0
    inst = QuadraticInstance(a=a, b=b, eta=1.0, seed=14)
    alpha = 1e-2
    obj = DistributedObjective(inst, g, w, "primal", alpha=alpha)
    hess = np.kron(np.eye(n) - w, np.eye(p)) + alpha * np.diag(a.ravel())
    coef = alpha * b.ravel()
    xopt = np.linalg.lstsq(hess, -coef, rcond=None)[0].reshape(n, p)
    fstar = runtime_value(obj, xopt)
    eng = DbfgsSyncEngine(g, obj, 1e-2, 1e-3, 0.2)
    gaps = []
    for t in range(400):
        eng.step()
        gaps.append(runtime_value(obj, eng.var) - fstar)
    s = np.arange(1, 401) * np.asarray(gaps)
    assert np.all(np.isfinite(s))
    assert np.max(s[300:]) <= np.max(s[:300]) + 1e-12


def test_csv_schema():
    g, obj = ring_objective(6, 2, 2, 1.0, 15, "dual")
    cfg = SyncConfig(method="dd", mode="dual", step_size=0.01, max_iters=9,
                     seed=15)
    text = run_dd(g, obj, cfg).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "iter,error,grad_norm,exchanges,method,mode,seed"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert first[0] == "1" and first[4] == "dd" and first[5] == "dual"
    assert first[6] == "15"
