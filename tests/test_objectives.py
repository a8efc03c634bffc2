import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dbfgs import objectives
from dbfgs.netgraph import Graph, build_d_regular_cycle, build_weight_matrix
from dbfgs.objectives import (
    DistributedObjective,
    LogisticInstance,
    QuadraticInstance,
    consensus_error,
    make_logistic,
    make_quadratic,
    solve_consensus_optimum,
)
from oracles import (
    dual_function_value,
    dual_grad_i,
    dual_lagrangian_minimizer_i,
    logistic_grad,
    logistic_newton,
    make_logistic_by_node,
    penalty_objective_value,
    primal_grad_i,
    sigmoid,
)


def two_node_objective(a, b, w01, mode, alpha=None):
    """2-node helper with an explicit symmetric weight matrix."""
    g = Graph.from_edges(2, [(0, 1)])
    w = np.array([[1.0 - w01, w01], [w01, 1.0 - w01]])
    inst = QuadraticInstance(a=np.asarray(a, float), b=np.asarray(b, float),
                             eta=0.0, seed=0)
    return DistributedObjective(inst, g, w, mode, alpha=alpha), g


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_quadratic_aggregate_eigenvalue_range():
    n = 20
    inst = make_quadratic(n, 4, 2.0, 11)
    agg = inst.a.sum(axis=0)
    assert np.all(agg >= 0.1 * n - 1e-12)
    assert np.all(agg <= 10.0 * n + 1e-12)
    assert np.all(inst.b >= 0.0) and np.all(inst.b <= 1.0)


def test_quadratic_eta_zero_is_identity():
    inst = make_quadratic(6, 4, 0.0, 3)
    assert np.array_equal(inst.a, np.ones((6, 4)))


def test_quadratic_determinism():
    one = make_quadratic(12, 4, 2.0, 99)
    two = make_quadratic(12, 4, 2.0, 99)
    assert np.array_equal(one.a, two.a) and np.array_equal(one.b, two.b)


def test_quadratic_rejects_odd_p():
    with pytest.raises(ValueError, match="even"):
        make_quadratic(4, 3, 2.0, 0)


def test_quadratic_eta_one_uses_fractional_endpoint():
    inst = make_quadratic(40, 4, 1.0, 7)
    large = np.unique(inst.a[:, :2])
    assert set(np.round(large, 12)) <= {1.0, round(10.0 ** 0.5, 12)}


def test_logistic_reference_regime_shapes_and_balance():
    inst = make_logistic(10, 4, 100, 1e-4, 3.0, 1.0, 1.0, 5)
    assert inst.features.shape == (10, 100, 4)
    assert np.all(np.sum(inst.labels == 1.0, axis=1) == 50)
    assert np.all(np.sum(inst.labels == -1.0, axis=1) == 50)
    # odd q: ceil(q/2) positive
    odd = make_logistic(3, 2, 7, 0.0, 1.0, 1.0, 1.0, 5)
    assert np.all(np.sum(odd.labels == 1.0, axis=1) == 4)


def test_logistic_degenerate_zero_data():
    inst = make_logistic(4, 2, 10, 0.0, 0.0, 0.0, 0.0, 1)
    assert np.all(inst.features == 0.0)
    for i in range(4):
        assert np.array_equal(inst.local_grad(i, np.zeros(2)), np.zeros(2))


def test_logistic_determinism():
    one = make_logistic(5, 4, 20, 1e-4, 3.0, 1.0, 1.0, 42)
    two = make_logistic(5, 4, 20, 1e-4, 3.0, 1.0, 1.0, 42)
    assert np.array_equal(one.features, two.features)


# ---------------------------------------------------------------------------
# primal penalty gradient
# ---------------------------------------------------------------------------


def test_primal_grad_zero_at_consensus_with_zero_gradient():
    obj, _ = two_node_objective([[1.0], [1.0]], [[0.0], [0.0]], 0.1,
                                "primal", alpha=1.0)
    out = primal_grad_i(obj, 0, np.zeros((2, 1)))
    assert np.array_equal(out, np.zeros(1))


def test_primal_grad_scalar_example():
    # A=I, b=0, p=1, alpha=1, x_i=1, neighbor x_j=0, w_ij=0.1 -> 1.1
    obj, _ = two_node_objective([[1.0], [1.0]], [[0.0], [0.0]], 0.1,
                                "primal", alpha=1.0)
    out = primal_grad_i(obj, 0, np.array([[1.0], [0.0]]))
    assert out == pytest.approx([1.1], abs=1e-12)


def test_primal_grad_matches_finite_difference_of_penalty_objective():
    # cross-check the scalar example against penalty-objective finite differences
    obj, _ = two_node_objective([[1.0], [1.0]], [[0.0], [0.0]], 0.1,
                                "primal", alpha=1.0)
    x = np.array([[1.0], [0.0]])
    h = 1e-6
    xp, xm = x.copy(), x.copy()
    xp[0, 0] += h
    xm[0, 0] -= h
    fd = (penalty_objective_value(obj, xp) - penalty_objective_value(obj, xm)) / (2 * h)
    assert primal_grad_i(obj, 0, x)[0] == pytest.approx(fd, rel=1e-7)


def test_logistic_single_sample_gradient_at_zero():
    # one sample (v=1, u), x=0, lam=0: data gradient is -u/2
    u = np.array([[[0.7, -1.2, 0.4]]])
    inst = LogisticInstance(features=u, labels=np.array([[1.0]]), lam=0.0,
                            mu=0.0, sigma_pos=0.0, sigma_neg=0.0, seed=0)
    out = inst.local_grad(0, np.zeros(3))
    assert np.allclose(out, -u[0, 0] / 2.0, atol=1e-15)


def test_primal_grad_dimension_mismatch():
    obj, _ = two_node_objective([[1.0], [1.0]], [[0.0], [0.0]], 0.1,
                                "primal", alpha=1.0)
    with pytest.raises(ValueError, match="shape"):
        primal_grad_i(obj, 0, np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# dual operations
# ---------------------------------------------------------------------------


def test_dual_minimizer_zero_case():
    obj, _ = two_node_objective([[2.0], [2.0]], [[0.0], [0.0]], 0.1, "dual")
    nu = np.array([[3.0], [3.0]])
    out = dual_lagrangian_minimizer_i(obj, 0, nu[0], nu)
    assert np.allclose(out, 0.0, atol=1e-15)


def test_dual_minimizer_scalar_example():
    # A=2I, b=0, nu_i - nu_j = 1, w_ij = 0.1 -> x_i = -0.05
    obj, _ = two_node_objective([[2.0], [2.0]], [[0.0], [0.0]], 0.1, "dual")
    nu = np.array([[1.0], [0.0]])
    out = dual_lagrangian_minimizer_i(obj, 0, nu[0], nu)
    assert out == pytest.approx([-0.05], abs=1e-14)
    # oracle: numerically minimize the scalar Lagrangian term
    grid = np.linspace(-1.0, 1.0, 200001)
    vals = 0.5 * 2.0 * grid**2 + 0.1 * grid * (1.0 - 0.0)
    assert grid[np.argmin(vals)] == pytest.approx(-0.05, abs=1e-5)


def test_dual_minimizer_zeroes_lagrangian_gradient():
    g = build_d_regular_cycle(6, 2)
    w = build_weight_matrix(g, 2)
    inst = make_quadratic(6, 4, 1.0, 2)
    obj = DistributedObjective(inst, g, w, "dual")
    rng = np.random.default_rng(0)
    nu = rng.normal(size=(6, 4))
    for i in range(6):
        nb = list(g.neighborhoods[i])
        x_i = dual_lagrangian_minimizer_i(obj, i, nu[i], nu[nb])
        wrow = w[i, nb]
        slack = nu[i] - wrow @ nu[nb]
        grad = inst.a[i] * x_i + inst.b[i] + slack
        assert np.linalg.norm(grad) <= 1e-10


def test_dual_grad_examples():
    obj, g = two_node_objective([[1.0], [1.0]], [[0.0], [0.0]], 0.1, "dual")
    # consensus slack vanishes
    assert np.allclose(dual_grad_i(obj, 0, np.array([[2.0], [2.0]])), 0.0)
    # p=1, x_i=1, neighbor 0, w=0.1 -> 0.1
    out = dual_grad_i(obj, 0, np.array([[1.0], [0.0]]))
    assert out == pytest.approx([0.1], abs=1e-15)


def test_dual_ascent_improves_dual_function():
    g = build_d_regular_cycle(5, 2)
    w = build_weight_matrix(g, 2)
    inst = make_quadratic(5, 2, 1.0, 8)
    obj = DistributedObjective(inst, g, w, "dual")
    rng = np.random.default_rng(1)
    nu = rng.normal(size=(5, 2))
    x = obj.stage1_full(nu)
    ascent = np.stack([dual_grad_i(obj, i, x[list(g.neighborhoods[i])])
                       for i in range(5)])
    before = dual_function_value(obj, nu)
    after = dual_function_value(obj, nu + 1e-4 * ascent)
    assert after > before


def test_dual_mode_rejects_logistic():
    g = build_d_regular_cycle(4, 2)
    w = build_weight_matrix(g, 2)
    inst = make_logistic(4, 2, 4, 1e-4, 1.0, 1.0, 1.0, 0)
    with pytest.raises(ValueError, match="quadratic"):
        DistributedObjective(inst, g, w, "dual")


# ---------------------------------------------------------------------------
# optimum oracle and error metric
# ---------------------------------------------------------------------------


def test_consensus_optimum_quadratic_cases():
    zero_b = QuadraticInstance(a=np.ones((3, 2)), b=np.zeros((3, 2)),
                               eta=0.0, seed=0)
    assert np.array_equal(solve_consensus_optimum(zero_b), np.zeros(2))
    inst = QuadraticInstance(a=np.array([[1.0], [3.0]]),
                             b=np.array([[1.0], [1.0]]), eta=0.0, seed=0)
    assert solve_consensus_optimum(inst) == pytest.approx([-0.5])


def test_consensus_optimum_logistic_residual():
    inst = make_logistic(5, 4, 30, 1e-3, 2.0, 1.0, 1.0, 4)
    x = solve_consensus_optimum(inst)
    grad = sum(inst.local_grad(i, x) for i in range(5))
    # per-node regularizer split sums back to the global lam
    assert np.linalg.norm(grad) <= 1e-12


@pytest.mark.parametrize("n, q, lam, mu, seed", [
    (12, 6, 1e-4, 3.0, 1), (12, 6, 1e-2, 1.0, 0), (12, 6, 1e-2, 1.0, 1),
    (12, 100, 1e-4, 1.0, 1), (30, 10, 1e-2, 1.0, 2), (100, 6, 1e-2, 1.0, 1),
    (100, 6, 1.0, 1.0, 1),
])
def test_consensus_optimum_logistic_where_line_search_stalls(n, q, lam, mu, seed):
    # near these optima the Armijo test on values about 1 to 10 in size
    # cannot resolve the decrease, and the backtracked step stops moving x
    inst = make_logistic(n, 4, q, lam, mu, 1.0, 1.0, seed)
    x = solve_consensus_optimum(inst)
    grad = sum(inst.local_grad(i, x) for i in range(n))
    assert np.linalg.norm(grad) <= 1e-12


def test_logistic_optimum_equals_the_reference_bit_for_bit():
    # n, q, lam, mu and seed over the sweep grid the line-search fallback
    # was checked on; p = 4
    grid = itertools.product((12, 30, 100), (6, 10, 100), (1e-4, 1e-2, 1.0),
                             (1.0, 3.0), range(3))
    moved = []
    for n, q, lam, mu, seed in grid:
        inst = make_logistic(n, 4, q, lam, mu, 1.0, 1.0, seed)
        if not np.array_equal(solve_consensus_optimum(inst), logistic_newton(inst)):
            moved.append((n, q, lam, mu, seed))
    assert not moved, f"optimum moved on (n, q, lam, mu, seed) = {moved}"


@pytest.mark.parametrize("p, q, sigma_pos, sigma_neg", [
    (4, 10, 1.0, 1.0), (4, 7, 0.3, 2.0), (4, 6, 0.0, 0.0), (4, 1, 0.0, 1.5),
    (3, 10, 1.0, 1.0), (5, 7, 0.3, 2.0), (8, 1, 1.0, 1.0)])
def test_logistic_on_signed_features_equals_the_unsigned_reference(p, q, sigma_pos,
                                                                   sigma_neg):
    # one draw for every node and the signed features reproduce the per-node
    # draws and the two-einsum gradient bit for bit, and the optimum too
    args = (9, p, q, 1e-2, 3.0, sigma_pos, sigma_neg, 3)
    inst, ref = make_logistic(*args), make_logistic_by_node(*args)
    assert inst.features.tobytes() == ref.features.tobytes()
    assert inst.labels.tobytes() == ref.labels.tobytes()
    x = np.random.default_rng(4).normal(size=(9, p)) * 0.3
    for i in (4, np.array([0, 8, 3, 3]), ...):
        assert inst.local_grad(i, x[i]).tobytes() == logistic_grad(ref, i, x[i]).tobytes()
    assert inst.grad_all(x).tobytes() == logistic_grad(ref, ..., x).tobytes()
    assert solve_consensus_optimum(inst).tobytes() == logistic_newton(ref).tobytes()


def test_logistic_rejects_a_negative_class_deviation():
    # as rng.normal did when it drew each class: -0.0 counts as negative
    for sigmas in ((-1.0, 1.0), (1.0, -0.0)):
        with pytest.raises(ValueError, match="class deviations must be nonnegative"):
            make_logistic(3, 2, 4, 1e-2, 1.0, *sigmas, 0)


def nan_feature_logistic():
    """A logistic instance whose data holds a NaN: its optimum is NaN."""
    inst = make_logistic(3, 2, 4, 1e-2, 1.0, 1.0, 1.0, 0)
    inst.features[0, 0, 0] = np.nan
    return LogisticInstance(features=inst.features, labels=inst.labels, lam=inst.lam,
                            mu=inst.mu, sigma_pos=inst.sigma_pos,
                            sigma_neg=inst.sigma_neg, seed=inst.seed)


@pytest.mark.parametrize("build, error, match", [
    (lambda: make_logistic(3, 2, 4, np.nan, 1.0, 1.0, 1.0, 0), ValueError,
     "lam must be finite"),
    (lambda: make_logistic(3, 2, 4, np.inf, 1.0, 1.0, 1.0, 0), ValueError,
     "lam must be finite"),
    (lambda: make_logistic(3, 2, 4, 1e-2, np.nan, 1.0, 1.0, 0), ValueError,
     "mu must be finite"),
    (lambda: make_logistic(3, 2, 4, 1e-2, -np.inf, 1.0, 1.0, 0), ValueError,
     "mu must be finite"),
    (lambda: make_logistic(3, 2, 4, 1e-2, 1.0, np.nan, 1.0, 0), ValueError,
     "sigma_pos must be finite"),
    (lambda: make_logistic(3, 2, 4, 1e-2, 1.0, 1.0, np.inf, 0), ValueError,
     "sigma_neg must be finite"),
    (lambda: make_quadratic(4, 4, np.nan, 0), ValueError, "eta must be finite"),
    (lambda: make_quadratic(4, 4, np.inf, 0), ValueError, "eta must be finite"),
    (nan_feature_logistic, RuntimeError, "failed to reach tolerance"),
], ids=["lam-nan", "lam-inf", "mu-nan", "mu-neg-inf", "sigma_pos-nan",
        "sigma_neg-inf", "eta-nan", "eta-inf", "newton-nan"])
def test_a_non_finite_instance_parameter_is_rejected(build, error, match):
    with pytest.raises(error, match=match), np.errstate(invalid="ignore"):
        solve_consensus_optimum(build())


def ring_objective(instance, mode="dual", weights=None):
    g = build_d_regular_cycle(4, 2)
    w = build_weight_matrix(g, 2) if weights is None else weights
    return DistributedObjective(instance, g, w, mode, alpha=1e-2)


@pytest.mark.parametrize("call, error, match", [
    (lambda: make_quadratic(4, 4, -0.5, 0), ValueError,
     "condition parameter eta must be nonnegative, got -0.5"),
    (lambda: make_logistic(3, 2, 0, 1e-2, 1.0, 1.0, 1.0, 0), ValueError,
     "samples per node must be positive, got 0"),
    (lambda: make_logistic(3, 2, 4, -1e-2, 1.0, 1.0, 1.0, 0), ValueError,
     "regularizer must be nonnegative, got -0.01"),
    (lambda: ring_objective(make_quadratic(4, 4, 1.0, 0), mode="penalty"), ValueError,
     "mode must be 'primal' or 'dual', got 'penalty'"),
    (lambda: ring_objective(make_quadratic(4, 4, 1.0, 0), weights=np.eye(3)), ValueError,
     "weight matrix shape does not match graph"),
    # a zero aggregate curvature with a nonzero aggregate slope
    (lambda: solve_consensus_optimum(QuadraticInstance(
        a=np.array([[0.0, 1.0]]), b=np.array([[1.0, 1.0]]), eta=0.0, seed=0)),
     ValueError, "aggregate quadratic is unbounded below"),
    (lambda: solve_consensus_optimum(np.ones(2)), TypeError, "unsupported instance type"),
], ids=["negative-eta", "zero-q", "negative-lam", "mode", "weights-shape", "unbounded",
        "instance-type"])
def test_objective_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_sigmoid_equals_the_two_branch_reference_bit_for_bit():
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.8, -709.8,
                        745.0, -745.0, np.inf, -np.inf, np.nan, -np.nan])
    normal = 30.0 * np.random.default_rng(0).standard_normal((100, 100))
    for z in (special, normal):
        assert objectives._sigmoid(z).tobytes() == sigmoid(z).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_logistic_newton_evaluates_the_sigmoid_once_per_iterate(monkeypatch, seed):
    calls = {"sigmoid": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(objectives, "_sigmoid",
                        counted("sigmoid", objectives._sigmoid))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    solve_consensus_optimum(make_logistic(100, 4, 100, 1e-4, 3.0, 1.0, 1.0, seed))
    # every Newton step is one solve; the iterates are the start and one per
    # step (23 on these instances; the two-pass loop made 45 sigmoid calls)
    assert calls["sigmoid"] == calls["solve"] + 1


def test_consensus_optimum_logistic_requires_regularizer():
    inst = make_logistic(3, 2, 10, 0.0, 2.0, 1.0, 1.0, 4)
    with pytest.raises(ValueError, match="lam"):
        solve_consensus_optimum(inst)


def test_consensus_error_cases():
    xstar = np.array([1.0])
    assert consensus_error(np.array([[1.0], [1.0]]), xstar) == 0.0
    assert consensus_error(np.array([[0.0], [2.0]]), xstar) == pytest.approx(1.0)
    x = np.array([[0.3, -1.0], [2.0, 0.5]])
    xs = np.array([0.7, 0.2])
    c = 3.7
    assert consensus_error(c * x, c * xs) == pytest.approx(consensus_error(x, xs))
    with pytest.raises(ValueError, match="zero optimum"):
        consensus_error(x, np.zeros(2))


# ---------------------------------------------------------------------------
# locality and consistency invariants
# ---------------------------------------------------------------------------


def test_gradient_locality_primal_and_dual():
    g = build_d_regular_cycle(9, 2)
    w = build_weight_matrix(g, 2)
    inst = make_quadratic(9, 4, 1.0, 6)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(9, 4))
    primal = DistributedObjective(inst, g, w, "primal", alpha=1e-2)
    dual = DistributedObjective(inst, g, w, "dual")
    i = 0
    nb = list(g.neighborhoods[i])
    base_p = primal_grad_i(primal, i, x[nb])
    base_d = dual_grad_i(dual, i, x[nb])
    outside = [k for k in range(9) if k not in nb]
    for k in outside:
        x2 = x.copy()
        x2[k] += rng.normal(size=4)
        assert np.array_equal(primal_grad_i(primal, i, x2[nb]), base_p)
        assert np.array_equal(dual_grad_i(dual, i, x2[nb]), base_d)


def test_finite_difference_consistency_primal():
    g = build_d_regular_cycle(7, 2)
    w = build_weight_matrix(g, 2)
    inst = make_quadratic(7, 4, 1.0, 3)
    obj = DistributedObjective(inst, g, w, "primal", alpha=1e-2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 4))
    direction = rng.normal(size=(7, 4))
    direction /= np.linalg.norm(direction)
    grad = np.stack([primal_grad_i(obj, i, x[list(g.neighborhoods[i])])
                     for i in range(7)])
    h = 1e-6
    fd = (penalty_objective_value(obj, x + h * direction)
          - penalty_objective_value(obj, x - h * direction)) / (2 * h)
    analytic = float(np.sum(grad * direction))
    assert fd == pytest.approx(analytic, rel=1e-5)


def test_finite_difference_consistency_dual():
    g = build_d_regular_cycle(7, 2)
    w = build_weight_matrix(g, 2)
    inst = make_quadratic(7, 4, 1.0, 3)
    obj = DistributedObjective(inst, g, w, "dual")
    rng = np.random.default_rng(4)
    nu = rng.normal(size=(7, 4))
    direction = rng.normal(size=(7, 4))
    direction /= np.linalg.norm(direction)
    x = obj.stage1_full(nu)
    grad = np.stack([dual_grad_i(obj, i, x[list(g.neighborhoods[i])])
                     for i in range(7)])
    h = 1e-6
    fd = (dual_function_value(obj, nu + h * direction)
          - dual_function_value(obj, nu - h * direction)) / (2 * h)
    assert fd == pytest.approx(float(np.sum(grad * direction)), rel=1e-5)


def test_strong_convexity_witness_spectrum():
    # dense Hessian of the (unscaled) penalty objective on a small network
    n, p, alpha = 6, 4, 1e-2
    g = build_d_regular_cycle(n, 2)
    w = build_weight_matrix(g, 2)
    inst = make_quadratic(n, p, 2.0, 9)
    hess = np.diag(inst.a.ravel()) + np.kron(np.eye(n) - w, np.eye(p)) / alpha
    evals = np.linalg.eigvalsh(hess)
    assert evals.min() >= inst.a.min() - 1e-9
    assert evals.max() <= inst.a.max() + 2.0 / alpha + 1e-9


def test_runtime_grad_matches_block_path():
    g = build_d_regular_cycle(8, 4)
    w = build_weight_matrix(g, 4)
    inst = make_quadratic(8, 4, 1.0, 12)
    rng = np.random.default_rng(5)
    for mode, alpha in (("primal", 1e-2), ("dual", None)):
        obj = DistributedObjective(inst, g, w, mode, alpha=alpha)
        var = rng.normal(size=(8, 4))
        aux_full = obj.stage1_full(var)
        g_full = obj.stage2_full(var, aux_full)
        for i in range(8):
            nb = list(g.neighborhoods[i])
            aux_i = obj.stage1_block(np.array([i]), var[nb][None])
            assert np.array_equal(aux_i[0], aux_full[i])
            g_i = obj.stage2_block(np.array([i]), var[nb][None],
                                   aux_full[nb][None])
            assert np.array_equal(g_i[0], g_full[i])



@pytest.mark.parametrize("form", [np.asarray, sp.csr_array])
def test_weights_outside_closed_neighborhoods_are_rejected(form):
    g = build_d_regular_cycle(6, 2)
    w = build_weight_matrix(g, 2).toarray()
    w[0, 3] = w[3, 0] = 0.1  # 0 and 3 are not adjacent on the 6-cycle
    inst = make_quadratic(6, 4, 1.0, 0)
    with pytest.raises(ValueError, match=r"weight \(0, 3\) lies outside"):
        DistributedObjective(inst, g, form(w), "dual")


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_a_non_finite_alpha_is_rejected(alpha):
    g = build_d_regular_cycle(6, 2)
    with pytest.raises(ValueError, match="finite positive penalty alpha"):
        DistributedObjective(make_quadratic(6, 4, 1.0, 0), g, build_weight_matrix(g, 2),
                             "primal", alpha=alpha)


@pytest.mark.parametrize("form", [np.asarray, sp.csr_array])
def test_a_nan_weight_is_reported_as_not_finite(form):
    g = build_d_regular_cycle(6, 2)
    w = build_weight_matrix(g, 2).toarray()
    w[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"weight \(1, 2\) is not finite"):
        DistributedObjective(make_quadratic(6, 4, 1.0, 0), g, form(w), "dual")


def test_weight_setup_allocates_no_dense_matrix():
    # a dense n x n float W alone would take 122 MiB at n = 4000
    n = 4000
    inst = make_quadratic(n, 4, 2.0, 0)
    tracemalloc.start()
    try:
        g = build_d_regular_cycle(n, 4)
        obj = DistributedObjective(inst, g, build_weight_matrix(g, 4), "dual")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert obj.weights.nnz == 5 * n
