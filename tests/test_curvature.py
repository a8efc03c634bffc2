import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dposv, dpotrf, dpotrs

from dbfgs import _kernel as kernel_module
from dbfgs._kernel import BLOCK_BYTES, CurvatureLost, RoundKernel
from dbfgs.curvature import (
    CurvatureState,
    bfgs_update,
    modified_variations,
    neighborhood_descent,
)
from dbfgs.netgraph import Graph, build_d_regular_cycle, build_weight_matrix
from dbfgs.objectives import DistributedObjective, make_quadratic
from oracles import (
    aggregate_descent,
    assemble_global_descent_matrix,
    centralized_bfgs_oracle,
    curvature_states,
    metropolis_dual,
    metropolis_weights,
    stacked_bfgs_reference,
)


def random_spd(dim, rng, floor=0.1):
    q = rng.normal(size=(dim, dim))
    return q @ q.T + floor * np.eye(dim)


def make_state(dim, matrix, gamma=1e-2, big_gamma=1e-3, d_diag=None):
    return CurvatureState(
        nodes=tuple(range(dim)),
        matrix=np.asarray(matrix, dtype=float),
        gamma=gamma,
        big_gamma=big_gamma,
        d_diag=np.ones(dim) if d_diag is None else np.asarray(d_diag, float),
    )


# ---------------------------------------------------------------------------
# modified variations
# ---------------------------------------------------------------------------


def test_variations_zero_step():
    d = np.ones(3)
    pair = modified_variations(np.ones(3), np.ones(3), np.zeros(3),
                               np.array([1.0, 2.0, 3.0]), d, 0.01)
    assert np.array_equal(pair.v_mod, np.zeros(3))
    assert np.array_equal(pair.r_mod, pair.dg)


def test_variations_scalar_example():
    # D = 1, gamma = 0.01, dx = 1, dg = 2 -> v = 1, r = 1.99
    pair = modified_variations(np.array([0.0]), np.array([1.0]),
                               np.array([0.0]), np.array([2.0]),
                               np.ones(1), 0.01)
    assert pair.v_mod == pytest.approx([1.0])
    assert pair.r_mod == pytest.approx([1.99])


def test_variations_uniform_normalizer():
    d = np.full(6, 1.0 / 5.0)
    dx = np.arange(6.0)
    pair = modified_variations(np.zeros(6), dx, np.zeros(6), np.zeros(6), d, 0.0)
    assert np.allclose(pair.v_mod, dx / 5.0)


def test_variations_identity_r_equals_dg_minus_gamma_v():
    rng = np.random.default_rng(0)
    d = rng.uniform(0.1, 1.0, size=8)
    x0, x1 = rng.normal(size=8), rng.normal(size=8)
    g0, g1 = rng.normal(size=8), rng.normal(size=8)
    pair = modified_variations(x0, x1, g0, g1, d, 0.3)
    assert np.allclose(pair.r_mod, pair.dg - 0.3 * pair.v_mod, atol=1e-15)


def test_variations_dimension_mismatch():
    with pytest.raises(ValueError):
        modified_variations(np.zeros(2), np.zeros(3), np.zeros(3),
                            np.zeros(3), np.ones(3), 0.1)


# ---------------------------------------------------------------------------
# regularized BFGS update
# ---------------------------------------------------------------------------


def test_update_skips_negative_inner_product():
    state = make_state(2, np.eye(2))
    pair = modified_variations(np.zeros(2), np.array([1.0, 0.0]),
                               np.zeros(2), np.array([-2.0, 0.0]),
                               np.ones(2), 0.0)
    assert float(pair.v_mod @ pair.r_mod) < 0
    new, accepted = bfgs_update(state, pair)
    assert not accepted
    assert new.matrix is state.matrix


def test_update_scalar_example_and_secant():
    # B=1, v=1, r=2, gamma=0.01: B+ = 1 + 4/2 - 1 + 0.01 = 2.01 = dg + gamma*v
    state = make_state(1, np.eye(1), gamma=0.01)
    pair = modified_variations(np.zeros(1), np.ones(1), np.zeros(1),
                               np.array([2.01]), np.ones(1), 0.01)
    assert pair.r_mod == pytest.approx([2.0])
    new, accepted = bfgs_update(state, pair)
    assert accepted
    assert new.matrix[0, 0] == pytest.approx(2.01)
    assert new.matrix @ pair.v_mod == pytest.approx(pair.dg)


def test_update_random_secant_and_spectrum():
    rng = np.random.default_rng(1)
    gamma = 1e-2
    for _ in range(50):
        b = random_spd(4, rng)
        state = make_state(4, b, gamma=gamma)
        v = rng.normal(size=4)
        r = rng.normal(size=4)
        if v @ r <= 0:
            r = -r
        dg = r + gamma * v
        pair = modified_variations(np.zeros(4), v, np.zeros(4), dg,
                                   np.ones(4), gamma)
        new, accepted = bfgs_update(state, pair)
        assert accepted
        resid = np.linalg.norm(new.matrix @ v - dg) / np.linalg.norm(dg)
        assert resid <= 1e-10
        assert np.linalg.eigvalsh(new.matrix).min() >= gamma - 1e-10


def test_update_never_raises_on_degenerate_pairs():
    state = make_state(3, np.eye(3))
    zero = modified_variations(np.zeros(3), np.zeros(3), np.zeros(3),
                               np.zeros(3), np.ones(3), 0.01)
    _, accepted = bfgs_update(state, zero)
    assert not accepted
    # v = 0 with nonzero r
    weird = modified_variations(np.zeros(3), np.zeros(3), np.zeros(3),
                                np.array([1.0, 2.0, 3.0]), np.ones(3), 0.01)
    _, accepted = bfgs_update(state, weird)
    assert not accepted


def test_update_preserves_symmetry():
    rng = np.random.default_rng(2)
    state = make_state(6, random_spd(6, rng))
    for _ in range(40):
        v, r = rng.normal(size=6), rng.normal(size=6)
        dg = (r if v @ r > 0 else -r) + state.gamma * v
        pair = modified_variations(np.zeros(6), v, np.zeros(6), dg,
                                   np.ones(6), state.gamma)
        state, _ = bfgs_update(state, pair)
        assert np.max(np.abs(state.matrix - state.matrix.T)) <= 1e-10


# ---------------------------------------------------------------------------
# descent computation and aggregation
# ---------------------------------------------------------------------------


def test_descent_zero_gradient():
    state = make_state(4, np.eye(4))
    assert np.array_equal(neighborhood_descent(state, np.zeros(4)), np.zeros(4))


def test_descent_identity_scalar_example():
    # B = I (1x1), Gamma = 0.001, m = 1, g = 2 -> e = -2.002
    state = make_state(1, np.eye(1), big_gamma=0.001, d_diag=[1.0])
    e = neighborhood_descent(state, np.array([2.0]))
    assert e == pytest.approx([-2.002])


def test_descent_is_a_descent_direction():
    rng = np.random.default_rng(3)
    for _ in range(25):
        state = make_state(5, random_spd(5, rng),
                           d_diag=rng.uniform(0.2, 1.0, size=5))
        g = rng.normal(size=5)
        e = neighborhood_descent(state, g)
        assert float(e @ g) < 0


def test_aggregate_descent():
    parts = [np.array([1.0]), np.array([-0.25])]
    assert aggregate_descent(parts) == pytest.approx([0.75])
    zero_neighbors = [np.array([0.4, 0.1]), np.zeros(2), np.zeros(2)]
    assert np.allclose(aggregate_descent(zero_neighbors), [0.4, 0.1])
    with pytest.raises(ValueError, match="expected 3"):
        aggregate_descent(parts, expected=3)


def test_distributed_descent_matches_assembled_matrix():
    # concatenated per-node descents equal -(H + Gamma I) g on a 5-node graph
    rng = np.random.default_rng(4)
    p = 2
    graph = build_d_regular_cycle(5, 2)
    gamma, big_gamma = 1e-2, 1e-3
    states = []
    for i in range(5):
        st = CurvatureState.initial(graph, i, p, gamma, big_gamma)
        st.matrix = random_spd(st.dim, rng, floor=0.5)
        states.append(st)
    g = rng.normal(size=(5, p))
    descents = [neighborhood_descent(states[i], g[list(graph.neighborhoods[i])])
                for i in range(5)]
    d = np.zeros((5, p))
    for i in range(5):
        contribs = []
        for j in graph.neighborhoods[i]:
            slot = graph.neighborhoods[j].index(i)
            contribs.append(descents[j][slot * p:(slot + 1) * p])
        d[i] = aggregate_descent(contribs, expected=graph.m[i])
    big = assemble_global_descent_matrix(states, graph, p)
    expected = -(big @ g.ravel())
    assert np.linalg.norm(d.ravel() - expected) <= 1e-10


def irregular_graph():
    # neighborhood sizes m = (3, 3, 5, 3, 4, 2)
    return Graph.from_edges(6, [(0, 2), (1, 2), (2, 3), (2, 5), (0, 4),
                                (1, 4), (3, 4)])


def one_batch(kernel, ids):
    """The kernel's groups of one batch of distinct node ids."""
    return kernel.batches(ids, [0, len(ids)])[0]


def gather(arr, groups):
    """(g, m, p) neighborhood views of a batch's groups."""
    return [arr[grp.nb] for grp in groups]


def test_kernel_batches_match_per_node_reference():
    # every batch of the stacked kernel agrees with the per-node functions
    rng = np.random.default_rng(8)
    p, gamma, big_gamma = 2, 1e-2, 1e-3
    graph = irregular_graph()
    kernel = RoundKernel(graph, p)
    x0, x1, g0, g1 = (rng.normal(size=(6, p)) for _ in range(4))
    for batch in ([2], [0, 5], [1, 2, 3, 4], list(range(6))):
        groups = one_batch(kernel, batch)
        states = [CurvatureState.initial(graph, i, p, gamma, big_gamma)
                  for i in range(6)]
        for i, st in enumerate(states):
            st.matrix = random_spd(st.dim, rng, floor=0.5)
            kernel.write_matrix(i, st.matrix)
        # a first round keeps the (x0, g0) views without touching curvature
        kernel.dbfgs_round(gather(x0, groups), gather(g0, groups), gamma,
                           big_gamma, first=True, groups=groups)
        acc = kernel.dbfgs_round(gather(x1, groups), gather(g1, groups), gamma,
                                 big_gamma, groups=groups)
        for k, i in enumerate(batch):
            nb = list(graph.neighborhoods[i])
            pair = modified_variations(x0[nb], x1[nb], g0[nb], g1[nb],
                                       states[i].d_diag, gamma)
            ref, ok = bfgs_update(states[i], pair)
            assert acc[k] == ok
            assert np.allclose(kernel.matrix(i), ref.matrix, rtol=1e-12, atol=1e-12)
            e = kernel.contrib[kernel.offsets[i]:kernel.offsets[i + 1]].ravel()
            assert np.allclose(e, neighborhood_descent(ref, g1[nb]),
                               rtol=1e-10, atol=1e-12)


def test_kernel_descent_equals_per_node_reference_bitwise():
    # one Cholesky factorization and solve per node, in the reference's
    # triangle and float order, on exactly symmetric matrices
    rng = np.random.default_rng(9)
    p, big_gamma = 2, 1e-3
    graph = irregular_graph()
    kernel = RoundKernel(graph, p)
    g = rng.normal(size=(6, p))
    for batch in ([2], [0, 5], [1, 2, 3, 4], list(range(6))):
        groups = one_batch(kernel, batch)
        states = [CurvatureState.initial(graph, i, p, 1e-2, big_gamma)
                  for i in range(6)]
        for i, st in enumerate(states):
            st.matrix = random_spd(st.dim, rng, floor=0.5)
            assert np.array_equal(st.matrix, st.matrix.T)
            kernel.write_matrix(i, st.matrix)
        kernel.descent(gather(g, groups), big_gamma, groups)
        for i in batch:
            e = kernel.contrib[kernel.offsets[i]:kernel.offsets[i + 1]].ravel()
            nb = list(graph.neighborhoods[i])
            assert np.array_equal(e, neighborhood_descent(states[i], g[nb]))
            # the factorization works in the factor stack, not on the node's state
            assert np.array_equal(kernel.matrix(i), states[i].matrix)


def test_kernel_descent_names_an_indefinite_node():
    graph = irregular_graph()
    kernel = RoundKernel(graph, 2)
    g = np.ones((6, 2))
    for bad in (np.diag([1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
                np.full((8, 8), np.nan)):
        kernel.write_matrix(4, bad)
        for groups in (kernel.groups, one_batch(kernel, [4]), one_batch(kernel, [1, 4])):
            with pytest.raises(RuntimeError,
                               match="lost positive definiteness at node 4"):
                kernel.descent(gather(g, groups), 1e-3, groups)
    # on its own after a round, descent factors the stack's current matrix,
    # not the one the round left in the factor slot; node 190 of a 200-node
    # cycle is in a later block of either batch (81 nodes a block at k = 20)
    rng = np.random.default_rng(12)
    cycle = build_d_regular_cycle(200, 4)
    x0, x1, g0, g1 = (rng.normal(size=(200, 4)) for _ in range(4))
    for bad in (np.diag(np.r_[np.ones(19), -1.0]), np.full((20, 20), np.nan)):
        kernel = RoundKernel(cycle, 4)
        for groups in (kernel.groups, one_batch(kernel, np.roll(np.arange(200), 100))):
            kernel.dbfgs_round(gather(x0, groups), gather(g0, groups), 1e-2,
                               1e-3, first=True, groups=groups)
            acc = kernel.dbfgs_round(gather(x1, groups), gather(g1, groups),
                                     1e-2, 1e-3, groups=groups)
            assert acc.any()
            kept = kernel.matrix(190).copy()
            kernel.write_matrix(190, bad)
            with pytest.raises(RuntimeError,
                               match="lost positive definiteness at node 190"):
                kernel.descent(gather(g1, groups), 1e-3, groups)
            kernel.write_matrix(190, kept)


@pytest.mark.parametrize("k", [8, 20])
def test_dposv_is_dpotrf_then_dpotrs_bitwise(k):
    # the premise of the kernel's kept factors: a node solved with the factor
    # of an earlier round gets the bits dposv would give it now
    rng = np.random.default_rng(16)
    for _ in range(200):
        b = random_spd(k, rng)
        y = rng.normal(size=k)
        a1, a2, y1, y2 = b.copy(), b.copy(), y.copy(), y.copy()
        # as the kernel calls them: the Fortran-order transpose, lower triangle
        info = dposv(a1.T, y1, 1, 1, 1)[2]
        info += dpotrf(a2.T, 1, 0, 1)[1] + dpotrs(a2.T, y2, 1, 1)[1]
        assert info == 0
        assert a1.tobytes() == a2.tobytes() and y1.tobytes() == y2.tobytes(), (
            "LAPACK's dposv no longer equals dpotrf then dpotrs bit for bit: "
            "RoundKernel.descent may not reuse a kept Cholesky factor")


@pytest.mark.parametrize("shape", [(7, 3), (50, 4), (400, 4)])
def test_sqrt_of_the_flat_dot_is_np_linalg_norm_bitwise(shape):
    # the premise of the simulator's record: a row's gradient norm taken as
    # sqrt(flat . flat) on a flat view has np.linalg.norm's bits
    rng = np.random.default_rng(20)
    cases = [rng.normal(size=shape) * 10.0 ** rng.uniform(-160, 160, size=(shape[0], 1))
             for _ in range(100)]
    subnormal = rng.normal(size=shape) * 1e-310
    overflow = rng.normal(size=shape) * 1e160  # squares beyond the float range
    nan, inf = rng.normal(size=(2,) + shape)
    nan[-1, 1], inf[0, 0] = np.nan, -np.inf
    for x in cases + [np.zeros(shape), np.full(shape, 5e-324), subnormal, overflow,
                      nan, inf]:
        flat = x.ravel()
        with np.errstate(over="ignore"):
            want = np.linalg.norm(x).tobytes()
            assert np.float64(math.sqrt(flat.dot(flat))).tobytes() == want, (
                "np.linalg.norm no longer takes sqrt(dot)")


def big_irregular_graph():
    # a 200-node cycle with chords: m = 3 for most nodes, 4 or 5 at chord ends
    chords = ([(i, i + 100) for i in range(0, 100, 7)]
              + [(i, i + 50) for i in range(1, 50, 11)])
    return Graph.from_edges(200, [(i, (i + 1) % 200) for i in range(200)] + chords)


@settings(max_examples=40, deadline=None)
@given(graph=st.sampled_from([build_d_regular_cycle(9, 4), big_irregular_graph()]),
       data=st.data())
def test_kernel_batches_of_row_keys_shift_only_the_neighbor_keys(graph, data):
    # keys row * n + node group like their node ids: the same ids, pos, slot
    # and rows per part, with each neighbor key shifted by row * n
    n, rows = graph.n, data.draw(st.integers(1, 4))
    keys = np.array(sorted(data.draw(st.sets(st.integers(0, rows * n - 1), min_size=1,
                                              max_size=40))), dtype=np.intp)
    inner = data.draw(st.sets(st.integers(1, len(keys) - 1), max_size=3)
                      if len(keys) > 1 else st.just(set()))
    cuts = [0, *sorted(inner), len(keys)]
    kernel = RoundKernel(graph, 2)
    by_key, by_node = kernel.batches(keys, cuts), kernel.batches(keys % n, cuts)
    assert len(by_key) == len(by_node) == len(cuts) - 1
    for lo, key_groups, node_groups in zip(cuts, by_key, by_node):
        assert len(key_groups) == len(node_groups) > 0
        for kg, ng in zip(key_groups, node_groups):
            assert kg.msize == ng.msize
            for field in ("ids", "pos", "slot", "rows"):
                assert np.array_equal(getattr(kg, field), getattr(ng, field))
            shift = (keys[lo + kg.pos] - kg.ids)[:, None]
            assert np.array_equal(kg.nb, ng.nb + shift)
            assert np.array_equal(ng.nb, kernel.cols[ng.rows])


@pytest.mark.parametrize("graph", [build_d_regular_cycle(40, 4), big_irregular_graph()])
def test_first_round_descent_equals_the_identity_solve_bitwise(graph):
    # every curvature starts at I, which dposv solves exactly for finite g:
    # a first round writes -(g + Gamma D g) without a factorization
    rng = np.random.default_rng(14)
    p, big_gamma = 4, 1e-3
    for ids in (list(range(graph.n)), [i for i in range(graph.n) if i % 3]):
        first, solved = RoundKernel(graph, p), RoundKernel(graph, p)
        g = rng.normal(size=(graph.n, p)) * 10.0 ** rng.integers(-8, 9, size=(graph.n, 1))
        groups = one_batch(first, ids)
        first.dbfgs_round(gather(g, groups), gather(g, groups), 1e-2, big_gamma,
                          first=True, groups=groups)
        solved.descent(gather(g, groups), big_gamma, one_batch(solved, ids))
        assert first.contrib.tobytes() == solved.contrib.tobytes()
        assert first.contrib[first.offsets[ids[0]]].any()


@pytest.mark.parametrize("graph, p", [(build_d_regular_cycle(200, 4), 4),
                                      (big_irregular_graph(), 8)])
@pytest.mark.parametrize("subset", [False, True])
def test_blocked_update_equals_one_shot_reference(graph, p, subset):
    # the blocked update in the factor slots, its write-back and the descent
    # on those slots give the bits of the one-shot stacked update, with
    # accepted nodes, v'r skips and v'Bv skips in one block
    rng = np.random.default_rng(13)
    gamma, big_gamma = 1e-2, 1e-3
    kernel, ref = RoundKernel(graph, p), RoundKernel(graph, p)
    groups = (one_batch(kernel, [i for i in range(graph.n - 1, -1, -1) if i % 10])
              if subset else kernel.groups)
    grp = groups[0]
    k = grp.msize * p
    size = BLOCK_BYTES // (8 * k * k)  # nodes a block
    assert len(grp.ids) > 2 * size and len(grp.ids) % size  # a partial third block
    for i in range(graph.n):
        b = random_spd(graph.m[i] * p, rng, 0.5)
        kernel.write_matrix(i, b)
        ref.write_matrix(i, b)
    x0, x1, g0, g1 = (rng.normal(size=(graph.n, p)) for _ in range(4))
    for kern in (kernel, ref):
        kern.dbfgs_round(gather(x0, groups), gather(g0, groups), gamma,
                         big_gamma, first=True, groups=groups)
    vv, gv = gather(x1, groups), gather(g1, groups)
    # in the first block: v = 0 at positions 5 and 41, and v'r > 0 with an
    # indefinite or a NaN matrix at positions 3 and 20
    vv0, gv0 = x0[grp.nb], g0[grp.nb]
    vv[0][[5, 41]] = vv0[[5, 41]]
    for j, bad in ((3, -np.eye(k)), (20, np.full((k, k), np.nan))):
        gv[0][j] = gv0[j] + 2 * (vv[0][j] - vv0[j])
        kernel.write_matrix(grp.ids[j], bad)
        ref.write_matrix(grp.ids[j], bad)
    # dbfgs_round's two steps, which a lost curvature would cut short
    acc = kernel.bfgs_all(vv, gv, gamma, groups)
    with pytest.raises(CurvatureLost) as lost:
        kernel.descent(gv, big_gamma, groups)
    want = stacked_bfgs_reference(ref, vv, gv, gamma, groups)
    with pytest.raises(CurvatureLost) as want_lost:
        ref.descent(gv, big_gamma, groups)
    first = acc[grp.pos[:size]]
    assert not first[[3, 5, 20, 41]].any() and first.any()
    assert acc.tolist() == want.tolist()
    assert lost.value.nodes == want_lost.value.nodes == grp.ids[[3, 20]].tolist()
    for msize, stack in kernel.curvature.items():
        assert stack.tobytes() == ref.curvature[msize].tobytes()
    assert kernel.contrib.tobytes() == ref.contrib.tobytes()


def refactor_all(kernel):
    """Drop every kept factor, through the one write path."""
    for i in range(kernel.graph.n):
        kernel.write_matrix(i, kernel.matrix(i))


@pytest.mark.parametrize("graph, p", [(build_d_regular_cycle(200, 4), 4),
                                      (big_irregular_graph(), 8)])
@pytest.mark.parametrize("subset", [False, True])
def test_kept_factors_give_the_bits_of_factoring_every_round(graph, p, subset,
                                                             monkeypatch):
    # rounds that accept every update, rounds of random pairs (about half
    # declined) with planted v = 0 and v'r < 0, a round with v'Bv <= 0
    # candidates and a round that declines every node: solving declined
    # nodes with their kept factors gives the bits of factoring every node
    rng = np.random.default_rng(15)
    gamma, big_gamma = 1e-2, 1e-3
    kernels = RoundKernel(graph, p), RoundKernel(graph, p)
    ids = [i for i in range(graph.n - 1, -1, -1) if i % 10] if subset else None
    batches = [one_batch(kern, ids) if subset else kern.groups for kern in kernels]
    reused = []
    monkeypatch.setattr(kernel_module, "dpotrs",
                        lambda *args: reused.append(1) or dpotrs(*args))
    x, g = rng.normal(size=(graph.n, p)), rng.normal(size=(graph.n, p))
    for kern, groups in zip(kernels, batches):
        kern.dbfgs_round(gather(x, groups), gather(g, groups), gamma, big_gamma,
                         first=True, groups=groups)
    kernel, ref = kernels
    grp = batches[0][0]
    k = grp.msize * p
    for kind in ("all", "mixed", "all", "indefinite", "mixed", "none"):
        x1 = x + rng.normal(size=x.shape)
        g1 = g + (2 * (x1 - x) if kind in ("all", "indefinite")
                  else rng.normal(size=g.shape))
        outcomes = []
        refactor_all(ref)
        for kern, groups in zip(kernels, batches):
            vv, gv = gather(x1, groups), gather(g1, groups)
            last_v, last_g = kern.last[0][grp.rows], kern.last[1][grp.rows]
            if kind == "none":  # v = 0 everywhere
                vv = [kern.last[0][gr.rows] for gr in groups]
            if kind == "mixed":  # v = 0 at 5 and 41, v'r < 0 at 7 and 30
                vv[0][[5, 41]] = last_v[[5, 41]]
                gv[0][[7, 30]] = last_g[[7, 30]] - (vv[0][[7, 30]] - last_v[[7, 30]])
            if kind == "indefinite":  # v'r > 0 but v'Bv < 0 at 3 and 20
                for j in (3, 20):
                    kern.write_matrix(grp.ids[j], -np.eye(k))
            try:
                outcomes.append(kern.dbfgs_round(vv, gv, gamma, big_gamma,
                                                 groups=groups).tolist())
            except CurvatureLost as lost:
                outcomes.append(lost.nodes)
        assert outcomes[0] == outcomes[1]
        if kind == "indefinite":
            assert outcomes[0] == grp.ids[[3, 20]].tolist()
            for kern in kernels:  # no round kept these views; mend the nodes
                for j in (3, 20):
                    kern.write_matrix(grp.ids[j], np.eye(k))
        else:
            assert any(outcomes[0]) == (kind != "none")
            assert all(outcomes[0]) == (kind == "all")
            x, g = x1, g1
        for msize, stack in kernel.curvature.items():
            assert stack.tobytes() == ref.curvature[msize].tobytes()
        assert kernel.contrib.tobytes() == ref.contrib.tobytes()
    assert len(reused) > len(grp.ids)
    # a write drops the node's kept factor: a NaN planted in a node that
    # declined last round, and declines again, is factored and found
    node = grp.ids[9]
    kernel.write_matrix(node, np.full((k, k), np.nan))
    groups = batches[0]
    with pytest.raises(CurvatureLost, match=f"at node {node}$") as lost:
        kernel.dbfgs_round([kernel.last[0][gr.rows] for gr in groups],
                           gather(g, groups), gamma, big_gamma, groups=groups)
    assert lost.value.nodes == [node]
    with pytest.raises(ValueError, match="read-only"):
        kernel.matrix(node)[:] = 1.0


@settings(max_examples=40, deadline=None, database=None)
@given(metropolis_dual(max_n=9), st.data())
def test_subset_batch_descent_matches_assembled_matrix(problem, data):
    # a batch's aggregated contributions equal -(H_S + Gamma D_S) g, where
    # H_S + Gamma I is the dense oracle assembled from the batch's states
    # and D_S sums each batch node's D over its neighborhood
    graph, _ = problem
    n, p, big_gamma = graph.n, 2, 1e-3
    batch = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    kernel = RoundKernel(graph, p)
    states = []
    for i in batch:
        state = CurvatureState.initial(graph, i, p, 1e-2, big_gamma)
        state.matrix = random_spd(state.dim, rng, floor=0.5)
        kernel.write_matrix(i, state.matrix)
        states.append(state)
    g = rng.normal(size=(n, p))
    groups = one_batch(kernel, batch)
    kernel.descent(gather(g, groups), big_gamma, groups)
    d = np.zeros((n, p))
    kernel.apply_descents(d, 1.0)
    big = assemble_global_descent_matrix(states, graph, p)
    d_s = np.zeros((n, p))
    for state in states:
        d_s[list(state.nodes)] += state.d_diag.reshape(-1, p)
    big[np.diag_indices_from(big)] += big_gamma * (d_s.ravel() - 1.0)
    assert np.linalg.norm(d.ravel() + big @ g.ravel()) <= 1e-10


def quadratic_dual(graph, seed):
    return DistributedObjective(make_quadratic(graph.n, 4, 2.0, seed), graph,
                                metropolis_weights(graph), "dual")


@pytest.mark.parametrize("graph, nodes", [
    (build_d_regular_cycle(20, 4), [0, 3, 6, 9, 12, 15]),
    (irregular_graph(), [0, 1, 3, 5]),  # m = 3, 3, 3, 2: two groups
])
def test_kernel_batch_of_non_adjacent_nodes_equals_one_at_a_time(graph, nodes):
    # pairwise non-adjacent nodes commute: run as one batch, each node gets
    # the bits it gets alone (stages, curvature, contributions, kept views)
    rng = np.random.default_rng(11)
    obj, p = quadratic_dual(graph, 5), 4
    kernels = [RoundKernel(graph, p) for _ in range(2)]
    x0, x1, g0, g1 = (rng.normal(size=(graph.n, p)) for _ in range(4))
    for kernel in kernels:  # two network rounds: curvature away from I
        kernel.dbfgs_round(gather(x0, kernel.groups), gather(g0, kernel.groups),
                           1e-2, 1e-3, first=True)
        kernel.dbfgs_round(gather(x1, kernel.groups), gather(g1, kernel.groups),
                           1e-2, 1e-3)
    # dated packages in layout rows, then the current blocks, as the
    # simulator's log holds them: a node reads its own current block and
    # its dated package of each neighbor (none is in the batch)
    total = kernels[0].total_blocks
    var, aux, g = (rng.normal(size=(total + graph.n, p)) for _ in range(3))

    def step(kernel, batch):
        groups = one_batch(kernel, batch)
        views = [np.where(grp.nb == grp.ids[:, None], total + grp.nb, grp.rows)
                 for grp in groups]
        stages = {}
        for grp, view in zip(groups, views):
            one = obj.stage1_block(grp.ids, var[view])
            two = obj.stage2_block(grp.ids, var[view], aux[view])
            stages.update({i: (a, b) for i, a, b in zip(grp.ids.tolist(), one, two)})
        acc = kernel.dbfgs_round([var[view] for view in views],
                                 [g[view] for view in views], 1e-2, 1e-3,
                                 groups=groups)
        return stages, acc.tolist()

    together, alone = kernels
    stages, acc = step(together, nodes)
    for k, i in enumerate(nodes):
        own, own_acc = step(alone, [i])
        assert own_acc == [acc[k]]
        for a, b in zip(stages[i], own[i]):
            assert a.tobytes() == b.tobytes()
    assert any(acc)  # some updates ran
    for msize, stack in together.curvature.items():
        assert stack.tobytes() == alone.curvature[msize].tobytes()
    assert together.contrib.tobytes() == alone.contrib.tobytes()
    assert together.last.tobytes() == alone.last.tobytes()


def test_curvature_stays_exactly_symmetric():
    # the update's terms are each exactly symmetric, so B = B' bit for bit
    # after every accepted update, in the synchronous engine and in events
    from dbfgs.async_sim import AsyncConfig, _AsyncEngine, gen_clock_schedule
    from dbfgs.sync_runtime import DbfgsSyncEngine

    fig2 = build_d_regular_cycle(50, 4)
    fig2_obj = DistributedObjective(make_quadratic(50, 4, 2.0, 0), fig2,
                                    build_weight_matrix(fig2, 4), "dual")
    irregular = irregular_graph()
    for graph, obj in ((fig2, fig2_obj), (irregular, quadratic_dual(irregular, 1))):
        engine = DbfgsSyncEngine(graph, obj, 1e-2, 1e-3, 0.01)
        accepted = 0
        for _ in range(200):
            engine.step()
            accepted += int(engine.accepted.sum())
        assert accepted > 100 * graph.n
        for i in range(graph.n):
            b = engine.kernel.matrix(i)
            assert np.array_equal(b, b.T)
    cfg = AsyncConfig(method="dbfgs", mode="dual", step_size=0.01,
                      max_iters=10**9, gamma=0.1, big_gamma=0.1)
    schedule = gen_clock_schedule(50, 1.0, 0.1, 30.0, 2)
    engine = _AsyncEngine(fig2, fig2_obj, cfg, schedule, "dbfgs")
    engine.run()
    for i in range(fig2.n):
        b = engine.kernel.matrix(i)
        assert not np.array_equal(b, np.eye(len(b)))
        assert np.array_equal(b, b.T)


def test_assembled_global_secant_on_quadratic_run():
    # global secant identity on a short 5-node primal run
    import dbfgs
    from dbfgs.sync_runtime import DbfgsSyncEngine

    graph = build_d_regular_cycle(5, 2)
    w = dbfgs.build_weight_matrix(graph, 2)
    inst = dbfgs.make_quadratic(5, 4, 1.0, 13)
    obj = dbfgs.DistributedObjective(inst, graph, w, "primal", alpha=1e-2)
    eng = DbfgsSyncEngine(graph, obj, 1e-2, 1e-3, 0.1)
    var_prev, g_prev = eng.var.copy(), eng.g.copy()
    eligible = checked = 0
    for _ in range(40):
        eng.step()
        v = (eng.var - var_prev).ravel()
        r = (eng.g - g_prev).ravel()
        if bool(np.all(eng.accepted)) and np.linalg.norm(v) > 0:
            eligible += 1
            h = (assemble_global_descent_matrix(curvature_states(eng), graph, 4)
                 - 1e-3 * np.eye(20))
            rel = np.linalg.norm(h @ r - v) / np.linalg.norm(v)
            checked += rel <= 1e-8
        var_prev, g_prev = eng.var.copy(), eng.g.copy()
    assert eligible > 10
    assert checked == eligible


def test_assembled_spectrum_lemma_bounds():
    import dbfgs
    from dbfgs.sync_runtime import DbfgsSyncEngine

    n, p, gamma, big_gamma = 5, 4, 1e-2, 1e-3
    graph = build_d_regular_cycle(n, 2)
    w = dbfgs.build_weight_matrix(graph, 2)
    inst = dbfgs.make_quadratic(n, p, 1.0, 8)
    obj = dbfgs.DistributedObjective(inst, graph, w, "primal", alpha=1e-2)
    eng = DbfgsSyncEngine(graph, obj, gamma, big_gamma, 0.1)
    for _ in range(50):
        eng.step()
        evals = np.linalg.eigvalsh(
            assemble_global_descent_matrix(curvature_states(eng), graph, p))
        assert evals.min() >= big_gamma - 1e-10
        assert evals.max() <= big_gamma + n / gamma + 1e-6


# ---------------------------------------------------------------------------
# centralized oracle
# ---------------------------------------------------------------------------


def test_centralized_oracle_scalar():
    out = centralized_bfgs_oracle(np.eye(1), np.ones(1), np.array([2.0]))
    assert out[0, 0] == pytest.approx(2.0)


def test_centralized_oracle_secant():
    rng = np.random.default_rng(5)
    b = random_spd(5, rng)
    v, r = rng.normal(size=5), rng.normal(size=5)
    if v @ r <= 0:
        r = -r
    out = centralized_bfgs_oracle(b, v, r)
    assert np.allclose(out @ v, r, atol=1e-12 * np.linalg.norm(r))


def test_centralized_oracle_rejects_nonpositive_curvature():
    with pytest.raises(ValueError, match="positive curvature"):
        centralized_bfgs_oracle(np.eye(2), np.array([1.0, 0.0]),
                                np.array([-1.0, 0.0]))


def test_gamma_zero_single_node_reduces_to_centralized():
    # single-node network, m = 1, gamma -> 0: the update is classical BFGS
    graph = Graph.from_edges(1, [])
    rng = np.random.default_rng(6)
    b = random_spd(3, rng)
    state = CurvatureState(nodes=(0,), matrix=b.copy(), gamma=0.0,
                           big_gamma=1e-3, d_diag=np.ones(3))
    v, r = rng.normal(size=3), rng.normal(size=3)
    if v @ r <= 0:
        r = -r
    pair = modified_variations(np.zeros(3), v, np.zeros(3), r, state.d_diag, 0.0)
    new, accepted = bfgs_update(state, pair)
    assert accepted
    assert np.allclose(new.matrix, centralized_bfgs_oracle(b, v, r), atol=1e-12)
    assert graph.m == (1,)
