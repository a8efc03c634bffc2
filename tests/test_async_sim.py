from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbfgs
from dbfgs import async_sim
from dbfgs.async_sim import (
    CLOCK_INCREMENT_FLOOR,
    AsyncConfig,
    _AsyncEngine,
    ClockSchedule,
    EventQueue,
    gen_clock_schedule,
    run_dbfgs_async,
    run_dd_async,
    virtual_replay,
)
from dbfgs._kernel import RoundKernel
from dbfgs.netgraph import Graph, build_d_regular_cycle, build_weight_matrix
from dbfgs.objectives import (
    DistributedObjective,
    QuadraticInstance,
    consensus_error,
    make_quadratic,
)
from dbfgs.sync_runtime import SyncConfig, run_dbfgs_sync, run_dd
from oracles import (Mailbox, brute_force_levels, measure_asynchronicity,
                     metropolis_dual, metropolis_weights, read_sets, time_functions)


def ring_dual(n, d, eta, seed):
    g = build_d_regular_cycle(n, d)
    w = build_weight_matrix(g, d)
    inst = make_quadratic(n, 4, eta, seed)
    return g, DistributedObjective(inst, g, w, "dual")


def dbfgs_cfg(eps=0.01, gamma=1e-2, big_gamma=1e-3, mode="dual", **kw):
    return AsyncConfig(method="dbfgs", mode=mode, step_size=eps,
                       max_iters=10**9, gamma=gamma, big_gamma=big_gamma, **kw)


def align_against_sync(async_trace, sync_trace):
    by_iter = {li: e for li, e in zip(async_trace.local_iter_min,
                                      async_trace.error)}
    return [(e, by_iter[t]) for t, e in zip(sync_trace.iters, sync_trace.error)
            if t in by_iter]


# ---------------------------------------------------------------------------
# clock schedules and time functions
# ---------------------------------------------------------------------------


def test_lockstep_schedule_ticks():
    s = gen_clock_schedule(4, 1.0, 0.0, 5.5, 0)
    for ticks in s.times:
        assert np.allclose(ticks, [0, 1, 2, 3, 4, 5])
    # degenerate synchronous case: exact ties across nodes
    assert all(np.array_equal(s.times[0], t) for t in s.times)


def test_schedule_determinism_and_floor():
    a = gen_clock_schedule(6, 1.0, 0.8, 40.0, 3)
    b = gen_clock_schedule(6, 1.0, 0.8, 40.0, 3)
    for ta, tb in zip(a.times, b.times):
        assert np.array_equal(ta, tb)
    for ticks in a.times:
        # accumulated addition rounds tick gaps by ~eps * t
        assert np.all(np.diff(ticks) >= 0.01 - 1e-12)


def test_schedule_reference_regimes_smoke():
    for sigma in (0.1, 0.3):
        s = gen_clock_schedule(10, 1.0, sigma, 50.0, 1)
        counts = [len(t) for t in s.times]
        assert min(counts) > 40


def test_time_functions_examples():
    s = ClockSchedule(times=(np.array([0.0, 3.0, 5.0]), np.array([0.0, 2.0])))
    pi_i, _ = time_functions(s, 0, 0, 4.0)
    assert pi_i == 3.0
    _, pi_ij = time_functions(s, 0, 1, 4.0)
    assert pi_ij == 2.0  # pi_1(pi_0(4)) = pi_1(3) = 2
    # before the first availability the initial time 0 is returned
    pi_i, pi_ij = time_functions(s, 0, 1, 0.0)
    assert pi_i == 0.0 and pi_ij == 0.0


def test_time_functions_lockstep():
    s = gen_clock_schedule(3, 1.0, 0.0, 10.0, 0)
    # mid-interval: the data of any neighbor is one tick behind one's own
    pi_i, pi_ij = time_functions(s, 0, 1, 4.5)
    assert pi_i == 4.0 and pi_ij == 3.0


def test_event_queue_batches_ties_by_time():
    s = gen_clock_schedule(3, 1.0, 0.0, 3.0, 0)
    batches = list(EventQueue(s).batches())
    assert [t for t, _ in batches] == [0.0, 1.0, 2.0, 3.0]
    assert all(nodes == [0, 1, 2] for _, nodes in batches)


# ---------------------------------------------------------------------------
# staleness measurement
# ---------------------------------------------------------------------------


def test_measure_lockstep_staleness_is_two_periods():
    s = gen_clock_schedule(4, 1.0, 0.0, 10.0, 0)
    assert measure_asynchronicity(s) == pytest.approx(2.0)


def test_measure_single_node_is_own_gap():
    s = ClockSchedule(times=(np.array([0.0, 1.5, 3.0]),))
    assert measure_asynchronicity(s) == pytest.approx(1.5)


def test_measure_grows_with_drift():
    b_small = [measure_asynchronicity(gen_clock_schedule(10, 1.0, 0.1, 30.0, s))
               for s in range(20)]
    b_large = [measure_asynchronicity(gen_clock_schedule(10, 1.0, 0.3, 30.0, s))
               for s in range(20)]
    assert np.median(b_large) > np.median(b_small)


def test_measured_staleness_finite_and_bounded():
    s = gen_clock_schedule(8, 1.0, 0.3, 25.0, 4)
    b = measure_asynchronicity(s)
    max_gap = max(float(np.max(np.diff(t))) for t in s.times)
    assert max_gap <= b <= 3.0 * max_gap + 1e-12


# ---------------------------------------------------------------------------
# lockstep degeneracy
# ---------------------------------------------------------------------------


def test_lockstep_matches_sync_engine():
    g, obj = ring_dual(10, 4, 1.0, 3)
    sched = gen_clock_schedule(10, 1.0, 0.0, 60.0, 0)
    atr = run_dbfgs_async(g, obj, dbfgs_cfg(), sched)
    scfg = SyncConfig(method="dbfgs", mode="dual", step_size=0.01,
                      max_iters=60, gamma=1e-2, big_gamma=1e-3)
    sync_tr = run_dbfgs_sync(g, obj, scfg)
    pairs = align_against_sync(atr, sync_tr)
    assert len(pairs) >= 55
    assert all(a == b for a, b in pairs)


def test_lockstep_matches_sync_engine_primal():
    g = build_d_regular_cycle(8, 2)
    w = build_weight_matrix(g, 2)
    inst = make_quadratic(8, 4, 1.0, 6)
    obj = DistributedObjective(inst, g, w, "primal", alpha=1e-2)
    sched = gen_clock_schedule(8, 1.0, 0.0, 50.0, 0)
    atr = run_dbfgs_async(g, obj, dbfgs_cfg(eps=0.1, mode="primal"), sched)
    scfg = SyncConfig(method="dbfgs", mode="primal", step_size=0.1,
                      max_iters=50, gamma=1e-2, big_gamma=1e-3)
    pairs = align_against_sync(atr, run_dbfgs_sync(g, obj, scfg))
    assert len(pairs) >= 45
    assert all(a == b for a, b in pairs)


def test_lockstep_dd_matches_sync_dd():
    g, obj = ring_dual(10, 4, 1.0, 3)
    sched = gen_clock_schedule(10, 1.0, 0.0, 60.0, 0)
    acfg = AsyncConfig(method="dd", mode="dual", step_size=0.002,
                       max_iters=10**9)
    atr = run_dd_async(g, obj, acfg, sched)
    scfg = SyncConfig(method="dd", mode="dual", step_size=0.002, max_iters=60)
    pairs = align_against_sync(atr, run_dd(g, obj, scfg))
    assert len(pairs) >= 55
    assert all(a == b for a, b in pairs)


def test_lockstep_matches_sync_on_irregular_graph():
    # neighborhood sizes m = (3, 3, 5, 3, 4, 2), Metropolis weights
    g = Graph.from_edges(6, [(0, 2), (1, 2), (2, 3), (2, 5), (0, 4), (1, 4),
                             (3, 4)])
    obj = DistributedObjective(make_quadratic(6, 4, 1.0, 2), g, metropolis_weights(g),
                               "dual")
    sched = gen_clock_schedule(6, 1.0, 0.0, 40.0, 0)
    scfg = SyncConfig(method="dbfgs", mode="dual", step_size=0.01,
                      max_iters=40, gamma=1e-2, big_gamma=1e-3)
    pairs = align_against_sync(run_dbfgs_async(g, obj, dbfgs_cfg(), sched),
                               run_dbfgs_sync(g, obj, scfg))
    assert len(pairs) >= 35
    assert all(a == b for a, b in pairs)
    acfg = AsyncConfig(method="dd", mode="dual", step_size=0.002,
                       max_iters=10**9)
    scfg = SyncConfig(method="dd", mode="dual", step_size=0.002, max_iters=40)
    pairs = align_against_sync(run_dd_async(g, obj, acfg, sched),
                               run_dd(g, obj, scfg))
    assert len(pairs) >= 35
    assert all(a == b for a, b in pairs)


# ---------------------------------------------------------------------------
# virtual replay equivalence
# ---------------------------------------------------------------------------


def event_log_gap(a, b):
    assert len(a.event_log.time) == len(b.event_log.time)
    worst = 0.0
    for (t1, i1, l1, x1), (t2, i2, l2, x2) in zip(zip(*a.event_log), zip(*b.event_log)):
        assert (t1, i1, l1) == (t2, i2, l2)
        scale = max(1.0, float(np.max(np.abs(x1))))
        worst = max(worst, float(np.max(np.abs(x1 - x2))) / scale)
    return worst


def test_physical_equals_virtual_over_random_schedules():
    g, obj = ring_dual(10, 4, 1.0, 100)
    for seed in range(10):
        sched = gen_clock_schedule(10, 1.0, 0.3, 12.0, seed)
        n_events = sum(len(t) for t in sched.times)
        assert n_events >= 100
        phys = run_dbfgs_async(g, obj, dbfgs_cfg(), sched)
        virt = virtual_replay(g, obj, dbfgs_cfg(), sched)
        assert event_log_gap(phys, virt) <= 1e-12


def test_lockstep_virtual_equals_physical():
    g, obj = ring_dual(6, 2, 1.0, 8)
    sched = gen_clock_schedule(6, 1.0, 0.0, 30.0, 0)
    phys = run_dbfgs_async(g, obj, dbfgs_cfg(), sched)
    virt = virtual_replay(g, obj, dbfgs_cfg(), sched)
    assert event_log_gap(phys, virt) <= 1e-12


def test_single_node_virtual_equals_physical():
    g = Graph.from_edges(1, [])
    w = np.array([[1.0]])
    inst = QuadraticInstance(a=np.array([[2.0, 1.0]]),
                             b=np.array([[0.4, -0.2]]), eta=0.0, seed=0)
    obj = DistributedObjective(inst, g, w, "dual")
    sched = gen_clock_schedule(1, 1.0, 0.2, 20.0, 2)
    phys = run_dbfgs_async(g, obj, dbfgs_cfg(eps=0.1), sched)
    virt = virtual_replay(g, obj, dbfgs_cfg(eps=0.1), sched)
    assert event_log_gap(phys, virt) <= 1e-12


def test_message_delay_changes_trajectory():
    g, obj = ring_dual(8, 2, 1.0, 5)
    sched = gen_clock_schedule(8, 1.0, 0.2, 25.0, 1)
    base = run_dbfgs_async(g, obj, dbfgs_cfg(), sched)
    delayed = run_dbfgs_async(g, obj, dbfgs_cfg(delta_msg=1.5), sched)
    assert not np.allclose(base.error, delayed.error)


def log_timeline(g, obj, sched, delta):
    """The engine's message logs driven batch by batch with no solve in
    between, as the timeline of ("read", reader, now, chunks, copies)
    and ("push", reader, arrival, row, message) entries in the order the
    engine makes them.

    A message is named by the event that sent it. Every event sends its
    package to each neighbor's layout row for it, arriving after the delay,
    and a chunk to each node of its neighborhood, arriving at once at its
    own node. A read lists the chunks the logs delivered, in order, and the
    package each of the reader's slots reads (-1 before any package: a
    package holds its event plus one; None for a neighbor that ticks in the
    reader's batch, whose current block the slot reads)."""
    eng = _AsyncEngine(g, obj, dbfgs_cfg(delta_msg=delta), sched, "dbfgs")
    kernel, queue = eng.kernel, eng.queue
    off, cols, mirror = kernel.offsets, kernel.cols, kernel.mirror
    current = len(queue.time) + g.n  # the first current block's row
    timeline = []
    for first, last in zip(queue.cuts[:-1], queue.cuts[1:]):
        inbox = slice(eng.inbox_at[first], eng.inbox_at[last])
        readers, rows = (col[inbox] for col in eng.inbox)
        chunks = eng.chunk_log[rows, 0].astype(int)
        for e in range(first, last):
            i = int(queue.node[e])
            reads = eng.read[eng.slot_at[e]:eng.slot_at[e + 1]].tolist()
            timeline.append(("read", i, float(queue.time[e]),
                             chunks[readers == i].tolist(),
                             [None if row >= current else int(eng.packages[0, row, 0]) - 1
                              for row in reads]))
        slots = eng.slots[eng.slot_at[first]:eng.slot_at[last]]
        kernel.contrib[slots] = np.repeat(np.arange(first, last),
                                          kernel.m[queue.node[first:last]])[:, None]
        eng._send(np.arange(first, last), np.broadcast_to(
            np.arange(first + 1, last + 1, dtype=float)[:, None], (3, last - first, obj.p)))
        for e in range(first, last):
            i, t = int(queue.node[e]), float(queue.time[e])
            for s in range(off[i], off[i + 1]):
                j = int(cols[s])
                if j != i:
                    timeline.append(("push", j, t + delta, int(mirror[s]), e))
                timeline.append(("push", j, t if j == i else t + delta, None, e))
    return timeline


def test_mailbox_delivers_every_arrived_chunk_in_arrival_order():
    # with delta_msg > 0 a neighbor's chunk sent first arrives after the
    # node's own chunk sent later; the arrived chunk must not wait, and a
    # tie in arrival goes in send order
    g = Graph.from_edges(2, [(0, 1)])
    inst = QuadraticInstance(a=np.ones((2, 2)), b=np.ones((2, 2)), eta=0.0, seed=0)
    obj = DistributedObjective(inst, g, np.array([[0.75, 0.25], [0.25, 0.75]]), "dual")
    # events 0-6: (0, node 0), (0, node 1), (0.125, 1), (0.25, 0), (0.625, 0),
    # (0.75, 1), (1.25, 0)
    sched = ClockSchedule(times=(np.array([0.0, 0.25, 0.625, 1.25]),
                                 np.array([0.0, 0.125, 0.75])))
    reads = [entry[1:] for entry in log_timeline(g, obj, sched, 0.5)
             if entry[0] == "read"]
    assert [(i, now, chunks) for i, now, chunks, _ in reads] == [
        (0, 0.0, []), (1, 0.0, []), (1, 0.125, [1]), (0, 0.25, [0]),
        # own chunk 3 (arrival 0.25) before neighbor chunk 1 (0.5)
        (0, 0.625, [3, 1]),
        (1, 0.75, [2, 0]),
        # a tie at 0.625: neighbor chunk 2 was sent before own chunk 4
        (0, 1.25, [2, 4])]
    # node 0's copy of node 1: the latest package that arrived, and at 0
    # node 1's current block (both tick)
    assert [copies[1] for i, _, _, copies in reads if i == 0] == [None, -1, 1, 2]
    # exactly once
    got = [c for i, _, chunks, _ in reads if i == 0 for c in chunks]
    assert sorted(got) == [0, 1, 2, 3, 4]


# bounded property runs: no deadline (the first calls build kernels), and
# no example database left behind
PROPERTY = settings(max_examples=40, deadline=None, database=None)


def grid_schedule(n, seed):
    """Clocks on a 0.5 grid: ties in event times and in arrivals."""
    sched = gen_clock_schedule(n, 1.0, 0.3, 6.0, seed)
    return ClockSchedule(times=tuple(np.unique(np.round(t * 2) / 2) for t in sched.times))


@PROPERTY
@given(metropolis_dual(max_n=8), st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(0, 2**16))
def test_inbox_delivers_each_message_once_after_arrival(problem, delta, seed):
    # a read delivers every message to its node that arrived before it and
    # was not delivered yet: chunks in (arrival, send order), and each
    # layout row takes its latest package, unless its neighbor ticks at the
    # read too: then the row reads the neighbor's current block
    g, obj = problem
    off, cols = g.layout.indptr, g.layout.cols
    sched = grid_schedule(g.n, seed)
    sent, delivered = [], set()
    for op, reader, now, *rest in log_timeline(g, obj, sched, delta):
        if op == "push":
            sent.append((reader, now, *rest))
            continue
        chunks, copies = rest
        due = sorted((arrival, k) for k, (j, arrival, _, _) in enumerate(sent)
                     if j == reader and k not in delivered and arrival < now)
        assert chunks == [sent[k][3] for _, k in due if sent[k][2] is None]
        for row in range(off[reader], off[reader + 1]):
            latest = [k for _, k in due if sent[k][2] == row]
            if now in sched.times[cols[row]]:
                assert copies[row - off[reader]] is None
            elif latest:
                assert copies[row - off[reader]] == sent[latest[-1]][3]
        delivered.update(k for _, k in due)


@PROPERTY
@given(metropolis_dual(max_n=8), st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(0, 2**16))
def test_logs_deliver_what_the_reference_inbox_delivers(problem, delta, seed):
    # the same pushes into one heap per node, popped one message at a time;
    # a row whose neighbor ticks at the read reads its current block
    g, obj = problem
    off, cols = g.layout.indptr, g.layout.cols
    sched = grid_schedule(g.n, seed)
    boxes = [Mailbox() for _ in range(g.n)]
    known = np.full((3, off[-1], 1), -1)
    for op, reader, now, *rest in log_timeline(g, obj, sched, delta):
        if op == "push":
            boxes[reader].push(now, *rest)
            continue
        chunks, copies = rest
        assert chunks == boxes[reader].read(now, known)
        hood = slice(off[reader], off[reader + 1])
        assert copies == [None if now in sched.times[j] else copy
                          for j, copy in zip(cols[hood], known[0, hood, 0].tolist())]


# ---------------------------------------------------------------------------
# behavior
# ---------------------------------------------------------------------------


def test_zero_gradient_start_no_motion_at_any_event():
    # consensus start with matching linear terms: gradient identically zero
    g = build_d_regular_cycle(6, 2)
    w = build_weight_matrix(g, 2)
    a = np.full((6, 2), 1.5)
    c = np.array([0.8, -0.4])
    inst = QuadraticInstance(a=a, b=-a * c, eta=0.0, seed=0)
    obj = DistributedObjective(inst, g, w, "primal", alpha=1e-2)
    sched = gen_clock_schedule(6, 1.0, 0.25, 20.0, 3)
    cfg = dbfgs_cfg(eps=0.1, mode="primal", var0=np.tile(c, (6, 1)))
    tr = run_dbfgs_async(g, obj, cfg, sched)
    assert max(tr.error) <= 1e-26
    for block in tr.event_log.block:
        assert np.allclose(block, c, atol=1e-13)


def test_dd_async_symmetric_fixed_point():
    g = build_d_regular_cycle(5, 2)
    w = build_weight_matrix(g, 2)
    inst = QuadraticInstance(a=np.full((5, 2), 2.0), b=np.full((5, 2), 0.7),
                             eta=0.0, seed=0)
    obj = DistributedObjective(inst, g, w, "dual")
    sched = gen_clock_schedule(5, 1.0, 0.2, 15.0, 6)
    acfg = AsyncConfig(method="dd", mode="dual", step_size=0.002,
                       max_iters=10**9)
    tr = run_dd_async(g, obj, acfg, sched)
    assert max(tr.error) <= 1e-26


def test_async_gradient_norm_decreases_tenfold():
    # vanishing-gradient check: small stepsize, long run, true gradient norm
    g, obj = ring_dual(10, 4, 1.0, 17)
    sched = gen_clock_schedule(10, 1.0, 0.1, 220.0, 0)
    tr = run_dbfgs_async(g, obj, dbfgs_cfg(eps=0.01, gamma=0.1, big_gamma=0.1),
                         sched)
    assert tr.local_iter_min[-1] >= 200
    assert tr.grad_norm[-1] <= tr.grad_norm[0] / 10.0


def test_async_linear_rate_on_strongly_convex_primal():
    g = build_d_regular_cycle(8, 2)
    w = build_weight_matrix(g, 2)
    inst = make_quadratic(8, 4, 0.0, 19)
    obj = DistributedObjective(inst, g, w, "primal", alpha=1e-1)
    sched = gen_clock_schedule(8, 1.0, 0.1, 220.0, 1)
    tr = run_dbfgs_async(g, obj, dbfgs_cfg(eps=0.2, mode="primal"), sched)
    iters = np.asarray(tr.local_iter_min)
    errs = np.asarray(tr.error)
    keep = errs > 0
    slope = np.polyfit(iters[keep], np.log(errs[keep]), 1)[0]
    assert slope < 0.0


@pytest.mark.parametrize("method", ["dbfgs", "dd"])
def test_async_stop_rules(method):
    g, obj = ring_dual(8, 2, 1.0, 23)
    sched = gen_clock_schedule(8, 1.0, 0.2, 60.0, 4)
    step = 0.01 if method == "dbfgs" else 0.002
    runner = run_dbfgs_async if method == "dbfgs" else run_dd_async

    def cfg(**stop):
        return AsyncConfig(method=method, mode="dual", step_size=step,
                           max_iters=10**9, gamma=1e-2, big_gamma=1e-3, **stop)

    full = runner(g, obj, cfg(), sched)
    assert full.status == "max_iters"
    for key, column, status in (("stop_error", full.error, "error_stop"),
                                ("stop_grad_norm", full.grad_norm, "grad_stop")):
        target = float(np.median(column))
        tr = runner(g, obj, cfg(**{key: target}), sched)
        hit = next(k for k, v in enumerate(column) if v <= target)
        assert tr.status == status
        assert len(tr.error) == hit + 1
        assert tr.to_csv().splitlines() == full.to_csv().splitlines()[:hit + 2]


@pytest.mark.parametrize("method", ["dbfgs", "dd"])
def test_async_run_stops_at_iteration_cap(method):
    # the run ends after the first row whose local_iter_min reaches the cap
    g, obj = ring_dual(8, 2, 1.0, 23)
    sched = gen_clock_schedule(8, 1.0, 0.2, 60.0, 4)
    step = 0.01 if method == "dbfgs" else 0.002
    runner = run_dbfgs_async if method == "dbfgs" else run_dd_async

    def cfg(cap):
        return AsyncConfig(method=method, mode="dual", step_size=step,
                           max_iters=cap, gamma=1e-2, big_gamma=1e-3)

    full = runner(g, obj, cfg(10**9), sched)
    cap = 20
    hit = full.local_iter_min.index(cap)
    assert hit < len(full.error) - 1
    tr = runner(g, obj, cfg(cap), sched)
    assert tr.status == "max_iters"
    assert len(tr.error) == hit + 1 and tr.local_iter_min[-1] == cap
    assert tr.to_csv().splitlines() == full.to_csv().splitlines()[:hit + 2]


def test_event_determinism():
    g, obj = ring_dual(8, 2, 1.0, 23)
    sched = gen_clock_schedule(8, 1.0, 0.3, 30.0, 11)
    one = run_dbfgs_async(g, obj, dbfgs_cfg(), sched)
    two = run_dbfgs_async(g, obj, dbfgs_cfg(), sched)
    assert one.to_csv() == two.to_csv()


def test_async_csv_schema():
    g, obj = ring_dual(6, 2, 1.0, 29)
    sched = gen_clock_schedule(6, 1.0, 0.2, 10.0, 0)
    text = run_dbfgs_async(g, obj, dbfgs_cfg(), sched).to_csv()
    header = text.splitlines()[0]
    assert header == ("iter,error,grad_norm,exchanges,method,mode,seed,"
                      "model_time,local_iter_min")


def test_schedule_must_start_at_zero():
    graph = Graph.from_edges(2, [(0, 1)])
    w = np.array([[0.75, 0.25], [0.25, 0.75]])
    inst = QuadraticInstance(a=np.ones((2, 2)), b=np.ones((2, 2)), eta=0.0,
                             seed=0)
    objective = DistributedObjective(inst, graph, w, "dual")
    for bad in (ClockSchedule(times=(np.array([0.0, 1.0]), np.array([0.5, 1.5]))),
                ClockSchedule(times=(np.array([0.0, 1.0]), np.array([])))):
        with pytest.raises(ValueError, match="start at t = 0"):
            run_dbfgs_async(graph, objective, dbfgs_cfg(), bad)


@pytest.mark.parametrize("ticks", [(0.0, 1.0, 1.0, 2.0), (0.0, 2.0, 1.0, 3.0)],
                         ids=["repeated", "decreasing"])
def test_schedule_must_strictly_increase(ticks):
    g, obj = ring_dual(6, 2, 1.0, 0)
    bad = ClockSchedule(times=(np.array(ticks),)
                        + gen_clock_schedule(6, 1.0, 0.0, 3.0, 0).times[1:])
    with pytest.raises(ValueError, match="strictly increase"):
        run_dbfgs_async(g, obj, dbfgs_cfg(), bad)


@pytest.mark.parametrize("mu, sigma, horizon", [
    (np.nan, 0.1, 10.0), (np.inf, 0.1, 10.0), (1.0, np.nan, 10.0),
    (1.0, np.inf, 10.0), (1.0, 0.1, np.inf), (1.0, 0.1, np.nan)])
def test_schedule_rejects_non_finite_clock_parameters(mu, sigma, horizon):
    # a NaN increment or an infinite horizon would never pass the horizon
    with pytest.raises(ValueError, match="finite"):
        gen_clock_schedule(1, mu, sigma, horizon, 0)


def zero_optimum_run():
    """D-BFGS on a ring whose every b_i is zero, so x* = 0."""
    g = build_d_regular_cycle(6, 2)
    inst = QuadraticInstance(a=np.ones((6, 4)), b=np.zeros((6, 4)), eta=0.0, seed=0)
    obj = DistributedObjective(inst, g, build_weight_matrix(g, 2), "dual")
    run_dbfgs_async(g, obj, dbfgs_cfg(), gen_clock_schedule(6, 1.0, 0.1, 5.0, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: gen_clock_schedule(2, 0.0, 0.1, 5.0, 0),
     "mean clock increment must be positive"),
    (lambda: gen_clock_schedule(2, 1.0, -0.1, 5.0, 0),
     "clock standard deviation must be nonnegative"),
    (lambda: run_dbfgs_async(*ring_dual(6, 2, 1.0, 0), dbfgs_cfg(),
                             gen_clock_schedule(5, 1.0, 0.1, 5.0, 0)),
     "schedule and graph disagree on node count"),
    (zero_optimum_run, "consensus error is undefined for a zero optimum"),
], ids=["zero-mu", "negative-sigma", "node-count", "zero-optimum"])
def test_async_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("delta", [-0.5, np.nan, np.inf])
@pytest.mark.parametrize("runner", [run_dbfgs_async, virtual_replay, run_dd_async])
def test_async_config_rejects_negative_or_nan_delay(runner, delta):
    # an infinite delay would deliver no package at all
    g, obj = ring_dual(10, 2, 1.0, 0)
    cfg = dbfgs_cfg(delta_msg=delta)
    if runner is run_dd_async:
        cfg = AsyncConfig(method="dd", mode="dual", step_size=0.002,
                          max_iters=10**9, delta_msg=delta)
    with pytest.raises(ValueError, match="message delay must be >= 0"):
        runner(g, obj, cfg, gen_clock_schedule(10, 1.0, 0.1, 20.0, 0))


# ---------------------------------------------------------------------------
# properties over random irregular graphs and schedules
# ---------------------------------------------------------------------------


@PROPERTY
@given(metropolis_dual(), st.sampled_from([0.1, 0.3]), st.integers(0, 2**16))
def test_physical_equals_virtual_bitwise_on_random_graphs(problem, sigma, seed):
    g, obj = problem
    sched = gen_clock_schedule(g.n, 1.0, sigma, 8.0, seed)
    phys = run_dbfgs_async(g, obj, dbfgs_cfg(eps=0.05), sched)
    virt = virtual_replay(g, obj, dbfgs_cfg(eps=0.05), sched)
    assert len(phys.event_log.time) == len(virt.event_log.time)
    for (t1, i1, l1, x1), (t2, i2, l2, x2) in zip(zip(*phys.event_log),
                                                  zip(*virt.event_log)):
        assert (t1, i1, l1) == (t2, i2, l2)
        assert x1.tobytes() == x2.tobytes()


@PROPERTY
@given(metropolis_dual())
def test_lockstep_equals_sync_engine_on_random_graphs(problem):
    g, obj = problem
    sched = gen_clock_schedule(g.n, 1.0, 0.0, 12.0, 0)
    scfg = SyncConfig(method="dbfgs", mode="dual", step_size=0.05,
                      max_iters=12, gamma=1e-2, big_gamma=1e-3)
    pairs = align_against_sync(run_dbfgs_async(g, obj, dbfgs_cfg(eps=0.05), sched),
                               run_dbfgs_sync(g, obj, scfg))
    assert len(pairs) == 12
    assert all(a == b for a, b in pairs)


# ---------------------------------------------------------------------------
# dependency levels
# ---------------------------------------------------------------------------


def engine_of(runner, args):
    """The engine ``runner`` builds from ``args``, not yet run."""
    g, obj, acfg, sched = args
    return _AsyncEngine(g, obj, acfg, sched, acfg.method, virtual=runner is virtual_replay)


def slices(eng):
    """The engine's slices of batches as (first, one past the last): at
    least ``PLAN_EVENTS`` events each, unless the schedule ends first."""
    cuts, out = eng.queue.cuts, [0]
    while out[-1] < len(cuts) - 1:
        out.append(min(int(np.searchsorted(cuts, cuts[out[-1]] + async_sim.PLAN_EVENTS)),
                       len(cuts) - 1))
    return list(zip(out, out[1:]))


@PROPERTY
@given(metropolis_dual(max_n=12), st.sampled_from([0.0, 0.1, 0.3]),
       st.integers(0, 2**16))
def test_schedule_and_level_invariants(problem, sigma, seed):
    g, obj = problem
    sched = gen_clock_schedule(g.n, 1.0, sigma, 9.0, seed)
    again = gen_clock_schedule(g.n, 1.0, sigma, 9.0, seed)
    for ticks, same in zip(sched.times, again.times):
        assert ticks[0] == 0.0 and ticks[-1] <= 9.0
        assert np.all(np.diff(ticks) > 0)
        # accumulated addition rounds tick gaps by ~eps * t
        assert np.all(np.diff(ticks) >= CLOCK_INCREMENT_FLOOR - 1e-12)
        assert ticks.tobytes() == same.tobytes()
    eng = _AsyncEngine(g, obj, dbfgs_cfg(), sched, "dbfgs")
    queue, events = eng.queue, np.arange(len(eng.queue.time))
    levels = eng._level(0, len(queue.cuts) - 1)
    # the levels run in ascending order and partition the events; a level
    # holds whole batches, its events in event order and each node once,
    # and its kernel groups and inbox positions are its events'
    plan = eng._levels(events, np.repeat(levels, np.diff(queue.cuts)))
    assert len(plan) == max(levels) + 1
    for level, (ev, groups, inbox) in enumerate(plan):
        batches = sorted(set(eng.batch[ev].tolist()))
        assert [levels[b] for b in batches] == [level] * len(batches)
        assert ev.tolist() == [e for b in batches for e in range(queue.cuts[b],
                                                                 queue.cuts[b + 1])]
        nodes = queue.node[ev].tolist()
        assert len(set(nodes)) == len(nodes)
        assert sorted(i for grp in groups for i in grp.ids.tolist()) == sorted(nodes)
        assert inbox.tolist() == [k for e in ev for k in range(eng.inbox_at[e],
                                                                eng.inbox_at[e + 1])]
    assert sorted(e for ev, *_ in plan for e in ev.tolist()) == events.tolist()


def one_batch_per_level(runner, *args):
    """The run with every batch as its own level, in event order."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_AsyncEngine, "_level", lambda eng, bl, bh: list(range(bh - bl)))
        return runner(*args)


def run_bytes(tr):
    return (tr.to_csv(), tr.status,
            [(t, i, li, x.tobytes()) for t, i, li, x in zip(*tr.event_log)])


# engine -> (runner, method, mode, step size)
ENGINES = {
    "physical": (run_dbfgs_async, "dbfgs", "dual", 0.05),
    "virtual": (virtual_replay, "dbfgs", "dual", 0.05),
    "dd": (run_dd_async, "dd", "dual", 0.002),
    "primal": (run_dbfgs_async, "dbfgs", "primal", 0.1),
    "primal-virtual": (virtual_replay, "dbfgs", "primal", 0.1),
}
# engine -> how descents reach a node (read_sets' chunks)
CHUNKS = {"physical": "delayed", "virtual": "instant", "dd": None, "primal": "delayed",
          "primal-virtual": "instant"}


def engine_run(engine, g, obj, sched, **cfg):
    runner, method, mode, step = ENGINES[engine]
    if mode == "primal":
        obj = DistributedObjective(obj.instance, g, obj.weights, "primal", alpha=0.1)
    cfg.setdefault("max_iters", 10**9)
    acfg = AsyncConfig(method=method, mode=mode, step_size=step, gamma=1e-2,
                       big_gamma=1e-3, **cfg)
    return runner, (g, obj, acfg, sched)


def drifting_schedule(n, sigma, grid, seed):
    """Clocks to 8.0; with a ``grid``, quantized times: ties across nodes."""
    sched = gen_clock_schedule(n, 1.0, sigma, 8.0, seed)
    if grid is None:
        return sched
    return ClockSchedule(
        times=tuple(np.unique(np.round(t / grid) * grid) for t in sched.times))


# the schedules of the level and plan properties: graph, engine, clock
# drift, time grid, message delay and seed
SCHEDULES = (metropolis_dual(max_n=12), st.sampled_from(sorted(ENGINES)),
             st.sampled_from([0.0, 0.1, 0.3]), st.sampled_from([None, 0.25, 0.5]),
             st.sampled_from([0.0, 0.5]), st.integers(0, 2**16))


@PROPERTY
@given(*SCHEDULES)
def test_levels_equal_per_batch_runs_bytewise(problem, engine, sigma, grid, delta,
                                              seed):
    g, obj = problem
    sched = drifting_schedule(g.n, sigma, grid, seed)
    runner, args = engine_run(engine, g, obj, sched, delta_msg=delta)
    assert run_bytes(runner(*args)) == run_bytes(one_batch_per_level(runner, *args))


@PROPERTY
@given(*SCHEDULES)
def test_levels_equal_the_brute_force_oracle(problem, engine, sigma, grid, delta, seed):
    # per slice, from its first batch and from one inside the schedule, the
    # levels equal the oracle's from each event's read set, and no event
    # reads one of its own level or a later one
    g, obj = problem
    sched = drifting_schedule(g.n, sigma, grid, seed)
    eng = engine_of(*engine_run(engine, g, obj, sched, delta_msg=delta))
    nb = len(eng.queue.cuts) - 1
    batch = {t: b for b, t in enumerate(eng.queue.time[eng.queue.cuts[:-1]].tolist())}
    for bl in (0, nb // 3):
        levels = eng._level(bl, nb)
        assert levels == brute_force_levels(sched, g.layout, delta, CHUNKS[engine], bl, nb)
        for (t, _), reads in read_sets(sched, g.layout, delta, CHUNKS[engine]):
            if batch[t] >= bl:
                assert all(levels[batch[s] - bl] < levels[batch[t] - bl]
                           for s, _ in reads if batch[s] >= bl)


def post_init_ticks(ticks, t):
    """A node's ticks after the first, up to time t."""
    return int(np.sum((ticks > 0) & (ticks <= t)))


@PROPERTY
@given(*SCHEDULES)
def test_plan_matches_brute_force_and_slices_move_no_bit(problem, engine, sigma,
                                                         grid, delta, seed):
    g, obj = problem
    sched = drifting_schedule(g.n, sigma, grid, seed)
    runner, args = engine_run(engine, g, obj, sched, delta_msg=delta)
    tr = runner(*args)
    # planning one event, or seven, at a time moves no bit
    for events in (1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(async_sim, "PLAN_EVENTS", events)
            assert run_bytes(runner(*args)) == run_bytes(tr)
    # an event's local iteration count is its node's ticks after the first
    # up to it, and a row's local_iter_min the least of those at its time
    for t, i, local_iter, _ in zip(*tr.event_log):
        assert local_iter == post_init_ticks(sched.times[i], t)
    for t, local_iter_min in zip(tr.model_time, tr.local_iter_min):
        assert local_iter_min == min(post_init_ticks(ticks, t) for ticks in sched.times)
    # each slot reads its neighbor's current block (row events + n + j) if
    # the neighbor ticks at the event, as its own node does, else its
    # latest package that arrived strictly before the event (row first[j]
    # + j + packages, after a zero row per node)
    _, obj, acfg, _ = args
    eng = _AsyncEngine(g, obj, acfg, sched, acfg.method,
                       virtual=runner is virtual_replay)
    off, cols = g.layout.indptr, g.layout.cols
    first = np.cumsum([0] + [len(t) for t in sched.times])
    events = len(eng.queue.time)
    reads = zip(eng.slots.tolist(), eng.read.tolist())
    for t, i in zip(eng.queue.time, eng.queue.node):
        for slot in range(off[i], off[i + 1]):
            j = cols[slot]
            if t in sched.times[j]:
                assert next(reads) == (slot, events + g.n + j)
            else:
                arrived = np.sum(sched.times[j] + delta < t)
                assert next(reads) == (slot, first[j] + j + arrived)
    assert next(reads, None) is None



@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_slices_move_no_bit(engine):
    # at n = 100 the record replays a slice of many rows in one pass; one
    # event a slice records one row a pass, seven events a slice two rows
    g, obj = ring_dual(100, 4, 1.0, 5)
    sched = gen_clock_schedule(100, 1.0, 0.1, 4.0, 2)
    runner, args = engine_run(engine, g, obj, sched, delta_msg=0.5)
    tr = runner(*args)
    for events in (1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(async_sim, "PLAN_EVENTS", events)
            assert run_bytes(runner(*args)) == run_bytes(tr)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_run_groups_once_a_slice(engine):
    # run() builds the kernel groups once per slice, not per level: those of
    # its levels, one part a level, and those of the record's neighborhood
    # key sets (two in dual mode, one in primal), one part each
    g, obj = ring_dual(30, 4, 1.0, 23)
    sched = gen_clock_schedule(30, 1.0, 0.1, 40.0, 4)
    runner, args = engine_run(engine, g, obj, sched)
    eng = engine_of(runner, args)
    batches, parts = RoundKernel.batches, []

    def counted(kernel, keys, cuts):
        parts.append(len(cuts) - 1)
        return batches(kernel, keys, cuts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoundKernel, "batches", counted)
        tr = eng.run()
    assert run_bytes(tr) == run_bytes(runner(*args))
    calls = 2 + (args[1].mode == "dual")
    bounds = slices(eng)
    assert len(bounds) == -(-len(eng.queue.time) // async_sim.PLAN_EVENTS) == 3
    assert len(parts) == calls * len(bounds)
    levels = [max(eng._level(bl, bh)) + 1 for bl, bh in bounds]
    assert parts[::calls] == levels
    assert all(parts[k::calls] == [1] * len(bounds) for k in range(1, calls))
    # the levels pass over the batches in fewer than half as many steps
    assert 2 * sum(levels) < len(eng.queue.cuts) - 1


def row_states(runner, args):
    """The run, and per row the (var, estimate) state it was recorded from,
    replayed batch by batch from the engine's logs: a node's var is its
    latest published var (in DD, at its own event's row, the block it
    logged), in the virtual engine var0 plus every descent of an earlier
    batch, added one at a time in event order; the estimate is var in
    primal mode, and in dual mode each node's latest published aux."""
    eng = engine_of(runner, args)
    tr, queue, obj, cfg = eng.run(), eng.queue, args[1], args[2]
    var = np.zeros((args[0].n, obj.p))
    aux, states = var.copy(), []
    for b in range(len(tr.error) + 1):  # batch b's row is b - 1
        events = range(queue.cuts[b], queue.cuts[b + 1])
        for e in events:
            i, package = queue.node[e], eng.packages[:, eng.package_row[e]]
            aux[i] = package[1]
            if not eng.virtual:
                var[i] = eng.log_block[e] if runner is run_dd_async else package[0]
        if b:
            states.append((var.copy(), aux.copy() if obj.mode == "dual" else var.copy()))
        for e in events:
            if runner is run_dd_async:
                var[queue.node[e]] = eng.packages[0, eng.package_row[e]]
            elif eng.virtual:
                for s in range(eng.slot_at[e], eng.slot_at[e + 1]):
                    var[eng.kernel.cols[eng.slots[s]]] += cfg.step_size * eng.chunk_log[s]
    return tr, states


def assert_rows_equal_a_recompute(runner, args):
    # every row's error is consensus_error of its state and its gradient
    # norm the norm of the full runtime gradient there, bit for bit; each
    # batch node's var in that state is the block its event logged
    tr, states = row_states(runner, args)
    obj = args[1]
    assert len(states) == len(tr.error)
    # the first batch only initializes; every later batch is one row
    batches = [list(events) for _, events in groupby(zip(*tr.event_log), itemgetter(0))]
    for k, (var, est) in enumerate(states):
        assert tr.error[k] == consensus_error(est, obj.xstar)
        assert tr.grad_norm[k] == np.linalg.norm(obj.runtime_grad(var))
        for t, i, _, block in batches[k + 1]:
            assert t == tr.model_time[k] and var[i].tobytes() == block.tobytes()
    return tr


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_rows_equal_a_recompute_from_the_state(engine):
    g, obj = ring_dual(30, 4, 1.0, 23)
    sched = gen_clock_schedule(30, 1.0, 0.1, 20.0, 4)
    runner, args = engine_run(engine, g, obj, sched, delta_msg=0.5)
    assert len(assert_rows_equal_a_recompute(runner, args).error) > 500


@PROPERTY
@given(metropolis_dual(max_n=12), st.sampled_from(sorted(ENGINES)),
       st.sampled_from([0.0, 0.1, 0.3]), st.sampled_from([0.0, 0.5]),
       st.integers(0, 2**16))
def test_rows_equal_a_recompute_on_random_graphs(problem, engine, sigma, delta,
                                                 seed):
    # irregular graphs mix neighborhood sizes within a level and a range
    g, obj = problem
    sched = gen_clock_schedule(g.n, 1.0, sigma, 8.0, seed)
    runner, args = engine_run(engine, g, obj, sched, delta_msg=delta)
    assert_rows_equal_a_recompute(runner, args)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_async_run_evaluates_the_full_gradient_at_most_once(engine):
    # every row, the first one too, is recorded from the blocks its events
    # moved: a full gradient evaluation per row would be O(n) work per row
    # again, and the simulator has no second record path
    g, obj = ring_dual(30, 4, 1.0, 23)
    sched = gen_clock_schedule(30, 1.0, 0.1, 20.0, 4)
    runner, args = engine_run(engine, g, obj, sched, delta_msg=0.5)
    calls = dict.fromkeys(("runtime_grad", "stage1_full", "stage2_full"), 0)

    def counted(name, method):
        def wrapper(*a, **kw):
            calls[name] += 1
            return method(*a, **kw)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(DistributedObjective, name,
                          counted(name, getattr(DistributedObjective, name)))
        tr = runner(*args)
    assert len(tr.error) > 500
    assert not any(calls.values()), calls



def rows_ahead_of_a_lower_level(eng):
    """Per trace row (every batch but the first): whether a later batch of
    its slice runs at a lower level, before the row's own batch."""
    ahead = []
    for bl, bh in slices(eng):
        level = eng._level(bl, bh)
        ahead += [min(level[k + 1:], default=level[k]) < level[k] for k in range(bh - bl)]
    return ahead[1:]


@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_stop_before_a_batch_run_at_a_lower_level_matches_per_batch(engine, delta):
    # a stop rule or the iteration cap that fires on a row with a later
    # batch that ran at a lower level: nothing after the row is logged
    g, obj = ring_dual(30, 4, 1.0, 23)
    sched = gen_clock_schedule(30, 1.0, 0.1, 40.0, 4)
    runner, args = engine_run(engine, g, obj, sched, delta_msg=delta)
    ahead = rows_ahead_of_a_lower_level(engine_of(runner, args))
    assert ahead.count(True) > 100  # the levels do reorder batches
    full = runner(*args)
    err = full.error
    # the first such row whose error is a new minimum
    hit = next(k for k in range(1, len(err)) if err[k] < min(err[:k]) and ahead[k])
    cap = next(c for c in range(1, full.local_iter_min[-1])
               if ahead[full.local_iter_min.index(c)])
    for stop, status, rows in (({"stop_error": err[hit]}, "error_stop", hit + 1),
                               ({"max_iters": cap}, "max_iters",
                                full.local_iter_min.index(cap) + 1)):
        runner, args = engine_run(engine, g, obj, sched, delta_msg=delta, **stop)
        tr = runner(*args)
        assert tr.status == status and len(tr.error) == rows
        assert tr.to_csv().splitlines() == full.to_csv().splitlines()[:rows + 1]
        assert len(tr.event_log.time) == tr.exchanges[-1]
        assert run_bytes(tr) == run_bytes(one_batch_per_level(runner, *args))


def lost_or_run_bytes(eng, per_batch=False):
    """The engine's run bytes or, if its curvature is lost, the message, the
    rows recorded and the blocks logged; ``per_batch``: one batch a level."""
    with pytest.MonkeyPatch.context() as patch:
        if per_batch:
            patch.setattr(_AsyncEngine, "_level", lambda eng, bl, bh: list(range(bh - bl)))
        try:
            return run_bytes(eng.run())
        except RuntimeError as exc:
            return (str(exc), eng.trace.to_csv(), int(eng.logged),
                    eng.log_block[:eng.logged].tobytes())


@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("engine", ["physical", "virtual"])
def test_lost_curvature_raises_at_its_row_after_lower_levels_ran(engine, delta):
    # a node's curvature fails at a batch that a later batch of its slice
    # ran before, at a lower level: the run ends at the failed batch's row,
    # raising and naming the node, or with a stop at an earlier row, as a
    # run of one batch a level does, with the same rows and logged blocks;
    # so it does when that later batch's curvature fails too, and first
    g, obj = ring_dual(30, 4, 1.0, 23)
    sched = gen_clock_schedule(30, 1.0, 0.1, 40.0, 4)
    runner, args = engine_run(engine, g, obj, sched, delta_msg=delta)
    err = runner(*args).error
    eng = engine_of(runner, args)
    ahead = rows_ahead_of_a_lower_level(eng)
    # a row past a new error minimum, with a lower level after it
    stop = next(k for k in range(1, len(err)) if err[k] < min(err[:k]))
    row = next(k for k in range(stop + 1, len(err)) if ahead[k])
    queue = eng.queue
    # the row's batch b1, and b2: the first later batch of its slice that
    # runs at a lower level
    b1 = row + 1
    bl, bh = next((bl, bh) for bl, bh in slices(eng) if bl <= b1 < bh)
    level = eng._level(bl, bh)
    b2 = next(b for b in range(b1 + 1, bh) if level[b - bl] < level[b1 - bl])

    def target(b):
        # the batch's first node, and its descents up to the batch's time,
        # less its first round's, which solves none
        node = int(queue.node[queue.cuts[b]])
        t = float(queue.time[queue.cuts[b]])
        return node, int(np.sum(sched.times[node] <= t)) - 1

    node = target(b1)[0]
    descent, fired = RoundKernel.descent, []

    def poisoned(kernel, g_views, big_gamma, groups=None):
        kernel.seen = getattr(kernel, "seen", dict.fromkeys(poison, 0))
        for i, count in poison.items():
            if any(i in grp.ids for grp in groups):
                kernel.seen[i] += 1
                if kernel.seen[i] == count:
                    # the write drops the node's kept factor, so the descent
                    # factors the poisoned matrix and not the one bfgs_all left
                    kernel.write_matrix(i, np.nan)
                    fired.append(i)
        return descent(kernel, g_views, big_gamma, groups)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoundKernel, "descent", poisoned)
        for poison in (dict([target(b1)]), dict([target(b1), target(b2)])):
            for stop_error in (None, err[stop]):
                runner, args = engine_run(engine, g, obj, sched, delta_msg=delta,
                                          stop_error=stop_error)
                eng, fired[:] = engine_of(runner, args), []
                outcome = lost_or_run_bytes(eng)
                if stop_error is None:
                    # the later batch's curvature fails first
                    assert fired == list(poison)[::-1]
                assert outcome == lost_or_run_bytes(engine_of(runner, args), True)
                if stop_error is None:
                    assert outcome[0].endswith(f"at node {node}")
                    assert len(eng.trace.error) == row + 1
                    assert eng.logged == queue.cuts[row + 2]
                else:
                    assert outcome[1] == "error_stop"


@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("engine", ["physical", "virtual"])
def test_lost_curvature_keeps_the_other_nodes_views(engine, delta):
    # a level whose round loses one node's curvature still keeps the views
    # of its other nodes, whose next events may come before the lost row:
    # a poisoned node at one of its events ends the run as a run of one
    # batch a level does, with the same rows and logged blocks
    g, obj = ring_dual(30, 4, 1.0, 23)
    sched = gen_clock_schedule(30, 1.0, 0.3, 40.0, 4)
    runner, args = engine_run(engine, g, obj, sched, delta_msg=delta)
    descent = RoundKernel.descent

    def poisoned(kernel, g_views, big_gamma, groups=None):
        if any(node in grp.ids for grp in groups):
            kernel.seen = getattr(kernel, "seen", 0) + 1
            if kernel.seen == count:
                kernel.write_matrix(node, np.nan)
        return descent(kernel, g_views, big_gamma, groups)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoundKernel, "descent", poisoned)
        for node in (0, 7, 21):
            for count in (10, 25):
                outcome = lost_or_run_bytes(engine_of(runner, args))
                assert outcome[0].endswith(f"at node {node}")
                assert outcome == lost_or_run_bytes(engine_of(runner, args), True)
