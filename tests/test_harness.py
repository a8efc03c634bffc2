import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbfgs.harness as harness
from dbfgs.async_sim import gen_clock_schedule
from dbfgs.cli import main as cli_main
from dbfgs.harness import (
    DEFAULT_SEEDS,
    PROFILES,
    ConfigError,
    ExperimentConfig,
    RunResult,
    histogram_exchanges,
    parse_config,
    read_trace_csv,
    reproduce_paper_suite,
    run_experiment,
)
from dbfgs.netgraph import build_d_regular_cycle, build_weight_matrix
from dbfgs.sync_runtime import METHOD_MODES, Trace

BASE_CONFIG = """
[topology]
n = 8
d = 2

[problem]
kind = "quadratic"
p = 4
eta = 1.0

[mode]
kind = "dual"

[dbfgs]
gamma = 0.01
big_gamma = 0.001

[run]
iterations = 30
seeds = [0, 1]
error_threshold = 0.5

[methods]
dbfgs = 0.05
dd = 0.002
"""


LOGISTIC_PROBLEM = ('kind = "logistic"\np = 4\nq = {q}\nlam = {lam}\nmu = 1.0\n'
                       'sigma_pos = 1.0\nsigma_neg = 1.0')

# configs whose method or problem cannot run in their mode
MODE_MISMATCHES = [
    (("dd = 0.002", "dgd = 0.5"), "methods.dgd"),
    (('kind = "dual"', 'kind = "primal"\nalpha = 0.1'), "methods.dd"),
    (('kind = "quadratic"\np = 4\neta = 1.0', LOGISTIC_PROBLEM.format(q=4, lam=0.1)),
     "mode.kind"),
]


def test_parse_and_round_trip():
    cfg = parse_config(BASE_CONFIG)
    assert cfg.n == 8 and cfg.d == 2 and cfg.mode == "dual"
    assert cfg.methods == (("dbfgs", 0.05), ("dd", 0.002))
    assert cfg.seeds == (0, 1)
    again = parse_config(cfg.to_text())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


_REAL = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_SEED = st.integers(0, 2**63 - 1)


@st.composite
def valid_configs(draw):
    """Any configuration the parser accepts, as the dataclass it returns."""
    n = draw(st.integers(3, 10**6))
    fields = dict(n=n, d=2 * draw(st.integers(1, (n - 1) // 2)),
                  eta=None, q=None, lam=None, mu=None, sigma_pos=None,
                  sigma_neg=None, alpha=None, mu_clk=None, sigma_clk=None,
                  delta_msg=None, horizon=None)
    fields["mode"] = draw(st.sampled_from(["primal", "dual"]))
    if fields["mode"] == "primal":
        fields["alpha"] = draw(_POSITIVE)
    fields["problem_kind"] = ("quadratic" if fields["mode"] == "dual"
                              else draw(st.sampled_from(["quadratic", "logistic"])))
    if fields["problem_kind"] == "quadratic":
        fields["p"] = 2 * draw(st.integers(1, 10**6))
        fields["eta"] = draw(_NONNEGATIVE)
    else:
        fields.update(p=draw(st.integers(1, 10**6)), q=draw(st.integers(1, 10**6)),
                      lam=draw(_POSITIVE), mu=draw(_REAL),
                      sigma_pos=draw(_NONNEGATIVE), sigma_neg=draw(_NONNEGATIVE))
    is_async = draw(st.booleans())
    if is_async:
        fields.update(mu_clk=draw(_POSITIVE), sigma_clk=draw(_NONNEGATIVE),
                      delta_msg=draw(_NONNEGATIVE),
                      horizon=draw(st.none() | _POSITIVE))
    names = [m for m, modes in METHOD_MODES.items() if fields["mode"] in modes
             and (not is_async or m in ("dbfgs", "dd"))]
    names = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    fields["methods"] = tuple((m, draw(_POSITIVE)) for m in names)
    fields.update(gamma=draw(_POSITIVE), big_gamma=draw(_POSITIVE),
                  iterations=draw(st.integers(1, 2**63 - 1)),
                  seeds=tuple(draw(st.lists(_SEED, min_size=1, max_size=5, unique=True))),
                  error_threshold=draw(st.none() | _REAL),
                  stop_error=draw(st.none() | _REAL),
                  stop_grad_norm=draw(st.none() | _REAL))
    return ExperimentConfig(**fields)


@settings(max_examples=200, deadline=None, database=None)
@given(valid_configs())
def test_config_text_round_trip_and_stable_hash(cfg):
    text = cfg.to_text()
    again = ExperimentConfig.from_text(text)
    assert again == cfg
    assert (again.regime == "async") == ("[async]" in text)
    assert again.to_text() == text
    assert again.config_hash() == cfg.config_hash()


def test_parse_defaults():
    text = BASE_CONFIG.replace("[dbfgs]\ngamma = 0.01\nbig_gamma = 0.001\n", "")
    cfg = parse_config(text)
    assert (cfg.gamma, cfg.big_gamma) == (1e-2, 1e-3)
    assert cfg.regime == "sync" and cfg.delta_msg is None and cfg.horizon is None
    assert cfg.stop_error is None and cfg.alpha is None and cfg.q is None


# config_hash() of every profile config at the default seeds, in run order;
# a change to the written config format renames every saved trace
PROFILE_HASHES = {
    "fig2": ["13827951a8"],
    "fig3": ["ae58ce3350", "f7e6c85db6", "966e4a5f40", "cb409bc2b5"],
    "fig4": ["b8085ffc69"],
    "fig5": ["7c51320016", "fe4358a7d1", "6cd186ef67", "e86a4e4818"],
    "fig6": ["fb2354696e", "e62656477b"],
    "fig7-logistic": ["43651b8d97"],
}


def test_profile_config_hashes_are_pinned(monkeypatch):
    seen = []

    def record(cfg, outdir=None):
        # one single-row trace per run, so the profile's criteria evaluate
        seen.append(cfg)
        results = []
        for method, _ in cfg.methods:
            for seed in cfg.seeds:
                trace = Trace(method=method, mode=cfg.mode, seed=seed)
                trace.append(cfg.iterations, 1.0, 1.0, 1)
                results.append(RunResult(method, seed, trace, None))
        return results

    monkeypatch.setattr(harness, "run_experiment", record)
    assert sorted(PROFILE_HASHES) == sorted(PROFILES)
    for name, hashes in PROFILE_HASHES.items():
        seen.clear()
        PROFILES[name](DEFAULT_SEEDS, None)
        assert [cfg.config_hash() for cfg in seen] == hashes, name
        for cfg in seen:
            assert parse_config(cfg.to_text()) == cfg


def test_parse_async_section():
    text = BASE_CONFIG.replace("dd = 0.002", "dd = 0.002\n\n[async]\n"
                               "mu_clk = 1.0\nsigma_clk = 0.1")
    cfg = parse_config(text)
    assert cfg.regime == "async" and cfg.mu_clk == 1.0
    assert cfg.delta_msg == 0.0
    assert parse_config(cfg.to_text()) == cfg


@pytest.mark.parametrize("mutation,match", [
    (("eta = 1.0", "eta = 1.0\nfoo = 3"), "problem.foo"),
    (("[run]", "[nonsense]\nx = 1\n\n[run]"), "nonsense"),
    (("dbfgs = 0.05\ndd = 0.002", ""), "methods"),
    (("dd = 0.002", "newton = 0.1"), "methods.newton"),
    (("seeds = [0, 1]", "seeds = []"), "run.seeds"),
    (("kind = \"dual\"", "kind = \"dual\"\nalpha = 0.1"), "mode.alpha"),
    (("n = 8", ""), "topology.n"),
    (("n = 8", "n = true"), "topology.n"),
    (("dbfgs = 0.05", "dbfgs = true"), "methods.dbfgs"),
    (("seeds = [0, 1]", "seeds = [true]"), "run.seeds"),
    (("eta = 1.0", "eta = false"), "problem.eta"),
    (("n = 8", "n = = 8"), "invalid TOML"),
    (("[topology]", "x = 1\n[topology]"), "x: key outside"),
    # semantic errors, caught at parse time with the field path
    (("iterations = 30", "iterations = 0"), "run.iterations"),
    (("p = 4", "p = 3"), "problem.p"),
    (("p = 4", "p = 0"), "problem.p"),
    (("n = 8", "n = 2"), "topology.d"),
    (("d = 2", "d = 3"), "topology.d"),
    (("d = 2", "d = 0"), "topology.d"),
    (("dbfgs = 0.05", "dbfgs = -0.05"), "methods.dbfgs"),
    (("dd = 0.002", "dd = 0"), "methods.dd"),
    (("gamma = 0.01", "gamma = 0.0"), "dbfgs.gamma"),
    (("big_gamma = 0.001", "big_gamma = -1e-3"), "dbfgs.big_gamma"),
    (("eta = 1.0", "eta = -0.5"), "problem.eta"),
    (('kind = "dual"', 'kind = "primal"\nalpha = 0.0'), "mode.alpha"),
    (('kind = "quadratic"\np = 4\neta = 1.0', LOGISTIC_PROBLEM.format(q=0, lam=0.1)),
     "problem.q"),
    (('kind = "quadratic"\np = 4\neta = 1.0', LOGISTIC_PROBLEM.format(q=4, lam=0.0)),
     "problem.lam"),
    (("dd = 0.002", "dd = 0.002\n[async]\nmu_clk = 0.0\nsigma_clk = 0.1"),
     "async.mu_clk"),
    (("dd = 0.002", "dd = 0.002\n[async]\nmu_clk = 1.0\nsigma_clk = -0.1"),
     "async.sigma_clk"),
    (("dd = 0.002", "dd = 0.002\n[async]\nmu_clk = 1.0\nsigma_clk = 0.1\n"
      "delta_msg = -1.0"), "async.delta_msg"),
    (("dd = 0.002", "dd = 0.002\n[async]\nmu_clk = 1.0\nsigma_clk = 0.1\n"
      "horizon = 0.0"), "async.horizon"),
    *MODE_MISMATCHES,
    (('kind = "quadratic"\np = 4\neta = 1.0', LOGISTIC_PROBLEM.format(q=4, lam=0.1)
      .replace("sigma_pos = 1.0", "sigma_pos = -1.0")), "problem.sigma_pos"),
    (('kind = "quadratic"\np = 4\neta = 1.0', LOGISTIC_PROBLEM.format(q=4, lam=0.1)
      .replace("sigma_neg = 1.0", "sigma_neg = -0.5")), "problem.sigma_neg"),
    # a key of the other problem kind is unknown to this one
    (("eta = 1.0", "eta = 1.0\nq = 4"), "problem.q: unknown key"),
    # floats must be finite, seeds distinct and non-negative
    (("dd = 0.002", "dd = 0.002\n[async]\nmu_clk = 1.0\nsigma_clk = 0.1\n"
      "horizon = inf"), "async.horizon: must be finite"),
    (("dd = 0.002", "dd = 0.002\n[async]\nmu_clk = 1.0\nsigma_clk = 0.1\n"
      "delta_msg = inf"), "async.delta_msg: must be finite"),
    (("dd = 0.002", "dd = 0.002\n[async]\nmu_clk = nan\nsigma_clk = 0.1"),
     "async.mu_clk: must be finite"),
    (("iterations = 30", "iterations = 30\nstop_error = nan"),
     "run.stop_error: must be finite"),
    (("error_threshold = 0.5", "error_threshold = -inf"),
     "run.error_threshold: must be finite"),
    (("seeds = [0, 1]", "seeds = [-1]"), "run.seeds: .* non-negative"),
    (("seeds = [0, 1]", "seeds = [0, 0]"), "run.seeds: .*distinct"),
    # a text without a [methods] section, an unknown mode, a clock without
    # its deviation
    (("[methods]\ndbfgs = 0.05\ndd = 0.002", ""), r"^\[methods\]: no method given$"),
    (('kind = "dual"', 'kind = "diagonal"'), "^mode.kind: unknown mode 'diagonal'$"),
    (("dd = 0.002", "dd = 0.002\n[async]\nmu_clk = 1.0"),
     "^async.sigma_clk: missing required key$"),
])
def test_parse_rejections(mutation, match):
    old, new = mutation
    with pytest.raises(ConfigError, match=match):
        parse_config(BASE_CONFIG.replace(old, new))


# BASE_CONFIG as built in code
BASE_FIELDS = dict(n=8, d=2, problem_kind="quadratic", p=4, eta=1.0, mode="dual",
                   gamma=0.01, big_gamma=0.001, iterations=30, seeds=(0, 1),
                   error_threshold=0.5, methods=(("dbfgs", 0.05), ("dd", 0.002)))
TO_LOGISTIC = ('kind = "quadratic"\np = 4\neta = 1.0', LOGISTIC_PROBLEM.format(q=4, lam=0.1))
LOGISTIC_FIELDS = dict(problem_kind="logistic", eta=None, lam=0.1, mu=1.0, sigma_pos=1.0,
                       sigma_neg=1.0)
ASYNC_SECTION = "dd = 0.002\n[async]\nmu_clk = 1.0\nsigma_clk = 0.1\n"
CLOCK = dict(mu_clk=1.0, sigma_clk=0.1)

# (the fault as fields of a built config, as text replacements, its path)
FAULTS = {
    "repeated-seed": (dict(seeds=(0, 0)), [("seeds = [0, 1]", "seeds = [0, 0]")],
                      "run.seeds"),
    "infinite-delay": (dict(CLOCK, delta_msg=math.inf),
                       [("dd = 0.002", ASYNC_SECTION + "delta_msg = inf")], "async.delta_msg"),
    "logistic-without-q": (dict(LOGISTIC_FIELDS, mode="primal", alpha=0.1,
                                methods=(("dbfgs", 0.05), ("dgd", 0.5))),
                           [('kind = "dual"', 'kind = "primal"\nalpha = 0.1'),
                            ("dd = 0.002", "dgd = 0.5"), TO_LOGISTIC, ("q = 4\n", "")],
                           "problem.q"),
    "odd-d": (dict(d=3), [("d = 2", "d = 3")], "topology.d"),
    "dual-logistic": (dict(LOGISTIC_FIELDS, q=4), [TO_LOGISTIC], "mode.kind"),
    "alpha-in-dual": (dict(alpha=0.1), [('kind = "dual"', 'kind = "dual"\nalpha = 0.1')],
                      "mode.alpha"),
    # TOML itself rejects a repeated key, so only code can repeat a method
    "repeated-method": (dict(methods=(("dd", 0.01), ("dd", 0.02))), None, "methods.dd"),
    "nan-horizon": (dict(CLOCK, horizon=math.nan),
                    [("dd = 0.002", ASYNC_SECTION + "horizon = nan")], "async.horizon"),
}


@pytest.mark.parametrize("fields, edits, path", FAULTS.values(), ids=FAULTS)
def test_a_built_config_is_checked_like_a_parsed_one(monkeypatch, fields, edits, path):
    ran = []
    monkeypatch.setattr(harness, "_setup", lambda *args: ran.append(args))
    assert ExperimentConfig(**BASE_FIELDS) == parse_config(BASE_CONFIG)
    with pytest.raises(ConfigError, match=f"^{path}: ") as built:
        harness.run_experiment(ExperimentConfig(**{**BASE_FIELDS, **fields}))
    assert not ran
    if edits is not None:
        text = BASE_CONFIG
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(ConfigError) as parsed:
            parse_config(text)
        assert str(parsed.value) == str(built.value)


def test_quadratic_keys_are_unknown_to_a_logistic_problem():
    text = BASE_CONFIG.replace('kind = "dual"', 'kind = "primal"\nalpha = 0.1')
    text = text.replace("dd = 0.002", "dgd = 0.5").replace(
        'kind = "quadratic"\np = 4\neta = 1.0', LOGISTIC_PROBLEM.format(q=4, lam=0.1))
    assert parse_config(text).problem_kind == "logistic"
    with pytest.raises(ConfigError, match="problem.eta: unknown key"):
        parse_config(text.replace("sigma_neg = 1.0", "sigma_neg = 1.0\neta = 0.5"))


def test_quoted_hash_is_part_of_the_value():
    text = BASE_CONFIG.replace('kind = "quadratic"', 'kind = "quad#ratic"')
    with pytest.raises(ConfigError, match="'quad#ratic'"):
        parse_config(text)


def test_async_regime_rejects_sync_only_methods():
    text = BASE_CONFIG.replace("dd = 0.002", "admm = 0.002\n\n[async]\n"
                               "mu_clk = 1.0\nsigma_clk = 0.1")
    with pytest.raises(ConfigError, match="methods.admm"):
        parse_config(text)


def test_primal_requires_alpha():
    text = BASE_CONFIG.replace('kind = "dual"', 'kind = "primal"')
    text = text.replace("dd = 0.002", "dgd = 0.5")
    with pytest.raises(ConfigError, match="mode.alpha"):
        parse_config(text)


def test_run_experiment_writes_deterministic_csv(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    res1 = run_experiment(cfg, str(out1))
    res2 = run_experiment(cfg, str(out2))
    assert len(res1) == 4  # 2 methods x 2 seeds
    for r1, r2 in zip(res1, res2):
        with open(r1.csv_path) as f1, open(r2.csv_path) as f2:
            assert f1.read() == f2.read()
    names = sorted(os.listdir(out1))
    assert any(n.startswith("summary_") for n in names)


def test_run_experiment_writes_every_file_through_replace(tmp_path, monkeypatch):
    # CSVs and the summary appear whole or not at all
    replaced = []
    real_replace = os.replace

    def spy(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    cfg = parse_config(BASE_CONFIG)
    run_experiment(cfg, str(tmp_path))
    assert sorted(replaced) == sorted(os.listdir(tmp_path))
    assert f"summary_{cfg.config_hash()}.txt" in replaced


def test_run_experiment_solves_each_optimum_once(tmp_path, monkeypatch):
    import dbfgs.objectives as objectives

    solved = []
    real_solve = objectives.solve_consensus_optimum

    def counting(instance):
        solved.append(instance.seed)
        return real_solve(instance)

    monkeypatch.setattr(objectives, "solve_consensus_optimum", counting)
    run_experiment(parse_config(BASE_CONFIG), str(tmp_path))
    assert solved == [0, 1]  # two methods share each seed's objective


ASYNC_CONFIG = BASE_CONFIG.replace("dd = 0.002", "dd = 0.002\n\n[async]\n"
                                   "mu_clk = 1.0\nsigma_clk = 0.2\nhorizon = 12.0")


def test_async_horizon_defaults_to_thirty_clock_means_past_the_budget():
    cfg = parse_config(ASYNC_CONFIG.replace("\nhorizon = 12.0", ""))
    assert cfg.horizon is None
    graph = build_d_regular_cycle(cfg.n, cfg.d)
    _, schedule = harness._setup(cfg, 1, graph, build_weight_matrix(graph, cfg.d))
    want = gen_clock_schedule(cfg.n, cfg.mu_clk, cfg.sigma_clk,
                              cfg.mu_clk * (cfg.iterations + 30), 1)
    assert len(schedule.times) == len(want.times) == cfg.n
    assert all(np.array_equal(got, ticks) for got, ticks in zip(schedule.times, want.times))


@pytest.mark.parametrize("text, columns", [(BASE_CONFIG, 7), (ASYNC_CONFIG, 9)],
                         ids=["sync", "async"])
def test_csv_round_trip(tmp_path, text, columns):
    # to_csv -> read_trace_csv -> to_csv gives back every byte and field
    for r in run_experiment(parse_config(text), str(tmp_path)):
        with open(r.csv_path) as fh:
            written = fh.read()
        assert written.count(",") == (columns - 1) * (len(r.trace.iters) + 1)
        again = read_trace_csv(r.csv_path)
        assert again.to_csv() == written == r.trace.to_csv()
        for name in ("method", "mode", "seed", "iters", "error", "grad_norm",
                     "exchanges", "model_time", "local_iter_min"):
            assert getattr(again, name) == getattr(r.trace, name)


def test_csv_row_count_equals_iterations(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    res = run_experiment(cfg, str(tmp_path))
    for r in res:
        with open(r.csv_path) as fh:
            rows = fh.read().strip().splitlines()
        assert len(rows) == 1 + len(r.trace.iters)
        assert len(r.trace.iters) == 30  # no stop threshold hit


def fake_trace(method, seed, errors, cost):
    tr = Trace(method=method, mode="dual", seed=seed)
    for k, e in enumerate(errors, start=1):
        tr.append(k, e, 1.0, k * cost)
    return tr


def test_histogram_counts_and_censoring():
    traces = [
        fake_trace("dbfgs", 0, [1.0, 0.5, 0.05, 0.001], 2),
        fake_trace("dbfgs", 1, [1.0, 0.02, 0.001, 0.0001], 2),
        fake_trace("dd", 0, [1.0, 0.9, 0.8, 0.7], 1),
    ]
    hist = histogram_exchanges(traces, 0.05)
    assert hist.runs == {"dbfgs": [(6, True), (4, True)], "dd": [(4, False)]}
    assert hist.quantile("dbfgs", 0.5) == 5.0
    assert hist.quantile("dd", 0.5) is None


def test_histogram_keeps_each_censored_runs_last_exchange_count():
    # a trace with no rows is censored at 0 exchanges
    traces = [fake_trace("dd", 0, [1.0, 0.9, 0.8, 0.7], 1),
              fake_trace("dd", 1, [1.0, 0.01], 1),
              fake_trace("dd", 2, [1.0, 0.9], 3),
              fake_trace("dd", 3, [], 1)]
    hist = histogram_exchanges(traces, 0.05)
    assert hist.runs == {"dd": [(4, False), (2, True), (6, False), (0, False)]}


@pytest.mark.parametrize("reached,censored,median", [
    ([10, 20, 30], 1, 25.0),  # fewer than half censored: counted above 30
    ([10, 20, 30], 2, 30.0),
    ([10, 20], 2, None),  # exactly half: a censored run is a middle one
    ([10], 2, None),  # more than half
    ([], 3, None),
])
def test_histogram_median_ranks_censored_runs_last(reached, censored, median):
    # a censored run's count, here below every reached one, does not rank it
    runs = [(5, False)] * censored + [(exch, True) for exch in reached]
    hist = harness.HistogramResult(threshold=0.1, runs={"dbfgs": runs})
    assert hist.quantile("dbfgs", 0.5) == median


@settings(max_examples=200, deadline=None, database=None)
@given(reached=st.lists(st.integers(0, 10**4), max_size=12), censored=st.integers(0, 12),
       q=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
def test_histogram_quantile_is_numpys_with_censored_runs_ranked_last(reached, censored,
                                                                     q):
    # a censored run counted as 10**9, above every reached count: at these q
    # a quantile that reads one exceeds them all, and is None
    runs = [(exch, True) for exch in reached] + [(0, False)] * censored
    hist = harness.HistogramResult(threshold=0.1, runs={"dbfgs": runs})
    padded = reached + [10**9] * censored
    want = float(np.quantile(padded, q)) if padded else None
    assert hist.quantile("dbfgs", q) == (want if want is not None and want <= 10**4
                                         else None)


def test_ratio_criteria_bound_a_censored_slow_median(monkeypatch):
    # dbfgs reaches at 100 exchanges in every run; admm reaches at 100 in one
    # of three and runs out its 1000-exchange budget in two, so its median
    # is censored and the ratio is at least 1000 / 100; dd never reaches
    runs = {"dbfgs": [[1.0, 1e-3]] * 3, "admm": [[1e-3]] + [[1.0] * 10] * 2,
            "dd": [[1.0] * 10] * 3}
    cost = {"dbfgs": 50, "admm": 100, "dd": 100}

    def fake_run(cfg, outdir=None):
        (method, _), = cfg.methods
        return [harness.RunResult(method, s, fake_trace(method, s, errs, cost[method]),
                                  None) for s, errs in enumerate(runs[method])]

    monkeypatch.setattr(harness, "run_experiment", fake_run)
    budgets = {m: (10, 0.01) for m in runs}
    cases = ((0.0, "low", 5.0, "need >= 5"), (0.0, "high", 20.0, "need >= 20"))
    low, high = harness._ratio_criteria("figX", "dual", 1e-2, "dbfgs", "admm",
                                        budgets, cases, range(3), None)
    assert (low.passed, high.passed) == (True, False)
    assert low.detail == ("admm/dbfgs median exchange ratio >= 10.00 (dbfgs reached "
                          "3 of 3, admm reached 1 of 3; need >= 5)")
    (fails,) = harness._ratio_criteria("figX", "dual", 1e-2, "dd", "dbfgs", budgets,
                                       cases[:1], range(3), None)
    assert not fails.passed
    assert fails.detail == ("dd median censored, no ratio (dd reached 0 of 3, "
                            "dbfgs reached 3 of 3; need >= 5)")


def test_histogram_order_independence():
    rng = np.random.default_rng(0)
    traces = [fake_trace("dbfgs", s, list(np.sort(rng.uniform(0, 1, 50))[::-1]), 2)
              for s in range(9)]
    forward = histogram_exchanges(traces, 0.2).quantile("dbfgs", 0.5)
    backward = histogram_exchanges(traces[::-1], 0.2).quantile("dbfgs", 0.5)
    assert forward == backward


def test_reproduce_unknown_profile():
    with pytest.raises(ConfigError, match="unknown profile"):
        reproduce_paper_suite("fig9")


def test_reproduce_smoke_structure():
    ok, results = reproduce_paper_suite("fig2", seeds=range(2))
    assert {r.name for r in results} == {"fig2.dbfgs_error_at_200",
                                         "fig2.ordering"}
    assert all(isinstance(r.passed, bool) for r in results)
    assert isinstance(ok, bool)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_and_histogram(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(BASE_CONFIG)
    outdir = tmp_path / "out"
    rc = cli_main(["run", str(cfg_path), "--outdir", str(outdir)])
    assert rc == 0
    csvs = [str(outdir / n) for n in os.listdir(outdir) if n.endswith(".csv")]
    assert len(csvs) == 4
    rc = cli_main(["histogram", str(outdir / "*.csv"), "--threshold", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "threshold 0.5" in out


def test_cli_histogram_prints_censoring_aware_quartiles(tmp_path, capsys):
    # dbfgs reaches at 4, 8 and 12 exchanges, and one run is censored at 4:
    # ranked last, it is the q75's upper neighbor (rank 2.25 of 0..3)
    traces = [fake_trace("dbfgs", s, [1.0] * s + [0.01], 4) for s in range(3)]
    traces += [fake_trace("dbfgs", 3, [1.0], 4), fake_trace("dd", 0, [1.0, 0.9], 1)]
    for k, trace in enumerate(traces):
        (tmp_path / f"t{k}.csv").write_text(trace.to_csv())
    assert cli_main(["histogram", str(tmp_path / "*.csv"), "-t", "0.05"]) == 0
    assert capsys.readouterr().out == (
        "threshold 0.05\n"
        "dbfgs: reached=3 censored=1 q25=7 median=10 q75=censored\n"
        "dd: reached=0 censored=1 q25=censored median=censored q75=censored\n")


def test_cli_histogram_of_runs_that_end_before_their_first_row(tmp_path, capsys):
    # a horizon before any node's second tick ends each async run with no
    # row; its CSV is a header alone, so the reader takes the trace's method
    # from the file name, and the run counts as censored under it
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(BASE_CONFIG.replace("n = 8", "n = 6").replace(
        "dd = 0.002", "dd = 0.002\n\n[async]\nmu_clk = 1.0\nsigma_clk = 0.1\n"
        "horizon = 0.005"))
    outdir = tmp_path / "out"
    assert cli_main(["run", str(cfg_path), "--outdir", str(outdir)]) == 0
    csvs = sorted(outdir.glob("*.csv"))
    assert len(csvs) == 4 and all(len(p.read_text().splitlines()) == 1 for p in csvs)
    assert cli_main(["histogram", str(outdir / "*.csv"), "-t", "0.5"]) == 0
    assert capsys.readouterr().out.endswith(
        "threshold 0.5\n"
        "dbfgs: reached=0 censored=2 q25=censored median=censored q75=censored\n"
        "dd: reached=0 censored=2 q25=censored median=censored q75=censored\n")


@pytest.mark.parametrize("name, identity", [
    ("dbfgs_dual_s3_abc.csv", ("dbfgs", "dual", 3)),
    ("dgd_primal_s0_a_b.csv", ("dgd", "primal", 0)),
    ("dd_primal_s3_abc.csv", ("?", "?", 0)),  # DD runs in dual mode only
    ("newton_dual_s3_abc.csv", ("?", "?", 0)),
    ("t0.csv", ("?", "?", 0))])
def test_rowless_trace_takes_its_identity_from_a_run_experiment_name(tmp_path, name,
                                                                       identity):
    path = tmp_path / name
    path.write_text(Trace(method="x", mode="x", seed=9, model_time=[]).to_csv())
    trace = read_trace_csv(str(path))
    assert (trace.method, trace.mode, trace.seed) == identity and not trace.iters


def test_cli_run_without_outdir_writes_to_the_environment_outdir(monkeypatch, tmp_path,
                                                                  capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(BASE_CONFIG)
    envdir = tmp_path / "env"
    monkeypatch.setenv("DBFGS_OUTDIR", str(envdir))
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(cfg_path)]) == 0
    assert len(list(envdir.glob("*.csv"))) == 4
    assert not (tmp_path / "runs").exists()
    assert f"wrote 4 trace(s) to {envdir} " in capsys.readouterr().out


@pytest.mark.parametrize("second, code", [(True, 0), (False, 1)], ids=["pass", "fail"])
def test_cli_reproduce_prints_each_criterion_and_exits_on_the_verdict(monkeypatch, capsys,
                                                                      second, code):
    calls = []

    def profile(seeds, outdir):
        calls.append((seeds, outdir))
        return [harness.CriterionResult("figX.first", True, "one"),
                harness.CriterionResult("figX.second", second, "two")]

    monkeypatch.setitem(harness.PROFILES, "figX", profile)
    assert cli_main(["reproduce", "figX", "--seeds", "3"]) == code
    assert capsys.readouterr().out == ("PASS figX.first: one\n"
                                       f"{'PASS' if second else 'FAIL'} figX.second: two\n")
    assert calls == [((0, 1, 2), None)]


def test_cli_histogram_no_match_is_usage_error(tmp_path):
    rc = cli_main(["histogram", str(tmp_path / "none*.csv"),
                   "--threshold", "0.5"])
    assert rc == 2


def test_cli_histogram_of_a_non_trace_csv_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    rc = cli_main(["histogram", str(bad), "--threshold", "0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "not a trace CSV" in err


SYNC_ROW = ("iter,error,grad_norm,exchanges,method,mode,seed",
            "1,0.5,1.0,2,dbfgs,dual,0")
ASYNC_ROW = (SYNC_ROW[0] + ",model_time,local_iter_min", SYNC_ROW[1] + ",1.0,1")


@pytest.mark.parametrize("first, row, message", [
    (SYNC_ROW, "1,0.5,1.0,2,dbfgs", "5 fields, the header has 7"),
    (SYNC_ROW, "1,x,1.0,2,dbfgs,dual,0", "could not convert string to float: 'x'"),
    (SYNC_ROW, "2,0.5,1.0,3,dd,dual,0",
     "method 'dd' differs from the rows before it ('dbfgs')"),
    (SYNC_ROW, "2,0.5,1.0,3,dbfgs,primal,0",
     "mode 'primal' differs from the rows before it ('dual')"),
    (SYNC_ROW, "2,0.5,1.0,3,dbfgs,dual,1",
     "seed 1 differs from the rows before it (0)"),
    (ASYNC_ROW, "2,0.5,1.0,3,dbfgs,dual,0,2.0,1", "local_iter_min 1 differs from iter 2"),
], ids=["short-row", "non-numeric", "mixed-method", "mixed-mode", "mixed-seed",
        "async-iter"])
def test_cli_histogram_of_a_bad_trace_row_names_its_line(tmp_path, capsys, first, row,
                                                         message):
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join((*first, row)) + "\n")
    rc = cli_main(["histogram", str(bad), "--threshold", "0.1"])
    assert rc == 2
    assert f"{bad}:3: {message}" in capsys.readouterr().err


def test_cli_run_on_a_non_utf8_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe" + BASE_CONFIG.encode("utf-16-le"))
    rc = cli_main(["run", str(bad), "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err


def test_cli_run_on_a_directory_is_usage_error(tmp_path, capsys):
    rc = cli_main(["run", str(tmp_path), "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[topology]\nn = 8\n")
    rc = cli_main(["run", str(bad)])
    assert rc == 2


def test_cli_semantic_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE_CONFIG.replace("iterations = 30", "iterations = 0"))
    rc = cli_main(["run", str(bad), "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert "run.iterations" in capsys.readouterr().err


@pytest.mark.parametrize("mutation,path", MODE_MISMATCHES)
def test_cli_mode_mismatch_exit_code(tmp_path, capsys, mutation, path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE_CONFIG.replace(*mutation))
    rc = cli_main(["run", str(bad), "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", [(), (-1,), (0, 0), [2, 1, 2]])
def test_reproduce_rejects_bad_seeds(monkeypatch, seeds):
    def profile(seeds, outdir):
        raise AssertionError("the profile ran")

    monkeypatch.setitem(PROFILES, "fig2", profile)
    with pytest.raises(ConfigError, match="seeds: expected a non-empty list"):
        reproduce_paper_suite("fig2", seeds=seeds)


@pytest.mark.parametrize("count", ["0", "-2"])
def test_cli_reproduce_seed_count_below_one_is_usage_error(monkeypatch, capsys, count):
    def profile(seeds, outdir):
        raise AssertionError("the profile ran")

    monkeypatch.setitem(PROFILES, "fig2", profile)
    assert cli_main(["reproduce", "fig2", "--seeds", count]) == 2
    assert "seeds: expected a non-empty list" in capsys.readouterr().err


def test_cli_unknown_profile_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli_main(["reproduce", "fig9"])
    assert err.value.code == 2
