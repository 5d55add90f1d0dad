"""Evaluation-harness tests: metrics, attacks, baseline, case studies."""

import dataclasses
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gridvolt.autodiff as ad
import gridvolt.evaluation as ev
import gridvolt.model as gm
import gridvolt.network as net
import gridvolt.simulation as sim
from gridvolt.seeding import derive_seed, rng

from helpers import build_dataset

NI = net.NODE_FEATURE_INDEX


@pytest.fixture(scope="module")
def tiny_setup():
    spec = sim.generate_substation(31, "tiny", n_feeders=3)
    scen = sim.ScenarioConfig(horizon_minutes=720, der_penetration=20)
    data = build_dataset(spec, scen)
    snaps = [data.snapshot(i) for i in range(data.n_snapshots)]
    params = gm.ModelParams.create(gm.ModelConfig(hidden_dim=8, n_layers=2),
                                   data.feeder_ids, seed=3)
    return params, snaps, data


def _fleet_mask(data, seed, p_obs):
    order = net.fleet_order(data.snapshot(0).node_x, rng(seed, "fleet"))
    return net.fleet_mask(order, p_obs)


# -- metrics -------------------------------------------------------------------


def test_rmse_zero_for_perfect_prediction():
    v = np.array([1.0, 0.99, 0.98])
    assert ev.rmse(v, v, np.array([0, 1, 2])) == 0.0


def test_rmse_and_mae_hand_example():
    v_hat = np.array([1.01, 0.99])
    v_true = np.array([1.00, 1.00])
    sel = np.array([True, True])
    assert ev.rmse(v_hat, v_true, sel) == pytest.approx(0.01, abs=1e-15)
    assert ev.mae(v_hat, v_true, sel) == pytest.approx(0.01, abs=1e-15)


def test_rmse_at_least_mae():
    gen = np.random.default_rng(0)
    for _ in range(20):
        v_hat = gen.normal(1.0, 0.02, 30)
        v_true = gen.normal(1.0, 0.02, 30)
        sel = np.arange(30)
        assert ev.rmse(v_hat, v_true, sel) >= ev.mae(v_hat, v_true, sel) - 1e-15


def test_metrics_invariant_to_node_ordering():
    gen = np.random.default_rng(1)
    v_hat, v_true = gen.normal(1, 0.02, 40), gen.normal(1, 0.02, 40)
    sel = np.flatnonzero(gen.random(40) < 0.5)
    perm = gen.permutation(40)
    inv = np.empty(40, dtype=int)
    inv[perm] = np.arange(40)
    assert ev.rmse(v_hat, v_true, sel) == pytest.approx(
        ev.rmse(v_hat[perm], v_true[perm], inv[sel]), abs=1e-15)


def test_metrics_reject_empty_set():
    with pytest.raises(ValueError, match="empty"):
        ev.rmse(np.ones(3), np.ones(3), np.zeros(3, dtype=bool))


# -- attacks -------------------------------------------------------------------


def test_attack_config_validation():
    with pytest.raises(ValueError, match="penetration"):
        ev.AttackConfig(penetration=0.07)
    with pytest.raises(ValueError, match="bias"):
        ev.AttackConfig(bias_lo=0.1, bias_hi=0.0)
    with pytest.raises(ValueError, match="targets"):
        ev.AttackConfig(targets="frequency")
    ev.AttackConfig(penetration=0.0)
    ev.AttackConfig(penetration=0.06)


def _item(tiny_setup, observed_frac=0.5, seed=0):
    params, snaps, data = tiny_setup
    gen = np.random.default_rng(seed)
    obs = gen.random(data.n_nodes) < observed_frac
    return snaps[0].masked(obs)


def test_null_attack_is_bitwise_identity(tiny_setup):
    item = _item(tiny_setup)
    cfg = ev.AttackConfig(sigma_v=0.0, sigma_p=0.0, bias_lo=0.0, bias_hi=0.0,
                          penetration=0.06)
    out = ev.inject_attack(item, cfg, rng(0, "atk"))
    np.testing.assert_array_equal(out.node_x, item.node_x)


def test_zero_penetration_returns_snapshot_unchanged(tiny_setup):
    item = _item(tiny_setup)
    out = ev.inject_attack(item, ev.AttackConfig(penetration=0.0),
                           rng(0, "atk"))
    assert out is item


def test_attack_hits_exactly_the_configured_share(tiny_setup):
    params, snaps, data = tiny_setup
    # 100 power channels: restrict to power targets on a 100-node slice
    obs = np.zeros(data.n_nodes, dtype=bool)
    obs[:5] = True
    item = snaps[0].masked(obs)
    assert data.n_nodes == 93
    cfg = ev.AttackConfig(penetration=0.06, targets="power",
                          bias_lo=0.01, bias_hi=0.02)
    out = ev.inject_attack(item, cfg, rng(1, "atk"))
    changed = np.flatnonzero(out.node_x[:, NI["p_injection_pu"]]
                             != item.node_x[:, NI["p_injection_pu"]])
    assert len(changed) == round(0.06 * 93)  # 6 of 93 power channels
    # nothing else moved
    other = np.delete(np.arange(net.N_NODE_FEATURES), NI["p_injection_pu"])
    np.testing.assert_array_equal(out.node_x[:, other], item.node_x[:, other])


def test_voltage_attack_touches_only_observed_channels(tiny_setup):
    item = _item(tiny_setup, observed_frac=0.6)
    cfg = ev.AttackConfig(targets="voltage", bias_lo=0.01, bias_hi=0.02)
    out = ev.inject_attack(item, cfg, rng(2, "atk"))
    col = NI["m_obs_v_pu"]
    changed = np.flatnonzero(out.node_x[:, col] != item.node_x[:, col])
    assert len(changed) > 0
    assert np.all(item.node_x[changed, NI["m_obs"]] == 1.0)
    np.testing.assert_array_equal(out.v_true, item.v_true)  # labels untouched
    np.testing.assert_array_equal(out.observed, item.observed)


def test_attack_is_deterministic_under_seed(tiny_setup):
    item = _item(tiny_setup)
    cfg = ev.AttackConfig()
    a = ev.inject_attack(item, cfg, rng(7, "atk"))
    b = ev.inject_attack(item, cfg, rng(7, "atk"))
    np.testing.assert_array_equal(a.node_x, b.node_x)


# -- model evaluation -------------------------------------------------------------


def reference_predict(params, items):
    """The per-mask path the sweep replaced: every run of every mask's
    snapshots built, planned, forwarded and dropped."""
    with ad.no_grad():
        flat = np.concatenate([
            gm.forward(params, gm.build_batch(items[run],
                                              params.feeder_rows)).values
            for run in gm.batch_runs(items)])
    return flat.reshape(len(items), -1)


def reference_sweep(params, snaps, levels, n_seeds, seed, attack=None):
    """The sweep's rows, one whole per-mask evaluation at a time."""
    orders = ev.fleet_orders(snaps, n_seeds, seed)
    truth = np.stack([s.v_true for s in snaps])
    rows = []
    for level in levels:
        for k in range(n_seeds):
            mask_seed = derive_seed(seed, "sweep", level, k)
            mask = net.fleet_mask(orders[k], level)
            items = [s.masked(mask) for s in snaps]
            if attack is not None:
                gen = rng(seed, "attack", level, mask_seed)
                items = [ev.inject_attack(it, cfg=attack, gen=gen)
                         for it in items]
            preds = reference_predict(params, items)
            hidden = np.tile(~mask, len(snaps))
            rows.append(ev.ReportRow(
                "X", "s31", level, "gnn",
                ev.rmse(preds.ravel(), truth.ravel(), hidden),
                ev.mae(preds.ravel(), truth.ravel(), hidden), mask_seed))
    return rows


# 23 snapshots of the 93-node graph: runs of 4, 5, 4, 5 and 5
_SWEEP = dict(levels=(5, 40), n_seeds=2, seed=4)


@pytest.mark.parametrize("attack", [None, ev.AttackConfig()],
                         ids=["clean", "attacked"])
def test_sweep_equals_the_per_mask_path(tiny_setup, attack):
    params, snaps, data = tiny_setup
    items = snaps[:23]
    assert [r.stop - r.start for r in gm.batch_runs(items)] == [4, 5, 4, 5, 5]
    rows = ev.sweep(ev.gnn(params), items, "s31", **_SWEEP, attack=attack,
                    scenario="X", model="gnn")
    expected = reference_sweep(params, items, **_SWEEP, attack=attack)
    assert len(rows) == 4
    assert rows == expected
    assert [(r.rmse, r.mae) for r in rows] == \
        [(r.rmse, r.mae) for r in expected]


def _level_masks(snaps, levels, n_seeds, seed):
    """Every replicate mask of every level, and one attack stream each."""
    orders = ev.fleet_orders(snaps, n_seeds, seed)
    masks = [net.fleet_mask(o, level) for level in levels for o in orders]
    return masks, [rng(seed, "attack", k) for k in range(len(masks))]


def _scoring_threads(monkeypatch, worker: bool) -> set[int]:
    """Route ``level_predictions`` through one worker thread, whatever the
    core count, or through the caller alone; the ids of the threads that
    forward a run are added to the returned set."""
    monkeypatch.setattr(ev, "_worker", (lambda: ThreadPoolExecutor(1))
                        if worker else (lambda: None))
    threads, real = set(), ev.forward

    def forward(*args):
        threads.add(threading.get_ident())
        return real(*args)
    monkeypatch.setattr(ev, "forward", forward)
    return threads


@pytest.mark.parametrize("attack", [None, ev.AttackConfig()],
                         ids=["clean", "attacked"])
def test_scoring_with_the_worker_equals_the_caller_alone(tiny_setup,
                                                        monkeypatch, attack):
    params, snaps, data = tiny_setup
    items = snaps[:23]
    assert len(gm.batch_runs(items)) == 5
    preds, interval = {}, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads interleave often
    try:
        for worker in (False, True):
            threads = _scoring_threads(monkeypatch, worker)
            masks, gens = _level_masks(items, (1, 40), 3, 4)
            preds[worker] = ev.level_predictions(params, items, masks, gens,
                                                 attack)
            # the first run always goes to the idle worker
            assert (threads != {threading.get_ident()}) == worker
    finally:
        sys.setswitchinterval(interval)
    assert preds[True].shape == (6, 23, data.n_nodes)
    assert np.array_equal(preds[True], preds[False])


@pytest.mark.parametrize("tensor, stage", [
    ("layer1.att_a", "attention_score/learned"),
    ("input.W", "linear/matmul"),
], ids=["logit", "linear"])
def test_an_overflow_in_the_worker_reaches_the_caller(tiny_setup, monkeypatch,
                                                      tensor, stage):
    """The overflow of ``test_fusion``, raised in a run the worker
    forwards, is the exception the caller sees."""
    params, snaps, data = tiny_setup
    poisoned = gm.ModelParams(params.config, {
        name: ad.Tensor(t.values.copy(), name=name)
        for name, t in params.tensors.items()}, params.feeder_rows)
    poisoned.tensors[tensor].values[...] = 1e308
    caller = threading.get_ident()
    _scoring_threads(monkeypatch, worker=True)
    raised, real = [], ev.forward

    def forward(params, batch):
        if threading.get_ident() == caller:
            return real(params, batch)
        try:
            return real(poisoned, batch)
        except ad.NonFiniteError as exc:
            raised.append(exc)
            raise
    monkeypatch.setattr(ev, "forward", forward)
    masks, gens = _level_masks(snaps[:23], (40,), 1, 4)
    # the worker runs under the caller's numpy error state: an overflow
    # warning there would be raised in place of the engine's error
    with np.errstate(over="ignore", invalid="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ad.NonFiniteError, match=stage) as caught:
            ev.level_predictions(params, snaps[:23], masks, gens, None)
    assert caught.value is raised[0]


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Live call counts of the named ``evaluation`` module functions, from
    whichever thread calls them."""
    calls, lock = dict.fromkeys(names, 0), threading.Lock()

    def counted(name):
        real = getattr(ev, name)

        def call(*args, **kwargs):
            with lock:
                calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(ev, name, counted(name))
    return calls


def test_sweep_builds_each_run_once_per_level(tiny_setup, monkeypatch):
    params, snaps, data = tiny_setup
    calls = _count_calls(monkeypatch, "build_batch", "forward")
    ev.sweep(ev.gnn(params), snaps[:23], "s31", **_SWEEP,
             attack=ev.AttackConfig(), scenario="X", model="gnn")
    levels, runs = len(_SWEEP["levels"]), len(gm.batch_runs(snaps[:23]))
    assert calls == {"build_batch": levels * runs,
                     "forward": levels * runs * _SWEEP["n_seeds"]}


def test_one_percent_fleets_are_the_hub_row(tiny_setup):
    """At 1 % the 93-node budget is one node, and the hub rows fill the
    budget first, so all ten replicate fleets meter the same hub row; at
    5 % the budget reaches past the three hub rows and the fleets differ."""
    params, snaps, data = tiny_setup
    assert data.n_nodes == 93
    orders = ev.fleet_orders(snaps, 10, 4)
    hub = np.flatnonzero(snaps[0].node_x[:, NI["type_hub"]] == 1.0)
    for order in orders:
        np.testing.assert_array_equal(
            np.flatnonzero(net.fleet_mask(order, 1)), hub[:1])
    assert len({net.fleet_mask(o, 5).tobytes() for o in orders}) == 10


@pytest.mark.parametrize("attack,forwards_per_run",
                         [(None, 1 + 3), (ev.AttackConfig(), 3 * 2)],
                         ids=["clean", "attacked"])
def test_sweep_forwards_each_distinct_input_once(tiny_setup, monkeypatch,
                                                 attack, forwards_per_run):
    """Clean, the three replicates of the 1 % level share one fleet and one
    forward per run, and the three 40 % fleets differ; attacked, each
    replicate draws its own attack stream and forwards on its own."""
    params, snaps, data = tiny_setup
    items = snaps[:23]
    sweep = dict(levels=(1, 40), n_seeds=3, seed=4)
    expected = reference_sweep(params, items, **sweep, attack=attack)
    calls = _count_calls(monkeypatch, "forward")
    rows = ev.sweep(ev.gnn(params), items, "s31", **sweep, attack=attack,
                    scenario="X", model="gnn")
    assert calls["forward"] == len(gm.batch_runs(items)) * forwards_per_run
    assert rows == expected
    assert [(r.rmse, r.mae) for r in rows] == \
        [(r.rmse, r.mae) for r in expected]


def test_predict_matches_single_forward(tiny_setup, monkeypatch):
    """What the sweep scores under each mask is one whole-batch forward of
    the masked snapshots."""
    params, snaps, data = tiny_setup
    items = snaps[:24]
    assert len(gm.batch_runs(items)) > 1
    scored, real_rmse = [], ev.rmse

    def spy(v_hat, v_true, nodes):
        scored.append(np.array(v_hat))
        return real_rmse(v_hat, v_true, nodes)

    monkeypatch.setattr(ev, "rmse", spy)
    ev.sweep(ev.gnn(params), items, "s31", **_SWEEP, scenario="X",
             model="gnn")
    orders = ev.fleet_orders(items, _SWEEP["n_seeds"], _SWEEP["seed"])
    masks = [net.fleet_mask(order, level)
             for level in _SWEEP["levels"] for order in orders]
    assert len(scored) == len(masks)
    for got, mask in zip(scored, masks):
        assert got.shape == (24 * data.n_nodes,)
        with ad.no_grad():
            whole = gm.forward(params, gm.build_batch(
                [s.masked(mask) for s in items], params.feeder_rows))
        # one ulp near 1.0 p.u.: only the BLAS kernels chosen by row count
        # differ
        np.testing.assert_allclose(got, whole.values, rtol=0, atol=2.3e-16)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_peak_memory_does_not_grow_with_snapshots(tiny_setup):
    """A sweep holds one level's predictions and one run's batch at a time:
    from 8 to 64 snapshots its traced peak grows by at most one level's
    [n_seeds, 64, N] predictions plus the peak of a sweep over one
    full-budget run, where one all-in-one batch grows 8x."""
    params, snaps, data = tiny_setup
    n_seeds = 3

    def sweep(n):
        items = [snaps[k % len(snaps)] for k in range(n)]
        return lambda: ev.sweep(
            ev.gnn(params), items, "s31", levels=(5, 40), n_seeds=n_seeds,
            scenario="X", model="gnn")

    budget = _traced_peak(sweep(gm.BATCH_NODES // data.n_nodes))
    level = n_seeds * 64 * data.n_nodes * 8
    growth = _traced_peak(sweep(64)) - _traced_peak(sweep(8))
    assert growth <= level + budget, (growth, level, budget)


def test_evaluate_masked_returns_finite_scores(tiny_setup):
    params, snaps, data = tiny_setup
    [row] = ev.sweep(ev.gnn(params), snaps[:8], "s31", levels=(20,),
                     n_seeds=1, seed=5, scenario="X", model="gnn")
    assert np.isfinite(row.rmse) and np.isfinite(row.mae)
    assert row.rmse >= row.mae > 0


def test_observability_sweep_shape_and_determinism(tiny_setup):
    params, snaps, data = tiny_setup
    kwargs = dict(levels=(5, 40), n_seeds=3, seed=2, scenario="X",
                  model="gnn")
    rows = ev.sweep(ev.gnn(params), snaps[:6], "s31", **kwargs)
    assert [r.p_obs for r in rows] == [5, 5, 5, 40, 40, 40]
    assert {(r.scenario, r.substation, r.model) for r in rows} == \
        {("X", "s31", "gnn")}
    assert len({r.seed for r in rows}) == 6
    again = ev.sweep(ev.gnn(params), snaps[:6], "s31", **kwargs)
    assert again == rows


# -- linear baseline ---------------------------------------------------------------


def test_baseline_sample_strides_over_the_window():
    assert ev.baseline_sample(range(36)) == range(36)
    assert ev.baseline_sample(range(1800)) == range(0, 1600, 4)
    assert ev.baseline_sample(range(5, 1205)) == range(5, 1205, 3)
    assert len(ev.baseline_sample(range(0))) == 0
    # the choice the fit made from a list of every window snapshot
    for n in (400, 401, 799, 1001, 1800):
        snaps = list(range(n))
        stride = max(1, n // min(n, 400))
        assert list(ev.baseline_sample(range(n))) == \
            snaps[::stride][:min(n, 400)]


def _ridge_errors(baseline, snaps, level, mask):
    """(RMSE, MAE) of the level-``level`` fit under one fleet, scored from
    the ridge's ``level_predictions``."""
    [preds] = baseline.level_predictions(level, snaps, [mask])
    return ev.hidden_errors(preds, np.stack([s.v_true for s in snaps]), mask)


def test_baseline_fits_constant_voltage_exactly(tiny_setup):
    params, snaps, data = tiny_setup
    flat_snaps = [dataclasses.replace(s, v_true=np.ones(data.n_nodes))
                  for s in snaps[:10]]
    baseline = ev.fit_linear_baseline(flat_snaps, levels=(20,), seed=0)
    r, m = _ridge_errors(baseline, flat_snaps, 20, _fleet_mask(data, 1, 20))
    assert r < 1e-6


def test_baseline_is_fit_per_feeder(tiny_setup):
    params, snaps, data = tiny_setup
    baseline = ev.fit_linear_baseline(snaps[:10], levels=(20,), seed=0)
    expected = set(int(f) for f in data.feeder_ids) | {net.HUB_FEEDER}
    assert set(baseline.coef[20]) == expected
    assert set(baseline.coef) == {20}


def test_baseline_scores_the_level_fit_alone(tiny_setup):
    params, snaps, data = tiny_setup
    train, test = snaps[:20], snaps[36:44]
    # the level-20 fit by hand: the same masks, one ridge solve per feeder
    gen = rng(0, "baseline-mask", 20)
    items = [s.masked(net.fleet_mask(net.fleet_order(s.node_x, gen), 20))
             for s in train]
    x = np.vstack([np.hstack([i.node_x, np.ones((data.n_nodes, 1))])
                   for i in items])
    y = np.concatenate([i.v_true for i in items])
    feeder = np.concatenate([i.node_feeder for i in items])
    weights = {}
    for f in np.unique(feeder):
        xf, yf = x[feeder == f], y[feeder == f]
        weights[f] = np.linalg.solve(xf.T @ xf + 1e-8 * np.eye(xf.shape[1]),
                                     xf.T @ yf)
    mask = _fleet_mask(data, 6, 20)
    preds, truth = [], []
    for s in test:
        item = s.masked(mask)
        xv = np.hstack([item.node_x, np.ones((data.n_nodes, 1))])
        preds.append([xv[n] @ weights[item.node_feeder[n]]
                      for n in range(data.n_nodes)])
        truth.append(s.v_true)
    hidden = np.tile(~mask, len(test))
    expected = (ev.rmse(np.ravel(preds), np.ravel(truth), hidden),
                ev.mae(np.ravel(preds), np.ravel(truth), hidden))
    # fits at other levels never enter the level-20 score
    for levels in ((20,), (5, 20, 80)):
        baseline = ev.fit_linear_baseline(train, levels=levels, seed=0)
        got = _ridge_errors(baseline, test, 20, mask)
        np.testing.assert_allclose(got, expected, rtol=1e-9)


def test_baseline_sweep_scores_each_replicate_mask(tiny_setup, monkeypatch):
    """Rows equal the ridge's error under each replicate mask alone, though
    the three 1 % replicates share a fleet and are predicted once."""
    params, snaps, data = tiny_setup
    sweep = dict(levels=(1, 40), n_seeds=3, seed=4)
    baseline = ev.fit_linear_baseline(snaps[:20], sweep["levels"], seed=0)
    test = snaps[36:]
    orders = ev.fleet_orders(test, sweep["n_seeds"], sweep["seed"])
    expected = []
    for level in sweep["levels"]:
        for k, order in enumerate(orders):
            r, m = _ridge_errors(baseline, test, level,
                                 net.fleet_mask(order, level))
            expected.append(ev.ReportRow(
                "X", "s31", level, "linear", r, m,
                derive_seed(sweep["seed"], "sweep", level, k)))
    calls, real = [0], ev.LinearBaseline.predict

    def predict(self, level, item):
        calls[0] += 1
        return real(self, level, item)
    monkeypatch.setattr(ev.LinearBaseline, "predict", predict)
    rows = ev.sweep(baseline.level_predictions, test, "s31", **sweep,
                    scenario="X", model="linear")
    assert calls[0] == (1 + 3) * len(test)
    assert rows == expected
    assert [(r.rmse, r.mae) for r in rows] == \
        [(r.rmse, r.mae) for r in expected]


def test_baseline_refuses_an_attack(tiny_setup):
    """The ridge reads no attack stream: handed an attack, it raises
    rather than score clean inputs as attacked ones."""
    params, snaps, data = tiny_setup
    baseline = ev.fit_linear_baseline(snaps[:10], levels=(20,), seed=0)
    masks, gens = _level_masks(snaps[36:], (20,), 2, 4)
    with pytest.raises(ValueError, match="attack"):
        baseline.level_predictions(20, snaps[36:], masks, gens,
                                   ev.AttackConfig())
    with pytest.raises(ValueError, match="attack"):
        ev.sweep(baseline.level_predictions, snaps[36:], "s31", levels=(20,),
                 n_seeds=2, attack=ev.AttackConfig(), scenario="X",
                 model="linear")


def test_baseline_beats_nominal_guess_on_real_data(tiny_setup):
    params, snaps, data = tiny_setup
    baseline = ev.fit_linear_baseline(snaps[:36], levels=(20,), seed=0)
    r, m = _ridge_errors(baseline, snaps[36:], 20, _fleet_mask(data, 4, 20))
    flat = np.concatenate([np.ones(data.n_nodes) for _ in snaps[36:]])
    truth = np.concatenate([s.v_true for s in snaps[36:]])
    nominal = ev.rmse(flat, truth, np.arange(len(truth)))
    assert r < nominal


# -- reports ------------------------------------------------------------------------


def test_write_report_and_summarize(tiny_setup, tmp_path):
    params, snaps, data = tiny_setup
    rows = [ev.ReportRow("A-observability", "s31", 20, "gnn", 0.01, 0.008, 7),
            ev.ReportRow("A-observability", "s31", 20, "linear", 0.02, 0.015,
                         7)]
    path = tmp_path / "report.csv"
    ev.write_report(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(ev.REPORT_COLUMNS)
    assert len(lines) == 3
    text = ev.summarize(rows)
    assert "A-observability" in text and "linear" in text
