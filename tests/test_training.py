"""Training-loop tests on micro schedules.

Full-scale curriculum behavior is covered by the acceptance suite; these
tests pin the mechanics: plateau arithmetic, optimizer behavior, stage
sequencing, mask resampling, determinism, divergence recovery, and the
freezing contract of fine-tuning.
"""

import dataclasses

import numpy as np
import pytest

import gridvolt.autodiff as ad
import gridvolt.dataset as ds
import gridvolt.evaluation as ev
import gridvolt.model as gm
import gridvolt.network as net
import gridvolt.simulation as sim
import gridvolt.training as tr
from gridvolt.seeding import rng

from helpers import build_dataset, head_names


@pytest.fixture(scope="module")
def day_dataset():
    spec = sim.generate_substation(31, "tiny", n_feeders=3)
    scen = sim.ScenarioConfig(horizon_minutes=1440, der_penetration=20)
    return build_dataset(spec, scen)  # 96 snapshots


def micro_config(**overrides):
    base = dict(seed=1, steps_per_epoch=12, max_warmup_epochs=3,
                ramp_epochs=2, levels=(80, 40, 5), plateau_window=2,
                finetune_epochs=4, val_max_snapshots=8)
    base.update(overrides)
    return tr.TrainConfig(**base)


# -- plateau ------------------------------------------------------------------


def test_plateau_spec_arithmetic():
    losses = [0.10, 0.0999, 0.0999, 0.0999, 0.0999, 0.0999]
    assert tr.plateau(losses, window=5, eps=1e-3)


def test_plateau_false_while_dropping():
    losses = [1.0, 0.8, 0.6, 0.4, 0.2, 0.1]
    assert not tr.plateau(losses, window=5, eps=1e-3)


def test_plateau_true_when_constant():
    assert tr.plateau([0.5] * 10, window=10, eps=1e-3)


def test_plateau_needs_full_window():
    assert not tr.plateau([0.5, 0.5], window=5, eps=1e-3)


# -- optimizer ----------------------------------------------------------------


def test_adam_minimizes_a_quadratic():
    x = ad.Tensor(np.array([10.0]), requires_grad=True, name="x")
    store = ad.FlatStore([x])
    opt = tr.Adam(store, slice(None), lr=0.3)
    for _ in range(300):
        opt.zero_grad()
        with ad.Tape():
            loss = ad.total_sum(ad.mul(ad.sub(x, 3.0), ad.sub(x, 3.0)))
            store.l2_term(0.0)  # binds x's gradient to the buffer
            ad.backward(loss)
        opt.step()
    assert x.values[0] == pytest.approx(3.0, abs=1e-3)


def test_adam_rejects_frozen_tensors():
    x = ad.Tensor(np.ones(2), requires_grad=False, name="frozen")
    with pytest.raises(ValueError, match="frozen"):
        tr.Adam(ad.FlatStore([x]), slice(None), lr=0.1)


def test_adam_refuses_a_gradient_outside_the_buffer():
    x = ad.Tensor(np.array([5.0]), requires_grad=True)
    opt = tr.Adam(ad.FlatStore([x]), slice(None), lr=0.5)
    with ad.Tape():
        loss = ad.total_sum(ad.mul(x, x))
        ad.backward(loss)  # no L2 term bound the view
    with pytest.raises(ad.EngineError, match="buffer"):
        opt.step()
    assert x.values[0] == 5.0 and opt.t == 0


def _per_tensor_adam(values, grad_steps, lr, beta1=0.9, beta2=0.999,
                     eps=1e-8):
    """Adam tensor by tensor, allocating every intermediate (the
    reference for the in-place blocked update)."""
    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grad_steps, start=1):
        b1c = 1.0 - beta1 ** t
        b2c = 1.0 - beta2 ** t
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v2[i] = beta2 * v2[i] + (1 - beta2) * g ** 2
            step = lr * (m[i] / b1c) / (np.sqrt(v2[i] / b2c) + eps)
            values[i] = values[i] - step
    return values


def _adam_case(group):
    """(store, the optimized tensors, their span) of one Adam test case.

    "one-value" is a span shorter than a block, "mid-block" one that
    starts after a tensor outside it and ends mid-way through its second
    block, and the model's "all" and "head" spans straddle several block
    edges."""
    if group in ("all", "head"):
        params = gm.ModelParams.create(gm.ModelConfig(), [1, 2, 3], seed=2)
        names = list(params.tensors) if group == "all" else head_names(params)
        span = slice(None) if group == "all" else params.span("head")
        return (params.store, [params.tensors[n] for n in names], span)
    r = np.random.default_rng(6)
    shapes = {"one-value": [(1,)],
              "mid-block": [(5,), (3, tr.ADAM_BLOCK // 2),
                            (tr.ADAM_BLOCK // 3,)]}[group]
    store = ad.FlatStore([ad.Tensor(r.normal(size=shape), requires_grad=True)
                          for shape in shapes])
    first = 0 if group == "one-value" else 1
    return (store, store.tensors[first:],
            slice(store.bounds[first], store.bounds[-1]))


@pytest.mark.parametrize("group", ["all", "head", "one-value", "mid-block"])
def test_flat_adam_matches_the_per_tensor_formula_bitwise(group):
    store, tensors, span = _adam_case(group)
    lo, hi, _ = span.indices(store.values.size)
    n = hi - lo
    if group == "one-value":
        assert n == 1
    elif group == "mid-block":
        assert tr.ADAM_BLOCK < n < 2 * tr.ADAM_BLOCK and lo > 0
    else:
        assert n > 3 * tr.ADAM_BLOCK and n % tr.ADAM_BLOCK
    others = {k: t.values.copy() for k, t in enumerate(store.tensors)
              if not any(t is u for u in tensors)}
    views = dict(zip(map(id, store.tensors), store.grad_views))
    r = np.random.default_rng(5)
    grad_steps = [[r.normal(0.0, 10.0 ** r.integers(-6, 1), size=t.shape)
                   for t in tensors] for _ in range(4)]
    want = _per_tensor_adam([t.values for t in tensors], grad_steps, lr=3e-4)
    opt = tr.Adam(store, span, lr=3e-4)
    assert opt.store is store
    for grads in grad_steps:
        opt.zero_grad()
        for t, g in zip(tensors, grads):  # bound as the L2 seeding binds
            t.grad = views[id(t)]
            t.grad[...] = g
        opt.step()
    for k, (t, w) in enumerate(zip(tensors, want)):
        assert t.values.tobytes() == w.tobytes(), (t.name, k)
    for k, vals in others.items():
        assert store.tensors[k].values.tobytes() == vals.tobytes()


# -- config -------------------------------------------------------------------


def test_config_defaults_touch_seventeen_levels():
    cfg = tr.TrainConfig()
    assert len(cfg.levels) == 17
    assert cfg.levels[:3] == (80, 75, 70)
    assert cfg.levels[-2:] == (5, 1)


def test_config_validation():
    with pytest.raises(ValueError, match="level"):
        tr.TrainConfig(levels=())
    with pytest.raises(ValueError, match="levels must lie"):
        tr.TrainConfig(levels=(80, 0))
    with pytest.raises(ValueError, match="val_fraction"):
        tr.TrainConfig(val_fraction=1.5)
    with pytest.raises(ValueError, match="plateau window"):
        tr.TrainConfig(plateau_window=0)
    with pytest.raises(ValueError, match="finetune_fraction"):
        tr.TrainConfig(finetune_fraction=0.0)
    with pytest.raises(ValueError, match="plateau[_ ]window"):
        tr.TrainConfig(plateau_window=1.5)
    with pytest.raises(ValueError, match="seed"):
        tr.TrainConfig(seed="a")
    with pytest.raises(ValueError, match="selection"):
        tr.TrainConfig(select_levels=())
    for name in ("steps_per_epoch", "val_max_snapshots", "epochs_per_level"):
        with pytest.raises(ValueError, match=name):
            tr.TrainConfig(**{name: 0})
    for name in ("max_warmup_epochs", "ramp_epochs", "finetune_epochs"):
        with pytest.raises(ValueError, match=name):
            tr.TrainConfig(**{name: -1})
    for p_obs in (0.0, 100.0):
        with pytest.raises(ValueError, match="warmup_p_obs"):
            tr.TrainConfig(warmup_p_obs=p_obs)
    for name in ("lr_warmup", "lr_curriculum", "lr_finetune", "plateau_eps",
                 "lam_sup", "lam_max", "lam_reg", "val_fraction",
                 "finetune_fraction", "warmup_p_obs"):
        for value in ("x", True, float("nan"), None):
            with pytest.raises(ValueError, match=f"{name} must be a finite"):
                tr.TrainConfig(**{name: value})
    for name in ("levels", "select_levels"):
        for value in ((True,), (20, "x"), (float("inf"),)):
            with pytest.raises(ValueError, match=f"each of {name}"):
                tr.TrainConfig(**{name: value})
    for name in ("seed", "plateau_window", "steps_per_epoch",
                 "val_max_snapshots", "epochs_per_level", "max_warmup_epochs",
                 "ramp_epochs", "finetune_epochs"):
        for value in (True, False):
            with pytest.raises(ValueError, match=name.replace("_", "[_ ]")):
                tr.TrainConfig(**{name: value})
    tr.TrainConfig(levels=(80, 20.5), plateau_eps=0, lam_reg=np.float64(0.5))


def test_config_spells_each_level_one_way():
    cfg = tr.TrainConfig(levels=[80.0, 5.5, np.int64(20)], warmup_p_obs=80,
                         select_levels=[5, 10.0])
    assert cfg.levels == (80, 5.5, 20)
    assert [type(p) for p in cfg.levels] == [int, float, int]
    assert cfg.select_levels == (5.0, 10.0)
    assert [type(p) for p in cfg.select_levels] == [float, float]
    assert type(cfg.warmup_p_obs) is float
    default = tr.TrainConfig()
    assert default.levels == tr.CURRICULUM_LEVELS
    assert all(type(p) is int for p in default.levels)
    assert default.select_levels == (5.0, 10.0, 20.0, 40.0, 60.0, 80.0)


# -- the loop -----------------------------------------------------------------


@pytest.fixture(scope="module")
def micro_run(day_dataset):
    return tr.train(day_dataset, micro_config())


def test_training_is_deterministic(day_dataset, micro_run):
    again = tr.train(day_dataset, micro_config())
    first = [(r.train_total, r.val_sup, r.val_rmse) for r in micro_run.history]
    second = [(r.train_total, r.val_sup, r.val_rmse) for r in again.history]
    assert first == second
    for name, t in micro_run.params.tensors.items():
        np.testing.assert_array_equal(t.values, again.params.tensors[name].values)


def test_stage_sequence_and_physics_schedule(micro_run):
    history = micro_run.history
    stages = [r.stage for r in history]
    assert stages[0] == "warmup"
    first_ramp = stages.index("ramp")
    first_cur = stages.index("curriculum")
    assert first_ramp < first_cur
    assert all(s == "warmup" for s in stages[:first_ramp])
    warm = [r for r in history if r.stage == "warmup"]
    assert all(r.lam_phys == 0.0 for r in warm)
    assert all(r.p_obs == 80.0 for r in warm)
    ramp = [r for r in history if r.stage == "ramp"]
    lams = [r.lam_phys for r in ramp]
    assert lams == sorted(lams) and lams[-1] == pytest.approx(0.1)
    cur = [r for r in history if r.stage == "curriculum"]
    assert [r.p_obs for r in cur] == [80, 40, 5]
    assert all(r.lam_phys == pytest.approx(0.1) for r in cur)


def test_validation_error_improves_over_warmup(micro_run):
    warm = [r for r in micro_run.history if r.stage == "warmup"]
    assert warm[-1].val_sup < warm[0].val_sup


def test_epoch_masks_are_resampled_and_union_grows():
    node_x = np.zeros((93, net.N_NODE_FEATURES))
    m0 = net.fleet_mask(
        net.fleet_order(node_x, rng(1, "mask", "curriculum", 5)), 20)
    m1 = net.fleet_mask(
        net.fleet_order(node_x, rng(1, "mask", "curriculum", 6)), 20)
    assert not np.array_equal(m0, m1)
    assert (m0 | m1).sum() > m0.sum()


def test_empty_and_undersized_datasets_rejected():
    with pytest.raises(ValueError, match="no datasets"):
        tr.train([], micro_config())
    two = build_dataset(sim.generate_substation(31, "tiny", n_feeders=3),
                           sim.ScenarioConfig(
                               horizon_minutes=2 * sim.TIMESTEP_MINUTES))
    with pytest.raises(ValueError, match="validation split"):
        tr.train(two, micro_config(val_fraction=0.9))


def test_divergence_aborts_and_restores_last_good(day_dataset, monkeypatch):
    calls = {"n": 0}
    real = tr.batch_loss

    def poisoned(params, batch, weights):
        calls["n"] += 1
        if calls["n"] > 15:  # partway through the second epoch
            raise ad.NonFiniteError("loss blew up")
        return real(params, batch, weights)

    monkeypatch.setattr(tr, "batch_loss", poisoned)
    result = tr.train(day_dataset, micro_config())
    assert result.aborted
    assert len(result.history) == 1  # only the first epoch completed
    for t in result.params.tensors.values():
        assert np.all(np.isfinite(t.values))


def test_an_overflow_in_a_fused_op_aborts_to_last_good(day_dataset,
                                                      monkeypatch):
    """A real overflow, not a raised stand-in: the learned attention score
    of one layer goes to infinity partway through the second epoch."""
    calls, errors = {"n": 0}, []
    real = tr.batch_loss

    def overflowing(params, batch, weights):
        calls["n"] += 1
        if calls["n"] == 16:
            params.tensors["layer2.att_a"].values[:] = 1e308
        try:
            return real(params, batch, weights)
        except ad.NonFiniteError as exc:
            errors.append(str(exc))
            raise

    monkeypatch.setattr(tr, "batch_loss", overflowing)
    with np.errstate(over="ignore", invalid="ignore"):
        result = tr.train(day_dataset, micro_config())
    assert errors and errors[0].startswith("attention_score/learned:")
    assert result.aborted
    assert len(result.history) == 1
    for t in result.params.tensors.values():
        assert np.all(np.isfinite(t.values))


def _reference_val_metrics(params, val_snaps, masks):
    """(RMSE, MAE) per mask from one batch of the masked snapshots: the
    validation metric with no runs and no batch shared across masks."""
    scores = []
    for mask in masks:
        batch = gm.build_batch([s.masked(mask) for s in val_snaps],
                               params.feeder_rows)
        with ad.no_grad():
            v_hat = gm.forward(params, batch).values
        hidden = ~batch.observed
        err = v_hat - batch.v_true
        scores.append((ev.rmse(v_hat, batch.v_true, hidden),
                       float(np.mean(np.abs(err[hidden])))))
    return scores


def test_val_metrics_over_split_batches_equals_one_batch(day_dataset,
                                                        micro_run):
    snaps = [day_dataset.snapshot(i) for i in range(30)]
    assert len(gm.batch_runs(snaps)) > 1
    masks = [net.fleet_mask(net.fleet_order(snaps[0].node_x,
                                            rng(4, "m", level)), level)
             for level in (30, 5, 80)]
    params = micro_run.params
    assert (tr._val_metrics(params, snaps, masks)
            == _reference_val_metrics(params, snaps, masks))


def _spy_scoring(monkeypatch):
    """Per epoch: its record, its ``_val_metrics`` calls and the best
    selection score kept after it. A call holds its masks, validation
    snapshots and scores, the scores of ``_reference_val_metrics`` at the
    same weights, and the ``build_batch`` and ``forward`` calls it made.
    Also the counts of those two over the whole run."""
    epochs, calls = [], []
    counts = {"build_batch": 0, "forward": 0}

    def counted(name):
        real = getattr(ev, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    for name in counts:
        monkeypatch.setattr(ev, name, counted(name))
    real_metrics = tr._val_metrics

    def metrics(params, val_snaps, masks):
        before = dict(counts)
        scores = real_metrics(params, val_snaps, masks)
        calls.append(dict(
            masks=masks, val_snaps=val_snaps, scores=scores,
            reference=_reference_val_metrics(params, val_snaps, masks),
            **{name: counts[name] - before[name] for name in counts}))
        return scores

    real_epoch = tr._Trainer.run_epoch

    def run_epoch(self, *args):
        first = len(calls)
        record = real_epoch(self, *args)
        epochs.append((record, calls[first:], self._best_score))
        return record

    monkeypatch.setattr(tr, "_val_metrics", metrics)
    monkeypatch.setattr(tr._Trainer, "run_epoch", run_epoch)
    return epochs, counts


def _assert_scoring_is_the_reference(epochs, result, config):
    """Each epoch makes one scoring call: of its validation mask, then,
    after the warm-up, of every selection mask. The call builds each
    validation run once and forwards it once per distinct mask, as many
    forwards as scoring the probe drawn like the validation mask (the
    ramp's 80.0, fine-tuning's 40.0) on its own would leave out. Its
    scores, the epoch's record and the running best score equal the
    per-mask reference, and the selected epoch is its first minimum."""
    selecting = []
    for record, calls, best in epochs:
        assert len(calls) == 1
        call = calls[0]
        snaps = call["val_snaps"]
        level = 40.0 if record.stage == "finetune" else record.p_obs
        want = [tr._val_batch(snaps, level, config.seed)]
        if record.stage != "warmup":
            want += [tr._val_batch(snaps, p, config.seed)
                     for p in config.select_levels]
        assert [m.tobytes() for m in call["masks"]] == \
            [m.tobytes() for m in want]
        distinct = len({m.tobytes() for m in want})
        assert distinct == len(want) - (record.stage in ("ramp", "finetune"))
        runs = len(gm.batch_runs(snaps))
        assert (call["build_batch"], call["forward"]) == (runs,
                                                          distinct * runs)
        assert call["scores"] == call["reference"]
        assert (record.val_rmse, record.val_sup) == call["reference"][0]
        if record.stage != "warmup":
            score = float(np.mean([r for r, _ in call["reference"][1:]]))
            selecting.append((record, score))
            assert best == min(s for _, s in selecting)
    first_best = int(np.argmin([s for _, s in selecting]))
    assert result.selected_epochs[-1] == selecting[first_best][0].epoch


def test_a_probe_shared_by_the_epoch_is_scored_once(day_dataset, micro_run,
                                                     monkeypatch):
    """Ramp epochs validate on the 80.0 probe's mask: it is forwarded once
    for both, and validation and selection equal a per-mask reference that
    scores every probe. The int curriculum level 80 draws its own mask and
    is not shared."""
    epochs, _ = _spy_scoring(monkeypatch)
    shared = tr.train(day_dataset, micro_config())
    assert [record for record, *_ in epochs] == shared.history
    assert {r.stage for r in shared.history} == {"warmup", "ramp",
                                                 "curriculum"}
    _assert_scoring_is_the_reference(epochs, shared, micro_config())
    _assert_same_run(micro_run, shared)


def test_scoring_builds_each_validation_run_once_per_call(day_dataset,
                                                          monkeypatch):
    """Each epoch's one scoring call builds every run of the validation
    sample once and forwards it once per distinct mask; a training step
    builds its own batch."""
    epochs, counts = _spy_scoring(monkeypatch)
    config = micro_config(val_fraction=0.3, val_max_snapshots=32)
    result = tr.train(day_dataset, config)
    assert len(gm.batch_runs(epochs[0][1][0]["val_snaps"])) > 1
    _assert_scoring_is_the_reference(epochs, result, config)
    calls = [call for _, epoch_calls, _ in epochs for call in epoch_calls]
    assert counts == {name: sum(call[name] for call in calls)
                      for name in counts}


@pytest.fixture(scope="module")
def tie_dataset():
    """A day of tiny seed 33 whose ties close at step 30, inside the
    training window: two switch configurations, each with tap changes."""
    spec = sim.generate_substation(33, "tiny", n_feeders=3)
    scen = sim.ScenarioConfig(horizon_minutes=1440, der_penetration=20,
                              tie_closures=tuple(range(len(spec.ties))),
                              tie_close_step=30)
    return build_dataset(spec, scen)


def _assert_same_batch(got, want):
    """Every array of two batches equal bit for bit, plan included."""
    for field in dataclasses.fields(gm.GraphBatch):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "plan":
            for name in ("recv", "send", "z", "z_typed", "order", "pairs",
                         "ends", "filled", "starts"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.shape == y.shape, name
                assert x.tobytes() == y.tobytes(), name
            assert (a.n_nodes, a.n_types, a.blocks) == \
                (b.n_nodes, b.n_types, b.blocks)
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def test_step_batches_reuse_one_structure_per_configuration(tie_dataset,
                                                            monkeypatch):
    """Each training step's batch equals a fresh ``build_batch`` of its
    masked snapshot, though only the first step drawn in each switch
    configuration builds one; later steps share that batch's plan bins."""
    data = tie_dataset
    train_idx, _, _ = ds.split_windows(data.n_snapshots, 0.1,
                                       ds.TEST_FRACTION)
    config_of = data.arrays["config_index"]
    window = config_of[train_idx.start:train_idx.stop]
    taps = data.arrays["edge_tap"][train_idx.start:train_idx.stop]
    assert set(window.tolist()) == {0, 1}
    for c in (0, 1):
        assert len({row.tobytes() for row in taps[window == c]}) > 1

    builds = []
    real_build = tr.build_batch

    def counted(items, feeder_rows):
        builds.append(items)
        return real_build(items, feeder_rows)

    seen = {"steps": 0, "tap_swaps": 0}
    trainers = []
    real_step_batch = tr._Trainer._step_batch

    def checked(self, i, mask):
        if not trainers or trainers[-1] is not self:
            trainers.append(self)
        batch = real_step_batch(self, i, mask)
        want = real_build([data.snapshot(i).masked(mask)],
                          self.params.feeder_rows)
        _assert_same_batch(batch, want)
        structure = self._structures[int(config_of[i])]
        assert batch.plan._bins is structure.plan._bins
        seen["steps"] += 1
        seen["tap_swaps"] += (batch.plan.z.tobytes()
                              != structure.plan.z.tobytes())
        return batch

    monkeypatch.setattr(tr, "build_batch", counted)
    monkeypatch.setattr(tr._Trainer, "_step_batch", checked)
    result = tr.train(data, micro_config())
    assert not result.aborted
    assert len(trainers) == 1
    assert sorted(trainers[0]._structures) == [0, 1]
    assert len(builds) == 2 and seen["tap_swaps"] > 0
    assert seen["steps"] == len(result.history) * 12


@pytest.mark.parametrize("attacked", [False, True])
def test_refill_equals_a_fresh_build(tie_dataset, attacked):
    """A run of snapshots 26-33, which straddles the tie closure at step
    30, refilled with snapshots of the same configurations at other tap
    positions, masked and optionally attacked, equals ``build_batch`` of
    those snapshots, and keeps the run's plan bins."""
    data = tie_dataset
    config_of = data.arrays["config_index"]
    built, other = range(26, 34), [2, 3, 4, 5, 60, 61, 62, 63]
    assert config_of[list(built)].tolist() == config_of[other].tolist()
    assert len(set(config_of[other].tolist())) == 2
    feeder_rows = {int(f): k for k, f in enumerate(sorted(data.feeder_ids))}
    base = gm.build_batch([data.snapshot(i) for i in built], feeder_rows)
    mask = net.fleet_mask(net.fleet_order(data.snapshot(0).node_x,
                                          rng(5, "refill")), 30)
    items = [data.snapshot(i).masked(mask) for i in other]
    if attacked:
        gen = rng(5, "refill-attack")
        items = [ev.inject_attack(it, ev.AttackConfig(), gen)
                 for it in items]
    got = gm.refill(base, items)
    _assert_same_batch(got, gm.build_batch(items, feeder_rows))
    assert got.plan._bins is base.plan._bins
    assert got.plan.z.tobytes() != base.plan.z.tobytes()
    assert got.node_x.tobytes() != base.node_x.tobytes()


def test_history_csv_roundtrip(micro_run, tmp_path):
    path = tmp_path / "history.csv"
    tr.history_to_csv(micro_run.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(tr.HISTORY_COLUMNS)
    assert len(lines) == len(micro_run.history) + 1
    assert lines[1].startswith("0,warmup,80")


# -- fine-tuning --------------------------------------------------------------


@pytest.fixture(scope="module")
def target_dataset():
    spec = sim.generate_substation(77, "tiny", n_feeders=3)
    scen = sim.ScenarioConfig(horizon_minutes=1440, der_penetration=20)
    return build_dataset(spec, scen)


def test_finetune_freezes_backbone_bitwise(micro_run, target_dataset,
                                           day_dataset):
    params = _clone(micro_run.params)
    before = {n: params.tensors[n].values.copy()
              for n in params.backbone_names()}
    head_before = {n: params.tensors[n].values.copy()
                   for n in head_names(params) if n != "eta"}
    result = tr.finetune(params, target_dataset, micro_config(),
                         n_pretrain=day_dataset.n_snapshots)
    assert not result.aborted
    assert len(result.history) == 4
    assert all(r.stage == "finetune" for r in result.history)
    for name, vals in before.items():
        np.testing.assert_array_equal(result.params.tensors[name].values,
                                      vals)
    moved = [n for n, vals in head_before.items()
             if not np.array_equal(result.params.tensors[n].values, vals)]
    assert moved  # the head actually trained


def test_finetune_creates_gates_for_target_feeders(micro_run, target_dataset):
    params = _clone(micro_run.params)
    result = tr.finetune(params, target_dataset, micro_config())
    assert set(result.params.feeder_rows) == set(
        int(f) for f in target_dataset.feeder_ids)
    assert result.params.tensors["eta"].shape == (3, 1)


def test_finetune_truncates_to_pretraining_fraction(micro_run, target_dataset,
                                                    monkeypatch):
    seen = {}
    real = tr._Trainer.__init__

    def spy(self, params, dataset, train, val, config):
        seen["train"], seen["val"] = train, val
        real(self, params, dataset, train, val, config)

    monkeypatch.setattr(tr._Trainer, "__init__", spy)
    params = _clone(micro_run.params)
    tr.finetune(params, target_dataset, micro_config(), n_pretrain=96)
    # round(0.25 * 96) snapshots from the start of the training window;
    # of 96, the last 10 are held out and the 10 before them validate
    assert seen["train"] == range(24)
    assert seen["val"] == range(76, 86)


def test_finetune_scores_its_40_probe_once(micro_run, target_dataset,
                                          monkeypatch):
    # every finetune epoch validates on the 40.0 probe's mask
    epochs, _ = _spy_scoring(monkeypatch)
    result = tr.finetune(_clone(micro_run.params), target_dataset,
                         micro_config())
    assert [record for record, *_ in epochs] == result.history
    assert {r.stage for r in result.history} == {"finetune"}
    _assert_scoring_is_the_reference(epochs, result, micro_config())


# -- the held-out window ------------------------------------------------------


def _perturb_eval_tail(dataset, factor=1.01):
    """Copy of a dataset whose default evaluation window (its last 10 %)
    carries scaled voltages, in the labels and in the measurement column
    (which a snapshot assembles from the labels)."""
    n = dataset.n_snapshots
    start = n - max(1, int(round(0.1 * n)))
    arrays = dict(dataset.arrays)
    arrays["v_true"] = arrays["v_true"].copy()
    arrays["v_true"][start:] *= factor
    perturbed = ds.SnapshotDataset(dataset.meta, arrays)
    col = net.NODE_FEATURE_INDEX["m_obs_v_pu"]
    assert np.array_equal(perturbed.snapshot(n - 1).node_x[:, col],
                          dataset.snapshot(n - 1).node_x[:, col]
                          * factor)
    return perturbed


def _assert_same_run(a, b):
    assert a.history == b.history
    assert a.selected_epochs == b.selected_epochs
    for name, t in a.params.tensors.items():
        assert t.values.tobytes() == b.params.tensors[name].values.tobytes()


def test_training_never_reads_the_evaluation_window(day_dataset, micro_run):
    perturbed = tr.train(_perturb_eval_tail(day_dataset), micro_config())
    _assert_same_run(micro_run, perturbed)


def test_finetune_never_reads_the_evaluation_window(micro_run,
                                                    target_dataset):
    # a pretraining volume large enough to ask for every target snapshot
    runs = [tr.finetune(_clone(micro_run.params), data, micro_config(),
                        n_pretrain=4 * target_dataset.n_snapshots)
            for data in (target_dataset, _perturb_eval_tail(target_dataset))]
    _assert_same_run(*runs)


def _clone(params):
    fresh = {n: ad.Tensor(t.values.copy(), requires_grad=True, name=n)
             for n, t in params.tensors.items()}
    return gm.ModelParams(params.config, fresh, dict(params.feeder_rows))
