"""Curriculum training and head-only transfer fine-tuning.

The schedule has three stages per substation. A warm-up trains with
supervision only at 80% observability until validation loss plateaus.
The physics weight then ramps linearly to its target over a fixed number
of epochs. Finally observability descends through
{80, 75, ..., 5, 1}%, resampling the sensor placement every epoch so the
model sees many mask realizations at each level.

Each optimization step processes one full substation snapshot; an epoch
is a seeded sample of snapshots from the training window. A step's batch
is built once per switch configuration, and every step refills it with
its own snapshot (``model.refill``), keeping the edge plan with its
scatter bins (``_Trainer._step_batch``).
``Adam`` updates the parameters in blocks of ``ADAM_BLOCK`` values that
stay in a core's L2 cache. Every series is
cut by ``dataset.split_windows`` into three contiguous time blocks:
training, then validation, then a held-out test window (the last
``TEST_FRACTION`` of the snapshots). The warm-up plateau test and
checkpoint selection read only the validation block; nothing here reads
the test window, which ``evaluate`` scores. Each epoch scores the
validation sample in one call of the sweep's scorer,
``evaluation.level_predictions``: under the epoch's validation mask and,
after the warm-up, under the mask of every selection level. A probe
drawn like the validation mask is one fleet there, forwarded once.

Fine-tuning freezes the backbone (input projection, prior coefficients,
all but the last encoder layer), re-creates per-feeder gates for the
target substation, trains the head at a reduced learning rate on the
start of the target's training window, truncated to a fraction of the
pretraining volume, and selects on the target's validation window.

If any step produces a non-finite value, training aborts and returns the
parameters saved after the last completed epoch.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import network as net
from .dataset import TEST_FRACTION, SnapshotDataset, split_windows
from .evaluation import hidden_errors, level_predictions
from .losses import LossWeights, batch_loss, physics_ramp
from .model import (GraphBatch, ModelConfig, ModelParams, _is_int,
                    _require_real, build_batch, refill)
from .seeding import rng as _rng

CURRICULUM_LEVELS = (80, 75, 70, 65, 60, 55, 50, 45, 40, 35, 30, 25, 20, 15,
                     10, 5, 1)


def canonical_level(p_obs):
    """An observability level spelled as its mask draws label it.

    A level seeds its draws by ``str(p_obs)``, so an integral level is an
    int however it is spelled (``20.0`` is level 20) and any other a float.
    """
    value = float(p_obs)
    return int(value) if value.is_integer() else value


_REAL_FIELDS = ("lr_warmup", "lr_curriculum", "lr_finetune", "plateau_eps",
                "lam_sup", "lam_max", "lam_reg", "val_fraction",
                "finetune_fraction", "warmup_p_obs")


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    levels: tuple = CURRICULUM_LEVELS
    warmup_p_obs: float = 80.0
    lr_warmup: float = 1e-3
    lr_curriculum: float = 3e-4
    lr_finetune: float = 1e-4
    plateau_window: int = 10
    plateau_eps: float = 1e-3
    max_warmup_epochs: int = 40
    ramp_epochs: int = 20
    epochs_per_level: int = 1
    steps_per_epoch: int = 150
    lam_sup: float = 1.0
    lam_max: float = 0.1
    lam_reg: float = 1e-5
    val_fraction: float = 0.1
    val_max_snapshots: int = 32
    finetune_fraction: float = 0.25
    finetune_epochs: int = 24
    # Observability levels probed to pick the returned weights. The descent
    # specialises the live weights toward whatever level it is currently on,
    # so the last epoch is rarely the best model overall; the checkpoint is
    # the snapshot with the lowest mean validation RMSE across these probes.
    # The probes span the deployment range; 1% is excluded because weights
    # specialised to a near-blind grid anti-correlate with every other level.
    select_levels: tuple = (5.0, 10.0, 20.0, 40.0, 60.0, 80.0)

    def __post_init__(self):
        for name in _REAL_FIELDS:
            _require_real(name, getattr(self, name))
        for name in ("levels", "select_levels"):
            for value in getattr(self, name):
                _require_real(f"each of {name}", value)
        if not self.levels:
            raise ValueError("curriculum needs at least one level")
        if any(not 0 < p < 100 for p in self.levels):
            raise ValueError("observability levels must lie in (0, 100)")
        if not self.select_levels:
            raise ValueError("selection needs at least one level")
        if any(not 0 < p < 100 for p in self.select_levels):
            raise ValueError("selection levels must lie in (0, 100)")
        if not 0 < self.warmup_p_obs < 100:
            raise ValueError("warmup_p_obs must lie in (0, 100)")
        # a level labels the validation masks it draws by its str(), so each
        # takes one spelling: curriculum levels as evaluate spells them, the
        # selection and warm-up levels as floats, their default spelling
        object.__setattr__(self, "levels",
                           tuple(canonical_level(p) for p in self.levels))
        object.__setattr__(self, "select_levels",
                           tuple(float(p) for p in self.select_levels))
        object.__setattr__(self, "warmup_p_obs", float(self.warmup_p_obs))
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not _is_int(self.plateau_window) or self.plateau_window < 1:
            raise ValueError("plateau window must be an integer >= 1")
        for name, least in (("steps_per_epoch", 1), ("val_max_snapshots", 1),
                            ("epochs_per_level", 1), ("max_warmup_epochs", 0),
                            ("ramp_epochs", 0), ("finetune_epochs", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {value!r}")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must lie in (0, 1)")
        if not 0 < self.finetune_fraction <= 1:
            raise ValueError("finetune_fraction must lie in (0, 1]")
        if min(self.lam_sup, self.lam_max, self.lam_reg) < 0:
            raise ValueError("loss weights must be non-negative")
        if min(self.lr_warmup, self.lr_curriculum, self.lr_finetune) <= 0:
            raise ValueError("learning rates must be positive")


@dataclass
class EpochRecord:
    epoch: int
    stage: str
    p_obs: float
    lam_phys: float
    lr: float
    train_total: float
    train_sup: float
    train_phys: float
    val_sup: float
    val_rmse: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochRecord]
    aborted: bool = False
    selected_epochs: tuple = ()


HISTORY_COLUMNS = ("epoch", "stage", "p_obs", "lam_phys", "lr", "train_total",
                   "train_sup", "train_phys", "val_sup", "val_rmse")


def history_to_csv(history: list[EpochRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for r in history:
            writer.writerow([r.epoch, r.stage, f"{r.p_obs:g}",
                             f"{r.lam_phys:.6g}", f"{r.lr:.6g}",
                             f"{r.train_total:.8f}", f"{r.train_sup:.8f}",
                             f"{r.train_phys:.8f}", f"{r.val_sup:.8f}",
                             f"{r.val_rmse:.8f}"])


def plateau(losses, window: int, eps: float) -> bool:
    """True when the last ``window`` losses improved by less than ``eps``
    in relative terms."""
    if len(losses) < window:
        return False
    recent = losses[-window:]
    first = max(recent[0], 1e-12)
    return (recent[0] - recent[-1]) / first < eps


# Values per block of an Adam step. Each block's six operand slices
# (parameters, gradient, both moments, two scratch rows) take 768 KB at
# 16,384 float64 values, so the fourteen passes over a block run in a
# 2 MiB L2 instead of streaming six whole vectors through the last-level
# cache fourteen times. On the 228,232-value default model (2-vCPU Xeon,
# 2 MiB L2 per core, one thread) with 8 MB of other memory traffic
# between steps, as a training step has, a step took 2.27 ms median at
# 16,384 against 3.00 ms as whole-vector ops, 2.55 ms at 8,192 and
# 2.31-2.44 ms at 32,768-65,536 (CHANGES.md).
ADAM_BLOCK = 16384


class Adam:
    """Adaptive-moment optimizer over one span of a flat store.

    The span must cover whole tensors, and every one of them must require a
    gradient. ``step`` updates the span in place, ``ADAM_BLOCK`` values at
    a time: over each block it runs the fourteen in-place numpy ops of the
    update on preallocated scratch. Every op is elementwise, so the result
    is bitwise that of the same ops over the whole span. It reads the
    gradients from the store's buffer, where ``FlatStore.l2_term`` binds
    them, and refuses a step, before any value changes, in which a
    tensor's gradient is not its view of the buffer.
    """

    def __init__(self, store: ad.FlatStore, span: slice, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        lo, hi, _ = span.indices(store.values.size)
        first, stop = store.bounds.index(lo), store.bounds.index(hi)
        self.tensors = store.tensors[first:stop]
        self._views = store.grad_views[first:stop]
        for t in self.tensors:
            if not t.requires_grad:
                raise ValueError(
                    f"frozen tensor {t.name!r} handed to the optimizer")
        self.store, self.span = store, slice(lo, hi)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        n = hi - lo
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._scratch = (np.empty(min(n, ADAM_BLOCK)),
                         np.empty(min(n, ADAM_BLOCK)))
        self.t = 0

    def zero_grad(self) -> None:
        for t in self.tensors:
            t.zero_grad()

    def step(self) -> None:
        if any(t.grad is not g for t, g in zip(self.tensors, self._views)):
            raise ad.EngineError("a gradient is not bound to the store's "
                                 "buffer; the L2 term binds them")
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        b1c = 1.0 - b1 ** self.t
        b2c = 1.0 - b2 ** self.t
        theta_all = self.store.values[self.span]
        g_all = self.store.grad[self.span]
        s_all, r_all = self._scratch
        for lo in range(0, theta_all.size, ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            theta, g = theta_all[lo:hi], g_all[lo:hi]
            m, v = self.m[lo:hi], self.v[lo:hi]
            s, r = s_all[:g.size], r_all[:g.size]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            m *= b1
            np.multiply(g, 1 - b1, out=s)
            m += s
            v *= b2
            np.square(g, out=s)
            s *= 1 - b2
            v += s
            # theta -= lr (m / b1c) / (sqrt(v / b2c) + eps)
            np.divide(m, b1c, out=s)
            s *= lr
            np.divide(v, b2c, out=r)
            np.sqrt(r, out=r)
            r += eps
            s /= r
            theta -= s


# -- data plumbing ------------------------------------------------------------


def _val_batch(val_snaps, p_obs, seed) -> np.ndarray:
    """The validation mask of level ``p_obs``, drawn by its label
    ``str(p_obs)``."""
    return net.fleet_mask(net.fleet_order(
        val_snaps[0].node_x, _rng(seed, "val-mask", p_obs)), p_obs)


def _val_metrics(params, val_snaps, masks) -> list[tuple[float, float]]:
    """(masked-node RMSE, MAE) over the validation snapshots, per mask."""
    truth = np.stack([s.v_true for s in val_snaps])
    preds = level_predictions(params, val_snaps, masks, [None] * len(masks),
                              None)
    return [hidden_errors(p, truth, mask) for p, mask in zip(preds, masks)]


# -- the loop -------------------------------------------------------------------


class _Trainer:
    def __init__(self, params, dataset, train: range, val: range, config):
        self.params = params
        # training snapshots are assembled when a step draws them
        self.dataset = dataset
        self.train = train
        # an evenly spaced sample of the validation window
        picks = np.linspace(val.start, val.stop - 1,
                            min(len(val), config.val_max_snapshots))
        self.val_snaps = [dataset.snapshot(int(i))
                          for i in np.unique(picks.astype(int))]
        self.config = config
        self.history: list[EpochRecord] = []
        self.epoch = 0
        self.last_good = params.store.values.copy()
        self.aborted = False
        self.selected_epoch = -1
        self._best_score = np.inf
        self._best_values = None
        # the mask of each selection level
        self.select_masks = [_val_batch(self.val_snaps, p, config.seed)
                             for p in config.select_levels]
        # the batch built for the first step drawn in each switch
        # configuration, by configuration index
        self._structures: dict[int, GraphBatch] = {}

    def _step_batch(self, i: int, mask: np.ndarray) -> GraphBatch:
        """The batch of training snapshot ``i`` under ``mask``: the batch
        built for the first snapshot drawn in its switch configuration,
        refilled with this one. The gated edges, the plan with its scatter
        bins, the prior, the FiLM pooling and the physics edges are built
        once per configuration."""
        snap = self.dataset.snapshot(i).masked(mask)
        config = int(self.dataset.arrays["config_index"][i])
        base = self._structures.get(config)
        if base is None:
            base = build_batch([snap], self.params.feeder_rows)
            self._structures[config] = base
        return refill(base, [snap])

    def _restore_selected(self) -> None:
        if self._best_values is not None:
            self.params.store.values[:] = self._best_values

    def run_epoch(self, stage: str, p_obs: float, lam_phys: float,
                  optimizer: Adam, val_level) -> EpochRecord:
        cfg = self.config
        weights = LossWeights(lam_sup=cfg.lam_sup, lam_phys=lam_phys,
                              lam_reg=cfg.lam_reg)
        mask = net.fleet_mask(net.fleet_order(
            self.dataset.arrays["node_features_static"],
            _rng(cfg.seed, "mask", stage, self.epoch)), p_obs)
        order_gen = _rng(cfg.seed, "order", stage, self.epoch)
        order = order_gen.permutation(len(self.train))
        order = order[:min(cfg.steps_per_epoch, len(order))]
        totals = np.zeros(3)
        for idx in order:
            batch = self._step_batch(self.train[idx], mask)
            optimizer.zero_grad()
            with ad.Tape():
                loss, parts = batch_loss(self.params, batch, weights)
                ad.backward(loss)
            optimizer.step()
            totals += (parts["total"], parts["supervised"], parts["physics"])
        totals /= max(len(order), 1)
        # after the warm-up, every epoch is a candidate for the returned
        # weights: its score is the mean RMSE over the selection masks
        masks = [_val_batch(self.val_snaps, val_level, cfg.seed)]
        if stage != "warmup":
            masks += self.select_masks
        (val_rmse, val_mae), *probes = _val_metrics(self.params,
                                                    self.val_snaps, masks)
        record = EpochRecord(
            epoch=self.epoch, stage=stage, p_obs=p_obs, lam_phys=lam_phys,
            lr=optimizer.lr, train_total=totals[0], train_sup=totals[1],
            train_phys=totals[2], val_sup=val_mae, val_rmse=val_rmse)
        self.history.append(record)
        self.epoch += 1
        self.last_good = self.params.store.values.copy()
        score = np.mean([rmse for rmse, _ in probes]) if probes else np.inf
        if score < self._best_score:
            self._best_score = float(score)
            self._best_values = self.last_good
            self.selected_epoch = record.epoch
        return record

    def train_substation(self) -> None:
        cfg = self.config
        optimizer = Adam(self.params.store, slice(None), lr=cfg.lr_warmup)
        try:
            # stage 1: supervision only, high observability, until plateau
            stage_losses: list[float] = []
            for _ in range(cfg.max_warmup_epochs):
                rec = self.run_epoch("warmup", cfg.warmup_p_obs, 0.0,
                                     optimizer, cfg.warmup_p_obs)
                stage_losses.append(rec.val_sup)
                if plateau(stage_losses, cfg.plateau_window, cfg.plateau_eps):
                    break
            # stage 2: physics weight ramps in
            optimizer.lr = cfg.lr_curriculum
            for e in range(1, cfg.ramp_epochs + 1):
                lam = physics_ramp(e, cfg.ramp_epochs, cfg.lam_max)
                self.run_epoch("ramp", cfg.warmup_p_obs, lam, optimizer,
                               cfg.warmup_p_obs)
            # stage 3: observability descends
            for level in cfg.levels:
                for _ in range(cfg.epochs_per_level):
                    self.run_epoch("curriculum", level, cfg.lam_max,
                                   optimizer, level)
            self._restore_selected()
        except ad.NonFiniteError:
            self.params.store.values[:] = self.last_good
            self.aborted = True

    def finetune_substation(self) -> None:
        cfg = self.config
        optimizer = Adam(self.params.store, self.params.span("head"),
                         lr=cfg.lr_finetune)
        try:
            for e in range(cfg.finetune_epochs):
                self.run_epoch("finetune", cfg.levels[e % len(cfg.levels)],
                               cfg.lam_max, optimizer, 40.0)
            self._restore_selected()
        except ad.NonFiniteError:
            self.params.store.values[:] = self.last_good
            self.aborted = True


def train(datasets, config: TrainConfig,
          model_config: ModelConfig | None = None) -> TrainResult:
    """Run the full curriculum over one or more substation datasets.

    Datasets are visited sequentially in the given order with parameters
    carried over; per-feeder gates exist for every feeder seen in any of
    them.
    """
    if isinstance(datasets, SnapshotDataset):
        datasets = [datasets]
    if not datasets:
        raise ValueError("no datasets given")
    feeders = sorted({f for d in datasets for f in d.feeder_ids})
    params = ModelParams.create(model_config or ModelConfig(), feeders,
                                seed=config.seed)
    history: list[EpochRecord] = []
    aborted = False
    selected: list[int] = []
    for dataset in datasets:
        train_idx, val_idx, _ = split_windows(
            dataset.n_snapshots, config.val_fraction, TEST_FRACTION)
        trainer = _Trainer(params, dataset, train_idx, val_idx, config)
        trainer.epoch = len(history)
        trainer.train_substation()
        history.extend(trainer.history)
        selected.append(trainer.selected_epoch)
        if trainer.aborted:
            aborted = True
            break
    return TrainResult(params=params, history=history, aborted=aborted,
                       selected_epochs=tuple(selected))


def finetune(params: ModelParams, dataset: SnapshotDataset,
             config: TrainConfig,
             n_pretrain: int | None = None) -> TrainResult:
    """Adapt a pretrained model to a new substation, training the head only.

    The target is split like a training dataset. Training reads at most
    ``round(finetune_fraction * n_pretrain)`` snapshots (but at least 8)
    from the start of its training window, where ``n_pretrain`` is the
    snapshot count of the pretraining dataset (default: the target's own);
    selection reads its validation window, and its test window is never
    read. The backbone is frozen in place: its
    tensors are excluded from the optimizer and marked non-differentiable,
    so their values and gradients stay untouched.
    """
    train_idx, val_idx, _ = split_windows(
        dataset.n_snapshots, config.val_fraction, TEST_FRACTION)
    reference = n_pretrain if n_pretrain is not None else dataset.n_snapshots
    n_keep = int(round(config.finetune_fraction * reference))
    n_keep = min(max(n_keep, 8), len(train_idx))

    for name in params.backbone_names():
        params.tensors[name].requires_grad = False
    params.replace_eta(list(dataset.feeder_ids))

    trainer = _Trainer(params, dataset, train_idx[:n_keep], val_idx, config)
    trainer.finetune_substation()
    return TrainResult(params=params, history=trainer.history,
                       aborted=trainer.aborted,
                       selected_epochs=(trainer.selected_epoch,))
