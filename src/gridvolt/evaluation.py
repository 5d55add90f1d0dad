"""Evaluation harness: metrics, sweeps, a linear baseline, and attacks.

Reported errors are computed over masked nodes only: reconstructing the
voltages the estimator cannot see is the quantity that matters, and the
observed nodes carry their own measurement anyway. One ``sweep`` scores
any estimator: it resamples sensor fleets over several seeds per level,
draws each replicate's mask and attack stream, asks the estimator for its
predictions ``[replicate, snapshot, node]`` under the level's masks, and
returns one report row per level and replicate; the summary averages
over replicates. The five case studies are composed in ``cli evaluate``
from that one sweep, run under each study's estimator, scenario and model
labels. Two estimators are defined here: the model, ``gnn(params)``,
and the reference baseline, ``LinearBaseline.level_predictions``,
per-feeder ridge-regularized least squares from the same masked node
features, fit once per level and scored only at the level it was fit at
(no best-of across fits). The ridge reads no attack stream, so it
refuses an attack.

Every input, to the model and to the baseline, is a ``dataset.Snapshot``
seen through one sensor mask, ``snapshot.masked(mask)``. The model is
scored by one no-grad path, ``level_predictions`` and ``hidden_errors``,
which training's validation and checkpoint selection share in one call
per epoch: one pass per level over the cache-sized snapshot runs of
``model.batch_runs``. Each run's batch, edge plan included, is built once
from the unmasked snapshots; each distinct fleet of the level is then
forwarded once on ``model.refill`` of that batch with its masked
snapshots, its predictions shared by every replicate that drew that
fleet. An attacked replicate draws its own attack stream, so it is
forwarded once on its own. The ridge predicts each distinct fleet once
the same way. The caller builds the runs and draws their attacks in run
order; given a second usable core, one worker thread forwards whole runs
beside it. Memory holds one level's predictions and at most two runs'
batches, one per thread.

Measurement attacks follow an additive model: an attacked channel gets
zero-mean Gaussian noise plus a constant bias drawn uniformly once per
channel. Attackable channels are the measurements the estimator actually
consumes: voltage magnitudes on observed nodes and nodal active-power
injections. Penetration is capped at 6% of the available channels, and
ground-truth labels are never touched.
"""

from __future__ import annotations

import contextvars
import csv
import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import network as net
from .dataset import Snapshot
from .model import ModelParams, batch_runs, build_batch, forward, refill
from .seeding import derive_seed
from .seeding import rng as _rng
from .settings import check_fields

REPORT_COLUMNS = ("scenario", "substation", "p_obs", "model", "RMSE", "MAE",
                  "seed")
_NI = net.NODE_FEATURE_INDEX


# -- metrics -------------------------------------------------------------------


def rmse(v_hat: np.ndarray, v_true: np.ndarray, nodes) -> float:
    """Root mean squared voltage error over the selected node set."""
    err = _errors(v_hat, v_true, nodes)
    return float(np.sqrt(np.mean(err * err)))


def mae(v_hat: np.ndarray, v_true: np.ndarray, nodes) -> float:
    """Mean absolute voltage error over the selected node set."""
    return float(np.mean(np.abs(_errors(v_hat, v_true, nodes))))


def _errors(v_hat, v_true, nodes) -> np.ndarray:
    nodes = np.asarray(nodes)
    idx = np.flatnonzero(nodes) if nodes.dtype == bool else nodes
    if idx.size == 0:
        raise ValueError("error metric over an empty node set")
    return np.asarray(v_hat)[idx] - np.asarray(v_true)[idx]


# -- attacks -------------------------------------------------------------------


@dataclass(frozen=True)
class AttackConfig:
    """Additive measurement attack: value + Gaussian noise + uniform bias."""

    sigma_v: float = 0.01
    sigma_p: float = 0.05
    bias_lo: float = -0.02
    bias_hi: float = 0.02
    penetration: float = 0.06
    targets: str = "both"  # voltage | power | both

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.penetration <= 0.06:
            raise ValueError(
                f"penetration must lie in [0, 0.06], got {self.penetration}")
        if self.bias_lo > self.bias_hi:
            raise ValueError("bias_lo must not exceed bias_hi")
        if self.targets not in ("voltage", "power", "both"):
            raise ValueError(f"unknown attack targets {self.targets!r}")


def inject_attack(item: Snapshot, cfg: AttackConfig, gen) -> Snapshot:
    """Perturb an exact share of the available measurement channels."""
    channels: list[tuple[int, int, float]] = []  # (node, column, sigma)
    if cfg.targets in ("voltage", "both"):
        for n in np.flatnonzero(item.node_x[:, _NI["m_obs"]] == 1.0):
            channels.append((int(n), _NI["m_obs_v_pu"], cfg.sigma_v))
    if cfg.targets in ("power", "both"):
        for n in range(item.node_x.shape[0]):
            channels.append((n, _NI["p_injection_pu"], cfg.sigma_p))
    k = int(round(cfg.penetration * len(channels)))
    if k == 0:
        return item
    picked = gen.choice(len(channels), size=k, replace=False)
    node_x = item.node_x.copy()
    for c in sorted(picked):
        node, col, sigma = channels[c]
        noise = gen.normal(0.0, sigma) if sigma > 0 else 0.0
        bias = gen.uniform(cfg.bias_lo, cfg.bias_hi)
        node_x[node, col] += noise + bias
    return dataclasses.replace(item, node_x=node_x)


# -- observability sweeps -----------------------------------------------------


def fleet_orders(snaps, n_seeds: int, seed: int) -> list[np.ndarray]:
    """One nested sensor roll-out order per replicate, hub metered first."""
    return [net.fleet_order(snaps[0].node_x, _rng(seed, "fleet", k))
            for k in range(n_seeds)]


def sweep(estimator, snaps, substation: str, levels, n_seeds: int,
          seed: int = 0, attack: AttackConfig | None = None, *,
          scenario: str, model: str) -> list[ReportRow]:
    """Masked-node error of an estimator, one report row per (level,
    replicate).

    ``estimator(level, snaps, masks, gens, attack)`` gives the predictions
    ``[replicate, snapshot, node]`` under each of a level's replicate
    masks; mask ``k``'s attack draws, if any, come from ``gens[k]``. Each
    replicate is one sensor fleet rolled out in priority order, so the
    sets compared across levels are nested and the per-replicate error
    curves are paired. Memory holds one level's predictions beside what
    the estimator holds.
    """
    orders = fleet_orders(snaps, n_seeds, seed)
    truth = np.stack([s.v_true for s in snaps])
    rows = []
    for level in levels:
        # one integer per (sweep seed, level, replicate), stable
        mask_seeds = [derive_seed(seed, "sweep", level, k)
                      for k in range(n_seeds)]
        masks = [net.fleet_mask(order, level) for order in orders]
        # one attack stream per mask, drawn from only under an attack
        gens = [_rng(seed, "attack", level, s) for s in mask_seeds]
        preds = estimator(level, snaps, masks, gens, attack)
        for p, mask, mask_seed in zip(preds, masks, mask_seeds):
            rows.append(ReportRow(scenario, substation, level, model,
                                  *hidden_errors(p, truth, mask), mask_seed))
    return rows


def hidden_errors(preds: np.ndarray, truth: np.ndarray,
                  mask: np.ndarray) -> tuple[float, float]:
    """(RMSE, MAE) over the nodes ``mask`` hides, for predictions and
    truths that stack whole snapshots, snapshot-major."""
    hidden = np.tile(~mask, truth.size // mask.size)
    return (rmse(preds.ravel(), truth.ravel(), hidden),
            mae(preds.ravel(), truth.ravel(), hidden))


def _fleet_groups(masks) -> list[list[int]]:
    """Replicate indices grouped by identical mask, in first-seen order."""
    groups: dict[bytes, list[int]] = {}
    for k, mask in enumerate(masks):
        groups.setdefault(mask.tobytes(), []).append(k)
    return list(groups.values())


def _worker() -> ThreadPoolExecutor | None:
    """The scoring thread beside the caller's, or None when this process
    may run on one core only."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    if cores < 2:
        return None
    return ThreadPoolExecutor(1, thread_name_prefix="gridvolt-score")


def level_predictions(params: ModelParams, snaps, masks, gens,
                      attack: AttackConfig | None) -> np.ndarray:
    """Predictions ``[replicate, snapshot, node]`` under each mask.

    Each run of ``model.batch_runs`` is built once from the unmasked
    snapshots. Each distinct mask then forwards once on that batch refilled
    with the run's snapshots under the mask (``model.refill``), and its
    predictions fill the slot of every replicate holding that mask. The
    mask is held fixed across the snapshots, like a fixed sensor fleet
    watching the day unfold; under an ``attack``, mask ``k``'s draws come
    from ``gens[k]``, run by run in snapshot order, so every attacked
    replicate forwards once on its own.

    The caller builds the runs and draws their attacks in run order. With
    a second usable core, one worker thread forwards whole runs beside
    it: a run goes to the worker when it is idle and is forwarded by the
    caller otherwise, so at most one run per thread is in flight. Runs
    write disjoint slices of the result, which is the same whichever
    thread forwards a run. An exception in the worker is raised again in
    the caller.
    """
    groups = (_fleet_groups(masks) if attack is None
              else [[k] for k in range(len(masks))])
    preds = np.empty((len(masks), len(snaps), snaps[0].node_x.shape[0]))

    def forward_run(run, batch, fleets):
        with ad.no_grad():
            for group, items in zip(groups, fleets):
                v_hat = forward(params, refill(batch, items))
                preds[group, run] = v_hat.values.reshape(
                    run.stop - run.start, -1)

    worker, pending = _worker(), None
    try:
        for run in batch_runs(snaps):
            batch = build_batch(snaps[run], params.feeder_rows)
            fleets = []
            for group in groups:
                k = group[0]
                items = [s.masked(masks[k]) for s in snaps[run]]
                if attack is not None:
                    items = [inject_attack(it, attack, gens[k])
                             for it in items]
                fleets.append(items)
            if worker is not None and (pending is None or pending.done()):
                if pending is not None:
                    pending.result()
                # the caller's context carries numpy's error state
                pending = worker.submit(contextvars.copy_context().run,
                                        forward_run, run, batch, fleets)
            else:
                forward_run(run, batch, fleets)
            # freed before the next run's build, which reuses its memory
            del batch, fleets
        if pending is not None:
            pending.result()
    finally:
        if worker is not None:
            worker.shutdown()
    return preds


def gnn(params: ModelParams):
    """The model as a ``sweep`` estimator; its predictions depend on the
    masks, not on the level they were drawn at."""
    return lambda level, snaps, masks, gens, attack: level_predictions(
        params, snaps, masks, gens, attack)


# -- linear baseline ---------------------------------------------------------------


class LinearBaseline:
    """Per-feeder least squares from masked node features to voltage.

    One weight vector per feeder for each observability level it was fit
    at, ``coef[level][feeder]``. Ridge jitter keeps the normal equations
    solvable.
    """

    def __init__(self):
        self.coef: dict[float, dict[int, np.ndarray]] = {}

    def fit_level(self, level, items: list[Snapshot]) -> None:
        # filled in place: per-snapshot design copies held beside it would
        # add a second matrix to the fit's peak memory
        x = np.ones((sum(len(i.node_x) for i in items),
                     items[0].node_x.shape[1] + 1))
        np.concatenate([i.node_x for i in items], out=x[:, :-1])
        y = np.concatenate([i.v_true for i in items])
        groups = np.concatenate([i.node_feeder for i in items])
        self.coef[level] = {}
        for f in np.unique(groups):
            xf, yf = x[groups == f], y[groups == f]
            gram = xf.T @ xf + 1e-8 * np.eye(xf.shape[1])
            self.coef[level][int(f)] = np.linalg.solve(gram, xf.T @ yf)

    def predict(self, level, item: Snapshot) -> np.ndarray:
        x = np.hstack([item.node_x, np.ones((len(item.node_x), 1))])
        out = np.ones(x.shape[0])  # unseen feeder: nominal voltage
        for f, w in self.coef[level].items():
            rows = item.node_feeder == f
            out[rows] = x[rows] @ w
        return out

    def level_predictions(self, level, snaps, masks, gens=None,
                          attack: AttackConfig | None = None) -> np.ndarray:
        """Predictions ``[replicate, snapshot, node]`` of the level-``level``
        fit under each mask, a ``sweep`` estimator. Each distinct fleet is
        predicted once, its predictions shared by every replicate that drew
        it. The ridge reads no attack stream, so it refuses an attack
        rather than score clean inputs under the attacked label."""
        if attack is not None:
            raise ValueError("the linear baseline cannot be scored under a "
                             "measurement attack")
        preds = np.empty((len(masks), len(snaps), snaps[0].node_x.shape[0]))
        for group in _fleet_groups(masks):
            preds[group] = [self.predict(level, s.masked(masks[group[0]]))
                            for s in snaps]
        return preds


def baseline_sample(window: range, max_snapshots: int = 400) -> range:
    """The snapshots of a training window the linear baseline is fit on:
    at most ``max_snapshots``, evenly strided from its start."""
    take = min(len(window), max_snapshots)
    stride = max(1, len(window) // max(take, 1))
    return window[::stride][:take]


def fit_linear_baseline(train_snaps, levels, seed: int = 0) -> LinearBaseline:
    """Fit one per-feeder model per level on masked features of every
    given snapshot (``baseline_sample`` picks them from a window)."""
    baseline = LinearBaseline()
    for level in levels:
        # a fresh placement per snapshot, all from one stream per level
        gen = _rng(seed, "baseline-mask", level)
        baseline.fit_level(level, [s.masked(net.fleet_mask(
            net.fleet_order(s.node_x, gen), level)) for s in train_snaps])
    return baseline


# -- reports ----------------------------------------------------------------------


@dataclass
class ReportRow:
    scenario: str
    substation: str
    p_obs: float
    model: str
    rmse: float
    mae: float
    seed: int


def write_report(path, rows: list[ReportRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in rows:
            writer.writerow([r.scenario, r.substation, r.p_obs, r.model,
                             f"{r.rmse:.8f}", f"{r.mae:.8f}", r.seed])


def summarize(rows: list[ReportRow]) -> str:
    """Aligned text table of per-(scenario, model, level) mean errors."""
    groups: dict[tuple, list[ReportRow]] = {}
    for r in rows:
        groups.setdefault((r.scenario, r.model, r.p_obs), []).append(r)
    lines = [f"{'scenario':<16} {'model':<16} {'p_obs':>5} {'RMSE':>10}"
             f" {'MAE':>10} {'seeds':>5}"]
    for (scenario, model, p_obs), rs in sorted(groups.items()):
        mean_r = np.mean([r.rmse for r in rs])
        mean_m = np.mean([r.mae for r in rs])
        lines.append(f"{scenario:<16} {model:<16} {p_obs:>5g} {mean_r:>10.5f}"
                     f" {mean_m:>10.5f} {len(rs):>5}")
    return "\n".join(lines)
