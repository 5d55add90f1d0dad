"""Finite-difference validation of the full model and objective.

Builds a fixed 10-node, two-feeder, single-phase toy snapshot that
exercises every edge device type, an open tie, masked and observed nodes,
and physics-edge flows, then compares analytic gradients of the complete
objective against central differences for every parameter tensor. Results
aggregate into one row per model block so a failure localizes to input
projection, a specific layer, conditioning, or the decoder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import network as net
from .losses import LossWeights, batch_loss
from .dataset import Snapshot
from .model import GraphBatch, ModelConfig, ModelParams, build_batch

TOY_FEEDERS = (1, 2)

_NI = net.NODE_FEATURE_INDEX
_EI = net.EDGE_FEATURE_INDEX

# (from, to, device, status); one open tie joins the two feeder tails
_TOY_EDGES = (
    (0, 1, "switch", 1), (1, 2, "line", 1), (2, 3, "cable", 1),
    (3, 4, "xfmr_reg", 1),
    (0, 5, "switch", 1), (5, 6, "line", 1), (6, 7, "xfmr_reg", 1),
    (7, 8, "cable", 1), (8, 9, "line", 1),
    (4, 9, "switch", 0),
)


def toy_snapshot(seed: int = 0) -> Snapshot:
    """10 bus-phases: hub node 0, feeder 1 = nodes 1..4, feeder 2 = 5..9."""
    gen = np.random.default_rng(seed)
    n = 10
    v_true = np.concatenate([[1.0], 1.0 - np.cumsum(gen.uniform(0.002, 0.01, 4)),
                             1.0 - np.cumsum(gen.uniform(0.002, 0.008, 5))])
    node_x = np.zeros((n, net.N_NODE_FEATURES))
    node_x[:, _NI["phase_a"]] = 1.0
    node_x[0, _NI["type_hub"]] = 1.0
    node_x[[1, 5], _NI["type_head"]] = 1.0
    node_x[[2, 3, 6, 7], _NI["type_dt"]] = 1.0
    node_x[[4, 8, 9], _NI["type_lv"]] = 1.0
    node_x[:, _NI["kv_base"]] = 1.0
    node_x[:, _NI["p_injection_pu"]] = -np.abs(gen.uniform(0.01, 0.05, n))
    node_x[:, _NI["sw_closed"]] = 1.0
    node_x[:, _NI["depth"]] = [0, 1, 2, 3, 4, 1, 2, 3, 4, 5]
    node_x[:, _NI["degree"]] = [2, 2, 2, 2, 2, 2, 2, 2, 2, 1]
    node_x[:, _NI["elec_dist"]] = 0.02 * node_x[:, _NI["depth"]]

    edge_z = np.zeros((len(_TOY_EDGES), net.N_EDGE_FEATURES))
    for k, (_, _, dev, status) in enumerate(_TOY_EDGES):
        edge_z[k, _EI[f"dev_{dev}"]] = 1.0
        edge_z[k, _EI["status"]] = float(status)
        edge_z[k, _EI["phase_a"]] = 1.0
        edge_z[k, _EI["r_pu"]] = gen.uniform(0.005, 0.03)
        edge_z[k, _EI["x_pu"]] = gen.uniform(0.005, 0.03)
        edge_z[k, _EI["length_km"]] = gen.uniform(0.2, 2.0)
        edge_z[k, _EI["rating_pu"]] = 1.0

    observed = np.zeros(n, dtype=bool)
    observed[[0, 1, 3, 5, 8]] = True
    node_x[:, _NI["m_obs"]] = observed.astype(float)
    node_x[observed, _NI["m_obs_v_pu"]] = v_true[observed]

    # physics set: the closed series branches (switches carry no drop here)
    phys = np.array([k for k, e in enumerate(_TOY_EDGES)
                     if e[3] == 1 and e[2] in ("line", "cable")])
    edge_from = np.array([e[0] for e in _TOY_EDGES], dtype=np.int64)
    edge_to = np.array([e[1] for e in _TOY_EDGES], dtype=np.int64)
    return Snapshot(
        node_x=node_x, edge_from=edge_from, edge_to=edge_to, edge_z=edge_z,
        node_feeder=np.array([net.HUB_FEEDER, 1, 1, 1, 1, 2, 2, 2, 2, 2]),
        v_true=v_true, observed=observed,
        phys_from=edge_from[phys], phys_to=edge_to[phys],
        phys_r=edge_z[phys, _EI["r_pu"]], phys_x=edge_z[phys, _EI["x_pu"]],
        phys_p=gen.uniform(0.05, 0.4, len(phys)),
        phys_q=gen.uniform(0.02, 0.2, len(phys)))


def toy_batch(params: ModelParams, seed: int = 0) -> GraphBatch:
    return build_batch([toy_snapshot(seed)], params.feeder_rows)


@dataclass
class BlockResult:
    block: str
    n_tensors: int
    worst_rel_err: float
    ok: bool


@dataclass
class GradcheckReport:
    blocks: list[BlockResult]
    all_ok: bool
    worst_rel_err: float
    runtime_s: float


def _block_of(name: str) -> str:
    if name.startswith("layer"):
        return name.split(".")[0]
    if name in ("beta",) or name.startswith("input."):
        return "input+prior"
    if name.startswith("film.") or name == "eta":
        return "conditioning"
    return "decoder"


def run_gradcheck(seed: int = 0, eps: float = 1e-5, rtol: float = 1e-4,
                  n_samples: int = 12) -> GradcheckReport:
    """Check the default model end to end on the toy snapshot."""
    config = ModelConfig()
    params = ModelParams.create(config, list(TOY_FEEDERS), seed=seed)
    batch = toy_batch(params, seed=seed)
    weights = LossWeights(lam_phys=0.1)

    def build_loss():
        total, _ = batch_loss(params, batch, weights)
        return total

    start = time.monotonic()
    tensors = list(params.tensors.values())
    _, _, rows = ad.gradcheck(build_loss, tensors, n_samples=n_samples,
                              eps=eps, rtol=rtol, seed=seed)
    runtime = time.monotonic() - start

    order: list[str] = []
    grouped: dict[str, list[dict]] = {}
    for row in rows:
        block = _block_of(row["param"])
        if block not in grouped:
            grouped[block] = []
            order.append(block)
        grouped[block].append(row)
    blocks = [BlockResult(block=b, n_tensors=len(grouped[b]),
                          worst_rel_err=max(r["max_rel_err"] for r in grouped[b]),
                          ok=all(r["ok"] for r in grouped[b]))
              for b in order]
    return GradcheckReport(
        blocks=blocks, all_ok=all(b.ok for b in blocks),
        worst_rel_err=max(b.worst_rel_err for b in blocks),
        runtime_s=runtime)


def format_report(report: GradcheckReport) -> str:
    lines = [f"{'block':<14} {'tensors':>7} {'worst rel err':>14}  verdict"]
    for b in report.blocks:
        verdict = "pass" if b.ok else "FAIL"
        lines.append(f"{b.block:<14} {b.n_tensors:>7} {b.worst_rel_err:>14.3e}"
                     f"  {verdict}")
    overall = "pass" if report.all_ok else "FAIL"
    lines.append(f"overall: {overall} (worst rel err {report.worst_rel_err:.3e},"
                 f" {report.runtime_s:.1f}s)")
    return "\n".join(lines)
