"""Loss terms for voltage estimation under partial observability.

Three terms enter the objective. Supervision is mean absolute error over
the nodes whose voltage was hidden from the input; observed nodes carry
their measurement already and are excluded. The physics term penalizes
the linearized squared-voltage drop residual along closed series branches,

    | (v_i^2 - v_j^2) - 2 (R_ij P_ij + X_ij Q_ij) |

averaged over the physics edge set. Ground-truth voltages leave only the
quadratic loss term of the exact relation, so the residual is second-order
small on lightly loaded branches and the penalty pulls predictions toward
power-flow-consistent profiles rather than exact solutions. Weight decay
applies to the trainable tensors only, and outside the tape: its gradient
2·lam_reg·θ is written into the flat gradient buffer before backward,
which then adds the taped terms' gradients to it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import GraphBatch, ModelParams, forward
from .settings import check_fields

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LossWeights:
    """Objective weights; the physics weight follows a ramp during training."""

    lam_sup: float = 1.0
    lam_phys: float = 0.0
    lam_reg: float = 1e-5

    def __post_init__(self):
        check_fields(self)
        for name in ("lam_sup", "lam_phys", "lam_reg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def physics_ramp(step: int, ramp_steps: int, lam_max: float) -> float:
    """Linear 0 -> lam_max over ramp_steps; clamped outside the ramp."""
    if ramp_steps <= 0:
        return lam_max
    return lam_max * min(max(step, 0), ramp_steps) / ramp_steps


def supervised_loss(v_hat: ad.Tensor, v_true: np.ndarray,
                    masked: np.ndarray) -> ad.Tensor:
    """Mean absolute voltage error over the hidden node set."""
    idx = np.flatnonzero(np.asarray(masked, dtype=bool))
    if idx.size == 0:
        raise ValueError("supervised_loss: the masked set is empty")
    err = ad.sub(ad.gather_rows(v_hat, idx), v_true[idx])
    return ad.l1_loss(err)


def physics_loss(v_hat: ad.Tensor, phys_from: np.ndarray, phys_to: np.ndarray,
                 r: np.ndarray, x: np.ndarray, p: np.ndarray,
                 q: np.ndarray) -> ad.Tensor:
    """Mean absolute linearized-DistFlow residual."""
    n = len(phys_from)
    if n == 0:
        logger.warning("physics_loss: empty edge set, physics term disabled")
        return ad.as_tensor(0.0)
    v_sq = ad.mul(v_hat, v_hat)
    drop = ad.sub(ad.gather_rows(v_sq, phys_from),
                  ad.gather_rows(v_sq, phys_to))
    resid = ad.absolute(ad.sub(drop, 2.0 * (r * p + x * q)))
    return ad.mul(ad.total_sum(resid), 1.0 / n)


def total_loss(supervised, physics, reg, weights: LossWeights) -> ad.Tensor:
    total = ad.mul(ad.as_tensor(supervised), weights.lam_sup)
    total = ad.add(total, ad.mul(ad.as_tensor(physics), weights.lam_phys))
    return ad.add(total, ad.mul(ad.as_tensor(reg), weights.lam_reg))


def batch_loss(params: ModelParams, batch: GraphBatch,
               weights: LossWeights) -> tuple[ad.Tensor, dict[str, float]]:
    """Forward pass plus the full objective for one batch.

    Returns the scalar loss tensor (attached to the active tape) and a
    plain-float component breakdown for logging. Under a tape the L2 term
    is not on it: its gradient is already in the trainable tensors' grads
    when this returns, and backward adds the rest.
    """
    v_hat = forward(params, batch)
    sup = supervised_loss(v_hat, batch.v_true, ~batch.observed)
    phys = physics_loss(v_hat, batch.phys_from, batch.phys_to, batch.phys_r,
                        batch.phys_x, batch.phys_p, batch.phys_q)
    reg = params.store.l2_term(weights.lam_reg)
    total = total_loss(sup, phys, reg, weights)
    parts = {"total": float(total.values), "supervised": float(sup.values),
             "physics": float(phys.values), "reg": reg}
    return total, parts
