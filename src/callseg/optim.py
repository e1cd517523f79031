"""Adam optimizer over a flat list of parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

# Adam's published constants (Kingma and Ba, 2015); only the learning rate is set
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Learning rate, moment estimates and step counter for one parameter list."""

    alpha: float = 1e-3
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0

    @classmethod
    def for_params(cls, params, alpha=1e-3):
        return cls(alpha=alpha, m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState) -> AdamState:
    """One Adam update, in place on the parameter arrays.

    m <- BETA1*m + (1-BETA1)*g;  v <- BETA2*v + (1-BETA2)*g^2; bias-corrected, then
    p <- p - alpha * m_hat / (sqrt(v_hat) + EPS).
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads and state must have matching lengths")
    state.step += 1
    t = state.step
    correct1 = 1.0 - BETA1**t
    correct2 = 1.0 - BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} does not match param {p.shape}")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / correct1
        v_hat = v / correct2
        p -= (state.alpha * m_hat / (np.sqrt(v_hat) + EPS)).astype(p.dtype)
    return state
