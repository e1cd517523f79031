"""Finite-difference verification of the analytic gradients.

Central differences need 64-bit arithmetic and a deterministic forward
pass, so the check refuses float32 models and models with dropout enabled.
"""

from __future__ import annotations

import numpy as np

from .errors import PrecisionError, StateError


def gradient_check(model, features, eps: float = 1e-4, label=0) -> float:
    """Max over all parameters of the relative analytic/numeric disagreement.

    ``features`` is one spectrogram with an int ``label``, or an (N, H, W)
    batch with N labels; the loss is the batch's summed cross-entropy, whose
    gradient a training forward and backward accumulate.

    relative error = |analytic - numeric| / max(|analytic|, |numeric|, 1e-8),
    numeric = (loss(p + eps) - loss(p - eps)) / (2 eps).
    """
    if np.dtype(model.dtype) != np.float64:
        raise PrecisionError("gradient check requires a 64-bit model")
    dropout_p = getattr(getattr(model, "config", None), "dropout_p", 0.0)
    if dropout_p > 0.0:
        raise StateError("gradient check requires dropout disabled (dropout_p == 0)")

    model.zero_grads()
    model.forward(features, training=True)
    model.backward(label)
    analytic = [g.copy() for g in model.grad_arrays()]

    worst = 0.0
    for arr, grad in zip(model.param_arrays(), analytic):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            loss_plus = model.loss(features, label)
            flat[i] = saved - eps
            loss_minus = model.loss(features, label)
            flat[i] = saved
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
