"""Central finite-difference gradient checking.

The numeric side perturbs parameter arrays in place and re-runs a
forward-only loss function, so it exercises exactly the code path whose
analytic gradients are under test while never touching the backward rules.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import ParamStore


def numeric_gradients(loss_fn: Callable[[], float], store: ParamStore,
                      step: float = 1e-5) -> dict[str, np.ndarray]:
    """d(loss)/d(component) by central differences, one component at a time."""
    out: dict[str, np.ndarray] = {}
    for name in store.names():
        arr = store[name]
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        out[name] = grad
    return out


def max_relative_error(analytic: dict[str, np.ndarray],
                       numeric: dict[str, np.ndarray]) -> float:
    """Worst |a - n| / max(1, |a|, |n|) over all components of all entries.

    The unit floor makes the measure a plain absolute error for near-zero
    gradients, where finite differences only deliver noise.
    """
    worst = 0.0
    for name, n in numeric.items():
        a = analytic.get(name)
        if a is None:
            a = np.zeros_like(n)
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        err = np.abs(a - n) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst
