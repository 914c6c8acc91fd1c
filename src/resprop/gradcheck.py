"""Central finite-difference verification of the analytic gradients.

Each coordinate is perturbed by +-h and the loss difference quotient is
compared against `backward`'s output. The relative error denominator is
floored (REL_FLOOR) because the difference quotient carries roundoff
noise of about eps * |loss| / h in absolute terms; without the floor,
coordinates whose true gradient is far below that noise would report
meaningless ratios. With loss of order 1 and h = 1e-5 the noise is
around 5e-11, so the 1e-5 floor keeps noise-induced relative error near
5e-6 while real defects (wrong term, wrong sign) still show up as
order-1 ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkParams, backward, forward, locate, nll_loss

DEFAULT_H = 1e-5
REL_FLOOR = 1e-5


def _loss_at(params: NetworkParams, x, labels, mask) -> float:
    return nll_loss(forward(params, x, mask).probabilities, labels)


def finite_difference_gradients(params: NetworkParams, x, labels,
                                h: float = DEFAULT_H,
                                mask=None) -> NetworkParams:
    """Central differences (f(w+h) - f(w-h)) / 2h for every coordinate,
    as params of the same specs over one new buffer."""
    if not 0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    work = params.copy()
    flat = work.flat
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = _loss_at(work, x, labels, mask)
        flat[i] = orig - h
        down = _loss_at(work, x, labels, mask)
        flat[i] = orig
        grads[i] = (up - down) / (2.0 * h)
    return NetworkParams.from_flat(work.specs, grads)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float         # worst coordinate
    frac_within_tol: float     # fraction of coordinates at rel err <= tol
    n_coordinates: int
    tol: float
    worst_location: str        # "layer L weights[i,j]" style


def gradient_check(params: NetworkParams, x, labels, h: float = DEFAULT_H,
                   tol: float = 1e-5, mask=None) -> GradCheckReport:
    """Compare analytic and finite-difference gradients coordinatewise.

    Relative error per coordinate is |a - f| / max(|a|, |f|, REL_FLOOR).
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    cache = forward(params, x, mask)
    analytic = backward(params, cache, labels)
    numeric = finite_difference_gradients(params, x, labels, h, mask)

    a, f = analytic.flat, numeric.flat
    rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), REL_FLOOR)
    i = int(np.argmax(rel))
    within = int(np.count_nonzero(rel <= tol))
    layer, name, idx = locate(params.specs, i)
    return GradCheckReport(float(rel[i]), within / rel.size, rel.size, tol,
                           f"layer {layer} {name}{list(idx)}")
