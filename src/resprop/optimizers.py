"""Per-weight update kernels: SGD, classic Rprop, and mask-aware Rprop.

Rprop keeps a per-weight step size and a stored previous gradient. Each
step branches on the sign of prev_grad * grad, read as the product of
the two factors' signs, so a product too small for a float (below about
1e-308) still counts as positive or negative rather than as zero:

* positive: grow the step size (capped at delta_max), move the weight
  against the gradient sign, store the gradient;
* negative: shrink the step size (floored at delta_min), leave the
  weight alone, and zero the stored gradient so the *next* step skips
  the adaptation ("no double punishment");
* zero: move by the current step size without adapting it, store the
  gradient.

Under dropout this zero branch fires for two extra reasons that have
nothing to do with backtracking: the weight's source node was muted (its
mask entry is 0) or its target node was muted (the gradient arriving
from above is exactly 0). Both stall step-size adaptation. The
mask-aware kernel `dropout_rprop_step` distinguishes the three causes:

* mask entry 0: freeze the weight entirely, with no move, no step-size
  change, stored gradient untouched;
* live weight, zero product, stored gradient zero: a deliberate
  post-backtracking skip or a fresh start, so move without adapting (and
  store the gradient, see note below);
* live weight, zero product, stored gradient nonzero: the current
  gradient is genuinely zero, so hold everything.

Note on bookkeeping: the zero-product move stores the current gradient
as prev_grad. Without that store the kernel could never reach the
adaptive branches; it mirrors what the classic kernel does in the same
branch.

Both rules run in one kernel, `_rprop_update`. They differ only in the
node mask, which the classic rule does not have, and in one flag for the
genuine-zero branch (stored gradient nonzero, gradient zero): the
classic rule moves by zero and stores the gradient, the mask-aware rule
holds; a mask whose nodes are all live is dropped. Params, gradients and
state keep every layer in one flat buffer in one order (see
`resprop.network`), and a kernel walks that one array in blocks whose
operands and scratch fit a 2 MiB L2 cache, reusing the scratch for every
block. It selects each result with bitwise masks on int64 views rather
than `np.where` (an order of magnitude slower per element on
data-dependent masks). Every selected value, signed zeros included, is
the one the textbook formula gives.

sgn(0) is 0 exactly (both signed zeros), so a zero gradient never moves
a weight. Gradients are expected to be batch means, which keeps step
semantics independent of batch size.

Every kernel steps one set of buffers and returns it: the inputs
themselves when `out` names them (`(params, state)` for the Rprop
kernels, `params` for `sgd_step`), else (`out=None`, the default) a copy
it makes first, leaving the inputs untouched. Any other `out` is refused
before anything is written. No kernel writes the gradients.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dropout import DropoutMask
from .network import (Gradients, NetworkParams, check_finite, check_layout,
                      check_mask, flat_views, flatten, layout)

logger = logging.getLogger(__name__)


def _check_rate(name: str, value: float) -> None:
    """Rejects a setting that is not a positive finite number."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 0.01

    def __post_init__(self):
        _check_rate("learning_rate", self.learning_rate)


@dataclass(frozen=True)
class RpropConfig:
    """Rprop multipliers and step-size bounds.

    Defaults are the classic eta+ = 1.2, eta- = 0.5, delta_max = 50,
    delta_min = 1e-6. Values with eta+ <= 1 or eta- >= 1 invert the
    usual grow/shrink roles; they are accepted (some published
    configurations use them) but logged as a warning.
    """

    eta_plus: float = 1.2
    eta_minus: float = 0.5
    delta_max: float = 50.0
    delta_min: float = 1e-6
    delta_init: float = 0.1

    def __post_init__(self):
        for name in ("eta_plus", "eta_minus", "delta_max", "delta_min", "delta_init"):
            _check_rate(name, getattr(self, name))
        if not self.delta_min <= self.delta_init <= self.delta_max:
            raise ValueError(
                f"need delta_min <= delta_init <= delta_max, got "
                f"{self.delta_min}, {self.delta_init}, {self.delta_max}"
            )
        if self.eta_plus <= 1.0 or self.eta_minus >= 1.0:
            logger.warning(
                "unconventional Rprop multipliers eta_plus=%g, eta_minus=%g "
                "(classic semantics expect eta_minus < 1 < eta_plus)",
                self.eta_plus, self.eta_minus,
            )


@dataclass
class RpropState:
    """Per-weight step sizes and stored previous gradients: views into
    `delta` and `prev`, each laid out like `NetworkParams.flat` (built
    from lists, they are copied into new buffers)."""

    delta_w: list[np.ndarray]
    delta_b: list[np.ndarray]
    prev_w: list[np.ndarray]
    prev_b: list[np.ndarray]
    delta: np.ndarray = field(init=False, repr=False)
    prev: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.delta, self.delta_w, self.delta_b = flatten(self.delta_w, self.delta_b)
        self.prev, self.prev_w, self.prev_b = flatten(self.prev_w, self.prev_b)

    @classmethod
    def from_flat(cls, specs, delta: np.ndarray, prev: np.ndarray) -> "RpropState":
        """State of a model of `specs`, views into `delta` and `prev` themselves."""
        state = cls.__new__(cls)
        state.delta, state.prev = delta, prev
        state.delta_w, state.delta_b = flat_views(delta, layout(specs))
        state.prev_w, state.prev_b = flat_views(prev, layout(specs))
        return state

    def copy(self) -> "RpropState":
        return RpropState(self.delta_w, self.delta_b, self.prev_w, self.prev_b)


def init_rprop_state(params: NetworkParams, cfg: RpropConfig) -> RpropState:
    """All step sizes at delta_init, stored gradients zero.

    With zero stored gradients the first step lands in the zero-product
    branch and moves every weight by -sgn(g) * delta_init.
    """
    return RpropState.from_flat(params.specs, np.full_like(params.flat, cfg.delta_init),
                                np.zeros_like(params.flat))


I8, I64, F64 = np.int8, np.int64, np.float64

# Elements per block. A block's operands and scratch take about 70 bytes
# per element, so a block stays within a 2 MiB L2 cache; larger blocks
# would spill it, smaller ones pay more per-call numpy overhead.
_BLOCK_ELEMS = 16384


def _bits(x) -> np.int64:
    return np.float64(x).view(I64)


_ONE, _INF = _bits(1.0), _bits(np.inf)


def sgd_step(params: NetworkParams, grads: Gradients, cfg: SgdConfig, *,
             out: NetworkParams | None = None) -> NetworkParams:
    """w <- w - learning_rate * g, elementwise. Returns the stepped params:
    `params` itself when `out` is `params`, else a stepped copy."""
    check_layout(params.specs, grads.weights, grads.biases, "gradient")
    check_finite(params.specs, grads.flat, "gradient")
    if out is None:
        out = params.copy()
    elif out is not params:
        raise ValueError("sgd_step: out must be None or params itself")
    lr = cfg.learning_rate
    w, g = out.flat, grads.flat
    step = np.empty(min(w.size, _BLOCK_ELEMS))
    for lo in range(0, w.size, _BLOCK_ELEMS):
        blk = slice(lo, lo + _BLOCK_ELEMS)
        s = step[:min(w.size - lo, _BLOCK_ELEMS)]
        np.multiply(g[blk], lr, out=s)
        np.subtract(w[blk], s, out=w[blk])
    return out


def _rprop_update(w, g, delta, prev, bits, hold_zero, live):
    """One Rprop transition of flat arrays, in place: steps `w`, `delta`
    and `prev` and only reads `g`.

    `bits` holds the int64 patterns (1.0 ^ eta_plus, 1.0 ^ eta_minus,
    inf ^ delta_max, delta_min). `live` is None when every weight is
    live, else a bool array like `w`: False marks a frozen weight.
    `hold_zero` makes the genuine-zero branch hold instead of storing
    the gradient.
    """
    grow_eta, shrink_eta, ceil_bits, floor_bits = bits
    g_bits, prev_bits = g.view(I64), prev.view(I64)
    live8 = None if live is None else live.view(I8)
    # block-sized scratch, shared by every block: two bool flags, three
    # int8 signs and four 64-bit words an element
    size = min(w.size, _BLOCK_ELEMS)
    flags = np.empty((2, size), dtype=bool)
    signs = np.empty((3, size), dtype=I8)
    words = np.empty((4, size), dtype=I64)
    for lo in range(0, w.size, _BLOCK_ELEMS):
        blk, n = slice(lo, lo + _BLOCK_ELEMS), min(w.size - lo, _BLOCK_ELEMS)
        pos, neg = flags[0, :n], flags[1, :n]
        pos8, neg8 = pos.view(I8), neg.view(I8)
        sg, sp, t = signs[:, :n]
        grow, shrink, a, b = words[:, :n]
        a_f = a.view(F64)
        # sign(g) and sign(prev) in {-1, 0, 1}; their product picks the
        # branch and, unlike prev * g, cannot underflow to zero
        np.greater(g[blk], 0.0, out=pos)
        np.less(g[blk], 0.0, out=neg)
        np.subtract(pos8, neg8, out=sg)
        np.greater(prev[blk], 0.0, out=pos)
        np.less(prev[blk], 0.0, out=neg)
        np.subtract(pos8, neg8, out=sp)
        if live is not None:
            # a frozen weight takes neither adaptive branch and never moves
            np.multiply(sg, live8[blk], out=sg)
        np.multiply(sg, sp, out=t)
        np.greater(t, 0, out=pos)
        np.less(t, 0, out=neg)
        # all-ones masks of the grow and shrink branches
        np.negative(pos8, out=grow, casting="unsafe")
        np.negative(neg8, out=shrink, casting="unsafe")

        # delta' = delta * (eta_plus | eta_minus | 1), then capped at
        # delta_max on grow only and floored at delta_min on shrink only
        d = delta[blk]
        np.bitwise_and(grow, grow_eta, out=a)
        np.bitwise_and(shrink, shrink_eta, out=b)
        np.bitwise_xor(a, b, out=a)
        np.bitwise_xor(a, _ONE, out=a)
        np.multiply(d, a_f, out=d)
        np.bitwise_and(grow, ceil_bits, out=a)
        np.bitwise_xor(a, _INF, out=a)
        np.minimum(d, a_f, out=d)
        np.bitwise_and(shrink, floor_bits, out=a)
        np.maximum(d, a_f, out=d)

        # from here on the shrink buffer holds its complement
        off_shrink = shrink
        np.invert(shrink, out=off_shrink)

        # w' = w - sgn(g) * delta', with the step cleared to +0 on
        # shrink; a +0 step (also sgn(0) * delta') leaves w bit for bit
        np.copyto(a_f, sg, casting="unsafe")
        np.multiply(a_f, d, out=a_f)
        np.bitwise_and(a, off_shrink, out=a)
        np.subtract(w[blk], a_f, out=w[blk])

        # stored gradient: g, cleared to +0 on shrink
        stored = b if hold_zero else prev_bits[blk]
        np.bitwise_and(g_bits[blk], off_shrink, out=stored)
        if hold_zero:
            # held weights keep prev: frozen ones, and live ones with
            # prev != 0 and g == 0
            np.not_equal(sp, 0, out=pos)
            np.equal(sg, 0, out=neg)
            np.logical_and(pos, neg, out=pos)
            if live is not None:
                np.logical_not(live[blk], out=neg)
                np.logical_or(pos, neg, out=pos)
            held = grow
            np.negative(pos8, out=held, casting="unsafe")
            np.bitwise_xor(stored, prev_bits[blk], out=a)
            np.bitwise_and(a, held, out=a)
            np.bitwise_xor(a, stored, out=prev_bits[blk])


def _live_weights(params: NetworkParams, mask: DropoutMask):
    """The kernel's `live`: None when every node is live, else a bool
    array like `params.flat`, True where a weight's nodes are all live."""
    check_mask(params, mask)
    nodes = [m != 0.0 for m in mask.node_masks]
    if all(m.all() for m in nodes):
        return None
    live = np.empty(params.flat.size, dtype=bool)
    for l, (lw, lb) in enumerate(zip(*flat_views(live, layout(params.specs)))):
        np.logical_and(nodes[l][:, None], nodes[l + 1], out=lw)
        lb[...] = nodes[l + 1]
    return live


def _rprop(params, grads, state, cfg, mask, out):
    check_layout(params.specs, grads.weights, grads.biases, "gradient")
    check_layout(params.specs, state.delta_w, state.delta_b, "optimizer step sizes")
    check_layout(params.specs, state.prev_w, state.prev_b,
                 "optimizer stored gradients")
    check_finite(params.specs, grads.flat, "gradient")
    for a in (params.flat, grads.flat, state.delta, state.prev):
        if a.dtype != F64:
            raise ValueError(f"Rprop kernels need float64 arrays, got {a.dtype}")
    if out is None:
        out = (params.copy(), state.copy())
    elif not (isinstance(out, tuple) and len(out) == 2
              and out[0] is params and out[1] is state):
        raise ValueError("Rprop kernels: out must be None or (params, state) itself")
    live = None if mask is None else _live_weights(params, mask)
    bits = (_ONE ^ _bits(cfg.eta_plus), _ONE ^ _bits(cfg.eta_minus),
            _INF ^ _bits(cfg.delta_max), _bits(cfg.delta_min))
    _rprop_update(out[0].flat, grads.flat, out[1].delta, out[1].prev, bits,
                  mask is not None, live)
    return out


def rprop_step(params: NetworkParams, grads: Gradients, state: RpropState,
               cfg: RpropConfig, *,
               out: tuple[NetworkParams, RpropState] | None = None):
    """One classic Rprop transition. Returns (params', state'): `out`,
    stepped in place, when it is `(params, state)`, else stepped copies."""
    return _rprop(params, grads, state, cfg, None, out)


def dropout_rprop_step(params: NetworkParams, grads: Gradients, state: RpropState,
                       cfg: RpropConfig, mask: DropoutMask, *,
                       out: tuple[NetworkParams, RpropState] | None = None):
    """One mask-aware Rprop transition. Returns (params', state') like
    `rprop_step`.

    The mask is mandatory: masked weights (and the biases of muted
    nodes) are frozen in place: weight, step size and stored gradient
    all unchanged. Use `rprop_step` when training without dropout.
    """
    if mask is None:
        raise ValueError("dropout_rprop_step requires a mask; "
                         "use rprop_step when training without one")
    return _rprop(params, grads, state, cfg, mask, out)

