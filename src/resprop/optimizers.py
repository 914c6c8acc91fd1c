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
holds. A layer whose node masks are all live is stepped without a mask.
The kernel walks each array in row blocks small enough that a block's
operands and its scratch stay in a 2 MiB L2 cache, reuses block-sized
scratch for every block and layer of a step, and selects each result
with bitwise masks on int64 views rather than `np.where` (which costs
an order of magnitude more per element on data-dependent masks). Every
selected value, signed zeros included, is the one the textbook formula
gives.

sgn(0) is 0 exactly (both signed zeros), so a zero gradient never moves
a weight. Gradients are expected to be batch means, which keeps step
semantics independent of batch size.

Every kernel takes `out=`: `out=(params, state)` for the Rprop kernels
and `out=params` for `sgd_step`. The result is written there and
returned; `out` may be the inputs themselves, which steps in place with
no allocation beyond the block scratch. With `out=None` (the default)
the kernel first copies its inputs, so it returns fresh params/state
and never mutates its arguments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dropout import DropoutMask
from .network import Gradients, NetworkParams

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 0.01
    minibatch_size: int = 128

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.minibatch_size < 1:
            raise ValueError(f"minibatch_size must be >= 1, got {self.minibatch_size}")


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
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
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
    """Per-weight step sizes and stored previous gradients."""

    delta_w: list[np.ndarray]
    delta_b: list[np.ndarray]
    prev_w: list[np.ndarray]
    prev_b: list[np.ndarray]

    def copy(self) -> "RpropState":
        return RpropState(
            [a.copy() for a in self.delta_w],
            [a.copy() for a in self.delta_b],
            [a.copy() for a in self.prev_w],
            [a.copy() for a in self.prev_b],
        )


def init_rprop_state(params: NetworkParams, cfg: RpropConfig) -> RpropState:
    """All step sizes at delta_init, stored gradients zero.

    With zero stored gradients the first step lands in the zero-product
    branch and moves every weight by -sgn(g) * delta_init.
    """
    return RpropState(
        [np.full_like(w, cfg.delta_init) for w in params.weights],
        [np.full_like(b, cfg.delta_init) for b in params.biases],
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
    )


I8, I64, F64 = np.int8, np.int64, np.float64

# Elements per row block. A block's four operands and ten scratch
# buffers take about 70 bytes per element, so a block stays within a
# 2 MiB L2 cache; larger blocks would spill it, smaller ones pay more
# per-call numpy overhead.
_BLOCK_ELEMS = 16384


def _bits(x) -> np.int64:
    return np.float64(x).view(I64)


_ONE, _INF = _bits(1.0), _bits(np.inf)


def _as_2d(weights, biases) -> list[np.ndarray]:
    """Weight matrices, then each bias vector as a one-row view."""
    return list(weights) + [b[None] for b in biases]


def _block_rows(cols: int) -> int:
    return max(1, _BLOCK_ELEMS // cols)


def _block_elems(arrays) -> int:
    """Elements in the largest row block of any of `arrays`."""
    return max(min(a.shape[0], _block_rows(a.shape[1])) * a.shape[1]
               for a in arrays)


def _row_blocks(shape, views_for):
    """Yields (row slice, scratch views) for each row block of a 2-D
    array. `views_for(height, cols)` shapes the scratch like a block; it
    is called again only when the block height changes."""
    rows, cols = shape
    step = _block_rows(cols)
    views, height = None, 0
    for r0 in range(0, rows, step):
        r1 = min(rows, r0 + step)
        if r1 - r0 != height:
            height = r1 - r0
            views = views_for(height, cols)
        yield slice(r0, r1), views


def _check_finite(grads: Gradients) -> None:
    for l, (gw, gb) in enumerate(zip(grads.weights, grads.biases)):
        for name, g in (("weights", gw), ("biases", gb)):
            if not np.isfinite(g).all():
                idx = np.argwhere(~np.isfinite(g))[0]
                raise ValueError(
                    f"non-finite gradient at layer {l} {name}, index "
                    f"{tuple(int(i) for i in idx)}"
                )


def _check_congruent(params: NetworkParams, other, what: str = "gradient") -> None:
    if len(other.weights) != params.num_layers or len(other.biases) != params.num_layers:
        raise ValueError(
            f"{what} has {len(other.weights)}/{len(other.biases)} weight/bias "
            f"arrays for a {params.num_layers}-layer network"
        )
    for l, (w, gw, b, gb) in enumerate(
        zip(params.weights, other.weights, params.biases, other.biases)
    ):
        if w.shape != gw.shape or b.shape != gb.shape:
            raise ValueError(
                f"{what} shapes {gw.shape}/{gb.shape} do not match parameter "
                f"shapes {w.shape}/{b.shape} at layer {l}"
            )


def sgd_step(params: NetworkParams, grads: Gradients, cfg: SgdConfig, *,
             out: NetworkParams | None = None) -> NetworkParams:
    """w <- w - learning_rate * g, elementwise. Returns the stepped params:
    `out` when given (it may be `params` itself), else a fresh copy."""
    _check_congruent(params, grads)
    _check_finite(grads)
    if out is None:
        out = params.copy()
    else:
        _check_congruent(params, out, "output")
    lr = cfg.learning_rate
    ws = _as_2d(params.weights, params.biases)
    buf = np.empty(_block_elems(ws))
    views_for = lambda h, c: buf[:h * c].reshape(h, c)
    for w, g, o in zip(ws, _as_2d(grads.weights, grads.biases),
                       _as_2d(out.weights, out.biases)):
        for rows, step in _row_blocks(w.shape, views_for):
            np.multiply(g[rows], lr, out=step)
            np.subtract(w[rows], step, out=o[rows])
    return out


class _RpropScratch:
    """Block-sized buffers shared by every block and layer of one step:
    three bool flags, three int8 signs and four 64-bit words a block."""

    def __init__(self, n: int):
        self.flags = np.empty((3, n), dtype=bool)
        self.signs = np.empty((3, n), dtype=I8)
        self.words = np.empty((4, n), dtype=I64)

    def __call__(self, height: int, cols: int):
        n = height * cols
        pos, neg, live = (f[:n].reshape(height, cols) for f in self.flags)
        sg, sp, t = (s[:n].reshape(height, cols) for s in self.signs)
        grow, shrink, a, b = (w[:n].reshape(height, cols) for w in self.words)
        return (pos, pos.view(I8), neg, neg.view(I8), live, live.view(I8),
                sg, sp, t, grow, shrink, a, a.view(F64), b)


def _rprop_update(w, g, delta, prev, w_out, delta_out, prev_out, bits,
                  hold_zero, live, scratch):
    """One Rprop transition of a 2-D array, written to the *_out arrays.

    `bits` holds the int64 patterns (1.0 ^ eta_plus, 1.0 ^ eta_minus,
    inf ^ delta_max, delta_min). `live` is None when every weight is
    live, else (row mask, column mask) as bools: a weight is live when
    both its row and its column are, and frozen otherwise. `hold_zero`
    makes the genuine-zero branch hold instead of storing the gradient.
    """
    grow_eta, shrink_eta, ceil_bits, floor_bits = bits
    g_bits, prev_bits, out_bits = g.view(I64), prev.view(I64), prev_out.view(I64)
    for rows, (pos, pos8, neg, neg8, live_b, live8, sg, sp, t,
               grow, shrink, a, a_f, b) in _row_blocks(w.shape, scratch):
        # sign(g) and sign(prev) in {-1, 0, 1}; their product picks the
        # branch and, unlike prev * g, cannot underflow to zero
        np.greater(g[rows], 0.0, out=pos)
        np.less(g[rows], 0.0, out=neg)
        np.subtract(pos8, neg8, out=sg)
        np.greater(prev[rows], 0.0, out=pos)
        np.less(prev[rows], 0.0, out=neg)
        np.subtract(pos8, neg8, out=sp)
        if live is not None:
            # a frozen weight takes neither adaptive branch and never moves
            np.logical_and(live[0][rows, None], live[1], out=live_b)
            np.multiply(sg, live8, out=sg)
        np.multiply(sg, sp, out=t)
        np.greater(t, 0, out=pos)
        np.less(t, 0, out=neg)
        # all-ones masks of the grow and shrink branches
        np.negative(pos8, out=grow, casting="unsafe")
        np.negative(neg8, out=shrink, casting="unsafe")

        # delta' = delta * (eta_plus | eta_minus | 1), then capped at
        # delta_max on grow only and floored at delta_min on shrink only
        d = delta_out[rows]
        np.bitwise_and(grow, grow_eta, out=a)
        np.bitwise_and(shrink, shrink_eta, out=b)
        np.bitwise_xor(a, b, out=a)
        np.bitwise_xor(a, _ONE, out=a)
        np.multiply(delta[rows], a_f, out=d)
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
        np.subtract(w[rows], a_f, out=w_out[rows])

        # stored gradient: g, cleared to +0 on shrink
        stored = b if hold_zero else out_bits[rows]
        np.bitwise_and(g_bits[rows], off_shrink, out=stored)
        if hold_zero:
            # held weights keep prev: frozen ones, and live ones with
            # prev != 0 and g == 0
            np.not_equal(sp, 0, out=pos)
            np.equal(sg, 0, out=neg)
            np.logical_and(pos, neg, out=pos)
            if live is not None:
                np.logical_not(live_b, out=live_b)
                np.logical_or(pos, live_b, out=pos)
            held = grow
            np.negative(pos8, out=held, casting="unsafe")
            np.bitwise_xor(stored, prev_bits[rows], out=a)
            np.bitwise_and(a, held, out=a)
            np.bitwise_xor(a, stored, out=out_bits[rows])


def _live(rows: np.ndarray, cols: np.ndarray):
    """The kernel's `live` argument for one array: None when all live."""
    return None if rows.all() and cols.all() else (rows, cols)


def _rprop(params, grads, state, cfg, mask, out):
    _check_congruent(params, grads)
    _check_state(params, state)
    _check_finite(grads)
    if out is None:
        out = (params.copy(), state.copy())
    else:
        _check_congruent(params, out[0], "output")
        _check_state(params, out[1])
    out_params, out_state = out
    ws = _as_2d(params.weights, params.biases)
    arrays = (ws, _as_2d(grads.weights, grads.biases),
              _as_2d(state.delta_w, state.delta_b),
              _as_2d(state.prev_w, state.prev_b),
              _as_2d(out_params.weights, out_params.biases),
              _as_2d(out_state.delta_w, out_state.delta_b),
              _as_2d(out_state.prev_w, out_state.prev_b))
    for group in arrays:
        for a in group:
            if a.dtype != F64:
                raise ValueError(f"Rprop kernels need float64 arrays, got {a.dtype}")
    if mask is None:
        lives = [None] * len(ws)
    else:
        mask.bias_masks(params)  # rejects a mask of the wrong node layout
        nodes = [m != 0.0 for m in mask.node_masks]
        one_row = np.ones(1, dtype=bool)
        lives = ([_live(nodes[l], nodes[l + 1]) for l in range(params.num_layers)]
                 + [_live(one_row, nodes[l + 1]) for l in range(params.num_layers)])
    bits = (_ONE ^ _bits(cfg.eta_plus), _ONE ^ _bits(cfg.eta_minus),
            _INF ^ _bits(cfg.delta_max), _bits(cfg.delta_min))
    scratch = _RpropScratch(_block_elems(ws))
    for *arrs, live in zip(*arrays, lives):
        _rprop_update(*arrs, bits, mask is not None, live, scratch)
    return out


def rprop_step(params: NetworkParams, grads: Gradients, state: RpropState,
               cfg: RpropConfig, *,
               out: tuple[NetworkParams, RpropState] | None = None):
    """One classic Rprop transition. Returns (params', state'): `out`
    when given (it may be `(params, state)` itself), else fresh copies."""
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


def _check_state(params: NetworkParams, state: RpropState) -> None:
    counts = {len(a) for a in (state.delta_w, state.delta_b, state.prev_w, state.prev_b)}
    if counts != {params.num_layers}:
        raise ValueError(
            f"optimizer state covers {sorted(counts)} layers of a "
            f"{params.num_layers}-layer network"
        )
    for l, (w, d, p) in enumerate(zip(params.weights, state.delta_w, state.prev_w)):
        if d.shape != w.shape or p.shape != w.shape:
            raise ValueError(
                f"optimizer state shapes {d.shape}/{p.shape} do not match "
                f"weights {w.shape} at layer {l}"
            )
    for l, (b, d, p) in enumerate(zip(params.biases, state.delta_b, state.prev_b)):
        if d.shape != b.shape or p.shape != b.shape:
            raise ValueError(
                f"optimizer state shapes {d.shape}/{p.shape} do not match "
                f"biases {b.shape} at layer {l}"
            )
