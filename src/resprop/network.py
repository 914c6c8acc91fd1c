"""Multilayer perceptron: parameters, forward pass, loss, exact gradients.

Conventions fixed here and relied on by the optimizers and the trainer:

* weights are float64 matrices of shape (fan_in, fan_out), row-major;
  biases are float64 vectors of shape (fan_out,);
* a model's weights and biases are views into one buffer, `flat`, in
  checkpoint order (layer 0's weights, then its bias, then layer 1...);
  gradients and Rprop state share that layout, so a per-weight rule
  walks one flat array and a checkpoint section is the buffer's bytes,
  the same bytes as when each array was written on its own;
* a batch is a (n, fan_in) matrix, one example per row;
* the final layer's activation is applied and the result fed through a
  row-wise softmax, so class probabilities always sum to 1 per row;
* the loss is mean negative log likelihood over the batch, with the
  probability at the label floored at 1e-300 inside the log so the loss
  stays finite on pathological inputs;
* gradients are means over the batch (dividing by n once, in the
  softmax delta), so their scale does not depend on batch size.

Dropout enters through an optional node mask (see `resprop.dropout`):
masked node activations are zeroed and surviving ones multiplied by the
mask's per-layer scale (1/(1-rate) when sampled), so evaluation of the
full network uses the weights as-is. Gradients of weights incident to a
masked node are exactly zero. `backward` reads the mask from the cache
`forward` made under it.

`forward` and the cache-free `probabilities` share one layer loop and
give identical bits. Both overwrite each layer's matmul output with its
activation, and the last with the softmax, and never write the input.
`forward` caches each layer's input and derivative factor (a bool array
for the rectifier), never a pre-activation. `backward` consumes that
cache: each delta overwrites a cached array of its own shape that no
later stage reads (the first delta the probabilities, the one at a
hidden node layer that layer's input once its weight gradient is
taken), so beyond its forward arrays a step allocates only the
gradient buffer. It never writes the input. Multiplications that are
exactly the identity (an all-live node layer at scale 1, the identity
activation's derivative) are skipped, in `backward` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("rectifier", "logistic", "tanh", "identity")

LOSS_PROB_FLOOR = 1e-300


# Each activation is (act(z), factor(a)): `act` overwrites z with a and
# returns it; `factor` gives the derivative at z as a new array, or is
# None for identity, where d * 1.0 is d exactly and `backward` skips it.
def _logistic(z):
    pos = z >= 0
    neg = ~pos
    ez = np.exp(z[neg])  # read before z is written
    z[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    z[neg] = ez / (1.0 + ez)
    return z


_ACT = {
    "rectifier": (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0.0),
    "logistic": (_logistic, lambda a: a * (1.0 - a)),
    "tanh": (lambda z: np.tanh(z, out=z), lambda a: 1.0 - a ** 2),
    "identity": (lambda z: z, None),
}


@dataclass(frozen=True)
class LayerSpec:
    fan_in: int
    fan_out: int
    activation: str = "rectifier"

    def __post_init__(self):
        if self.fan_in < 1 or self.fan_out < 1:
            raise ValueError(
                f"layer dims must be >= 1, got {self.fan_in}x{self.fan_out}"
            )
        if self.activation not in _ACT:
            raise ValueError(
                f"unknown activation {self.activation!r}; "
                f"expected one of {ACTIVATIONS}"
            )


def chain_specs(sizes, hidden_activation: str = "rectifier") -> list[LayerSpec]:
    """Layer specs for a size chain like (784, 300, 100, 10).

    Hidden layers use `hidden_activation`; the output layer is identity
    (the softmax head in `forward` produces the class probabilities).
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    specs = []
    for i in range(len(sizes) - 1):
        act = hidden_activation if i < len(sizes) - 2 else "identity"
        specs.append(LayerSpec(sizes[i], sizes[i + 1], act))
    return specs


def _check_chain(specs):
    if not specs:
        raise ValueError("network needs at least one layer")
    for a, b in zip(specs, specs[1:]):
        if a.fan_out != b.fan_in:
            raise ValueError(
                f"layer chain broken: fan_out {a.fan_out} feeds fan_in {b.fan_in}"
            )


def layout(specs) -> list[tuple]:
    """Each array's shape in checkpoint order: per layer, weights then
    bias. A model's buffer holds sum(math.prod(s) for s in layout(specs))
    elements."""
    return [x for s in specs for x in ((s.fan_in, s.fan_out), (s.fan_out,))]


def check_layout(specs, weights, biases, what: str) -> None:
    """Raises unless `weights` and `biases` have the shapes `specs` give
    them (see `layout`), naming the first layer that differs."""
    n = len(specs)
    if len(weights) != n or len(biases) != n:
        raise ValueError(f"{what} has {len(weights)}/{len(biases)} weight/bias "
                         f"arrays for a {n}-layer network")
    for l, (s, w, b) in enumerate(zip(specs, weights, biases)):
        if w.shape != (s.fan_in, s.fan_out) or b.shape != (s.fan_out,):
            raise ValueError(f"{what} shapes {w.shape}/{b.shape} do not match "
                             f"weight shape {(s.fan_in, s.fan_out)} and bias "
                             f"shape {(s.fan_out,)} at layer {l}")


def flat_views(flat: np.ndarray, shapes) -> tuple[list, list]:
    """(weight views, bias views) of the 1-D buffer `flat`, which holds
    arrays of the `layout` `shapes` end to end."""
    views, i = [], 0
    for shape in shapes:
        views.append(flat[i:i + math.prod(shape)].reshape(shape))
        i += views[-1].size
    if i != flat.size:
        raise ValueError(f"{flat.size} elements do not hold arrays of {i}")
    return views[0::2], views[1::2]


def flatten(weights, biases) -> tuple[np.ndarray, list, list]:
    """Copies per-layer arrays into one new buffer in the first weight
    matrix's dtype: (buffer, weight views, bias views)."""
    arrays = [a for pair in zip(weights, biases, strict=True) for a in pair]
    flat = np.concatenate([np.ravel(a) for a in arrays], dtype=weights[0].dtype)
    return (flat, *flat_views(flat, [a.shape for a in arrays]))


def locate(specs, i: int) -> tuple[int, str, tuple]:
    """Flat index `i` of a model's buffer as (layer, "weights" or
    "biases", index into that array)."""
    for k, shape in enumerate(layout(specs)):
        if i < math.prod(shape):
            return (k // 2, ("weights", "biases")[k % 2],
                    tuple(int(j) for j in np.unravel_index(i, shape)))
        i -= math.prod(shape)
    raise IndexError("flat index beyond the model's buffer")


def check_finite(specs, flat: np.ndarray, what: str) -> None:
    """Raises ValueError naming the first non-finite entry of `flat`, in
    a model's layout: `non-finite WHAT at layer L NAME, index (i, j)`."""
    ok = np.isfinite(flat)
    if not ok.all():
        layer, name, idx = locate(specs, int(np.argmin(ok)))  # first False
        raise ValueError(f"non-finite {what} at layer {layer} {name}, index {idx}")


@dataclass
class NetworkParams:
    """Per-layer weight matrices and bias vectors, views into `flat`
    (built from lists, they are copied into a new buffer)."""

    specs: tuple[LayerSpec, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.specs = tuple(self.specs)
        _check_chain(self.specs)
        check_layout(self.specs, self.weights, self.biases, "parameter")
        self.flat, self.weights, self.biases = flatten(self.weights, self.biases)

    @classmethod
    def from_flat(cls, specs, flat: np.ndarray) -> "NetworkParams":
        """Params whose arrays are views into `flat` itself."""
        specs = tuple(specs)
        _check_chain(specs)
        params = cls.__new__(cls)
        params.specs, params.flat = specs, flat
        params.weights, params.biases = flat_views(flat, layout(specs))
        return params

    @property
    def num_layers(self) -> int:
        return len(self.specs)

    @property
    def num_classes(self) -> int:
        return self.specs[-1].fan_out

    @property
    def input_width(self) -> int:
        return self.specs[0].fan_in

    def num_parameters(self) -> int:
        return self.flat.size

    def copy(self) -> "NetworkParams":
        return NetworkParams.from_flat(self.specs, self.flat.copy())


@dataclass
class Gradients:
    """Loss gradients, shaped and laid out like the NetworkParams they
    came from (built from lists, they are copied into a new buffer)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.flat, self.weights, self.biases = flatten(self.weights, self.biases)

    @classmethod
    def from_flat(cls, specs, flat: np.ndarray) -> "Gradients":
        """Gradients of a model of `specs`, views into `flat` itself."""
        grads = cls.__new__(cls)
        grads.flat = flat
        grads.weights, grads.biases = flat_views(flat, layout(specs))
        return grads


def parse_init_rule(scale_rule: str):
    """The weight range of `scale_rule` as a function of fan_in:
    1/sqrt(fan_in) for "uniform-fan-in", R for "fixed-range:R"."""
    if scale_rule == "uniform-fan-in":
        return lambda fan_in: 1.0 / np.sqrt(fan_in)
    if scale_rule.startswith("fixed-range:"):
        r = float(scale_rule.split(":", 1)[1])
        if not 0 <= r < math.inf:
            raise ValueError(f"fixed-range needs a finite non-negative range, "
                             f"got {r}")
        return lambda fan_in: r
    raise ValueError(
        f"unknown scale_rule {scale_rule!r}; "
        "expected 'uniform-fan-in' or 'fixed-range:R'"
    )


def init_params(specs, rng, scale_rule: str = "uniform-fan-in") -> NetworkParams:
    """Fresh parameters: weights per `scale_rule`, biases zero.

    scale_rule is "uniform-fan-in" (entries uniform in +-1/sqrt(fan_in))
    or "fixed-range:R" (entries uniform in +-R). Weight entries are
    drawn in row-major order, layer by layer, so a given (seed, rule)
    always produces the same parameters.
    """
    specs = list(specs)
    params = NetworkParams.from_flat(
        specs, np.zeros(sum(map(math.prod, layout(specs)))))
    weight_range = parse_init_rule(scale_rule)
    for spec, w in zip(specs, params.weights):
        r = weight_range(spec.fan_in)
        w[...] = rng.uniform(-r, r, size=w.shape)
    return params


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for overflow safety.

    The result goes into `out` when given (it may be `logits` itself),
    else into one new array.
    """
    logits = np.asarray(logits, dtype=np.float64)
    e = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


@dataclass
class ForwardPass:
    """One `forward` call's layer inputs and derivative factors.

    `backward` consumes it: it writes its deltas into `probabilities`
    and `layer_inputs[1:]` and sets `consumed`, so a second `backward`
    on it is refused. `layer_inputs[0]`, the caller's input, and
    `derivatives` are never written.
    """

    params: NetworkParams = field(repr=False)
    mask: object = field(repr=False)
    layer_inputs: list[np.ndarray] = field(repr=False)
    derivatives: list[np.ndarray | None] = field(repr=False)
    probabilities: np.ndarray = field(repr=False)
    consumed: bool = field(default=False, repr=False)

    @property
    def batch_size(self) -> int:
        return self.probabilities.shape[0]


def node_sizes(specs) -> list[int]:
    """Nodes per node layer of a layer chain, input layer first."""
    specs = list(specs)
    return [specs[0].fan_in] + [s.fan_out for s in specs]


def check_mask(params: NetworkParams, mask) -> None:
    """Rejects a dropout mask whose node layers do not match `params`."""
    want, got = node_sizes(params.specs), [len(m) for m in mask.node_masks]
    if got != want:
        raise ValueError(
            f"mask node layers {got} do not match network node layers {want}"
        )


def _check_input(params: NetworkParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_width:
        raise ValueError(
            f"input shape {x.shape} does not match network input width "
            f"{params.input_width}"
        )
    return x


def _node_factor(mask, layer: int):
    """What node layer `layer`'s activations are multiplied by under
    `mask`, or None when that is exactly the identity (no mask, or all
    nodes live at scale 1)."""
    if mask is None:
        return None
    m, s = mask.node_masks[layer], mask.scales[layer]
    return None if s == 1.0 and m.all() else m * s


def _layers(params: NetworkParams, a: np.ndarray, mask=None,
            layer_inputs=None, derivatives=None) -> np.ndarray:
    """Class probabilities of batch `a`: the layer loop of `forward`
    and `probabilities`. `a` itself is never written; each layer's
    activation and the softmax overwrite that layer's matmul output.

    With cache lists, each activation's derivative factor is appended to
    `derivatives` and each masked activation to `layer_inputs`.
    """
    last = params.num_layers - 1
    for l, (spec, w, b) in enumerate(zip(params.specs, params.weights,
                                         params.biases)):
        a = a @ w
        a += b
        act, deriv = _ACT[spec.activation]
        a = act(a)
        if derivatives is not None:
            derivatives.append(None if deriv is None else deriv(a))
        if l < last:
            factor = _node_factor(mask, l + 1)
            if factor is not None:
                a *= factor
            if layer_inputs is not None:
                layer_inputs.append(a)
    return softmax(a, out=a)


def forward(params: NetworkParams, x: np.ndarray, mask=None) -> ForwardPass:
    """Run the network on a batch, optionally through a dropout mask.

    Returns the per-layer caches plus row-normalized class
    probabilities. With a mask, masked nodes contribute exactly zero
    downstream and surviving activations carry the mask's scale. Every
    cached array is new except the input, which is cached as given
    when the mask leaves it unchanged.
    """
    x = _check_input(params, x)
    if mask is not None:
        check_mask(params, mask)
    factor = _node_factor(mask, 0)
    a = x if factor is None else x * factor
    layer_inputs, derivatives = [a], []
    probs = _layers(params, a, mask, layer_inputs, derivatives)
    return ForwardPass(params, mask, layer_inputs, derivatives, probs)


def probabilities(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """The class probabilities of `forward(params, x)`, computed without
    keeping any per-layer cache."""
    return _layers(params, _check_input(params, x))


def nll_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log likelihood of the labels under row probabilities."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    if probabilities.ndim != 2:
        raise ValueError(f"probabilities must be 2-D, got shape {probabilities.shape}")
    n, k = probabilities.shape
    if labels.shape != (n,):
        raise ValueError(
            f"labels shape {labels.shape} does not match batch size {n}"
        )
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    row_sums = probabilities.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-6:
        raise ValueError("probability rows are not normalized")
    p = probabilities[np.arange(n), labels]
    return float(-np.mean(np.log(np.maximum(p, LOSS_PROB_FLOOR))))


def backward(params: NetworkParams, cache: ForwardPass,
             labels: np.ndarray) -> Gradients:
    """Exact gradient of nll_loss(forward(params, x, mask), labels).

    `cache` must come from a `forward` call on these same `params`;
    anything else is a stale cache and is rejected. The mask, if any, is
    the one `forward` stored in the cache.

    The cache is consumed: the first delta is built in
    `cache.probabilities` and the delta into layer l in
    `cache.layer_inputs[l]` once layer l's weight gradient has read it,
    so no delta gets a buffer of its own. A consumed cache is refused;
    the input `layer_inputs[0]` is never written.
    """
    if cache.params is not params:
        raise ValueError("activation cache was computed from different parameters")
    if cache.consumed:
        raise ValueError("activation cache was consumed by an earlier backward "
                         "call; run forward again")
    mask = cache.mask

    labels = np.asarray(labels)
    n = cache.batch_size
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")

    cache.consumed = True
    dz = cache.probabilities
    dz[np.arange(n), labels] -= 1.0
    dz /= n

    grads = Gradients.from_flat(params.specs, np.empty(params.flat.size))
    for l in range(params.num_layers - 1, -1, -1):
        if cache.derivatives[l] is not None:
            dz *= cache.derivatives[l]
        np.matmul(cache.layer_inputs[l].T, dz, out=grads.weights[l])
        dz.sum(axis=0, out=grads.biases[l])
        if l > 0:
            # layer l's input is read for the last time just above
            dz = np.matmul(dz, params.weights[l].T, out=cache.layer_inputs[l])
            factor = _node_factor(mask, l)
            if factor is not None:
                dz *= factor
    return grads
