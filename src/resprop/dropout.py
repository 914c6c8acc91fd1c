"""Node-level dropout masks over a network's weight space.

A mask is sampled per training iteration: every non-output node is
muted independently with its layer's rate, and the output node layer is
always all-live (its implicit rate is 0). A weight is live only when
both of its endpoint nodes are live, so the weight-space view of a mask
is the outer product of adjacent node-layer masks. Biases belong to
their node: a muted node's bias is masked with it.

Masks sampled here carry inverted scaling factors 1/(1-rate) so that
the trained weights are used unscaled when the whole network is
evaluated. Directly constructed masks default to scale 1 (pure
thinning), which is what the equivalence tests use. A directly
constructed mask may mute output nodes too; that affects the weight
and bias views (and hence optimizer freezing) but the softmax head in
`forward` only applies the input and hidden masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkParams, check_mask, node_sizes
from .tensor import RngStream


@dataclass(frozen=True)
class DropoutSpec:
    """Per-node-layer dropout rates, input layer first, no output entry."""

    rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        for r in self.rates:
            if not 0.0 <= r < 1.0:
                raise ValueError(f"dropout rate must lie in [0, 1), got {r}")

    @property
    def is_off(self) -> bool:
        return all(r == 0.0 for r in self.rates)

    @classmethod
    def for_sizes(cls, sizes, hidden_rate: float = 0.5,
                  input_rate: float = 0.0) -> "DropoutSpec":
        """Spec for a size chain: input rate, then one rate per hidden layer."""
        n_hidden = len(list(sizes)) - 2
        if n_hidden < 0:
            raise ValueError("size chain needs at least input and output")
        return cls((input_rate,) + (hidden_rate,) * n_hidden)


class DropoutMask:
    """Binary node masks for every node layer, plus derived weight masks.

    node_masks[0] covers the input nodes, node_masks[l] for 1 <= l < L
    the hidden layers, node_masks[L] the output nodes (all ones when
    sampled; sampling never mutes outputs).
    """

    def __init__(self, node_masks, scales=None):
        self.node_masks = [np.asarray(m, dtype=np.float64) for m in node_masks]
        for m in self.node_masks:
            if m.ndim != 1:
                raise ValueError("node masks must be vectors")
            if not np.isin(m, (0.0, 1.0)).all():
                raise ValueError("node mask entries must be 0 or 1")
        if len(self.node_masks) < 2:
            raise ValueError("need node masks for at least input and output")
        if scales is None:
            scales = [1.0] * len(self.node_masks)
        self.scales = [float(s) for s in scales]
        if len(self.scales) != len(self.node_masks):
            raise ValueError("need one scale per node layer")

    @classmethod
    def _sampled(cls, node_masks, scales) -> "DropoutMask":
        """A mask over float64 0/1 vectors made by `sample_masks`, which
        are 0/1 by construction and so skip the entry check."""
        mask = cls.__new__(cls)
        mask.node_masks = node_masks
        mask.scales = scales
        return mask

    def weight_masks(self, params: NetworkParams):
        """Weight-space masks congruent with `params` (one per layer)."""
        check_mask(params, self)
        return [
            np.outer(self.node_masks[l], self.node_masks[l + 1])
            for l in range(params.num_layers)
        ]

    def bias_masks(self, params: NetworkParams):
        """Per-layer bias masks: the mask of the node owning each bias."""
        check_mask(params, self)
        return [self.node_masks[l + 1] for l in range(params.num_layers)]


def all_ones_mask(specs) -> DropoutMask:
    """Mask that mutes nothing and scales nothing."""
    return DropoutMask([np.ones(n) for n in node_sizes(specs)])


def sample_masks(spec: DropoutSpec, specs, rng: RngStream,
                 count: int) -> list[DropoutMask]:
    """Sample `count` successive masks for layer `specs` from one block draw.

    Each mask consumes one draw per non-output node, input layer first,
    and mutes node i when its draw falls below its layer's rate.
    Surviving nodes get scale 1/(1-rate) so the full network needs no
    rescaling at evaluation; the output layer is all-live at scale 1.
    The masks and the stream's final position equal those of `count`
    successive `sample_mask` calls. The masks share read-only arrays.
    """
    sizes = node_sizes(specs)
    if len(spec.rates) != len(sizes) - 1:
        raise ValueError(
            f"dropout spec has {len(spec.rates)} rates but the architecture "
            f"has {len(sizes) - 1} maskable node layers"
        )
    if count < 0:
        raise ValueError(f"mask count must be >= 0, got {count}")
    live = rng.uniform(size=(count, sum(sizes[:-1])))
    np.copyto(live, live >= np.repeat(spec.rates, sizes[:-1]))  # draws -> 0/1
    live.flags.writeable = False
    outputs = np.ones(sizes[-1])
    outputs.flags.writeable = False
    bounds = np.cumsum([0] + sizes[:-1]).tolist()
    scales = [1.0 / (1.0 - rate) for rate in spec.rates] + [1.0]
    return [DropoutMask._sampled(
                [row[a:b] for a, b in zip(bounds, bounds[1:])] + [outputs],
                list(scales))
            for row in live]


def sample_mask(spec: DropoutSpec, specs, rng: RngStream) -> DropoutMask:
    """Sample one iteration's mask: `sample_masks` with a count of 1."""
    return sample_masks(spec, specs, rng, 1)[0]

