"""Versioned binary checkpoint container for models and optimizer state.

Byte layout (all integers little-endian, all floats IEEE-754 float64
little-endian; stable across releases, bump the version on any change):

    magic      4 bytes   b"RPN1"
    version    uint16    currently 1
    n_layers   uint32
    per layer: fan_in uint32, fan_out uint32, activation uint8
               (0 identity, 1 rectifier, 2 logistic, 3 tanh)
    n_sections uint32
    per section:
               tag      8 bytes ASCII, space-padded
               length   uint64 payload byte count
               payload

Section payloads holding per-weight arrays use one fixed layout: for
each layer in order, the weight matrix row-major (fan_in*fan_out
float64) followed by the bias vector (fan_out float64): the bytes of a
model's one buffer (`NetworkParams.flat`, `RpropState.delta`, `.prev`),
the same as when each array was written on its own.

    "params  "  model weights and biases (always present)
    "delta   "  Rprop per-weight step sizes (optional)
    "prevgrad"  Rprop stored previous gradients (optional)
    "rprophp "  5 float64: eta_plus, eta_minus, delta_max, delta_min,
                delta_init (optional, present with the state sections)

Unknown section tags are skipped on read, so newer files with extra
sections stay loadable. A repeated known tag, half the Rprop state
("delta" or "prevgrad" alone) or a non-finite array value is rejected.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .network import LayerSpec, NetworkParams, check_finite, layout
from .optimizers import RpropConfig, RpropState

MAGIC = b"RPN1"
VERSION = 1

_ACT_CODES = {"identity": 0, "rectifier": 1, "logistic": 2, "tanh": 3}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}
_TAGS = ("params", "delta", "prevgrad", "rprophp")


def _pack_flat(flat: np.ndarray) -> np.ndarray:
    """The buffer's float64 little-endian bytes, as a uint8 view where
    the buffer already is float64 little-endian (no copy)."""
    return flat.astype("<f8", copy=False).view(np.uint8)


def _unpack_flat(sections: dict, tag: str, specs) -> np.ndarray:
    payload = sections[tag]
    expected = 8 * sum(map(math.prod, layout(specs)))
    if len(payload) != expected:
        raise ValueError(f"array section length {len(payload)} does not match "
                         f"the declared layer shapes (expected {expected})")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    check_finite(specs, flat, f"value in checkpoint section {tag!r}")
    return flat


def _section(tag: str, payload) -> list:
    """A section's header and its payload, to be written in turn."""
    return [tag.encode("ascii").ljust(8) + struct.pack("<Q", len(payload)),
            payload]


def write_atomic(path, *chunks) -> None:
    """Write `chunks` (bytes, or contiguous uint8 arrays) in turn to
    `<path>.tmp`, then rename it to `path`, so an interrupted write
    leaves any earlier file at `path` whole."""
    tmp = Path(f"{path}.tmp")
    try:
        with tmp.open("wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, params: NetworkParams,
                    state: RpropState | None = None,
                    cfg: RpropConfig | None = None) -> None:
    """Write a checkpoint; include optimizer state/config when given."""
    head = [MAGIC, struct.pack("<HI", VERSION, params.num_layers)]
    for spec in params.specs:
        head.append(struct.pack("<IIB", spec.fan_in, spec.fan_out,
                                _ACT_CODES[spec.activation]))
    sections = [_section("params", _pack_flat(params.flat))]
    if state is not None:
        sections.append(_section("delta", _pack_flat(state.delta)))
        sections.append(_section("prevgrad", _pack_flat(state.prev)))
    if cfg is not None:
        hp = struct.pack("<5d", cfg.eta_plus, cfg.eta_minus, cfg.delta_max,
                         cfg.delta_min, cfg.delta_init)
        sections.append(_section("rprophp", hp))
    head.append(struct.pack("<I", len(sections)))
    # each array is written from its own buffer: no copy of the payload
    write_atomic(path, b"".join(head), *(c for s in sections for c in s))


def _read(fmt: str, data: bytes, offset: int, what: str) -> tuple:
    """struct.unpack_from, raising ValueError on a short file."""
    if offset + struct.calcsize(fmt) > len(data):
        raise ValueError(
            f"truncated checkpoint: {what} at byte {offset} needs "
            f"{struct.calcsize(fmt)} bytes but the file ends at {len(data)}"
        )
    return struct.unpack_from(fmt, data, offset)


def load_checkpoint(path):
    """Read a checkpoint: (params, state or None, rprop config or None).

    Any malformed or truncated file raises ValueError.
    """
    data = Path(path).read_bytes()
    view = memoryview(data)  # sections are sliced without a copy
    if data[:4] != MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {data[:4]!r}")
    version, n_layers = _read("<HI", data, 4, "header")
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    offset = 10
    specs = []
    for _ in range(n_layers):
        fan_in, fan_out, act = _read("<IIB", data, offset, "layer table")
        offset += 9
        if act not in _ACT_NAMES:
            raise ValueError(f"unknown activation code {act} in checkpoint")
        specs.append(LayerSpec(fan_in, fan_out, _ACT_NAMES[act]))
    (n_sections,) = _read("<I", data, offset, "section count")
    offset += 4
    sections = {}
    for _ in range(n_sections):
        raw_tag, length = _read("<8sQ", data, offset, "section header")
        tag = raw_tag.decode("ascii").strip()
        start = offset + 16
        if start + length > len(data):
            raise ValueError(
                f"truncated checkpoint: section {tag!r} declares {length} "
                f"bytes but the file ends after {len(data) - start}"
            )
        if tag in sections:
            raise ValueError(f"checkpoint repeats section {tag!r}")
        if tag in _TAGS:
            sections[tag] = view[start:start + length]
        offset = start + length

    if "params" not in sections:
        raise ValueError("checkpoint is missing its params section")
    params = NetworkParams.from_flat(specs, _unpack_flat(sections, "params", specs))

    state = None
    if ("delta" in sections) != ("prevgrad" in sections):
        missing = "prevgrad" if "delta" in sections else "delta"
        raise ValueError(f"checkpoint is missing its {missing} section")
    if "delta" in sections:
        state = RpropState.from_flat(specs, _unpack_flat(sections, "delta", specs),
                                     _unpack_flat(sections, "prevgrad", specs))

    cfg = None
    if "rprophp" in sections:
        hp = sections["rprophp"]
        if len(hp) != struct.calcsize("<5d"):
            raise ValueError(f"rprophp section holds {len(hp)} bytes, "
                             f"expected {struct.calcsize('<5d')}")
        cfg = RpropConfig(*struct.unpack("<5d", hp))
    return params, state, cfg
