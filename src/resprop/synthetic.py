"""Procedural 28x28 digit corpus for environments without the real files.

Renders a 5x7 glyph per digit with per-example stroke corruption, one
of two glyph scales, positional jitter, occlusion bands, per-image
contrast, per-pixel attenuation and background noise, then serializes
the corpus as standard-named IDX files. Entirely deterministic given a
seed, so fixtures and desk-scale experiment runs are reproducible
anywhere. The distortions are tuned so a small dense net lands in the
few-percent error band after desk-scale training rather than
saturating, which keeps optimizer comparisons on this corpus
informative.

Draw order. Each example consumes one uniform draw per random quantity,
in this order: digit, scale, 35 stroke flips (row-major over the 5x7
cells), x jitter, y jitter, contrast, gh*gw attenuation factors (140 at
scale 2, 315 at scale 3), 784 background pixels, and the occlusion test;
an occluded example then draws band width, orientation, band offset and
fill value. Integers are floor(u * k) and a value in [low, high) is
low + (high - low) * u, as `RngStream.integers` and `uniform` make them.
This order is the corpus's definition: the bytes for a (seed, n) pair
never change.

Rendering is chunked. For each chunk of `_CHUNK` examples a scalar pass
peeks, without consuming, at the two draws that decide an example's
length (scale and occlusion test) to locate every example's draws; one
block call then takes all of the chunk's draws, and the examples are
rendered together per glyph scale with array operations, in the same
floating-point order as rendering one example at a time.

This is a stand-in with the same container format, shapes and label
space as the real data, not a substitute for benchmarking against
published digit-recognition error rates.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import STANDARD_NAMES, serialize_idx
from .tensor import RngStream

_GLYPHS = {
    0: (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    1: ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    2: (".###.", "#...#", "....#", "...#.", "..#..", ".#...", "#####"),
    3: (".###.", "#...#", "....#", "..##.", "....#", "#...#", ".###."),
    4: ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    5: ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    6: (".###.", "#....", "#....", "####.", "#...#", "#...#", ".###."),
    7: ("#####", "....#", "...#.", "..#..", ".#...", ".#...", ".#..."),
    8: (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    9: (".###.", "#...#", "#...#", ".####", "....#", "...#.", ".##.."),
}

_SCALES = (2, 3)        # glyphs render at 10x14 or 15x21 on the canvas
_FLIP_RATE = 0.025      # per-cell stroke corruption probability
_OCCLUSION_RATE = 0.2   # fraction of examples with a blanked band
_JITTER = 2             # max offset from centered placement, per axis


def _bitmap(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit]
    return np.array([[c == "#" for c in row] for row in rows], dtype=np.float64)


_BITMAPS = np.stack([_bitmap(d) for d in range(10)])    # (10, 7, 5)

# Offsets of an example's draws from its first (the order in the module
# docstring): flips 2..36, x and y jitter 37 and 38, contrast 39, then
# attenuation, canvas and the occlusion draws.
_AT_FLIPS, _AT_JITTER, _AT_CONTRAST, _AT_ATTENUATION = 2, 37, 39, 40
_CANVAS = 28 * 28

_CHUNK = 256            # examples rendered per vectorized pass


def _between(low: float, high: float, u):
    """`RngStream.uniform(low, high)` of unit draws u, in place on an
    array: low + (high - low) * u, the same expression."""
    u *= high - low
    u += low
    return u


def _layout(rng: RngStream, m: int):
    """Where each of the next m examples' draws start, read ahead of rng.

    Returns (starts, scale index, occluded, total draws). Only the scale
    and occlusion draws decide an example's length, and both sit at
    known offsets from its start, so two peeks per example suffice.
    """
    starts = np.empty(m, dtype=np.int64)
    scale_idx = np.empty(m, dtype=np.int64)
    occluded = np.empty(m, dtype=bool)
    at = 0
    for i in range(m):
        s = int(rng._peek(at + 1) * len(_SCALES))
        at_occlusion = (_AT_ATTENUATION + _BITMAPS[0].size * _SCALES[s] ** 2
                        + _CANVAS)
        occ = rng._peek(at + at_occlusion) < _OCCLUSION_RATE
        starts[i], scale_idx[i], occluded[i] = at, s, occ
        at += at_occlusion + 1 + 4 * occ    # width, side, offset, fill
    return starts, scale_idx, occluded, at


def _render_group(u, starts, occluded, scale):
    """Images and labels of the examples that start at `starts`, all
    drawn at one glyph scale, from the chunk's unit draws u."""
    k = len(starts)
    gh, gw = _BITMAPS.shape[1] * scale, _BITMAPS.shape[2] * scale
    at_canvas = _AT_ATTENUATION + gh * gw
    st = starts[:, None]

    digits = np.floor(u[starts] * 10).astype(np.int64)
    flips = u[st + np.arange(_AT_FLIPS, _AT_JITTER)] < _FLIP_RATE
    bitmap = _BITMAPS[digits]
    bitmap = np.where(flips.reshape(bitmap.shape), 1.0 - bitmap, bitmap)
    glyph = bitmap.repeat(scale, axis=1).repeat(scale, axis=2)
    jitter = np.floor(u[st + [_AT_JITTER, _AT_JITTER + 1]] * (2 * _JITTER + 1))
    jitter = jitter.astype(np.int64) - _JITTER
    ox = (28 - gw) // 2 + jitter[:, 0]
    oy = (28 - gh) // 2 + jitter[:, 1]
    contrast = _between(130.0, 255.0, u[starts + _AT_CONTRAST])
    attenuation = _between(
        0.6, 1.0, u[st + np.arange(_AT_ATTENUATION, at_canvas)]
    ).reshape(k, gh, gw)
    canvas = _between(
        0.0, 50.0, u[st + np.arange(at_canvas, at_canvas + _CANVAS)]
    ).reshape(k, 28, 28)

    rows = (oy[:, None] + np.arange(gh))[:, :, None]
    cols = (ox[:, None] + np.arange(gw))[:, None, :]
    attenuation *= glyph    # (glyph * attenuation) * contrast
    attenuation *= contrast[:, None, None]
    canvas[np.arange(k)[:, None, None], rows, cols] += attenuation

    for j in np.flatnonzero(occluded):
        at = starts[j] + at_canvas + _CANVAS    # the occlusion draw
        width = 2 + int(u[at + 1] * 2)
        fill = _between(0.0, 50.0, u[at + 4])
        if u[at + 2] < 0.5:
            row = oy[j] + int(u[at + 3] * (gh - width))
            canvas[j, row:row + width, ox[j]:ox[j] + gw] = fill
        else:
            col = ox[j] + int(u[at + 3] * (gw - width))
            canvas[j, oy[j]:oy[j] + gh, col:col + width] = fill
    return np.clip(canvas, 0, 255, out=canvas).astype(np.uint8), digits


def generate_corpus(n: int, rng: RngStream):
    """(images uint8 (n, 28, 28), labels int64 (n,)), deterministic in rng.

    Consumes exactly the draws of the per-example order in the module
    docstring, so rng ends where one-example-at-a-time rendering would.
    """
    images = np.zeros((n, 28, 28), dtype=np.uint8)
    labels = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        m = min(_CHUNK, n - lo)
        starts, scale_idx, occluded, total = _layout(rng, m)
        u = rng.uniform(size=total)
        for s, scale in enumerate(_SCALES):
            idx = np.flatnonzero(scale_idx == s)
            if idx.size:
                images[lo + idx], labels[lo + idx] = _render_group(
                    u, starts[idx], occluded[idx], scale)
    return images, labels


def write_corpus(out_dir, n_train: int = 7000, n_test: int = 1500,
                 seed: int = 901) -> Path:
    """Write a synthetic corpus as the four standard-named IDX files."""
    for name, count in (("n_train", n_train), ("n_test", n_test)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_images, train_labels = generate_corpus(n_train, RngStream(seed, 0))
    test_images, test_labels = generate_corpus(n_test, RngStream(seed, 1))
    payload = {
        "train_images": train_images,
        "train_labels": train_labels.astype(np.uint8),
        "test_images": test_images,
        "test_labels": test_labels.astype(np.uint8),
    }
    for key, arr in payload.items():
        (out_dir / STANDARD_NAMES[key]).write_bytes(serialize_idx(arr))
    return out_dir
