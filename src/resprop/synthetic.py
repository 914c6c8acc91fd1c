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

Rendering is chunked. A chunk computes, unconsumed, the unit draws of
`_CHUNK` examples of the longest kind, reads the two draws that decide
each example's length (scale and occlusion test) to lay out as many as
surely fit, and consumes exactly their draws. They are rendered per glyph
scale and jitter offset with array operations on runs of their draws, in
the same floating-point order as rendering one example at a time.

This is a stand-in with the same container format, shapes and label
space as the real data, not a substitute for benchmarking against
published digit-recognition error rates.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import STANDARD_NAMES, idx_header
from .serialization import write_atomic
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
# attenuation, canvas and, per glyph scale, the occlusion test at
# _AT_OCCLUSION; an example takes at most _MOST_DRAWS draws.
_AT_FLIPS, _AT_JITTER, _AT_CONTRAST, _AT_ATTENUATION = 2, 37, 39, 40
_CANVAS = 28 * 28
_AT_OCCLUSION = [_AT_ATTENUATION + _BITMAPS[0].size * s * s + _CANVAS
                 for s in _SCALES]
_MOST_DRAWS = max(_AT_OCCLUSION) + 5    # + width, side, offset, fill

_CHUNK = 256            # examples rendered per vectorized pass, at least


def _between(low: float, high: float, u):
    """`RngStream.uniform(low, high)` of unit draws u, in place on an
    array: low + (high - low) * u, the same expression."""
    u *= high - low
    u += low
    return u


def _layout(u, m: int):
    """(starts, scale index, occluded, draws used) of the first m examples
    whose draws begin the unit draws u, or of as many as surely fit in u.
    Only the scale and occlusion draws decide an example's length."""
    rows, at, v = [], 0, memoryview(u)  # v[i]: a float, read faster than u[i]
    while len(rows) < m and at + _MOST_DRAWS <= len(u):
        s = int(v[at + 1] * len(_SCALES))
        occ = v[at + _AT_OCCLUSION[s]] < _OCCLUSION_RATE
        rows.append((at, s, occ))
        at += _AT_OCCLUSION[s] + 1 + 4 * occ    # width, side, offset, fill
    starts, scale_idx, occluded = map(np.array, zip(*rows))
    return starts, scale_idx, occluded, at


def _render_group(u, starts, occluded, scale):
    """(order, images, labels) of the examples that start at `starts[order]`,
    all drawn at one glyph scale, from the chunk's unit draws u; `order`
    runs through the jitter offsets in turn, so each offset is one slice."""
    gh, gw = _BITMAPS.shape[1] * scale, _BITMAPS.shape[2] * scale
    at_canvas = _AT_ATTENUATION + gh * gw
    span = 2 * _JITTER + 1
    offset = np.floor(u[starts + _AT_JITTER] * span).astype(np.int64) * span
    offset += np.floor(u[starts + _AT_JITTER + 1] * span).astype(np.int64)
    order = np.argsort(offset, kind="stable")
    starts, occluded, offset = starts[order], occluded[order], offset[order]
    # digit..contrast, attenuation and canvas draws are runs in u, copied
    # whole from window views rather than gathered by index arrays
    head, attenuation, canvas = (
        sliding_window_view(u, length)[starts + at] for at, length in
        ((0, _AT_ATTENUATION), (_AT_ATTENUATION, gh * gw), (at_canvas, _CANVAS)))

    digits = np.floor(head[:, 0] * 10).astype(np.int64)
    flips = head[:, _AT_FLIPS:_AT_JITTER] < _FLIP_RATE
    bitmap = _BITMAPS[digits]
    bitmap = np.where(flips.reshape(bitmap.shape), 1.0 - bitmap, bitmap)
    glyph = bitmap.repeat(scale, axis=1).repeat(scale, axis=2)
    contrast = _between(130.0, 255.0, head[:, _AT_CONTRAST])
    attenuation = _between(0.6, 1.0, attenuation).reshape(-1, gh, gw)
    attenuation *= glyph    # (glyph * attenuation) * contrast
    attenuation *= contrast[:, None, None]
    canvas = canvas.reshape(-1, 28, 28)
    canvas *= 50.0  # 0 + 50 u: adding 0.0 changes no bit of a value >= 0

    ox = (28 - gw) // 2 + offset // span - _JITTER
    oy = (28 - gh) // 2 + offset % span - _JITTER
    bounds = np.flatnonzero(np.diff(offset, prepend=-1, append=span * span))
    for a, b in zip(bounds[:-1], bounds[1:]):   # one slice-add per offset
        canvas[a:b, oy[a]:oy[a] + gh, ox[a]:ox[a] + gw] += attenuation[a:b]

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
    # every term is >= 0, so clipping to [0, 255] is a minimum with 255
    return order, np.minimum(canvas, 255, out=canvas).astype(np.uint8), digits


def generate_corpus(n: int, rng: RngStream):
    """(images uint8 (n, 28, 28), labels int64 (n,)), deterministic in rng.

    Consumes exactly the draws of the per-example order in the module
    docstring, so rng ends where one-example-at-a-time rendering would.
    """
    images = np.zeros((n, 28, 28), dtype=np.uint8)
    labels = np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < n:
        u = rng._draws(min(_CHUNK, n - lo) * _MOST_DRAWS, unit=True)
        starts, scale_idx, occluded, used = _layout(u, n - lo)
        rng._advance(used)
        for s, scale in enumerate(_SCALES):
            idx = np.flatnonzero(scale_idx == s)
            if idx.size:
                order, *rendered = _render_group(u, starts[idx],
                                                 occluded[idx], scale)
                images[lo + idx[order]], labels[lo + idx[order]] = rendered
        lo += len(starts)
    return images, labels


def write_corpus(out_dir, n_train: int = 7000, n_test: int = 1500,
                 seed: int = 901) -> Path:
    """Atomically write a synthetic corpus as the standard-named IDX files."""
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
        write_atomic(out_dir / STANDARD_NAMES[key], idx_header(arr), arr)
    return out_dir
