"""The synthetic corpus is pinned: chunked rendering must equal the
per-example reference loop byte for byte and leave the stream where the
loop leaves it."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resprop.cli import main
from resprop.synthetic import (
    _BITMAPS, _CHUNK, _FLIP_RATE, _JITTER, _MOST_DRAWS, _OCCLUSION_RATE,
    _SCALES, _layout, generate_corpus, write_corpus,
)
from resprop.tensor import RngStream


def reference_generate_corpus(n, rng):
    """One image per iteration, one stream call per random quantity."""
    images = np.zeros((n, 28, 28), dtype=np.uint8)
    labels = np.zeros(n, dtype=np.int64)
    for i in range(n):
        digit = rng.integers(10)
        scale = _SCALES[rng.integers(len(_SCALES))]
        flips = rng.uniform(size=_BITMAPS[digit].shape) < _FLIP_RATE
        bitmap = np.where(flips, 1.0 - _BITMAPS[digit], _BITMAPS[digit])
        glyph = np.kron(bitmap, np.ones((scale, scale)))
        gh, gw = glyph.shape
        ox = (28 - gw) // 2 + rng.integers(2 * _JITTER + 1) - _JITTER
        oy = (28 - gh) // 2 + rng.integers(2 * _JITTER + 1) - _JITTER
        contrast = rng.uniform(130.0, 255.0)
        attenuation = rng.uniform(0.6, 1.0, size=(gh, gw))
        canvas = rng.uniform(0.0, 50.0, size=(28, 28))
        canvas[oy:oy + gh, ox:ox + gw] += glyph * attenuation * contrast
        if rng.uniform() < _OCCLUSION_RATE:
            width = 2 + rng.integers(2)
            if rng.uniform() < 0.5:
                row = oy + rng.integers(gh - width)
                canvas[row:row + width, ox:ox + gw] = rng.uniform(0.0, 50.0)
            else:
                col = ox + rng.integers(gw - width)
                canvas[oy:oy + gh, col:col + width] = rng.uniform(0.0, 50.0)
        images[i] = np.clip(canvas, 0, 255).astype(np.uint8)
        labels[i] = digit
    return images, labels


def _digest(images, labels):
    return hashlib.sha256(images.tobytes() + labels.tobytes()).hexdigest()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def first_chunk_end(seed, stream_id):
    """How many examples the first chunk of a long corpus on this stream
    renders: as many as `_layout` finds surely fit in its draws."""
    u = RngStream(seed, stream_id)._draws(_CHUNK * _MOST_DRAWS, unit=True)
    return len(_layout(u, _CHUNK * _MOST_DRAWS)[0])


# a size, or "end" and "end+1": a corpus that ends exactly where the
# stream's first chunk ends, and one that renders one example past it
@given(st.integers(0, 2**63 - 1), st.integers(0, 1000),
       st.sampled_from([0, 1, _CHUNK - 1, "end", "end+1", 3 * _CHUNK + 5]))
@example(7, 0, "end")
@example(7, 0, "end+1")
@settings(max_examples=12, deadline=None)
def test_chunked_corpus_equals_reference_loop(seed, stream_id, n):
    if isinstance(n, str):
        end = first_chunk_end(seed, stream_id)
        assert end > _CHUNK    # so no fixed size near _CHUNK hits it
        n = end + (n == "end+1")
    ref_rng = RngStream(seed, stream_id)
    rng = RngStream(seed, stream_id)
    ref_images, ref_labels = reference_generate_corpus(n, ref_rng)
    images, labels = generate_corpus(n, rng)
    assert images.dtype == np.uint8 and labels.dtype == np.int64
    assert images.tobytes() == ref_images.tobytes()
    assert labels.tobytes() == ref_labels.tobytes()
    assert rng.position == ref_rng.position
    assert rng.next_uint64() == ref_rng.next_uint64()


def test_generation_continues_the_stream():
    # two calls on one stream render what the loop renders in sequence
    ref_rng = RngStream(3, 4)
    rng = RngStream(3, 4)
    for n in (7, _CHUNK + 2):
        ref = reference_generate_corpus(n, ref_rng)
        got = generate_corpus(n, rng)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()
    assert rng.position == ref_rng.position


# sha256 of images.tobytes() + labels.tobytes(), the stream position after
# generation and the draw that follows; measured on the per-example loop.
GOLDEN = [
    ((5, 0, 0),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     0, 3399320018051935278),
    ((5, 0, 1),
     "9d1e3ffda54513b2639c8ff209ec0f201a99d449db3b9ef4aeacff9835529467",
     965, 3283361321887685301),
    ((31, 0, 50),
     "8f6f66f228600063e6bb00657278dd8a2b0b8541962cbd129ac62e1949df6704",
     52140, 18153095557482616302),
    ((17, 0, 300),
     "f7718aed2bf44d02921b354c772c3c6eac7e6f8057d90ac6a571559d8944bcca",
     316678, 1981123645620201897),
    ((901, 1, 1500),
     "6014896c59285a2398ff41a316685a900253d3b9f41a7242b3f487e463ee6f46",
     1583744, 13224201343701089764),
]


@pytest.mark.parametrize("case, digest, position, next_draw", GOLDEN,
                         ids=[str(g[0]) for g in GOLDEN])
def test_golden_corpus_digest(case, digest, position, next_draw):
    seed, stream_id, n = case
    rng = RngStream(seed, stream_id)
    assert _digest(*generate_corpus(n, rng)) == digest
    assert rng.position == position
    assert rng.next_uint64() == next_draw


def test_acceptance_corpus_file_digests(tmp_path):
    out = write_corpus(tmp_path, 7000, 1500, seed=901)
    assert {p.name: _sha256(p) for p in out.iterdir()} == {
        "train-images-idx3-ubyte":
            "74b7916c4c3c2046002c8cf3787375fadeb3616d752469370887aee0de8e3a27",
        "train-labels-idx1-ubyte":
            "f21a7563bc709b9d49dcecab2005cc39ed71b912769fce8104bf6f1052e644a5",
        "t10k-images-idx3-ubyte":
            "467c66a15cf91fdae235f76b7fa833c469854105cf3b510805f8cb452b4aeeec",
        "t10k-labels-idx1-ubyte":
            "d23c3b483072bc375a6014f8a355799180f8d258329b7f78212b2742e413d0f5",
    }


@pytest.mark.parametrize("flag, name", [("--train", "n_train"),
                                        ("--test", "n_test")])
def test_synth_negative_count_exits_2_without_output(tmp_path, capsys,
                                                      flag, name):
    out = tmp_path / "digits"
    assert main(["synth", "--out", str(out), flag, "-3"]) == 2
    assert f"{name} must be >= 0" in capsys.readouterr().err
    assert not out.exists()
