"""MNIST-style IDX ingestion, normalization, and split handling.

The IDX container: a big-endian header whose first two bytes are zero,
a type byte (0x08 = unsigned byte, the only type accepted here), a
dimension-count byte, then one big-endian uint32 size per dimension,
followed by the raw payload. Image files carry magic 0x00000803
(2051, three dims n x rows x cols); label files carry 0x00000801
(2049, one dim). Gzip-compressed files are detected by their two-byte
signature and decompressed transparently. Every format, shape, count or
label error names the file; a parsed array views the bytes read, and
each split copies its rows.

Loaded pixels stay uint8 until `Dataset.batch` scales them by 1/255. Splits
are taken in file order: the first `train_size` examples train, the next
`val_size` validate, and the test set comes from the separate test pair.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np


_IDX_UBYTE = 0x08


class IdxFormatError(ValueError):
    """Malformed IDX data; the message carries the failing byte offset."""


def parse_idx(data: bytes) -> np.ndarray:
    """Parse IDX bytes into a uint8 array of the declared shape, a view."""
    if len(data) < 4:
        raise IdxFormatError(
            f"truncated IDX header: got {len(data)} bytes at offset 0, need 4"
        )
    zeros, dtype, ndim = data[0] << 8 | data[1], data[2], data[3]
    if zeros != 0 or dtype != _IDX_UBYTE:
        magic = struct.unpack(">I", data[:4])[0]
        raise IdxFormatError(
            f"bad IDX magic 0x{magic:08X} at offset 0 "
            f"(expected unsigned-byte magic 2051 or 2049)"
        )
    if ndim == 0:
        raise IdxFormatError("IDX header declares 0 dimensions at offset 3")
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise IdxFormatError(
            f"truncated IDX header at offset {len(data)}: "
            f"{ndim} dims need {header_len} header bytes"
        )
    dims = struct.unpack(f">{ndim}I", data[4:header_len])
    count = math.prod(dims)  # exact: an int64 product of 4 dims can wrap
    if count > 1 << 40:
        raise IdxFormatError(f"IDX dims {dims} overflow a sane payload size")
    expected_end = header_len + count
    if len(data) < expected_end:
        raise IdxFormatError(
            f"truncated IDX payload: data ends at offset {len(data)}, "
            f"expected {expected_end}"
        )
    if len(data) > expected_end:
        raise IdxFormatError(
            f"trailing bytes after IDX payload: data ends at offset "
            f"{len(data)}, expected {expected_end}"
        )
    arr = np.frombuffer(data, dtype=np.uint8, offset=header_len, count=count)
    return arr.reshape(dims)


def idx_header(arr: np.ndarray) -> bytes:
    """The IDX header of a uint8 array; its C-order bytes follow it."""
    if arr.dtype != np.uint8 or arr.ndim == 0:
        raise ValueError(f"IDX needs uint8 in 1+ dims, got {arr.dtype} in {arr.ndim}")
    return struct.pack(f">HBB{arr.ndim}I", 0, _IDX_UBYTE, arr.ndim, *arr.shape)


def serialize_idx(arr: np.ndarray) -> bytes:
    """Inverse of parse_idx: uint8 array back to IDX bytes."""
    arr = np.asarray(arr)
    return idx_header(arr) + np.ascontiguousarray(arr).tobytes()


def read_idx(path) -> np.ndarray:
    """Read an IDX file, decompressing gzip transparently; a view."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise IdxFormatError(f"corrupt gzip file {path}: {exc}") from None
    try:
        return parse_idx(raw)
    except IdxFormatError as exc:
        raise IdxFormatError(f"{path}: {exc}") from None


@dataclass
class Dataset:
    """Flattened images with integer labels.

    `pixels` holds uint8 intensities as read from IDX files, or float64
    in [0, 1] (the stacker's features). `batch` alone converts uint8 to
    float64, so MNIST's 60,000 training images take 47 MB, not 376 MB.
    """

    pixels: np.ndarray  # (n, d) uint8, or float64 in [0, 1]
    labels: np.ndarray  # (n,) int64

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.dtype != np.uint8:
            self.pixels = self.pixels.astype(np.float64, copy=False)
            # NaN fails both comparisons, so it is rejected too
            if self.pixels.size and not (self.pixels.min() >= 0
                                         and self.pixels.max() <= 1):
                raise ValueError("image entries must lie in [0, 1]")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.pixels.ndim != 2:
            raise ValueError(f"images must be 2-D, got shape {self.pixels.shape}")
        if len(self.pixels) != len(self.labels):
            raise ValueError(
                f"{len(self.pixels)} images but {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.pixels)

    def batch(self, idx, out=None) -> np.ndarray:
        """Rows `idx` (an index array or a slice) as float64 in [0, 1],
        written into `out` if given; float64 rows divide by 1.0, exactly."""
        rows = self.pixels[idx]
        return np.divide(rows, 255.0 if rows.dtype == np.uint8 else 1.0, out=out)

    @property
    def images(self) -> np.ndarray:
        """Every row as float64; a uint8 split is converted on each call."""
        return self.batch(slice(None))


class DataSplits(NamedTuple):
    train: Dataset
    validation: Dataset
    test: Dataset


def _images_to_dataset(images: np.ndarray, labels: np.ndarray) -> Dataset:
    # copies (Dataset converts the labels), so a prefix does not pin the
    # whole file's payload
    return Dataset(images.reshape(len(images), -1).copy(), labels)


def _read_pair(images_path, labels_path, which: str):
    """The image and label arrays of one IDX pair; every shape, count or
    label error names the file at fault."""
    images, labels = read_idx(images_path), read_idx(labels_path)
    if images.ndim != 3:
        raise ValueError(f"{images_path}: expected n x rows x cols images, "
                         f"got shape {images.shape}")
    if labels.ndim != 1:
        raise ValueError(f"{labels_path}: expected a label vector, got shape "
                         f"{labels.shape}")
    if len(images) != len(labels):
        raise ValueError(f"{which} pair disagrees: {len(images)} images in "
                         f"{images_path} vs {len(labels)} labels in "
                         f"{labels_path}")
    if labels.size and labels.max() > 9:
        raise ValueError(f"{labels_path}: labels must be digit classes in "
                         f"[0, 10), got max {labels.max()}")
    return images, labels


def _read_test_set(images_path, labels_path, size: int | None) -> Dataset:
    """The leading `size` examples of the test pair (all of it when None)."""
    images, labels = _read_pair(images_path, labels_path, "test")
    if len(images) == 0:
        raise ValueError(f"test pair {images_path} holds no examples")
    if size is not None:
        if size < 1:
            raise ValueError(f"test_size must be >= 1, got {size}")
        if size > len(images):
            raise ValueError(f"test_size {size} exceeds the {len(images)} "
                             f"available test examples")
        images, labels = images[:size], labels[:size]
    return _images_to_dataset(images, labels)


# Standard MNIST file names, tried with and without .gz.
STANDARD_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def find_standard_files(data_dir) -> dict[str, Path]:
    """Locate the four standard-named IDX files under `data_dir`."""
    data_dir = Path(data_dir)
    found = {}
    for key, name in STANDARD_NAMES.items():
        for candidate in (data_dir / name, data_dir / (name + ".gz")):
            if candidate.exists():
                found[key] = candidate
                break
        else:
            raise FileNotFoundError(
                f"missing {name}[.gz] under {data_dir}"
            )
    return found


def load_splits_from_dir(data_dir, train_size: int, val_size: int,
                         test_size: int | None = None) -> DataSplits:
    """Load the train/validation/test datasets from the two standard-named
    IDX pairs under `data_dir`.

    Training and validation come from the training pair in file order
    (first train_size, next val_size); the test set is the leading
    test_size examples of the test pair (all of it when None). Each
    size must be at least 1.
    """
    files = find_standard_files(data_dir)
    for name, size in (("train_size", train_size), ("val_size", val_size)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    timg, tlab = _read_pair(files["train_images"], files["train_labels"],
                            "training")
    if train_size + val_size > len(timg):
        raise ValueError(
            f"split ({train_size}, {val_size}) exceeds the {len(timg)} "
            f"available training examples"
        )
    train = _images_to_dataset(timg[:train_size], tlab[:train_size])
    end = train_size + val_size
    validation = _images_to_dataset(timg[train_size:end], tlab[train_size:end])
    test = _read_test_set(files["test_images"], files["test_labels"], test_size)
    return DataSplits(train, validation, test)


def load_test_set(data_dir, size: int | None = None) -> Dataset:
    """Just the test pair from a standard-named directory."""
    files = find_standard_files(data_dir)
    return _read_test_set(files["test_images"], files["test_labels"], size)
