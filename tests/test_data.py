import gzip
import re
import struct

import numpy as np
import pytest

from resprop import synthetic
from resprop.data import (
    Dataset,
    IdxFormatError,
    find_standard_files,
    load_splits_from_dir,
    load_test_set,
    parse_idx,
    read_idx,
    serialize_idx,
)
from resprop.synthetic import generate_corpus, write_corpus
from resprop.tensor import RngStream


def image_fixture(n=2, rows=28, cols=28, fill=None):
    header = struct.pack(">HBB", 0, 0x08, 3) + struct.pack(">III", n, rows, cols)
    if fill is None:
        payload = bytes(range(256)) * (n * rows * cols // 256 + 1)
        payload = payload[:n * rows * cols]
    else:
        payload = bytes([fill]) * (n * rows * cols)
    return header + payload


def label_fixture(labels):
    header = struct.pack(">HBB", 0, 0x08, 1) + struct.pack(">I", len(labels))
    return header + bytes(labels)


class TestParseIdx:
    def test_two_image_fixture(self):
        # magic 2051, dims 2 x 28 x 28, payload 1568 bytes
        data = image_fixture()
        assert len(data) == 4 + 12 + 1568
        arr = parse_idx(data)
        assert arr.shape == (2, 28, 28)
        assert arr.dtype == np.uint8
        expect = np.arange(2 * 28 * 28, dtype=np.int64) % 256
        assert (arr.reshape(-1) == expect).all()

    def test_label_fixture(self):
        arr = parse_idx(label_fixture([3, 7]))
        assert arr.shape == (2,)
        assert arr.tolist() == [3, 7]

    def test_payload_one_byte_short(self):
        data = image_fixture()[:-1]
        with pytest.raises(IdxFormatError, match=r"offset 1583.*expected 1584"):
            parse_idx(data)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(IdxFormatError, match="trailing"):
            parse_idx(image_fixture() + b"\x00")

    def test_bad_magic(self):
        data = b"\x00\x01\x08\x03" + image_fixture()[4:]
        with pytest.raises(IdxFormatError, match="bad IDX magic"):
            parse_idx(data)
        data = struct.pack(">HBB", 0, 0x0D, 1) + struct.pack(">I", 1) + b"\x00"
        with pytest.raises(IdxFormatError, match="bad IDX magic"):
            parse_idx(data)

    def test_truncated_header(self):
        with pytest.raises(IdxFormatError, match="offset 0"):
            parse_idx(b"\x00\x00")
        header_only = struct.pack(">HBB", 0, 0x08, 3) + struct.pack(">I", 2)
        with pytest.raises(IdxFormatError, match="3 dims"):
            parse_idx(header_only)

    def test_dims_overflow(self):
        data = struct.pack(">HBB", 0, 0x08, 2) + struct.pack(">II", 1 << 21, 1 << 21)
        with pytest.raises(IdxFormatError, match="overflow"):
            parse_idx(data)

    def test_dims_whose_product_wraps_int64(self):
        # 65536 ** 4 == 2 ** 64, which an int64 product wraps to 0
        data = struct.pack(">HBB", 0, 0x08, 4) + struct.pack(">IIII", *[1 << 16] * 4)
        assert len(data) == 20
        with pytest.raises(IdxFormatError, match="overflow"):
            parse_idx(data)

    def test_zero_dims_rejected(self):
        for data in (b"\x00\x00\x08\x00", b"\x00\x00\x08\x00\x07"):
            with pytest.raises(IdxFormatError,
                               match="declares 0 dimensions at offset 3"):
                parse_idx(data)

    def test_round_trip_bytes_identical(self):
        for fixture in (image_fixture(), label_fixture([0, 9, 5])):
            assert serialize_idx(parse_idx(fixture)) == fixture

    def test_serialize_then_parse(self):
        rng = RngStream(4, 0)
        arr = np.floor(rng.uniform(0, 256, size=(3, 5, 7))).astype(np.uint8)
        again = parse_idx(serialize_idx(arr))
        assert (again == arr).all()
        assert again.shape == arr.shape

    def test_serialize_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint8"):
            serialize_idx(np.zeros((2, 2), dtype=np.float64))
        # a 0-dim header, which parse_idx rejects
        with pytest.raises(ValueError, match=r"1\+ dims, got uint8 in 0"):
            serialize_idx(np.uint8(3))


class TestReadIdx:
    def test_gzip_transparent(self, tmp_path):
        raw = image_fixture()
        plain = tmp_path / "plain-idx"
        packed = tmp_path / "packed-idx.gz"
        plain.write_bytes(raw)
        packed.write_bytes(gzip.compress(raw))
        a, b = read_idx(plain), read_idx(packed)
        assert (a == b).all()
        assert a.shape == (2, 28, 28)

    def test_truncated_gzip_names_the_file(self, tmp_path):
        packed = tmp_path / "cut-idx.gz"
        packed.write_bytes(gzip.compress(image_fixture())[:-20])
        with pytest.raises(IdxFormatError,
                           match=f"corrupt gzip file {re.escape(str(packed))}: "
                                 f"Compressed file ended"):
            read_idx(packed)

    def test_damaged_deflate_block_names_the_file(self, tmp_path):
        data = bytearray(gzip.compress(image_fixture()))
        data[10] = 0xFF  # the first block's header: reserved block type 3
        packed = tmp_path / "bad-idx.gz"
        packed.write_bytes(bytes(data))
        with pytest.raises(IdxFormatError,
                           match=f"corrupt gzip file {re.escape(str(packed))}: "
                                 f"Error -3 "):
            read_idx(packed)

    @pytest.mark.parametrize("data, message", [
        (image_fixture()[:-10], "truncated IDX payload: data ends at offset "
                                "1574, expected 1584"),
        (b"\x00\x00\x08\x00\x07", "IDX header declares 0 dimensions"),
        (b"\x00\x00", "truncated IDX header"),
    ], ids=["payload", "zero-dims", "header"])
    def test_format_errors_name_the_file(self, tmp_path, data, message):
        plain = tmp_path / "bad-idx"
        packed = tmp_path / "bad-idx.gz"
        plain.write_bytes(data)
        packed.write_bytes(gzip.compress(data))
        for path in (plain, packed):
            with pytest.raises(IdxFormatError) as info:
                read_idx(path)
            assert str(info.value).startswith(f"{path}: {message}")

    def test_plain_file_array_is_a_view_of_its_bytes(self, tmp_path):
        path = tmp_path / "plain-idx"
        path.write_bytes(image_fixture())
        arr = read_idx(path)
        assert not arr.flags.owndata and not arr.flags.writeable
        assert arr.tobytes() == image_fixture()[16:]


class TestDataset:
    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="2 images but 3 labels"):
            Dataset(np.zeros((2, 4)), np.zeros(3, dtype=np.int64))

    def test_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(np.full((2, 4), 1.5), np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            Dataset(np.array([[bad, 0.5]]), [0])

    def test_batch_bit_equal_to_float64_split(self):
        # every byte value, then rows gathered repeated and out of order
        pixels = np.arange(7 * 40, dtype=np.int64).reshape(7, 40) % 256
        pixels = pixels.astype(np.uint8)
        ds = Dataset(pixels, np.zeros(7, dtype=np.int64))
        old = pixels.astype(np.float64)  # how loading used to store a split
        old /= 255.0
        for idx in (np.array([5, 2, 2, 6, 0, 5]), np.arange(7), slice(1, 4)):
            got = ds.batch(idx)
            assert got.dtype == np.float64
            assert got.tobytes() == old[idx].tobytes()
        assert ds.images.tobytes() == old.tobytes()
        assert ds.pixels.dtype == np.uint8

    def test_float_batch_is_the_rows_themselves(self):
        feats = np.random.default_rng(0).uniform(size=(5, 3))
        ds = Dataset(feats, np.zeros(5, dtype=np.int64))
        idx = np.array([4, 0, 4])
        assert ds.batch(idx).tobytes() == feats[idx].tobytes()
        assert ds.images.tobytes() == feats.tobytes()


def write_pair_dir(tmp_path, n_train=6, n_test=4):
    d = tmp_path / "data"
    d.mkdir()
    train_images = image_fixture(n=n_train, fill=None)
    train_labels = label_fixture(list(range(n_train)))
    test_images = image_fixture(n=n_test, fill=255)
    test_labels = label_fixture([1] * n_test)
    (d / "train-images-idx3-ubyte").write_bytes(train_images)
    (d / "train-labels-idx1-ubyte").write_bytes(train_labels)
    (d / "t10k-images-idx3-ubyte.gz").write_bytes(gzip.compress(test_images))
    (d / "t10k-labels-idx1-ubyte").write_bytes(test_labels)
    return d


class TestLoadSplits:
    def test_prefix_rule_and_scaling(self, tmp_path):
        d = write_pair_dir(tmp_path)
        splits = load_splits_from_dir(d, 3, 2)
        assert len(splits.train) == 3 and len(splits.validation) == 2
        assert splits.train.labels.tolist() == [0, 1, 2]
        assert splits.validation.labels.tolist() == [3, 4]
        # the test images are constant 255, scaled to exactly 1.0
        assert (splits.test.images == 1.0).all()
        assert len(splits.test) == 4

    def test_splits_hold_one_byte_per_pixel(self, tmp_path):
        d = write_pair_dir(tmp_path, n_train=6, n_test=4)
        splits = load_splits_from_dir(d, 3, 2)
        for part in splits:
            assert part.pixels.dtype == np.uint8
            assert part.pixels.shape == (len(part), 784)
        assert sum(part.pixels.nbytes for part in splits) == (3 + 2 + 4) * 784

    def test_splits_own_their_pixels(self, tmp_path):
        plain = write_corpus(tmp_path / "plain", 30, 12, seed=55)
        packed = tmp_path / "packed"
        packed.mkdir()
        for f in plain.iterdir():
            (packed / (f.name + ".gz")).write_bytes(gzip.compress(f.read_bytes()))
        for test_size in (None, 5):
            got = load_splits_from_dir(plain, 20, 10, test_size)
            want = load_splits_from_dir(packed, 20, 10, test_size)
            for part, ref in zip(got, want):
                assert part.pixels.dtype == np.uint8
                assert part.pixels.flags.owndata
                assert part.pixels.flags.c_contiguous
                assert np.array_equal(part.pixels, ref.pixels)
                assert np.array_equal(part.labels, ref.labels)

    def test_split_disjoint_union_is_prefix(self, tmp_path):
        d = write_pair_dir(tmp_path)
        splits = load_splits_from_dir(d, 4, 2)
        joined = np.concatenate([splits.train.labels, splits.validation.labels])
        assert joined.tolist() == [0, 1, 2, 3, 4, 5]

    def test_test_size_slices(self, tmp_path):
        d = write_pair_dir(tmp_path)
        splits = load_splits_from_dir(d, 3, 1, test_size=2)
        assert len(splits.test) == 2

    def test_oversized_split_rejected(self, tmp_path):
        d = write_pair_dir(tmp_path)
        with pytest.raises(ValueError, match="exceeds the 6 available"):
            load_splits_from_dir(d, 5, 2)

    @pytest.mark.parametrize("sizes,message", [
        ((0, 2, None), "train_size must be >= 1, got 0"),
        ((3, 0, None), "val_size must be >= 1, got 0"),
        ((3, -1, None), "val_size must be >= 1, got -1"),
        ((3, 2, 0), "test_size must be >= 1, got 0"),
    ])
    def test_empty_split_rejected_by_name(self, tmp_path, sizes, message):
        d = write_pair_dir(tmp_path)
        with pytest.raises(ValueError, match=message):
            load_splits_from_dir(d, *sizes)

    def test_pair_disagreement_rejected(self, tmp_path):
        d = write_pair_dir(tmp_path)
        (d / "train-labels-idx1-ubyte").write_bytes(label_fixture([0, 1, 2]))
        with pytest.raises(ValueError, match="training pair disagrees"):
            load_splits_from_dir(d, 3, 2)

    def test_label_out_of_range_rejected(self, tmp_path):
        d = write_pair_dir(tmp_path)
        (d / "train-labels-idx1-ubyte").write_bytes(
            label_fixture([0, 1, 2, 3, 4, 77]))
        with pytest.raises(ValueError, match="digit classes"):
            load_splits_from_dir(d, 4, 2)

    def test_missing_file_reported(self, tmp_path):
        d = write_pair_dir(tmp_path)
        (d / "train-images-idx3-ubyte").unlink()
        with pytest.raises(FileNotFoundError, match="train-images-idx3-ubyte"):
            find_standard_files(d)

    def test_load_test_set(self, tmp_path):
        d = write_pair_dir(tmp_path)
        test = load_test_set(d)
        assert len(test) == 4
        assert len(load_test_set(d, size=3)) == 3
        for load in (lambda size: load_test_set(d, size),
                     lambda size: load_splits_from_dir(d, 3, 2, size)):
            with pytest.raises(ValueError, match="test_size 99 exceeds the 4 "
                                                 "available test examples"):
                load(99)
            with pytest.raises(ValueError, match="test_size must be >= 1, got 0"):
                load(0)

    def test_empty_test_pair_rejected_by_name(self, tmp_path):
        d = write_pair_dir(tmp_path, n_test=0)
        message = (r"test pair .*t10k-images-idx3-ubyte\.gz holds no "
                   r"examples$")
        for load in (lambda: load_test_set(d),
                     lambda: load_splits_from_dir(d, 3, 2)):
            with pytest.raises(ValueError, match=message):
                load()


class TestSyntheticCorpus:
    def test_generation_deterministic(self):
        a_img, a_lab = generate_corpus(50, RngStream(31, 0))
        b_img, b_lab = generate_corpus(50, RngStream(31, 0))
        assert (a_img == b_img).all() and (a_lab == b_lab).all()

    def test_shapes_and_ranges(self):
        img, lab = generate_corpus(80, RngStream(32, 0))
        assert img.shape == (80, 28, 28) and img.dtype == np.uint8
        assert lab.min() >= 0 and lab.max() <= 9
        # glyphs against dim noise: plenty of both dark and bright pixels
        assert (img > 100).any(axis=(1, 2)).all()

    def test_write_corpus_round_trips(self, tmp_path):
        out = write_corpus(tmp_path / "c", 30, 12, seed=55)
        splits = load_splits_from_dir(out, 20, 10)
        assert len(splits.train) == 20
        assert len(splits.validation) == 10
        assert len(splits.test) == 12
        for name in ("train-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            raw = (out / name).read_bytes()
            assert serialize_idx(parse_idx(raw)) == raw

    def test_failed_write_leaves_no_file_at_its_name(self, tmp_path,
                                                     monkeypatch):
        real, paths = synthetic.write_atomic, []

        def payload_fails_second_time(path, header, payload):
            paths.append(path)
            # the header goes into <path>.tmp, then the payload write raises
            real(path, header, payload if len(paths) != 2 else object())

        monkeypatch.setattr(synthetic, "write_atomic", payload_fails_second_time)
        with pytest.raises(TypeError):
            write_corpus(tmp_path, 30, 12, seed=55)
        assert len(paths) == 2 and not paths[1].exists()
        assert [p.name for p in tmp_path.iterdir()] == [paths[0].name]

    def test_corpus_dir_fixture_full_invariants(self, data_dir):
        # full-file scan of the session corpus: labels in range, pixels
        # normalized into the unit interval
        splits = load_splits_from_dir(data_dir, 5000, 1000)
        for ds in splits:
            assert ds.labels.min() >= 0 and ds.labels.max() <= 9
            assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
