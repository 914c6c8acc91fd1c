import pathlib
import struct
import tracemalloc

import numpy as np
import pytest

from resprop.network import chain_specs, init_params
from resprop.optimizers import RpropConfig, init_rprop_state
from resprop.serialization import MAGIC, VERSION, load_checkpoint, save_checkpoint
from resprop.tensor import RngStream


@pytest.fixture
def params():
    p = init_params(chain_specs((4, 6, 3), hidden_activation="rectifier"),
                    RngStream(21, 0))
    for b in p.biases:
        b[:] = RngStream(22, 0).uniform(-1, 1, size=b.shape)
    return p


def assert_params_equal(a, b):
    assert a.specs == b.specs
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.dtype == np.float64
        assert (x == y).all()


class TestRoundTrip:
    def test_params_only(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded, state, cfg = load_checkpoint(path)
        assert_params_equal(loaded, params)
        assert state is None and cfg is None

    def test_full_state(self, tmp_path, params):
        cfg = RpropConfig(eta_plus=1.3, eta_minus=0.6, delta_max=5.0,
                          delta_min=1e-3, delta_init=0.01)
        state = init_rprop_state(params, cfg)
        state.prev_w[0][0, 0] = -0.125
        state.delta_b[1][2] = 4.5
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, params, state, cfg)
        loaded, lstate, lcfg = load_checkpoint(path)
        assert_params_equal(loaded, params)
        for x, y in zip(
            lstate.delta_w + lstate.delta_b + lstate.prev_w + lstate.prev_b,
            state.delta_w + state.delta_b + state.prev_w + state.prev_b,
        ):
            assert (x == y).all()
        assert lcfg == cfg

    def test_save_is_deterministic(self, tmp_path, params):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params)
        save_checkpoint(b, params)
        assert a.read_bytes() == b.read_bytes()


def assert_views_tile(flat, weights, biases):
    """Each layer's weights, then its bias, lie back to back in `flat`."""
    assert flat.ndim == 1 and flat.flags.c_contiguous
    offset = 0
    for w, b in zip(weights, biases, strict=True):
        for view in (w, b):
            assert np.shares_memory(view, flat)
            assert view.ctypes.data == flat.ctypes.data + 8 * offset
            offset += view.size
    assert offset == flat.size


class TestOneBuffer:
    def test_views_follow_checkpoint_order(self, tmp_path, params):
        cfg = RpropConfig()
        state = init_rprop_state(params, cfg)
        assert_views_tile(params.flat, params.weights, params.biases)
        assert_views_tile(state.delta, state.delta_w, state.delta_b)
        assert_views_tile(state.prev, state.prev_w, state.prev_b)
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, params, state, cfg)
        # params payload after 28 header bytes, the section count and
        # the 16-byte section header
        data = path.read_bytes()
        assert data[48:48 + params.flat.nbytes] == params.flat.tobytes()
        loaded, lstate, _ = load_checkpoint(path)
        assert_views_tile(loaded.flat, loaded.weights, loaded.biases)
        assert_views_tile(lstate.prev, lstate.prev_w, lstate.prev_b)

    def test_copies_own_their_buffers(self, params):
        state = init_rprop_state(params, RpropConfig())
        p2, s2 = params.copy(), state.copy()
        assert_views_tile(p2.flat, p2.weights, p2.biases)
        assert_views_tile(s2.delta, s2.delta_w, s2.delta_b)
        assert_views_tile(s2.prev, s2.prev_w, s2.prev_b)
        for a, b in ((p2.flat, params.flat), (s2.delta, state.delta),
                     (s2.prev, state.prev)):
            assert not np.shares_memory(a, b)
            assert a.tobytes() == b.tobytes()


def traced_peak(fn) -> int:
    """The traced peak, in bytes, of the allocations `fn()` makes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _HalfThenFail:
    """A file that writes the first half of the bytes `writelines` is
    given, then fails the way a full disk does."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def writelines(self, chunks):
        data = b"".join(chunks)
        self._f.write(data[:len(data) // 2])
        raise OSError("No space left on device")


def fail_mid_write(monkeypatch, name):
    """Makes writing a file called `name` stop with an error halfway."""
    open_path = pathlib.Path.open

    def open_then_fail(path, mode="r", *args, **kwargs):
        f = open_path(path, mode, *args, **kwargs)
        return _HalfThenFail(f) if path.name == name else f

    monkeypatch.setattr(pathlib.Path, "open", open_then_fail)


class TestInterruptedSave:
    def test_earlier_checkpoint_stays_whole(self, tmp_path, params,
                                            monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        before = path.read_bytes()
        params.weights[0][0, 0] += 1.0
        fail_mid_write(monkeypatch, "model.ckpt.tmp")
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, params, init_rprop_state(params, RpropConfig()))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_first_save_leaves_no_file(self, tmp_path, params, monkeypatch):
        fail_mid_write(monkeypatch, "model.ckpt.tmp")
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(tmp_path / "model.ckpt", params)
        assert list(tmp_path.iterdir()) == []


class TestStreamedSave:
    def test_save_holds_no_copy_of_a_section(self, tmp_path):
        # A 784-300-100-10 model buffer is 2.13 MB. Joining the sections
        # into one payload held three copies of all three (19.2 MB).
        params = init_params(chain_specs((784, 300, 100, 10)), RngStream(1, 0))
        cfg = RpropConfig()
        state = init_rprop_state(params, cfg)
        peak = traced_peak(lambda: save_checkpoint(tmp_path / "model.ckpt",
                                                   params, state, cfg))
        assert peak < params.flat.nbytes, peak


class TestByteLayout:
    def test_header_bytes(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = path.read_bytes()
        assert data[:4] == MAGIC == b"RPN1"
        version, n_layers = struct.unpack_from("<HI", data, 4)
        assert version == VERSION == 1
        assert n_layers == 2
        fan_in, fan_out, act = struct.unpack_from("<IIB", data, 10)
        assert (fan_in, fan_out, act) == (4, 6, 1)  # rectifier encodes as 1

    def test_params_section_layout(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = path.read_bytes()
        # header: 4 magic + 6 counts + 2 layers x 9 = 28, then sections
        (n_sections,) = struct.unpack_from("<I", data, 28)
        assert n_sections == 1
        assert data[32:40] == b"params  "
        (length,) = struct.unpack_from("<Q", data, 40)
        assert length == (4 * 6 + 6 + 6 * 3 + 3) * 8
        first_weight = struct.unpack_from("<d", data, 48)[0]
        assert first_weight == params.weights[0][0, 0]

    def test_file_size_is_exact(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        n_floats = sum(w.size + b.size for w, b in
                       zip(params.weights, params.biases))
        assert path.stat().st_size == 28 + 4 + 16 + n_floats * 8


class TestRobustness:
    def test_unknown_sections_skipped(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        extra = b"future  " + struct.pack("<Q", 3) + b"xyz"
        struct.pack_into("<I", data, 28, 2)
        path.write_bytes(bytes(data) + extra)
        loaded, state, cfg = load_checkpoint(path)
        assert_params_equal(loaded, params)

    def test_repeated_unknown_section_skipped(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        extra = b"future  " + struct.pack("<Q", 3) + b"xyz"
        struct.pack_into("<I", data, 28, 3)
        path.write_bytes(bytes(data) + extra + extra)
        loaded, state, cfg = load_checkpoint(path)
        assert_params_equal(loaded, params)

    def test_bad_magic_rejected(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version 99"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="does not match|truncated"):
            load_checkpoint(path)

    def test_missing_params_section_rejected(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        data[32:40] = b"unknown "
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="missing its params"):
            load_checkpoint(path)

    def test_unknown_activation_code_rejected(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        data[18] = 42  # activation byte of the first layer spec
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="activation code 42"):
            load_checkpoint(path)

    def test_every_truncation_is_a_value_error(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        cfg = RpropConfig()
        save_checkpoint(path, params, init_rprop_state(params, cfg), cfg)
        data = path.read_bytes()
        load_checkpoint(path)
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(ValueError, match="checkpoint"):
                load_checkpoint(path)

    @pytest.mark.parametrize("offset, what", [(8, "header"),
                                              (20, "layer table"),
                                              (30, "section count"),
                                              (40, "section header")])
    def test_truncation_names_the_part_and_byte_offset(self, tmp_path, params,
                                                       offset, what):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:offset])
        with pytest.raises(ValueError, match=f"{what} at byte "):
            load_checkpoint(path)

    def test_rprophp_section_of_wrong_length_rejected(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 28, 2)
        path.write_bytes(bytes(data) + b"rprophp " + struct.pack("<Q", 8)
                         + struct.pack("<d", 1.2))
        with pytest.raises(ValueError, match="rprophp section holds 8 bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("missing", ["delta", "prevgrad"])
    def test_half_of_the_optimizer_state_rejected(self, tmp_path, params,
                                                  missing):
        path = tmp_path / "resume.ckpt"
        cfg = RpropConfig()
        save_checkpoint(path, params, init_rprop_state(params, cfg), cfg)
        data = bytearray(path.read_bytes())
        at = data.index(missing.encode().ljust(8))
        data[at:at + 8] = b"unknown "  # skipped on read like any unknown tag
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"missing its {missing} section"):
            load_checkpoint(path)

    def test_repeated_section_rejected(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 28, 2)
        path.write_bytes(bytes(data) + bytes(data[32:]))  # params, twice
        with pytest.raises(ValueError, match="repeats section 'params'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("section,at", [
        ("params", "layer 1 weights, index (2, 1)"),
        ("delta", "layer 0 biases, index (3,)"),
        ("prevgrad", "layer 0 weights, index (1, 4)"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, params, value,
                                       section, at):
        cfg = RpropConfig()
        state = init_rprop_state(params, cfg)
        array, where = {"params": (params.weights[1], (2, 1)),
                        "delta": (state.delta_b[0], (3,)),
                        "prevgrad": (state.prev_w[0], (1, 4))}[section]
        array[where] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, state, cfg)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == (f"non-finite value in checkpoint section "
                                  f"'{section}' at {at}")
