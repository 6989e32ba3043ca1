import numpy as np
import pytest

from rtdrng.bits import (
    MAGIC,
    BitFileError,
    BitStream,
    _Packer,
    read_bits,
    write_bits,
)


class TestBitStream:
    def test_msb_first_packing(self):
        stream = BitStream.from_array(np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
        assert stream.to_bytes() == b"\x80"

    def test_partial_byte_zero_padded(self):
        stream = BitStream.from_array(np.array([1, 1, 1], dtype=np.uint8))
        assert stream.to_bytes() == b"\xe0"
        assert len(stream) == 3

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = (rng.random(1000) < 0.5).astype(np.uint8)
        stream = BitStream.from_array(bits)
        assert np.array_equal(stream.to_array(), bits)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitStream.from_array(np.array([0, 1, 2], dtype=np.uint8))

    @pytest.mark.parametrize("bad", [np.array([0, 256]), np.array([1, -255]), np.array([0.5, 1.0])])
    def test_rejects_values_the_uint8_cast_would_hide(self, bad):
        # 256 wraps to 0, -255 to 1 and 0.5 truncates to 0 under the cast
        with pytest.raises(ValueError, match="0 or 1"):
            BitStream.from_array(bad)

    def test_accepts_bool_int_and_float_zero_one(self):
        for values in ([True, False, True], [1, 0, 1], np.array([1.0, 0.0, 1.0])):
            assert BitStream.from_array(values).to_bytes() == b"\xa0"

    def test_rejects_dirty_padding(self):
        with pytest.raises(ValueError):
            BitStream(np.array([0xFF], dtype=np.uint8), 3)

    def test_equality(self):
        a = BitStream.from_array(np.array([1, 0, 1], dtype=np.uint8))
        b = BitStream.from_array(np.array([1, 0, 1], dtype=np.uint8))
        c = BitStream.from_array(np.array([1, 0, 1, 0], dtype=np.uint8))
        assert a == b
        assert a != c

    def test_ones_fraction(self):
        stream = BitStream.from_array(np.array([1, 0, 1, 1], dtype=np.uint8))
        assert stream.ones_fraction() == pytest.approx(0.75)


class TestUnpackAndPack:
    def test_unpack_matches_to_array_on_unaligned_ranges(self):
        rng = np.random.default_rng(2)
        bits = (rng.random(1003) < 0.5).astype(np.uint8)
        stream = BitStream.from_array(bits)
        ranges = [(0, 0), (0, 1003), (1003, 1003), (7, 8), (8, 16), (995, 1003)]
        for _ in range(200):
            start = int(rng.integers(0, 1004))
            ranges.append((start, int(rng.integers(start, 1004))))
        for start, stop in ranges:
            assert np.array_equal(stream._unpack(start, stop), stream.to_array()[start:stop])

    @pytest.mark.parametrize("start, stop", [(-1, 4), (5, 4), (0, 11)])
    def test_unpack_rejects_ranges_outside_the_stream(self, start, stop):
        with pytest.raises(ValueError):
            BitStream.from_array(np.ones(10, dtype=np.uint8))._unpack(start, stop)

    @pytest.mark.parametrize("chunk", [1, 7, 257])
    @pytest.mark.parametrize("length", [0, 1, 8, 1000, 1001])
    def test_packer_is_chunk_invariant(self, chunk, length):
        bits = (np.random.default_rng(length).random(length) < 0.5).astype(np.uint8)
        packer = _Packer(length)
        for lo in range(0, length, chunk):
            packer.append(bits[lo : lo + chunk].astype(bool))
        assert packer.stream() == BitStream.from_array(bits)

    def test_packer_requires_exact_length(self):
        packer = _Packer(9)
        packer.append(np.ones(8, dtype=np.uint8))
        with pytest.raises(ValueError):
            packer.stream()
        with pytest.raises(ValueError):
            packer.append(np.ones(2, dtype=np.uint8))


class TestFileFormat:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        bits = (rng.random(12345) < 0.5).astype(np.uint8)
        stream = BitStream.from_array(bits)
        path = tmp_path / "x.bits"
        write_bits(path, stream)
        assert read_bits(path) == stream

    def test_layout(self, tmp_path):
        path = tmp_path / "x.bits"
        write_bits(path, BitStream.from_array(np.ones(8, dtype=np.uint8)))
        data = path.read_bytes()
        assert data[:8] == MAGIC
        assert int.from_bytes(data[8:16], "little") == 8
        assert data[16:] == b"\xff"
        assert len(data) == 17

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bits"
        path.write_bytes(b"WRONGMAG" + (0).to_bytes(8, "little"))
        with pytest.raises(BitFileError):
            read_bits(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.bits"
        path.write_bytes(MAGIC + (64).to_bytes(8, "little") + b"\x00")
        with pytest.raises(BitFileError):
            read_bits(path)

    def test_overlong_payload(self, tmp_path):
        path = tmp_path / "x.bits"
        path.write_bytes(MAGIC + (8).to_bytes(8, "little") + b"\x00\x00")
        with pytest.raises(BitFileError, match="holds 2 bytes, expected 1"):
            read_bits(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.bits"
        path.write_bytes(b"RTD")
        with pytest.raises(BitFileError):
            read_bits(path)

    def test_dirty_padding_rejected(self, tmp_path):
        path = tmp_path / "x.bits"
        path.write_bytes(MAGIC + (3).to_bytes(8, "little") + b"\xff")
        with pytest.raises(BitFileError):
            read_bits(path)
