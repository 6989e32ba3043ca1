import hashlib
import os

import numpy as np
import pytest

from rtdrng.bits import (
    MAGIC,
    BitFileError,
    BitStream,
    BitWriter,
    read_bits,
    write_bits,
)
from rtdrng.sidecar import output_file


def payload(stream, tmp_path):
    """The packed bytes that write_bits writes after the 16-byte header."""
    path = tmp_path / "payload.bits"
    write_bits(path, stream)
    return path.read_bytes()[16:]


class TestBitStream:
    def test_msb_first_packing(self, tmp_path):
        stream = BitStream.from_array(np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
        assert payload(stream, tmp_path) == b"\x80"

    def test_partial_byte_zero_padded(self, tmp_path):
        stream = BitStream.from_array(np.array([1, 1, 1], dtype=np.uint8))
        assert payload(stream, tmp_path) == b"\xe0"
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

    def test_accepts_bool_int_and_float_zero_one(self, tmp_path):
        for values in ([True, False, True], [1, 0, 1], np.array([1.0, 0.0, 1.0])):
            assert payload(BitStream.from_array(values), tmp_path) == b"\xa0"

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
        packer = BitWriter(length)
        for lo in range(0, length, chunk):
            packer.append(bits[lo : lo + chunk].astype(bool))
        assert packer.stream() == BitStream.from_array(bits)

    def test_packer_requires_exact_length(self):
        packer = BitWriter(9)
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

    def test_range_read_past_a_cut_raises(self, tmp_path):
        # the file passes every check at open and is cut afterwards: a range
        # read that reaches past the cut refuses, never returns fewer bytes
        path = tmp_path / "x.bits"
        write_bits(path, BitStream.from_array(np.ones(800, dtype=np.uint8)))
        stream = read_bits(path)
        os.truncate(path, 16 + 50)
        assert np.array_equal(stream._unpack(0, 400), np.ones(400, dtype=np.uint8))
        with pytest.raises(BitFileError, match="cut short of its 100 payload bytes"):
            stream._unpack(392, 408)
        with pytest.raises(BitFileError):
            stream.ones_fraction()

    def test_stream_outlives_a_replaced_file(self, tmp_path):
        # the payload is read from the file as opened, so a new file written
        # over the path, or the stream written back to it, reads the old bits
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 5000, dtype=np.uint8)
        path = tmp_path / "x.bits"
        write_bits(path, BitStream.from_array(bits))
        stream = read_bits(path)
        write_bits(path, stream)
        assert np.array_equal(read_bits(path).to_array(), bits)
        write_bits(path, BitStream.from_array(1 - bits))
        assert np.array_equal(stream.to_array(), bits)


class TestBitFile:
    """A BitWriter packing into a file from output_file, as generate and extract use it."""

    @pytest.mark.parametrize("chunk", [1, 7, 257])
    @pytest.mark.parametrize("length", [0, 1, 8, 1000, 1001])
    def test_writes_what_write_bits_writes(self, tmp_path, chunk, length):
        bits = (np.random.default_rng(length).random(length) < 0.5).astype(np.uint8)
        write_bits(tmp_path / "whole.bits", BitStream.from_array(bits))
        with output_file(tmp_path / "x.bits") as fh:
            writer = BitWriter(length, fh)
            for lo in range(0, length, chunk):
                writer.append(bits[lo : lo + chunk].astype(bool))
            stream = writer.stream()
        data = (tmp_path / "x.bits").read_bytes()
        assert data == (tmp_path / "whole.bits").read_bytes()
        assert fh.sha256 == hashlib.sha256(data).hexdigest()
        assert stream == BitStream.from_array(bits)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["whole.bits", "x.bits"]

    def test_failed_block_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "x.bits"
        write_bits(path, BitStream.from_array(np.ones(9, dtype=np.uint8)))
        old = path.read_bytes()
        with pytest.raises(RuntimeError, match="stage failed"):
            with output_file(path) as fh:
                BitWriter(100, fh).append(np.zeros(60, dtype=np.uint8))
                raise RuntimeError("stage failed")
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["x.bits"]

    def test_short_stream_is_not_written(self, tmp_path):
        with pytest.raises(ValueError, match="packed 8 of 9 bits"):
            with output_file(tmp_path / "x.bits") as fh:
                writer = BitWriter(9, fh)
                writer.append(np.ones(8, dtype=np.uint8))
                writer.stream()
        assert list(tmp_path.iterdir()) == []
