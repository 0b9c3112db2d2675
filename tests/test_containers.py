import math
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from sino import cli
from sino.config import presets
from sino.containers import (
    FIELD_MAGIC,
    read_checkpoint,
    read_field_container,
    write_checkpoint,
    write_field_container,
    write_lines,
)
from sino.errors import ContainerError
from sino.spectral import GridSpec

GRID = GridSpec(points=(4, 6), length=(2 * math.pi, 1.0))
# magic, version, ndim, channels, points, lengths, snapshots, cadence
FIELD_HEADER = 8 + 4 + 1 + 4 + 8 * 2 + 8 * 2 + 8 + 8
# cadence and snapshot count outside what the reader accepts
BAD_HEADERS = [(math.nan, 2), (math.inf, 2), (0.0, 2), (-0.5, 2), (0.5, 0)]


def field_file(tmp_path, name="f.sino", seed=0):
    snaps = np.random.default_rng(seed).standard_normal((2, 1) + GRID.points)
    path = tmp_path / name
    write_field_container(path, GRID, 0.5, snaps)
    return path, snaps


def checkpoint_file(tmp_path):
    path = tmp_path / "c.sino"
    write_checkpoint(path, "case: x\n", {"a.w": np.arange(6.0).reshape(2, 3), "step": np.array(3.0)})
    return path


def cut(path, n):
    blob = path.read_bytes()
    out = path.with_name(f"cut{n}.sino")
    out.write_bytes(blob[:n])
    return out


class TestFieldContainer:
    def test_roundtrip(self, tmp_path):
        path, snaps = field_file(tmp_path)
        grid, cadence, back = read_field_container(path)
        assert grid == GRID and cadence == 0.5
        assert np.array_equal(back, snaps)

    def test_every_truncation_raises_container_error(self, tmp_path):
        path, _ = field_file(tmp_path)
        size = path.stat().st_size
        assert size > FIELD_HEADER
        for n in range(size):
            with pytest.raises(ContainerError):
                read_field_container(cut(path, n))

    def test_bad_ndim(self, tmp_path):
        path, _ = field_file(tmp_path)
        blob = bytearray(path.read_bytes())
        for ndim in (0, 1, 4, 255):
            blob[12] = ndim
            path.write_bytes(bytes(blob))
            with pytest.raises(ContainerError, match="ndim"):
                read_field_container(path)

    @pytest.mark.parametrize("cadence, snapshots", BAD_HEADERS)
    def test_header_values_outside_the_crc(self, tmp_path, cadence, snapshots):
        # the CRC covers the payload only, and a NaN cadence fails every later test
        path, _ = field_file(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<Qd", blob, 49, snapshots, cadence)
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="finite positive cadence and a snapshot"):
            read_field_container(path)

    @pytest.mark.parametrize("cadence, snapshots", BAD_HEADERS)
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, cadence, snapshots):
        with pytest.raises(ValueError):
            write_field_container(tmp_path / "f.sino", GRID, cadence,
                                  np.zeros((snapshots, 1) + GRID.points))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", [
        lambda path: write_lines(path, ["a,b", "1,2"]),
        lambda path: write_field_container(path, GRID, 0.5, np.zeros((1, 1) + GRID.points)),
    ], ids=["write_lines", "write_field_container"])
    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch, write):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path / "out")
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_a_flipped_payload_byte_fails_the_crc(self, tmp_path):
        path, _ = field_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[FIELD_HEADER + 5] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="payload CRC mismatch"):
            read_field_container(path)

    @pytest.mark.parametrize("offset, value", [
        (17, 2**63),           # points[0]: the payload cannot fit
        (17, 2**64 - 2),       # a product that wraps in 64-bit arithmetic
        (49, 2**62),           # snapshots
        (17, 5),               # an odd point count is no grid
    ])
    def test_implausible_counts(self, tmp_path, offset, value):
        path, _ = field_file(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<Q", blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError):
            read_field_container(path)

    def test_an_infinite_length_is_no_grid(self, tmp_path):
        # lengths[0] follows the two point counts; the payload CRC does not cover it
        path, _ = field_file(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, 33, math.inf)
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="bad grid: domain length must be finite"):
            read_field_container(path)


    def test_zero_channels_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="C >= 1"):
            write_field_container(tmp_path / "f.sino", GRID, 0.5, np.zeros((3, 0) + GRID.points))
        assert list(tmp_path.iterdir()) == []
        # the header of a valid file, its channel count set to 0, and the CRC
        # of the empty payload that header declares
        path, _ = field_file(tmp_path)
        header = bytearray(path.read_bytes()[:FIELD_HEADER])
        struct.pack_into("<I", header, 13, 0)
        path.write_bytes(bytes(header) + struct.pack("<I", zlib.crc32(b"")))
        with pytest.raises(ContainerError, match="needs a channel"):
            read_field_container(path)

    @pytest.mark.parametrize("junk", [b"\x00", b"trailing bytes"])
    def test_bytes_after_the_crc_are_refused(self, tmp_path, junk):
        path, _ = field_file(tmp_path)
        path.write_bytes(path.read_bytes() + junk)
        with pytest.raises(ContainerError, match=f"{len(junk)} trailing bytes after the CRC"):
            read_field_container(path)

    @pytest.mark.parametrize("snaps", [
        np.random.default_rng(3).standard_normal((2, 1) + GRID.points),
        np.random.default_rng(4).standard_normal((2, 3) + GRID.points).astype(np.float32),
        np.random.default_rng(5).standard_normal(GRID.points[::-1] + (2, 2)).T,
    ], ids=["float64", "float32", "fortran-ordered"])
    def test_file_bytes_follow_the_format(self, tmp_path, snaps):
        path = tmp_path / "f.sino"
        write_field_container(path, GRID, 0.5, snaps)
        payload = np.ascontiguousarray(snaps, dtype=np.float64).astype("<f8").tobytes()
        expected = (FIELD_MAGIC + struct.pack("<IBI", 1, 2, snaps.shape[1])
                    + struct.pack("<2Q2d", *GRID.points, *GRID.length)
                    + struct.pack("<Qd", len(snaps), 0.5)
                    + payload + struct.pack("<I", zlib.crc32(payload)))
        assert path.read_bytes() == expected
        _, _, back = read_field_container(path)
        assert back.dtype == np.float64 and back.flags.c_contiguous
        assert back.tobytes() == np.asarray(snaps, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("offset", [FIELD_HEADER, -5], ids=["first", "last"])
    def test_the_payload_ends_fail_the_crc(self, tmp_path, offset):
        path, _ = field_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="payload CRC mismatch"):
            read_field_container(path)

    def test_the_payload_is_held_once(self, tmp_path):
        # the writer hands the array's buffer to the file and the CRC, the
        # reader reads into the array it returns: no copy of the payload
        grid = GridSpec(points=(64, 64), length=(1.0, 1.0))
        snaps = np.random.default_rng(6).standard_normal((5, 2) + grid.points)
        path = tmp_path / "f.sino"
        for run in ("write", "read"):
            tracemalloc.start()
            try:
                if run == "write":
                    write_field_container(path, grid, 0.5, snaps)
                else:
                    _, _, back = read_field_container(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = 0.1 if run == "write" else 1.1
            assert peak <= bound * snaps.nbytes, f"{run} peaked at {peak / snaps.nbytes:.2f}x"
        assert np.array_equal(back, snaps)

class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        echo, tensors = read_checkpoint(checkpoint_file(tmp_path))
        assert echo == "case: x\n"
        assert np.array_equal(tensors["a.w"], np.arange(6.0).reshape(2, 3))
        assert tensors["step"].shape == () and tensors["step"] == 3.0

    def test_every_truncation_raises_container_error(self, tmp_path):
        path = checkpoint_file(tmp_path)
        for n in range(path.stat().st_size):
            with pytest.raises(ContainerError):
                read_checkpoint(cut(path, n))

    @pytest.mark.parametrize("old, new, named", [
        (b"a.w", b"a\xffw", "a tensor name is not valid UTF-8"),
        (b"case: x", b"case: \xff", "the config echo is not valid UTF-8"),
        (b"b.w", b"a.w", "tensor 'a.w' appears twice"),
    ], ids=["name-not-utf8", "echo-not-utf8", "repeated-name"])
    def test_a_bad_body_under_a_valid_crc(self, tmp_path, old, new, named):
        # byte 0xff in a name raised UnicodeDecodeError, which exited 2, and a
        # repeated name silently kept the last of its tensors
        path = tmp_path / "c.sino"
        write_checkpoint(path, "case: x\n", {"a.w": np.zeros(2), "b.w": np.ones(2)})
        blob = path.read_bytes()
        assert blob.count(old) == 1
        body = blob[12:-4].replace(old, new)
        path.write_bytes(blob[:12] + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(ContainerError, match=named):
            read_checkpoint(path)


class TestCli:
    def test_truncated_container_exits_4(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        path, _ = field_file(data, "train_000.sino")
        cut(path, 30).replace(path)
        (data / "manifest.txt").write_text("config x\n")
        assert cli.main(["train", "--preset", "E6-desk", "--out", str(tmp_path)]) == 4
        assert "truncated" in capsys.readouterr().err

    def test_corrupt_payload_exits_4(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        path, _ = field_file(data, "train_000.sino")
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0x80  # the payload's last byte, before its CRC
        path.write_bytes(bytes(blob))
        (data / "manifest.txt").write_text("config x\n")
        assert cli.main(["train", "--preset", "E6-desk", "--out", str(tmp_path)]) == 4
        assert "payload CRC mismatch" in capsys.readouterr().err

    def test_manifest_tells_files_apart(self, tmp_path):
        # same grid, length and header, different payloads: a whole-file
        # CRC-32 over payload + crc32(payload) is the same for all of them
        files = [field_file(tmp_path, f"train_{i:03d}.sino", seed=i)[0] for i in range(3)]
        cli._write_manifest(tmp_path, presets()["E6-desk"], files)
        lines = (tmp_path / "manifest.txt").read_text().splitlines()[1:]
        digests = [line.split()[0] for line in lines]
        assert [line.split()[1] for line in lines] == [f.name for f in files]
        assert len(set(digests)) == 3
