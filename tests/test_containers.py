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
    CKPT_MAGIC,
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
# offsets in field_file's container: magic, version, echo_len, the empty
# echo and n_tensors, then each tensor in name order (name_len, name, rank,
# dims, data): cadence (), length (2,), and snapshots (S, C, *points) last
SNAPSHOT_DIMS = (8 + 4 + 8 + 4) + (4 + 7 + 1 + 8) + (4 + 6 + 1 + 8 + 8 * 2) + (4 + 9 + 1)
POINTS = SNAPSHOT_DIMS + 8 * 2  # points[0]
FIELD_HEADER = SNAPSHOT_DIMS + 8 * 4  # the first payload byte
# cadence and snapshot count outside what the reader accepts
BAD_HEADERS = [(math.nan, 2), (math.inf, 2), (0.0, 2), (-0.5, 2), (0.5, 0)]


def container_bytes(magic, echo, tensors):
    """A container laid out by hand from the format: tensors is a list of
    (name, array) pairs in the order they are written."""
    body = struct.pack("<Q", len(echo)) + echo + struct.pack("<I", len(tensors))
    for name, data in tensors:
        data = np.asarray(data, dtype=np.float64)
        body += struct.pack("<I", len(name)) + name + struct.pack("<B", data.ndim)
        body += struct.pack(f"<{data.ndim}Q", *data.shape) + data.astype("<f8").tobytes()
    return magic + struct.pack("<I", 2) + body + struct.pack("<I", zlib.crc32(body))


def dataset_bytes(snaps, length=GRID.length, cadence=0.5):
    """A dataset container with a valid CRC, whatever the values it holds."""
    return container_bytes(FIELD_MAGIC, b"", [(b"cadence", cadence), (b"length", length),
                                              (b"snapshots", snaps)])


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
        # snapshots of rank ndim + 2, with as many lengths, under a valid CRC
        path = tmp_path / "f.sino"
        for ndim in (0, 1, 4):
            path.write_bytes(dataset_bytes(np.zeros((2, 1) + (4,) * ndim), length=[1.0] * ndim))
            with pytest.raises(ContainerError, match="ndim"):
                read_field_container(path)

    @pytest.mark.parametrize("cadence, snapshots", BAD_HEADERS)
    def test_header_values_outside_the_crc(self, tmp_path, cadence, snapshots):
        # a valid CRC vouches for the bytes, not the values: another writer's
        # file may hold them, and a NaN cadence fails every later test
        path = tmp_path / "f.sino"
        path.write_bytes(dataset_bytes(np.zeros((snapshots, 1) + GRID.points), cadence=cadence))
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
        (POINTS, 2**63),           # points[0]: the payload cannot fit
        (POINTS, 2**64 - 2),       # a product that wraps in 64-bit arithmetic
        (SNAPSHOT_DIMS, 2**62),    # snapshots
        (POINTS, 5),               # an odd point count is no grid
    ], ids=["points-2^63", "points-2^64-2", "snapshots-2^62", "points-5"])
    def test_implausible_counts(self, tmp_path, offset, value):
        path, _ = field_file(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<Q", blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError):
            read_field_container(path)

    @pytest.mark.parametrize("dims", [(0, 2**63, 4, 6), (0, 2**62, 2**62, 6)])
    def test_a_shape_numpy_cannot_make(self, tmp_path, dims):
        # no elements, so the file holds the data, yet numpy makes no such array
        path, _ = field_file(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<4Q", blob, SNAPSHOT_DIMS, *dims)
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="no array has the declared shape"):
            read_field_container(path)

    @pytest.mark.parametrize("tensors", [
        [(b"cadence", 0.5), (b"snapshots", np.zeros((2, 1) + GRID.points))],
        [(b"cadence", [0.5]), (b"length", GRID.length), (b"snapshots", np.zeros((2, 1, 4, 6)))],
        [(b"cadence", 0.5), (b"length", (1.0,) * 3), (b"snapshots", np.zeros((2, 1, 4, 6)))],
        [(b"cadence", 0.5), (b"length", GRID.length), (b"snapshots", np.zeros((2, 1, 4, 6))),
         (b"step", 3.0)],
    ], ids=["no-length", "cadence-of-rank-1", "3-lengths-for-2d", "extra-tensor"])
    def test_a_dataset_is_its_three_tensors(self, tmp_path, tensors):
        path = tmp_path / "f.sino"
        path.write_bytes(container_bytes(FIELD_MAGIC, b"", tensors))
        with pytest.raises(ContainerError, match="a dataset holds snapshots"):
            read_field_container(path)

    def test_an_infinite_length_is_no_grid(self, tmp_path):
        # under a valid CRC, as another writer's file may hold it
        path = tmp_path / "f.sino"
        path.write_bytes(dataset_bytes(np.zeros((2, 1) + GRID.points), length=(math.inf, 1.0)))
        with pytest.raises(ContainerError, match="bad grid: domain length must be finite"):
            read_field_container(path)


    def test_zero_channels_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="C >= 1"):
            write_field_container(tmp_path / "f.sino", GRID, 0.5, np.zeros((3, 0) + GRID.points))
        assert list(tmp_path.iterdir()) == []
        # the same block in a file with a valid CRC
        path = tmp_path / "f.sino"
        path.write_bytes(dataset_bytes(np.zeros((3, 0) + GRID.points)))
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
        assert path.read_bytes() == dataset_bytes(snaps)
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
    def test_file_bytes_follow_the_format(self, tmp_path):
        # names in order, a float32 and a Fortran-ordered tensor stored as
        # C-ordered float64, and a scalar of rank 0
        fortran = np.arange(6.0).reshape(3, 2).T
        path = tmp_path / "c.sino"
        write_checkpoint(path, "case: é\n", {"step": np.array(3.0), "b": fortran,
                                               "a.w": np.ones(4, np.float32)})
        assert path.read_bytes() == container_bytes(
            CKPT_MAGIC, "case: é\n".encode("utf-8"),
            [(b"a.w", np.ones(4)), (b"b", np.ascontiguousarray(fortran)), (b"step", 3.0)])
        echo, tensors = read_checkpoint(path)
        assert echo == "case: é\n" and list(tensors) == ["a.w", "b", "step"]
        assert all(t.dtype == np.float64 and t.flags.c_contiguous for t in tensors.values())
        assert np.array_equal(tensors["b"], fortran) and tensors["step"].shape == ()

    def test_tensors_are_held_once(self, tmp_path):
        # as for a dataset's payload: the writer hands each array's buffer
        # to the file and the CRC, the reader reads into the arrays it returns
        rng = np.random.default_rng(7)
        tensors = {f"t{i}": rng.standard_normal((64, 256)) for i in range(10)}
        nbytes = sum(t.nbytes for t in tensors.values())
        path = tmp_path / "c.sino"
        for run in ("write", "read"):
            tracemalloc.start()
            try:
                if run == "write":
                    write_checkpoint(path, "case: x\n", tensors)
                else:
                    _, back = read_checkpoint(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = 0.1 if run == "write" else 1.1
            assert peak <= bound * nbytes, f"{run} peaked at {peak / nbytes:.2f}x"
        assert all(np.array_equal(back[k], tensors[k]) for k in tensors)

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


@pytest.mark.parametrize("make, read", [
    (lambda tmp_path: field_file(tmp_path)[0], read_field_container),
    (checkpoint_file, read_checkpoint),
], ids=["dataset", "checkpoint"])
def test_every_single_bit_flip_raises_container_error(tmp_path, make, read):
    # the magic and version are checked first and the CRC covers the rest;
    # a dataset's CRC once covered its payload alone, and a flip in a domain
    # length or the cadence read back as another grid or cadence
    blob = make(tmp_path).read_bytes()
    path = tmp_path / "flipped.sino"
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << bit % 8
        path.write_bytes(bytes(flipped))
        with pytest.raises(ContainerError):
            read(path)


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

    def test_a_version_1_file_exits_4(self, tmp_path, capsys):
        # containers written before the version 2 layout are not read
        data = tmp_path / "data"
        data.mkdir()
        path, _ = field_file(data, "train_000.sino")
        ckpt = checkpoint_file(tmp_path)
        for p in (path, ckpt):
            p.write_bytes(p.read_bytes()[:8] + struct.pack("<I", 1) + p.read_bytes()[12:])
        (data / "manifest.txt").write_text("config x\n")
        assert cli.main(["train", "--preset", "E6-desk", "--out", str(tmp_path)]) == 4
        assert "unsupported version 1" in capsys.readouterr().err
        assert cli.main(["evaluate", "--preset", "E6-desk", "--out", str(tmp_path),
                         "--checkpoint", str(ckpt)]) == 4
        assert "unsupported version 1" in capsys.readouterr().err

    def test_manifest_tells_files_apart(self, tmp_path):
        # same grid, length and header, different payloads: a whole-file
        # CRC-32 over payload + crc32(payload) is the same for all of them
        files = [field_file(tmp_path, f"train_{i:03d}.sino", seed=i)[0] for i in range(3)]
        cli._write_manifest(tmp_path, presets()["E6-desk"], files)
        lines = (tmp_path / "manifest.txt").read_text().splitlines()[1:]
        digests = [line.split()[0] for line in lines]
        assert [line.split()[1] for line in lines] == [f.name for f in files]
        assert len(set(digests)) == 3
