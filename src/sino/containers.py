"""Binary container formats for datasets and checkpoints.

FieldContainer ("SINODATA", version 1), little-endian:
    magic[8] | version u32 | ndim u8 | channels u32 | points u64*ndim |
    lengths f64*ndim | snapshots u64 | cadence f64 |
    payload f64 (snapshot-major, channel-major, row-major) | crc32(payload) u32

CheckpointContainer ("SINOCKPT", version 1), little-endian:
    magic[8] | version u32 | cfg_len u64 | cfg utf-8 (canonical key-sorted text) |
    n_tensors u32 | { name_len u32 | name utf-8 | rank u8 | dims u64*rank |
    data f64 }* | crc32(everything after version) u32

Every file a run writes (these containers, its CSVs and its manifest) goes
through one writer: a temp file, then an atomic rename, so a job killed
while writing leaves the old file or none, never a truncated one.

A field payload is held once: the writer hands the float64 array's own
buffer to the file and to the CRC, and the reader reads the file straight
into the array it returns.
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from .errors import ContainerError
from .spectral import GridSpec

FIELD_MAGIC = b"SINODATA"
CKPT_MAGIC = b"SINOCKPT"
VERSION = 1


def _atomic_write(path, *parts) -> None:
    """The parts (bytes-like) written in order to a temp file beside path,
    then renamed onto it; a failed write or rename removes the temp file
    and raises."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_lines(path, lines) -> None:
    """The lines joined by LF, with a trailing LF, written atomically."""
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_field_container(path, grid: GridSpec, cadence: float, snaps: np.ndarray) -> None:
    """snaps has shape (snapshots >= 1, channels >= 1, *points); cadence is finite and positive."""
    snaps = np.asarray(snaps, dtype=np.float64)
    if snaps.ndim != grid.dim + 2 or snaps.shape[2:] != grid.points or 0 in snaps.shape[:2]:
        raise ValueError(f"snapshot block must be (S >= 1, C >= 1, {grid.points}), "
                         f"got {snaps.shape}")
    if not 0.0 < cadence < math.inf:  # what read_field_container refuses
        raise ValueError(f"cadence must be finite and positive, got {cadence}")
    header = bytearray()
    header += FIELD_MAGIC
    header += struct.pack("<I", VERSION)
    header += struct.pack("<B", grid.dim)
    header += struct.pack("<I", snaps.shape[1])
    header += struct.pack(f"<{grid.dim}Q", *grid.points)
    header += struct.pack(f"<{grid.dim}d", *grid.length)
    header += struct.pack("<Q", snaps.shape[0])
    header += struct.pack("<d", cadence)
    # the array's own buffer when it is C-ordered little-endian float64
    payload = memoryview(np.ascontiguousarray(snaps, dtype="<f8")).cast("B")
    _atomic_write(path, header, payload, struct.pack("<I", zlib.crc32(payload)))


def _take(blob: bytes, pos: int, size: int, path) -> tuple[bytes, int]:
    """blob[pos:pos+size] and the end offset; ContainerError if the file ends first."""
    end = pos + size
    if end > len(blob):
        raise ContainerError(f"{path}: truncated: {len(blob)} bytes, needs {end}")
    return blob[pos:end], end


def _unpack(fmt: str, blob: bytes, pos: int, path) -> tuple[tuple, int]:
    raw, end = _take(blob, pos, struct.calcsize(fmt), path)
    return struct.unpack(fmt, raw), end


def read_field_container(path) -> tuple[GridSpec, float, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read(13)
        if blob[:8] != FIELD_MAGIC:
            raise ContainerError(f"{path}: bad magic")
        (version, ndim), pos = _unpack("<IB", blob, 8, path)
        if version != VERSION:
            raise ContainerError(f"{path}: unsupported version {version}")
        if ndim not in (2, 3):
            raise ContainerError(f"{path}: ndim {ndim} is not 2 or 3")
        blob += fh.read(4 + 16 * ndim + 16)
        (channels,), pos = _unpack("<I", blob, pos, path)
        if channels < 1:
            raise ContainerError(f"{path}: a field needs a channel, got 0")
        points, pos = _unpack(f"<{ndim}Q", blob, pos, path)
        lengths, pos = _unpack(f"<{ndim}d", blob, pos, path)
        (snapshots, cadence), pos = _unpack("<Qd", blob, pos, path)
        if not 0.0 < cadence < math.inf or snapshots < 1:  # the CRC covers the payload only
            raise ContainerError(f"{path}: need a finite positive cadence and a snapshot, "
                                 f"got cadence {cadence} and {snapshots} snapshots")
        try:
            grid = GridSpec(points=points, length=lengths)
        except ValueError as err:
            raise ContainerError(f"{path}: bad grid: {err}") from err
        # Python integers: a huge declared count cannot wrap round to a small
        # one, and the size is checked before the payload's array is made
        nbytes = 8 * snapshots * channels * grid.n_points
        size, end = os.fstat(fh.fileno()).st_size, pos + nbytes + 4
        if size < end:
            raise ContainerError(f"{path}: truncated: {size} bytes, needs {end}")
        if size > end:
            raise ContainerError(f"{path}: {size - end} trailing bytes after the CRC")
        data = np.empty((snapshots, channels) + grid.points, dtype="<f8")
        payload = memoryview(data).cast("B")
        if fh.readinto(payload) != nbytes:
            raise ContainerError(f"{path}: truncated while reading the payload")
        (crc,), _ = _unpack("<I", fh.read(4), 0, path)
    if crc != zlib.crc32(payload):
        raise ContainerError(f"{path}: payload CRC mismatch")
    return grid, cadence, data.astype(np.float64, copy=False)


def write_checkpoint(path, config_echo: str, tensors: dict[str, np.ndarray]) -> None:
    body = bytearray()
    cfg = config_echo.encode("utf-8")
    body += struct.pack("<Q", len(cfg))
    body += cfg
    body += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        data = np.asarray(tensors[name], dtype=np.float64)
        nb = name.encode("utf-8")
        body += struct.pack("<I", len(nb))
        body += nb
        body += struct.pack("<B", data.ndim)
        body += struct.pack(f"<{data.ndim}Q", *data.shape) if data.ndim else b""
        body += np.ascontiguousarray(data).astype("<f8").tobytes()
    _atomic_write(path, CKPT_MAGIC, struct.pack("<I", VERSION), body,
                  struct.pack("<I", zlib.crc32(body)))


def read_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CKPT_MAGIC:
        raise ContainerError(f"{path}: bad magic")
    (version,), pos = _unpack("<I", blob, 8, path)
    if version != VERSION:
        raise ContainerError(f"{path}: unsupported version {version}")
    _take(blob, pos, 4, path)  # the trailing CRC
    body = blob[pos:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if crc != zlib.crc32(body):
        raise ContainerError(f"{path}: checkpoint CRC mismatch")
    (cfg_len,), pos = _unpack("<Q", body, 0, path)
    config_echo, pos = _take(body, pos, cfg_len, path)
    (n_tensors,), pos = _unpack("<I", body, pos, path)
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,), pos = _unpack("<I", body, pos, path)
        name, pos = _take(body, pos, name_len, path)
        (rank,), pos = _unpack("<B", body, pos, path)
        shape, pos = _unpack(f"<{rank}Q", body, pos, path)
        data, pos = _take(body, pos, 8 * math.prod(shape), path)
        tensors[name.decode("utf-8")] = (
            np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
        )
    if pos != len(body):
        raise ContainerError(f"{path}: trailing bytes in checkpoint body")
    return config_echo.decode("utf-8"), tensors
