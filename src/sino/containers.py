"""Binary containers for datasets and checkpoints: one layout, two magics.

Every container, little-endian:
    magic[8] | version u32 | echo_len u64 | echo utf-8 | n_tensors u32 |
    { name_len u32 | name utf-8 | rank u8 | dims u64*rank | data f64 }* |
    crc32(everything after version) u32

The tensors are written in name order, each C-ordered. The CRC covers every
field but the magic and the version, so a flipped bit anywhere in the echo,
a name, a shape or the data fails it. A magic of the other kind or another
version is refused before anything else is read.

A checkpoint ("SINOCKPT") echoes its run's config (canonical key-sorted
text) and holds the run's tensors. A dataset ("SINODATA") holds one
trajectory: an empty echo and three tensors, snapshots (S >= 1, C >= 1,
*points), length (dim,) and cadence (), with dim 2 or 3, the cadence finite
and positive and the points and lengths a valid GridSpec.

Every file a run writes (these containers, its CSVs and its manifest) goes
through one writer: a temp file, then an atomic rename, so a job killed
while writing leaves the old file or none, never a truncated one.

A tensor is held once: the writer hands the float64 array's own buffer to
the file and to the CRC, and the reader checks each declared size against
the file size, then reads the file straight into the array it returns.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import zlib

import numpy as np

from .errors import ContainerError
from .spectral import GridSpec

FIELD_MAGIC = b"SINODATA"
CKPT_MAGIC = b"SINOCKPT"
VERSION = 2


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


def _write(path, magic: bytes, echo: str, tensors: dict[str, np.ndarray]) -> None:
    """A container of this magic: the echo, then the tensors in name order,
    each array's buffer handed to the running CRC and to the file."""
    raw = echo.encode("utf-8")
    parts = [struct.pack("<Q", len(raw)), raw, struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        # the array's own buffer when it is C-ordered little-endian float64
        data = np.asarray(tensors[name], dtype="<f8", order="C")
        nb = name.encode("utf-8")
        parts += [struct.pack(f"<I{len(nb)}sB{data.ndim}Q", len(nb), nb, data.ndim, *data.shape),
                  data]
    crc = functools.reduce(lambda crc, part: zlib.crc32(part, crc), parts, 0)
    _atomic_write(path, magic, struct.pack("<I", VERSION), *parts, struct.pack("<I", crc))


def _utf8(raw: bytes, what: str, path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ContainerError(f"{path}: {what} is not valid UTF-8: {err}") from None


def _read(path, magic: bytes, what: str) -> tuple[str, dict[str, np.ndarray]]:
    """The echo and tensors of a container of this magic; what names its CRC."""
    with open(path, "rb") as fh:
        size, crc = os.fstat(fh.fileno()).st_size, 0
        if fh.read(8) != magic:
            raise ContainerError(f"{path}: bad magic")
        if (version := int.from_bytes(fh.read(4), "little")) != VERSION:
            raise ContainerError(f"{path}: unsupported version {version}")

        def read(nbytes: int, make=bytearray):
            # Python integers: a huge declared size cannot wrap round to a
            # small one, and the file must hold it and the CRC before
            # make(nbytes) allocates its buffer
            nonlocal crc
            end = fh.tell() + nbytes + 4
            if end > size:
                raise ContainerError(f"{path}: truncated: {size} bytes, needs {end}")
            out = make(nbytes)
            fh.readinto(out)  # a file cut short after fstat fails the CRC
            crc = zlib.crc32(out, crc)
            return out

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        echo = _utf8(read(*unpack("<Q")), "the config echo", path)
        tensors: dict[str, np.ndarray] = {}
        for _ in range(*unpack("<I")):
            name = _utf8(read(*unpack("<I")), "a tensor name", path)
            if name in tensors:
                raise ContainerError(f"{path}: tensor {name!r} appears twice")
            shape = unpack(f"<{unpack('<B')[0]}Q")
            data = read(8 * math.prod(shape), lambda nbytes: np.empty(nbytes // 8, "<f8"))
            try:
                tensors[name] = data.reshape(shape)
            except ValueError as err:  # a rank above numpy's limit, or a huge dim beside a 0
                raise ContainerError(f"{path}: no array has the declared shape: {err}") from None
        stored, end = int.from_bytes(fh.read(4), "little"), fh.tell()
    if stored != crc:
        raise ContainerError(f"{path}: {what} CRC mismatch")
    if size > end:
        raise ContainerError(f"{path}: {size - end} trailing bytes after the CRC")
    return echo, tensors


def write_field_container(path, grid: GridSpec, cadence: float, snaps: np.ndarray) -> None:
    """snaps has shape (snapshots >= 1, channels >= 1, *points); cadence is finite and positive."""
    # what read_field_container refuses
    if snaps.ndim != grid.dim + 2 or snaps.shape[2:] != grid.points or 0 in snaps.shape[:2] \
            or not 0.0 < cadence < math.inf:
        raise ValueError(f"need a snapshot block (S >= 1, C >= 1, {grid.points}) and a finite "
                         f"positive cadence, got {snaps.shape} and {cadence}")
    _write(path, FIELD_MAGIC, "", {"snapshots": snaps, "length": np.array(grid.length),
                                   "cadence": np.array(cadence)})


def read_field_container(path) -> tuple[GridSpec, float, np.ndarray]:
    _, tensors = _read(path, FIELD_MAGIC, "payload")
    shapes = {name: t.shape for name, t in tensors.items()}
    ndim = len(shapes.get("snapshots", ())) - 2
    if ndim not in (2, 3) or shapes != {"snapshots": shapes["snapshots"], "length": (ndim,),
                                        "cadence": ()}:
        raise ContainerError(f"{path}: a dataset holds snapshots (S, C, *points) of ndim 2 or "
                             f"3, length (ndim,) and cadence (), not {shapes}")
    snaps, length, cadence = tensors["snapshots"], tensors["length"], tensors["cadence"]
    if snaps.shape[1] < 1:
        raise ContainerError(f"{path}: a field needs a channel, got 0")
    if not 0.0 < cadence < math.inf or len(snaps) < 1:
        raise ContainerError(f"{path}: need a finite positive cadence and a snapshot, "
                             f"got cadence {cadence} and {len(snaps)} snapshots")
    try:
        grid = GridSpec(points=snaps.shape[2:], length=length)
    except ValueError as err:
        raise ContainerError(f"{path}: bad grid: {err}") from err
    return grid, float(cadence), snaps


def write_checkpoint(path, config_echo: str, tensors: dict[str, np.ndarray]) -> None:
    _write(path, CKPT_MAGIC, config_echo, tensors)


def read_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    return _read(path, CKPT_MAGIC, "checkpoint")
