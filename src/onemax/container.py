"""The binary container shared by `.sif`, `.1max` and Adam-state files.

Each is a 4-byte magic, then little-endian fields and, for checkpoints and
Adam state, a u64 checksum of everything before it.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from pathlib import Path

import numpy as np

_TRAILER = struct.Struct("<Q")
# compiled once per format string: a .sif header is read on every cache hit
_struct = functools.lru_cache(maxsize=64)(struct.Struct)


class Reader:
    """Length-checked sequential reads over one container file.

    With `checksum`, the trailer must equal `checksum(payload)`, the payload
    being the file without its trailer. A malformed file raises `error`.
    """

    def __init__(self, path, magic: bytes, error: type[Exception], checksum=None):
        self.path, self.error_class = path, error
        with open(path, "rb", buffering=0) as f:  # one unbuffered read: cheaper per small file
            raw = f.read()
        trailer = _TRAILER.size if checksum is not None else 0
        if len(raw) < len(magic) + trailer:
            raise self.error(f"file too short ({len(raw)} bytes)")
        if raw[: len(magic)] != magic:
            raise self.error(f"bad magic {raw[: len(magic)]!r}")
        if checksum is not None:
            raw, (stored,) = raw[:-trailer], _TRAILER.unpack_from(raw, len(raw) - trailer)
            if checksum(raw) != stored:
                raise self.error("checksum mismatch")
        self.raw, self.pos = raw, len(magic)

    def error(self, message: str) -> Exception:
        return self.error_class(f"{self.path}: {message}")

    def _advance(self, n: int) -> int:
        """Claim the next n bytes; return their offset."""
        if self.pos + n > len(self.raw):
            raise self.error(f"truncated (needed {n} bytes at offset {self.pos})")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        return self.raw[self._advance(n) : self.pos]

    def unpack(self, fmt: str) -> tuple:
        s = _struct(fmt)
        return s.unpack_from(self.raw, self._advance(s.size))

    def f64s(self, shape: tuple[int, ...], order: str = "C") -> np.ndarray:
        count = math.prod(shape)
        data = np.frombuffer(self.raw, "<f8", count, self._advance(8 * count))
        return data.reshape(shape, order=order).astype(np.float64)

    def done(self) -> None:
        if self.pos != len(self.raw):
            raise self.error(f"{len(self.raw) - self.pos} trailing bytes")


def write_atomic(path, data: bytes) -> None:
    """Write beside path, then rename over it: no reader or failed writer leaves a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
