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
        end = len(raw) - (_TRAILER.size if checksum is not None else 0)
        if end < len(magic):
            raise self.error(f"file too short ({len(raw)} bytes)")
        if raw[: len(magic)] != magic:
            raise self.error(f"bad magic {raw[: len(magic)]!r}")
        if checksum is not None:
            # reads stop at end, so the payload is checked and parsed in place
            if checksum(memoryview(raw)[:end]) != _TRAILER.unpack_from(raw, end)[0]:
                raise self.error("checksum mismatch")
        self.raw, self.end, self.pos = raw, end, len(magic)

    def error(self, message: str) -> Exception:
        return self.error_class(f"{self.path}: {message}")

    def _advance(self, n: int) -> int:
        """Claim the next n bytes; return their offset."""
        if self.pos + n > self.end:
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
        if self.pos != self.end:
            raise self.error(f"{self.end - self.pos} trailing bytes")


def write_atomic(path, *chunks) -> None:
    """Write the chunks beside path, then rename over it: no reader or failed
    writer leaves a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def f64_buffer(arr: np.ndarray) -> np.ndarray:
    """arr as C-order little-endian float64: a part for write_sealed, copied only by its join."""
    return np.ascontiguousarray(arr, dtype="<f8")


def write_sealed(path, parts, checksum) -> None:
    """Join the parts once and write them atomically with the checksum trailer."""
    payload = b"".join(parts)
    write_atomic(path, payload, _TRAILER.pack(checksum(payload)))
