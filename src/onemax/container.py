"""Every file rule: the binary container, its checksum, the writer, text reads.

`.sif`, `.1max` and Adam-state files are each a 4-byte magic, then
little-endian fields and, for checkpoints and Adam state, a u64 FNV-1a
checksum of everything before it. Every file a command writes, WAVs aside,
goes through write_atomic; text files are read as UTF-8 through read_text.
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

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# fnv1a works on blocks of this many bytes; _POWERS[_BLOCK - n:] is P^n ... P^1
_BLOCK = 1 << 16
_POWERS = np.cumprod(np.full(_BLOCK, FNV_PRIME, np.uint64))[::-1].copy()
_BYTE_ONES = np.uint64(0x0101010101010101)
_WORD_SHIFTS = tuple(np.uint64(s) for s in (8, 16, 32))
_TOP_BYTE = np.uint64(56)


def _prefix_xor(t: np.ndarray) -> None:
    """In place, t[i] becomes t[0] ^ ... ^ t[i]; len(t) is a multiple of 8.

    Eight bytes at a time: a shift-XOR scan inside each little-endian word,
    then one XOR scan over the words' top bytes carries into the next word.
    """
    w = t.view("<u8")
    for s in _WORD_SHIFTS:
        w ^= w << s
    w[1:] ^= np.bitwise_xor.accumulate(w[:-1] >> _TOP_BYTE) * _BYTE_ONES


def _low_bytes(b: np.ndarray, l0: int) -> np.ndarray:
    """The state's low byte before each byte of b, starting from l0.

    It runs by itself: l' = c * (l ^ byte) mod 256, c = 0xB3 being the
    prime's low byte. As c is odd, bit k of c * x is bit k of x XOR a term of
    x's lower bits, so bit k of l' is bit k of l XOR bit k of
    c * ((l mod 2^k) ^ byte). With bits 0..k-1 of every l known, that flip is
    known, and bit k of every l is a prefix XOR of the flips. Eight passes
    give all bits.
    """
    n = len(b)
    data = np.zeros(-(-n // 8) * 8, np.uint8)
    data[:n] = b
    low = np.zeros_like(data)  # pass k holds l mod 2^k
    for k in range(8):
        bit = np.uint8(1 << k)
        flips = low ^ data
        flips *= np.uint8(FNV_PRIME & 0xFF)
        flips &= bit
        _prefix_xor(flips)  # flips[i]: bit k of l[i + 1] XOR bit k of l0
        if l0 & bit:
            flips ^= bit
            low[0] |= bit
        low[1:] |= flips[:-1]
    return low[:n]


def fnv1a(data) -> int:
    """64-bit FNV-1a hash, used as a cheap integrity checksum in file formats.

    Equal to the per-byte loop h = ((h ^ byte) * P) mod 2^64 on every input
    (bytes, bytearray or memoryview), computed a block at a time. XOR with a
    byte changes only the low byte l of h, so each step adds
    P * ((l ^ byte) - l) to P * h, and once the low bytes are known a block's
    effect on h is one wrap-around dot product with the powers of P.
    """
    buf = np.frombuffer(data, np.uint8)
    h = FNV_OFFSET
    for start in range(0, len(buf), _BLOCK):
        b = buf[start : start + _BLOCK]
        low = _low_bytes(b, h & 0xFF)
        steps = (low ^ b).astype(np.int64)
        steps -= low
        powers = _POWERS[_BLOCK - len(b) :]
        h = (h * int(powers[0]) + int(np.dot(steps.view(np.uint64), powers))) & _MASK64
    return h


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


def read_text(path, error: type[Exception]) -> str:
    """The file's text as UTF-8; an unreadable or undecodable file raises error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read ({exc})") from exc


def f64_buffer(arr: np.ndarray) -> np.ndarray:
    """arr as C-order little-endian float64, the float encoding of every format:
    a part for write_sealed or a chunk for write_atomic."""
    return np.ascontiguousarray(arr, dtype="<f8")


# callers pass their module's fnv1a, which is where bench/tracing.py wraps it
def write_sealed(path, parts, checksum) -> None:
    """Join the parts once and write them atomically with the checksum trailer."""
    payload = b"".join(parts)
    write_atomic(path, payload, _TRAILER.pack(checksum(payload)))
