"""Adam optimizer over named parameter blocks.

The model exposes its parameters as an ordered list of (name, ndarray)
blocks; the optimizer keeps one pair of moment arrays per block and
updates the arrays in place, so any collection of shapes works and the
same code drives both the real network and scalar test problems.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .container import Reader, f64_buffer, write_sealed

ADAM_MAGIC = b"ADM1"

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


class AdamStateFormatError(ValueError):
    """Raised when a saved optimizer-state file is malformed or corrupt."""


@dataclass
class AdamState:
    """First/second moment estimates and step count for a list of blocks."""

    alpha: float
    beta1: float
    beta2: float
    eps: float
    step: int
    block_names: list[str]
    m: list[np.ndarray] = field(repr=False)
    v: list[np.ndarray] = field(repr=False)


def adam_init(
    blocks: list[tuple[str, np.ndarray]],
    alpha: float = 1e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """Fresh optimizer state with zero moments matching each block's shape."""
    if not blocks:
        raise ValueError("adam_init needs at least one parameter block")
    names = [name for name, _ in blocks]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate block names: {names}")
    return AdamState(
        alpha=alpha,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        step=0,
        block_names=names,
        m=[np.zeros_like(arr, dtype=np.float64) for _, arr in blocks],
        v=[np.zeros_like(arr, dtype=np.float64) for _, arr in blocks],
    )


def adam_step(
    state: AdamState,
    blocks: list[tuple[str, np.ndarray]],
    grads: list[np.ndarray],
) -> None:
    """One bias-corrected Adam update, applied to the block arrays in place.

    theta <- theta - alpha * m_hat / (sqrt(v_hat) + eps) with
    m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t).
    """
    if len(blocks) != len(state.m) or len(grads) != len(state.m):
        raise ValueError(
            f"block/grad count mismatch: state has {len(state.m)}, "
            f"got {len(blocks)} blocks and {len(grads)} grads"
        )
    for (name, _), expected in zip(blocks, state.block_names):
        if name != expected:
            raise ValueError(f"block order mismatch: expected {expected!r}, got {name!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for i, ((name, theta), g) in enumerate(zip(blocks, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != theta.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match block {name!r} shape {theta.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in block {name!r} at step {t}")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        theta -= state.alpha * m_hat / (np.sqrt(v_hat) + state.eps)


def _array_parts(arr: np.ndarray) -> list:
    return [struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), f64_buffer(arr)]


def _read_array(r: Reader) -> np.ndarray:
    (ndim,) = r.unpack("<I")
    if ndim > 8:
        raise r.error(f"implausible ndim {ndim}")
    return r.f64s(r.unpack(f"<{ndim}I"))


def save_adam_state(state: AdamState, path) -> None:
    """Serialize optimizer state with a trailing FNV-1a checksum."""
    parts = [ADAM_MAGIC, struct.pack(
        "<ddddQI", state.alpha, state.beta1, state.beta2, state.eps,
        state.step, len(state.block_names),
    )]
    for name, m, v in zip(state.block_names, state.m, state.v):
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded, *_array_parts(m), *_array_parts(v)]
    write_sealed(path, parts, fnv1a)


def load_adam_state(path) -> AdamState:
    """Load optimizer state saved by save_adam_state, verifying the checksum."""
    r = Reader(path, ADAM_MAGIC, AdamStateFormatError, checksum=fnv1a)
    alpha, beta1, beta2, eps = r.unpack("<dddd")
    step, n_blocks = r.unpack("<QI")
    names, m, v = [], [], []
    for _ in range(n_blocks):
        (name_len,) = r.unpack("<I")
        try:
            names.append(r.take(name_len).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise r.error(f"block name is not UTF-8 ({exc})") from exc
        m.append(_read_array(r))
        v.append(_read_array(r))
    r.done()
    return AdamState(
        alpha=alpha, beta1=beta1, beta2=beta2, eps=eps,
        step=step, block_names=names, m=m, v=v,
    )
