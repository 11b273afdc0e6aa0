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

from .container import Reader, write_atomic

ADAM_MAGIC = b"ADM1"

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a hash, used as a cheap integrity checksum in file formats."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _MASK64
    return h


class AdamStateFormatError(Exception):
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


def _pack_array(arr: np.ndarray) -> bytes:
    header = struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
    return header + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _read_array(r: Reader) -> np.ndarray:
    (ndim,) = r.unpack("<I")
    if ndim > 8:
        raise r.error(f"implausible ndim {ndim}")
    return r.f64s(r.unpack(f"<{ndim}I"))


def save_adam_state(state: AdamState, path) -> None:
    """Serialize optimizer state with a trailing FNV-1a checksum."""
    payload = ADAM_MAGIC + struct.pack(
        "<ddddQI", state.alpha, state.beta1, state.beta2, state.eps,
        state.step, len(state.block_names),
    )
    for name, m, v in zip(state.block_names, state.m, state.v):
        encoded = name.encode("utf-8")
        payload += struct.pack("<I", len(encoded)) + encoded + _pack_array(m) + _pack_array(v)
    write_atomic(path, payload + struct.pack("<Q", fnv1a(payload)))


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
