"""Reference computations the benchmark checks onemax's outputs against.

Everything here is written independently of the package: a plain DFT
instead of an FFT, a per-filter loop instead of einsum, the closed-form
Adam update, and a directional finite difference instead of the
hand-derived backward pass. Nothing is compared with saved output.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

WINDOW, HOP, NFFT = 1600, 160, 2048   # 100 ms / 10 ms at 16 kHz, 2048-point spectrum


@lru_cache(maxsize=1)
def _dft_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = np.arange(WINDOW)
    # reduce n*f modulo NFFT first so every angle is exact before scaling
    phase = 2.0 * np.pi * (np.outer(n, np.arange(NFFT // 2)) % NFFT) / NFFT
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (WINDOW - 1))
    return window, np.cos(phase), np.sin(phase)


def plain_sif(samples: np.ndarray, n_freq: int) -> np.ndarray:
    """Hamming-windowed DFT magnitudes, block means over frequency, row minima removed."""
    window, cos, sin = _dft_basis()
    n_frames = 1 + (len(samples) - WINDOW) // HOP
    frames = np.stack([samples[i * HOP: i * HOP + WINDOW] for i in range(n_frames)]) * window
    mags = np.hypot(frames @ cos, frames @ sin)   # [frames, bins]
    width = (NFFT // 2) // n_freq
    rows = mags[:, : n_freq * width].reshape(n_frames, n_freq, width).mean(axis=2).T
    return rows - rows.min(axis=1, keepdims=True)


def measured_snr_db(clean: np.ndarray, mixed: np.ndarray) -> float:
    noise = mixed - clean
    return float(10.0 * np.log10(np.mean(clean**2) / np.mean(noise**2)))


def loop_forward(params, sif: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode forward pass, one filter at a time: each pooled value is
    max over valid positions of ReLU(bias + sum(window * filter))."""
    rows, t = sif.shape
    pooled = []
    for q, w in enumerate(params.bank.widths):
        x = np.zeros((rows, max(t, w)))
        x[:, :t] = sif
        # one row per valid position: the window's columns laid out like a filter's
        windows = np.stack([x[:, i: i + w].reshape(-1) for i in range(x.shape[1] - w + 1)])
        for j in range(params.bank.filters_per_width):
            responses = windows @ params.bank.weights[q][j].reshape(-1)
            pooled.append(max(0.0, float(np.max(responses + params.bank.biases[q][j]))))
    pooled = np.array(pooled)
    logits = params.softmax.weights @ pooled + params.softmax.biases
    e = np.exp(logits - logits.max())
    return pooled, e / e.sum()


def adam_closed_form(theta, grad, alpha, beta1, beta2, eps):
    """Parameters after the first Adam step from zero moments."""
    m_hat = (1.0 - beta1) * grad / (1.0 - beta1)
    v_hat = (1.0 - beta2) * grad * grad / (1.0 - beta2)
    return theta - alpha * m_hat / (np.sqrt(v_hat) + eps)


def params_bytes(params) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in params.blocks())
