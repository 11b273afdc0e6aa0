"""SIF (spectrogram image feature) extraction.

Pipeline: frame the waveform, Hamming-window each frame, magnitude DFT,
down-sample in frequency by block averaging, de-noise each frequency row
by subtracting its minimum over time, optionally append a short-time
energy row. All arithmetic is float64 so finite-difference gradient
checks downstream stay meaningful.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .container import Reader, write_atomic

SAMPLE_RATE = 16000        # the only rate the framing below is defined for
WINDOW_LEN = 1600          # 100 ms at 16 kHz
HOP_LEN = 160              # 10 ms at 16 kHz
FFT_SIZE = 2048
N_FREQ = 52

SIF_MAGIC = b"SIF1"


class SifFormatError(ValueError):
    """Raised when a .sif file is malformed."""


@dataclass
class Waveform:
    """Mono audio signal, amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class Sif:
    """The spectrogram image feature: de-noised frequency rows plus optional energy row."""

    values: np.ndarray
    n_freq: int
    has_energy: bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected_rows = self.n_freq + (1 if self.has_energy else 0)
        if self.values.shape[0] != expected_rows:
            raise ValueError(
                f"expected {expected_rows} rows for n_freq={self.n_freq}, "
                f"has_energy={self.has_energy}; got {self.values.shape[0]}"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def hamming_window(length: int) -> np.ndarray:
    """Symmetric Hamming window 0.54 - 0.46*cos(2*pi*n/(length-1)).

    length == 1 returns [0.08], the n=0 endpoint value of the formula.
    """
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    if length == 1:
        return np.array([0.08])
    n = np.arange(length, dtype=np.float64)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def dft_magnitude(frame: np.ndarray, fft_size: int) -> np.ndarray:
    """Magnitude spectrum |X(f)| for f = 0 .. fft_size/2 - 1 of each frame
    along the last axis.

    Each frame is zero-padded to fft_size. Computed with an FFT but equal,
    within rounding, to the naive DFT sum.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim == 0:
        raise ValueError("frame must be at least 1-d, got a scalar")
    if frame.shape[-1] > fft_size:
        raise ValueError(f"frame length {frame.shape[-1]} exceeds fft_size {fft_size}")
    spectrum = np.fft.rfft(frame, n=fft_size, axis=-1)
    return np.abs(spectrum[..., : fft_size // 2])


def spectrogram(wave: Waveform) -> np.ndarray:
    """Short-time magnitude spectrogram, [FFT_SIZE / 2 bins, frames].

    Frames start every HOP_LEN samples; the final partial frame is dropped.
    Each frame is Hamming-windowed over WINDOW_LEN samples and zero-padded
    to FFT_SIZE. n_frames = 1 + floor((len - WINDOW_LEN) / HOP_LEN). The
    framing is in samples, so audio at any rate but SAMPLE_RATE is rejected.
    """
    if wave.sample_rate != SAMPLE_RATE:
        raise ValueError(
            f"sample rate {wave.sample_rate} Hz; features are defined at {SAMPLE_RATE} Hz only"
        )
    samples = wave.samples
    if len(samples) < WINDOW_LEN:
        raise ValueError(
            f"waveform has {len(samples)} samples, shorter than one {WINDOW_LEN}-sample window"
        )
    frames = np.lib.stride_tricks.sliding_window_view(samples, WINDOW_LEN)[::HOP_LEN]
    return dft_magnitude(frames * hamming_window(WINDOW_LEN), FFT_SIZE).T


def downsample_freq(spec: np.ndarray, n_out_bins: int) -> np.ndarray:
    """Down-sample in frequency by averaging blocks of W = floor(n_bins / n_out_bins).

    Input bins >= n_out_bins * W (the remainder above the covered range)
    are discarded.
    """
    n_bins, n_frames = spec.shape
    if n_out_bins == 0:
        raise ValueError("n_out_bins must be >= 1")
    if n_out_bins > n_bins:
        raise ValueError(f"n_out_bins {n_out_bins} exceeds available bins {n_bins}")
    w = n_bins // n_out_bins
    return spec[: n_out_bins * w].reshape(n_out_bins, w, n_frames).mean(axis=1)


def denoise(spec: np.ndarray) -> np.ndarray:
    """Subtract each frequency row's minimum over time; row minima become exactly 0."""
    return spec - spec.min(axis=1, keepdims=True)


def extract_sif(wave: Waveform, n_freq: int = N_FREQ, with_energy: bool = False) -> Sif:
    """Full SIF pipeline: spectrogram -> frequency down-sampling -> de-noising.

    With with_energy, the column sum of the de-noised rows is appended as
    one more row below the frequency rows.
    """
    values = denoise(downsample_freq(spectrogram(wave), n_freq))
    if with_energy:
        values = np.vstack([values, values.sum(axis=0, keepdims=True)])
    return Sif(values, n_freq=n_freq, has_energy=with_energy)


def write_sif(sif: Sif, path) -> None:
    """Write a .sif file: magic, u32 rows, u32 cols, u8 energy flag, f64 column-major data."""
    header = SIF_MAGIC + struct.pack(
        "<IIB", sif.n_rows, sif.n_frames, 1 if sif.has_energy else 0
    )
    body = np.ascontiguousarray(sif.values.T, dtype="<f8").tobytes()
    write_atomic(path, header + body)


def read_sif(path) -> Sif:
    """Read a .sif file written by write_sif; round-trips bit-exactly."""
    r = Reader(path, SIF_MAGIC, SifFormatError)
    n_rows, n_cols, energy_flag = r.unpack("<IIB")
    if energy_flag not in (0, 1):
        raise r.error(f"invalid energy flag {energy_flag}")
    values = r.f64s((n_rows, n_cols), order="F")
    r.done()
    has_energy = energy_flag == 1
    return Sif(values, n_freq=n_rows - (1 if has_energy else 0), has_energy=has_energy)
