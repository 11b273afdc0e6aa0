"""
From a waveform to a spectrogram image feature
==============================================

Walks one audio clip through the whole feature pipeline, printing what
each stage does to the data.
"""

import numpy as np

from onemax.dsp import (
    FFT_SIZE,
    SAMPLE_RATE,
    Waveform,
    denoise,
    downsample_freq,
    extract_sif,
    read_sif,
    spectrogram,
    write_sif,
)

# a half-second 932 Hz tone with a touch of background hiss, at 16 kHz,
# the one rate the features are defined for
rng = np.random.default_rng(0)
sr = SAMPLE_RATE
t = np.arange(8000) / sr
wave = Waveform(0.6 * np.sin(2 * np.pi * 932.0 * t) + 0.01 * rng.standard_normal(t.size), sr)

# Stage 1: magnitude spectrogram. 100 ms Hamming windows, 10 ms hop,
# 2048-point transform -> 1024 frequency bins per frame.
spec = spectrogram(wave)
print(f"spectrogram: {spec.shape[0]} bins x {spec.shape[1]} frames")

# Stage 2: collapse the 1024 bins into 52 rows by block-averaging
# groups of adjacent bins. The handful of leftover top bins is dropped.
bands = downsample_freq(spec, 52)
print(f"down-sampled: {bands.shape[0]} rows x {bands.shape[1]} frames "
      f"(each row averages {spec.shape[0] // 52} bins)")

# the tone should light up one row far above the rest
print(f"strongest row: {int(np.argmax(bands.mean(axis=1)))} "
      f"(the tone sits near bin {int(932 / (sr / FFT_SIZE))})")

# Stage 3: per-row de-noising. Subtracting each row's minimum over time
# strips any stationary background level; every row then touches zero.
flat = denoise(bands)
print(f"row minima after de-noising: {np.unique(flat.min(axis=1))}")

# extract_sif runs all three stages in one call; with_energy appends a
# 53rd row holding each frame's total energy: the column sum of the 52
# de-noised rows.
sif = extract_sif(wave, with_energy=True)
print(f"full feature matrix: {sif.values.shape[0]} rows x {sif.values.shape[1]} frames")
np.testing.assert_array_equal(sif.values[:52], flat)
np.testing.assert_array_equal(sif.values[52], flat.sum(axis=0))

# features round-trip through the .sif container bit for bit
import tempfile
from pathlib import Path

out = Path(tempfile.mkdtemp()) / "tone.sif"
write_sif(sif, out)
again = read_sif(out)
assert again.values.tobytes() == sif.values.tobytes()
print(f"wrote and re-read {out.name}: {out.stat().st_size} bytes, bit-identical")
