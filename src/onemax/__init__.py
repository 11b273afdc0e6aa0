"""Noise-robust audio event recognition with a 1-max pooling convolutional network.

The pipeline: spectrogram image features (windowed magnitude spectra,
frequency down-sampling, per-row de-noising), a bank of multi-width
time-convolution filters reduced by 1-max pooling to a fixed-size vector,
dropout, and a softmax classifier — trained with hand-derived gradients
and Adam under clean-only ("mismatched") or noise-augmented
("multi-condition") regimes.

Import names from the submodules: `dsp`, `model`, `optim`, `data`,
`train`, `container`, `seeds`.
"""

__version__ = "0.1.0"
