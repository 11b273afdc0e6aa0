"""Noise-robust audio event recognition with a 1-max pooling convolutional network.

The pipeline: spectrogram image features (windowed magnitude spectra,
frequency down-sampling, per-row de-noising), a bank of multi-width
time-convolution filters reduced by 1-max pooling to a fixed-size vector,
dropout, and a softmax classifier — trained with hand-derived gradients
and Adam under clean-only ("mismatched") or noise-augmented
("multi-condition") regimes.
"""

from .dsp import (
    FFT_SIZE,
    FrameConfig,
    HOP_LEN,
    N_FREQ,
    SAMPLE_RATE,
    Sif,
    SifFormatError,
    Spectrogram,
    WINDOW_LEN,
    Waveform,
    denoise,
    dft_magnitude,
    downsample_freq,
    extract_sif,
    hamming_window,
    read_sif,
    spectrogram,
    write_sif,
)
from .model import (
    CheckpointFormatError,
    FilterBank,
    ForwardTrace,
    Gradients,
    ModelParams,
    SoftmaxParams,
    backward,
    finite_difference_gradients,
    forward,
    init_params,
    load_checkpoint,
    loss,
    pad_to_min,
    regularizer,
    save_checkpoint,
    zero_gradients,
)
from .optim import (
    AdamState,
    AdamStateFormatError,
    adam_init,
    adam_step,
    fnv1a,
    load_adam_state,
    save_adam_state,
)
from .data import (
    ConditionSet,
    DEFAULT_SNRS,
    Manifest,
    ManifestFormatError,
    ManifestRecord,
    NoiseBank,
    Sample,
    SynthConfig,
    WavFormatError,
    build_condition_set,
    condition_name,
    condition_snr,
    load_noise_bank,
    load_wav,
    make_batches,
    mix_noise_at_snr,
    read_manifest,
    resolve_sample,
    synth_corpus,
    write_manifest,
    write_wav,
)
# the train() function stays in onemax.train: exported here, it would
# shadow that submodule as the package attribute
from .train import (
    DEFAULT_WIDTHS,
    TrainConfig,
    TrainReport,
    evaluate,
    extract_features,
    width_sweep,
)
from .seeds import derive_seed

__version__ = "0.1.0"
