"""End-to-end acceptance suite.

Every test here is an executable statement of a behavioral guarantee:
analytic gradients, transform correctness, shift invariance of the pooled
representation, fixed-size outputs for variable-length inputs, exact SNR
calibration, the de-noising invariant, optimizer correctness, a frozen
desk-scale training benchmark, and bit-level determinism of every artifact.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from onemax import dsp, model
from onemax.data import (
    SynthConfig,
    build_condition_set,
    load_wav,
    mix_noise_at_snr,
    synth_corpus,
)
from onemax.optim import adam_init, adam_step
from onemax.seeds import derive_seed
from onemax.train import TrainConfig, extract_features, train


@pytest.fixture(scope="module")
def accept_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept-corpus")
    manifest, bank = synth_corpus(
        SynthConfig(n_classes=3, instances_per_class=6), root, rng_seed=23
    )
    return manifest, bank, root


def test_gradients_match_finite_differences_on_random_models():
    """Analytic gradients agree with 64-bit central differences (h=1e-5)
    to a relative error below 1e-6 across 20 random model shapes."""
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(derive_seed(517, "gradcheck", trial))
        rows = int(rng.integers(8, 54))
        n_cols = int(rng.integers(5, 41))
        widths = tuple(w for w in (1, 3, 5) if rng.random() < 0.5) or (3,)
        p = int(rng.integers(2, 6))
        n_classes = int(rng.integers(2, 7))
        lam = (0.0, 1e-4, 1e-2)[trial % 3]
        params = model.init_params(
            n_classes, rows, widths, p, seed=derive_seed(517, "init", trial)
        )
        sif = rng.uniform(0.0, 3.0, size=(rows, n_cols))
        padded, _ = model.pad_to_min(sif, max(widths))
        true_len = int(rng.integers(1, n_cols + 1))
        target = int(rng.integers(n_classes))

        trace = model.forward(params, padded, true_len, mode="eval")
        analytic = model.backward(params, trace, padded, target, lam)
        fd = model.finite_difference_gradients(params, padded, true_len, target, lam)
        for a, f in zip(analytic.arrays(), fd):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
            worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    assert worst < 1e-6
    assert time.monotonic() - t0 < 60.0


def test_dft_matches_quadratic_oracle():
    """dft_magnitude equals an explicit O(L^2) transform matrix on 1000
    random 2048-sample frames, max absolute error below 1e-9."""
    t0 = time.monotonic()
    length = 2048
    n_bins = length // 2
    n = np.arange(length)
    f = np.arange(n_bins)
    matrix = np.exp(-2j * np.pi * np.outer(f, n) / length)
    rng = np.random.default_rng(902)
    worst = 0.0
    for _ in range(1000):
        frame = rng.standard_normal(length)
        expected = np.abs(matrix @ frame)
        got = dsp.dft_magnitude(frame, length)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    assert worst < 1e-9
    assert time.monotonic() - t0 < 60.0


def test_pooled_vector_shift_invariant():
    """With zero biases and a zero background, translating a 10-column
    patch through a 52x60 input leaves the eval-mode pooled vector exactly
    unchanged: over every offset for column-constant patches under
    non-negative filters (dyadic values make the arithmetic exact), and
    over every boundary-free offset for arbitrary filters and patches."""
    rows, t, k = 52, 60, 10
    widths = (1, 3, 5)
    p = 4
    rng = np.random.default_rng(33)

    # all offsets: non-negative filters, column-constant patch
    params = model.init_params(3, rows, widths, p, seed=1)
    for q, w in enumerate(widths):
        params.bank.weights[q][:] = rng.integers(0, 8, size=(p, rows, w)) / 4.0
        params.bank.biases[q][:] = 0.0
    profile = rng.integers(0, 8, size=rows) / 4.0
    patch = np.repeat(profile[:, None], k, axis=1)
    reference = None
    for offset in range(0, t - k + 1):
        sif = np.zeros((rows, t))
        sif[:, offset : offset + k] = patch
        pooled = model.forward(params, sif, t).pooled
        if reference is None:
            reference = pooled
        else:
            np.testing.assert_array_equal(pooled, reference)

    # every offset whose filter windows stay clear of the input edges:
    # arbitrary filters, arbitrary patch
    params = model.init_params(3, rows, widths, p, seed=2)
    for q in range(len(widths)):
        params.bank.biases[q][:] = 0.0
    patch = rng.uniform(0.0, 2.0, size=(rows, k))
    w_max = max(widths)
    reference = None
    for offset in range(w_max - 1, t - k - w_max + 2):
        sif = np.zeros((rows, t))
        sif[:, offset : offset + k] = patch
        pooled = model.forward(params, sif, t).pooled
        if reference is None:
            reference = pooled
        else:
            np.testing.assert_array_equal(pooled, reference)


def test_pooled_dimension_fixed_for_variable_length():
    """The pooled vector has exactly P*Q entries for inputs of 1, 30, 100,
    and 300 frames, and padding beyond the true length changes nothing."""
    widths = (1, 3, 5)
    p = 4
    params = model.init_params(4, 52, widths, p, seed=7)
    rng = np.random.default_rng(8)
    for t in (1, 30, 100, 300):
        sif = rng.uniform(0.0, 2.0, size=(52, t))
        padded, true_len = model.pad_to_min(sif, max(widths))
        trace = model.forward(params, padded, true_len)
        assert len(trace.pooled) == p * len(widths)
        assert true_len == t

        extra = np.zeros((52, padded.shape[1] + 57))
        extra[:, : padded.shape[1]] = padded
        again = model.forward(params, extra, true_len)
        np.testing.assert_array_equal(trace.pooled, again.pooled)
        np.testing.assert_array_equal(trace.y_hat, again.y_hat)


def test_snr_mixing_calibrated(accept_corpus):
    """Measured SNR of every mixed signal equals the requested value to
    within 1e-9 dB across 200 random (event, noise, SNR, seed) draws."""
    manifest, bank, root = accept_corpus
    events = [load_wav(root / rec.path) for rec in manifest.records]
    rng = np.random.default_rng(41)
    for _ in range(200):
        clean = events[int(rng.integers(len(events)))]
        target_snr = float(rng.uniform(-5.0, 30.0))
        mixed = mix_noise_at_snr(clean, bank, target_snr, int(rng.integers(2**31)))
        residual = mixed.samples - clean.samples
        measured = 10.0 * np.log10(
            np.mean(clean.samples**2) / np.mean(residual**2)
        )
        assert abs(measured - target_snr) < 1e-9


def test_denoised_rows_touch_zero(accept_corpus):
    """Per-row minimum subtraction leaves every feature row with an exact
    zero minimum, on corpus events and on 100 random signals."""
    manifest, _, root = accept_corpus
    waves = [load_wav(root / rec.path) for rec in manifest.records]
    rng = np.random.default_rng(55)
    while len(waves) < 100:
        length = int(rng.integers(dsp.WINDOW_LEN, 20000))
        waves.append(dsp.Waveform(rng.uniform(-0.5, 0.5, size=length), 16000))
    for wave in waves:
        sif = dsp.extract_sif(wave)
        minima = sif.values.min(axis=1)
        assert np.all(minima == 0.0)


def test_single_sample_overfits(accept_corpus):
    """With no regularization and no dropout, 2000 Adam steps at the
    default learning rate drive one sample's cross-entropy below 1e-2."""
    t0 = time.monotonic()
    manifest, _, root = accept_corpus
    record = manifest.by_split("train")[0]
    sif = dsp.extract_sif(load_wav(root / record.path)).values
    widths = (1, 3, 5)
    params = model.init_params(3, 52, widths, 16, seed=19)
    state = adam_init(params.blocks(), alpha=1e-4)
    padded, true_len = model.pad_to_min(sif, max(widths))
    target = 1
    best = np.inf
    for _ in range(2000):
        trace = model.forward(params, padded, true_len, mode="eval")
        value = model.loss(trace, target, params, 0.0)
        grads = model.backward(params, trace, padded, target, 0.0)
        adam_step(state, params.blocks(), grads.arrays())
        best = min(best, value)
        if best < 1e-2:
            break
    assert best < 1e-2
    assert time.monotonic() - t0 < 60.0


def test_adam_converges_on_quadratic():
    """The optimizer reaches the minimum of a scalar quadratic to within
    1e-3 in at most 10000 steps, and its very first step has magnitude
    equal to the learning rate when the gradient dwarfs epsilon."""
    target = np.pi / 10.0
    x = np.array([1.0])
    state = adam_init([("x", x)], alpha=0.05)
    converged = False
    for _ in range(10000):
        adam_step(state, [("x", x)], [2.0 * (x - target)])
        if abs(float(x[0]) - target) < 1e-3:
            converged = True
            break
    assert converged

    y = np.array([100.0])
    state = adam_init([("y", y)], alpha=0.01)
    adam_step(state, [("y", y)], [np.array([1e6])])
    assert abs(100.0 - float(y[0])) == pytest.approx(0.01, rel=1e-6)


def test_end_to_end_noise_robust_training(tmp_path):
    """Frozen desk-scale benchmark: on a pinned 5-class synthetic corpus,
    multi-condition training reaches at least 0.95 clean test accuracy
    within 100 epochs, and beats mismatched (clean-only) training at 0 dB
    on an identical budget."""
    t0 = time.monotonic()
    manifest, bank = synth_corpus(
        SynthConfig(n_classes=5, instances_per_class=16),
        tmp_path / "corpus",
        rng_seed=11,
    )
    assert len(manifest.by_split("train")) == 40   # 8 per class
    assert len(manifest.by_split("validation")) == 10
    assert len(manifest.by_split("test")) == 30

    base = TrainConfig(
        widths=(1, 3, 5, 7, 9),
        filters_per_width=16,
        batch_size=10,
        epochs=100,
        seed=11,
    )
    cache = tmp_path / "cache"
    _, multi = train(
        replace(base, regime="multi"), manifest, bank, cache_dir=cache
    )
    _, mismatched = train(
        replace(base, regime="mismatched"), manifest, bank, cache_dir=cache
    )

    assert multi.test_acc["clean"] >= 0.95
    assert multi.test_acc["snr0"] >= mismatched.test_acc["snr0"]
    assert time.monotonic() - t0 < 900.0


def test_bit_determinism_and_round_trips(tmp_path):
    """Two identical-seed pipeline runs produce bit-identical corpora,
    feature files, checkpoints, and reports; file formats round-trip
    exactly."""
    cfg = TrainConfig(
        widths=(1, 3), filters_per_width=2, batch_size=8, epochs=2, seed=13
    )
    runs = []
    for name in ("one", "two"):
        root = tmp_path / name
        manifest, bank = synth_corpus(
            SynthConfig(n_classes=3, instances_per_class=6), root / "corpus",
            rng_seed=23,
        )
        cache = root / "cache"
        cs = build_condition_set(manifest, bank, cfg.regime, cfg.seed, snrs=cfg.snrs)
        extract_features(cs.test["snr0"], manifest, bank, cfg, cache_dir=cache)
        params, report = train(cfg, manifest, bank, cache_dir=cache)
        ckpt = root / "model.1max"
        model.save_checkpoint(params, ckpt)
        runs.append((root, ckpt, report))

    root_a, ckpt_a, report_a = runs[0]
    root_b, ckpt_b, report_b = runs[1]

    wavs_a = sorted(p.relative_to(root_a) for p in (root_a / "corpus").rglob("*.wav"))
    wavs_b = sorted(p.relative_to(root_b) for p in (root_b / "corpus").rglob("*.wav"))
    assert wavs_a == wavs_b
    for rel in wavs_a:
        assert (root_a / rel).read_bytes() == (root_b / rel).read_bytes(), rel
    assert (root_a / "corpus/manifest.tsv").read_bytes() == \
        (root_b / "corpus/manifest.tsv").read_bytes()

    sifs_a = sorted(p.name for p in (root_a / "cache").glob("*.sif"))
    sifs_b = sorted(p.name for p in (root_b / "cache").glob("*.sif"))
    assert sifs_a == sifs_b and sifs_a
    for name in sifs_a:
        assert (root_a / "cache" / name).read_bytes() == \
            (root_b / "cache" / name).read_bytes(), name

    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
    assert report_a.train_loss == report_b.train_loss
    assert report_a.val_acc == report_b.val_acc
    assert report_a.test_acc == report_b.test_acc
    assert report_a.to_text() == report_b.to_text()

    # format round-trips are exact
    sif_path = root_a / "cache" / sifs_a[0]
    sif = dsp.read_sif(sif_path)
    dsp.write_sif(sif, tmp_path / "again.sif")
    assert (tmp_path / "again.sif").read_bytes() == sif_path.read_bytes()

    loaded = model.load_checkpoint(ckpt_a)
    model.save_checkpoint(loaded, tmp_path / "again.1max")
    assert (tmp_path / "again.1max").read_bytes() == ckpt_a.read_bytes()
