import numpy as np
import pytest

from onemax import dsp
from onemax.dsp import (
    Sif,
    SifFormatError,
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


# --- independent oracles, straight from the definitions ---------------------

def naive_dft_magnitude(frame, fft_size):
    """O(L^2) DFT magnitude computed bin by bin from the sum definition."""
    padded = np.zeros(fft_size, dtype=np.float64)
    padded[: len(frame)] = frame
    n = np.arange(fft_size)
    out = np.empty(fft_size // 2)
    for f in range(fft_size // 2):
        out[f] = np.abs(np.sum(padded * np.exp(-2j * np.pi * n * f / fft_size)))
    return out


def naive_full_spectrum(frame, fft_size):
    """All fft_size DFT magnitudes, via an explicit transform matrix."""
    padded = np.zeros(fft_size, dtype=np.float64)
    padded[: len(frame)] = frame
    n = np.arange(fft_size)
    matrix = np.exp(-2j * np.pi * np.outer(n, n) / fft_size)
    return np.abs(matrix @ padded)


def naive_downsample(values, n_out):
    w = values.shape[0] // n_out
    out = np.empty((n_out, values.shape[1]))
    for f in range(n_out):
        out[f] = values[f * w : (f + 1) * w].mean(axis=0)
    return out


# --- hamming_window ----------------------------------------------------------

def test_hamming_endpoints_length_three():
    np.testing.assert_allclose(hamming_window(3), [0.08, 1.0, 0.08], atol=1e-15)


def test_hamming_length_two():
    np.testing.assert_allclose(hamming_window(2), [0.08, 0.08], atol=1e-15)


def test_hamming_length_one_uses_endpoint_value():
    assert hamming_window(1).tolist() == [0.08]


def test_hamming_odd_midpoint_is_one():
    assert hamming_window(401)[200] == pytest.approx(1.0, abs=1e-15)


def test_hamming_matches_formula():
    window = hamming_window(50)
    for n in range(50):
        expected = 0.54 - 0.46 * np.cos(2 * np.pi * n / 49)
        assert window[n] == pytest.approx(expected, abs=1e-15)


def test_hamming_symmetry():
    window = hamming_window(128)
    np.testing.assert_allclose(window, window[::-1], atol=1e-15)


def test_hamming_zero_length_rejected():
    with pytest.raises(ValueError):
        hamming_window(0)


# --- dft_magnitude ------------------------------------------------------------

def test_dft_impulse_is_flat():
    frame = np.zeros(8)
    frame[0] = 1.0
    np.testing.assert_allclose(dft_magnitude(frame, 8), np.ones(4), atol=1e-12)


def test_dft_dc_only():
    np.testing.assert_allclose(dft_magnitude(np.ones(4), 4), [4.0, 0.0], atol=1e-12)


def test_dft_matches_naive_oracle_small():
    for seed in range(10):
        frame = np.random.default_rng(seed).standard_normal(48)
        got = dft_magnitude(frame, 64)
        want = naive_dft_magnitude(frame, 64)
        assert np.max(np.abs(got - want)) < 1e-9


def test_dft_matches_naive_oracle_full_size():
    frame = np.random.default_rng(42).standard_normal(2048)
    got = dft_magnitude(frame, 2048)
    padded = np.zeros(2048)
    padded[:] = frame
    want = naive_full_spectrum(frame, 2048)[:1024]
    assert np.max(np.abs(got - want)) < 1e-9


def test_dft_frame_longer_than_fft_rejected():
    with pytest.raises(ValueError):
        dft_magnitude(np.ones(9), 8)
    with pytest.raises(ValueError):
        dft_magnitude(np.ones((3, 9)), 8)
    with pytest.raises(ValueError):
        dft_magnitude(np.float64(1.0), 8)


def test_dft_batches_along_the_last_axis():
    frames = np.random.default_rng(4).standard_normal((2, 5, 48))
    got = dft_magnitude(frames, 64)
    assert got.shape == (2, 5, 32)
    for index in np.ndindex(2, 5):
        assert np.array_equal(got[index], dft_magnitude(frames[index], 64))


def test_parseval_energy_balance():
    """Sum of squared magnitudes over all bins equals fft_size times signal energy."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        frame = rng.standard_normal(200) * hamming_window(200)
        mags = naive_full_spectrum(frame, 256)
        lhs = np.sum(mags**2)
        rhs = 256 * np.sum(frame**2)
        assert abs(lhs - rhs) / rhs < 1e-6


# --- spectrogram ---------------------------------------------------------------

def test_spectrogram_frame_count():
    wave = Waveform(np.zeros(16000), 16000)
    assert spectrogram(wave).shape == (1024, 1 + (16000 - 1600) // 160) == (1024, 91)


def test_spectrogram_zero_wave_is_zero():
    spec = spectrogram(Waveform(np.zeros(4000), 16000))
    assert np.all(spec == 0.0)


def test_spectrogram_partial_final_frame_dropped():
    n = dsp.WINDOW_LEN + 2 * dsp.HOP_LEN
    assert spectrogram(Waveform(np.ones(n), 16000)).shape[1] == 3
    # one sample short of a fourth frame
    assert spectrogram(Waveform(np.ones(n + dsp.HOP_LEN - 1), 16000)).shape[1] == 3
    assert spectrogram(Waveform(np.ones(n + dsp.HOP_LEN), 16000)).shape[1] == 4


def test_spectrogram_sinusoid_peaks_at_its_bin():
    sr, fft = 16000, 2048
    k = 120  # bin-centered frequency k * sr / fft
    t = np.arange(8000) / sr
    wave = Waveform(np.sin(2 * np.pi * (k * sr / fft) * t), sr)
    spec = spectrogram(wave)
    assert np.all(spec.argmax(axis=0) == k)


def test_spectrogram_column_matches_single_frame_dft():
    # column 2 against the naive O(L^2) DFT of the third windowed frame
    samples = np.random.default_rng(9).standard_normal(2400)
    spec = spectrogram(Waveform(samples, 16000))
    frame = samples[320 : 320 + 1600] * hamming_window(1600)
    expected = naive_dft_magnitude(frame, 2048)
    np.testing.assert_allclose(spec[:, 2], expected, atol=1e-9 * expected.max())


def test_spectrogram_columns_are_dft_magnitude_bit_for_bit():
    # the DFT oracle tests check dft_magnitude, so the spectrogram must be it exactly
    samples = np.random.default_rng(10).standard_normal(6000)
    spec = spectrogram(Waveform(samples, 16000))
    window = hamming_window(dsp.WINDOW_LEN)
    for col in range(spec.shape[1]):
        frame = samples[col * dsp.HOP_LEN : col * dsp.HOP_LEN + dsp.WINDOW_LEN] * window
        assert np.array_equal(spec[:, col], dft_magnitude(frame, dsp.FFT_SIZE)), col


def test_spectrogram_too_short_rejected():
    with pytest.raises(ValueError):
        spectrogram(Waveform(np.zeros(1599), 16000))


@pytest.mark.parametrize("rate", [8000, 44100])
def test_spectrogram_rejects_other_sample_rates(rate):
    # the framing is in samples, so at any other rate it is not 100 ms / 10 ms
    with pytest.raises(ValueError, match=f"{rate} Hz"):
        spectrogram(Waveform(np.ones(rate), rate))
    with pytest.raises(ValueError, match=f"{rate} Hz"):
        extract_sif(Waveform(np.ones(rate), rate))


# --- downsample_freq ------------------------------------------------------------

def test_downsample_1024_to_52_discards_top_bins():
    values = np.zeros((1024, 4))
    values[988:, :] = 1e9  # poison the bins that must be discarded
    out = downsample_freq(values, 52)
    assert out.shape == (52, 4)
    assert np.all(out == 0.0)


def test_downsample_matches_block_mean_oracle():
    rng = np.random.default_rng(4)
    for n_bins, n_out in [(1024, 52), (64, 7), (10, 10), (33, 4)]:
        values = rng.uniform(0, 5, size=(n_bins, 6))
        got = downsample_freq(values, n_out)
        np.testing.assert_allclose(got, naive_downsample(values, n_out), atol=1e-12)


def test_downsample_constant_preserved():
    out = downsample_freq(np.full((100, 3), 2.5), 9)
    np.testing.assert_allclose(out, 2.5, atol=1e-15)


def test_downsample_identity_when_equal():
    values = np.random.default_rng(1).uniform(size=(16, 3))
    np.testing.assert_array_equal(downsample_freq(values, 16), values)


def test_downsample_preserves_mean_of_retained_bins():
    rng = np.random.default_rng(8)
    values = rng.uniform(0, 3, size=(1024, 5))
    out = downsample_freq(values, 52)
    retained = values[: 52 * 19]
    assert abs(out.mean() - retained.mean()) / retained.mean() < 1e-12


def test_downsample_bad_bin_counts():
    spec = np.ones((8, 2))
    with pytest.raises(ValueError):
        downsample_freq(spec, 0)
    with pytest.raises(ValueError):
        downsample_freq(spec, 9)


# --- denoise ---------------------------------------------------------------------

def test_denoise_subtracts_row_minimum():
    out = denoise(np.array([[3.0, 5.0, 4.0]]))
    np.testing.assert_array_equal(out, [[0.0, 2.0, 1.0]])


def test_denoise_constant_rows_become_zero():
    out = denoise(np.full((4, 7), 3.3))
    assert np.all(out == 0.0)


def test_denoise_single_column_is_all_zero():
    out = denoise(np.array([[5.0], [2.0]]))
    assert np.all(out == 0.0)


def test_denoise_row_minima_exactly_zero():
    rng = np.random.default_rng(5)
    spec = rng.uniform(1, 9, size=(20, 30))
    out = denoise(spec)
    assert np.all(out.min(axis=1) == 0.0)
    assert np.all(out >= 0.0)


# --- extract_sif -------------------------------------------------------------------

def _tone_wave(seconds=0.5, freq=440.0, sr=16000):
    t = np.arange(int(seconds * sr)) / sr
    return Waveform(0.5 * np.sin(2 * np.pi * freq * t), sr)


def test_extract_sif_default_shape():
    sif = extract_sif(_tone_wave())
    assert sif.values.shape[0] == 52
    assert not sif.has_energy


def test_extract_sif_energy_row_count():
    sif = extract_sif(_tone_wave(), with_energy=True)
    assert sif.values.shape[0] == 53
    assert sif.has_energy


def test_extract_sif_silence_is_zero():
    sif = extract_sif(Waveform(np.zeros(8000), 16000), with_energy=True)
    assert np.all(sif.values == 0.0)


def test_extract_sif_energy_row_is_column_sum():
    sif = extract_sif(_tone_wave(), with_energy=True)
    np.testing.assert_array_equal(sif.values[52], sif.values[:52].sum(axis=0))


def test_extract_sif_row_minima_zero_random_waves():
    rng = np.random.default_rng(6)
    for _ in range(10):
        wave = Waveform(rng.uniform(-0.8, 0.8, size=4000), 16000)
        sif = extract_sif(wave)
        assert np.all(sif.values.min(axis=1) == 0.0)


def test_extract_sif_deterministic():
    samples = np.random.default_rng(2).uniform(-0.5, 0.5, 6000)
    a = extract_sif(Waveform(samples.copy(), 16000), with_energy=True)
    b = extract_sif(Waveform(samples.copy(), 16000), with_energy=True)
    assert a.values.tobytes() == b.values.tobytes()


# --- .sif file round trip ------------------------------------------------------------

def test_sif_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    sif = Sif(rng.uniform(0, 7, size=(53, 21)), n_freq=52, has_energy=True)
    path = tmp_path / "x.sif"
    write_sif(sif, path)
    loaded = read_sif(path)
    assert loaded.values.tobytes() == sif.values.tobytes()
    assert loaded.values.shape == sif.values.shape
    assert loaded.has_energy == sif.has_energy
    assert loaded.n_freq == 52


def test_sif_round_trip_without_energy(tmp_path):
    sif = Sif(np.arange(12.0).reshape(3, 4), n_freq=3, has_energy=False)
    write_sif(sif, tmp_path / "y.sif")
    loaded = read_sif(tmp_path / "y.sif")
    assert not loaded.has_energy
    np.testing.assert_array_equal(loaded.values, sif.values)


def test_sif_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.sif"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(SifFormatError):
        read_sif(path)


def test_sif_truncated_rejected(tmp_path):
    sif = Sif(np.ones((2, 3)), n_freq=2, has_energy=False)
    path = tmp_path / "t.sif"
    write_sif(sif, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(SifFormatError):
        read_sif(path)


def test_sif_bad_energy_flag_rejected(tmp_path):
    path = tmp_path / "f.sif"
    import struct

    path.write_bytes(b"SIF1" + struct.pack("<IIB", 1, 1, 7) + b"\x00" * 8)
    with pytest.raises(SifFormatError):
        read_sif(path)


def test_sif_column_major_layout(tmp_path):
    """The file stores columns contiguously."""
    sif = Sif(np.array([[1.0, 3.0], [2.0, 4.0]]), n_freq=2, has_energy=False)
    path = tmp_path / "cm.sif"
    write_sif(sif, path)
    raw = np.frombuffer(path.read_bytes()[13:], dtype="<f8")
    np.testing.assert_array_equal(raw, [1.0, 2.0, 3.0, 4.0])
