import wave as wave_module
from pathlib import Path

import numpy as np
import pytest

from onemax import data
from onemax.data import (
    DEFAULT_SNRS,
    MANIFEST_HEADER,
    NOISE_NAMES,
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
from onemax.dsp import Waveform, extract_sif


def write_raw_wav(path, samples_i16, rate=16000, channels=1, sampwidth=2):
    with wave_module.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(rate)
        wf.writeframes(np.asarray(samples_i16).astype("<i2").tobytes())


# --- WAV I/O -------------------------------------------------------------------

def test_load_wav_scaling(tmp_path):
    path = tmp_path / "a.wav"
    write_raw_wav(path, [16384, -32768, 0, 32767])
    wave = load_wav(path)
    assert wave.sample_rate == 16000
    np.testing.assert_array_equal(
        wave.samples, [0.5, -1.0, 0.0, 32767.0 / 32768.0]
    )


def test_load_wav_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "nope.wav")


def test_load_wav_rejects_stereo(tmp_path):
    path = tmp_path / "st.wav"
    with wave_module.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(np.zeros(8, dtype="<i2").tobytes())
    with pytest.raises(WavFormatError, match="mono"):
        load_wav(path)


def test_load_wav_rejects_8bit(tmp_path):
    path = tmp_path / "b8.wav"
    with wave_module.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(16000)
        wf.writeframes(bytes(16))
    with pytest.raises(WavFormatError, match="16-bit"):
        load_wav(path)


def test_wrong_rate_wav_loads_but_extracts_no_features(tmp_path):
    path = tmp_path / "slow.wav"
    write_raw_wav(path, np.arange(8000), rate=8000)
    wave = load_wav(path)
    assert wave.sample_rate == 8000
    with pytest.raises(ValueError, match="8000 Hz"):
        extract_sif(wave)


def test_load_wav_rejects_garbage(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"this is not RIFF data at all.....")
    with pytest.raises(WavFormatError):
        load_wav(path)


def test_load_wav_rejects_truncated_data(tmp_path):
    path = tmp_path / "cut.wav"
    write_raw_wav(path, np.arange(1000))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 500])
    with pytest.raises(WavFormatError):
        load_wav(path)


def test_write_wav_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    original = Waveform(rng.uniform(-0.99, 0.99, size=500), 16000)
    path = tmp_path / "rt.wav"
    assert write_wav(path, original) == 0
    back = load_wav(path)
    # quantized to the nearest 1/32768 step
    np.testing.assert_allclose(back.samples, original.samples, atol=0.5 / 32768.0)


def test_write_wav_counts_clipped_samples(tmp_path):
    wave = Waveform(np.array([0.0, 1.5, -2.0, 0.25]), 16000)
    assert write_wav(tmp_path / "c.wav", wave) == 2


# --- condition names -----------------------------------------------------------

def test_condition_names_round_trip():
    assert condition_name(None) == "clean"
    assert condition_name(20.0) == "snr20"
    assert condition_name(0.0) == "snr0"
    assert condition_name(-5.0) == "snr-5"
    assert condition_name(2.5) == "snr2.5"
    assert condition_snr("clean") is None
    assert condition_snr("snr10") == 10.0
    assert condition_snr("snr-5") == -5.0
    with pytest.raises(ValueError):
        condition_snr("loud")
    with pytest.raises(ValueError):
        condition_snr("snrx")


def test_condition_names_are_exact():
    assert condition_name(12.3456789) == "snr12.3456789"
    assert condition_name(7.0000001) != condition_name(7.0000002)
    for snr in (12.3456789, 7.0000001, 0.1, -2.75, 1e-05, 1234567.5):
        assert condition_snr(condition_name(snr)) == snr
    # every name that %g spelled exactly is kept, so cache names do not move
    for snr in [*np.arange(-40.0, 40.0, 0.125), 0.1, 0.3, -1.7, 1e-05, 2.5e-07]:
        if not float(snr).is_integer() and float(f"{snr:g}") == snr:
            assert condition_name(snr) == f"snr{snr:g}"


def test_close_snrs_get_their_own_streams_and_mix_seeds(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    snrs = (7.0000001, 7.0000002, 12.3456789)
    cs = build_condition_set(manifest, bank, "multi", rng_seed=3, snrs=snrs)
    assert list(cs.test) == ["clean", "snr7.0000001", "snr7.0000002", "snr12.3456789"]
    mix_seeds = [s.mix_seed for s in cs.train if s.mix_seed is not None]
    assert len(mix_seeds) == len(snrs) * len(manifest.by_split("train"))
    assert len(set(mix_seeds)) == len(mix_seeds)
    # a corrupted copy is mixed at the requested SNR, not at a rounded one
    sample = cs.test["snr12.3456789"][0]
    mixed = resolve_sample(sample, manifest, bank)
    clean = load_wav(manifest.abspath(sample.record))
    assert measured_snr_db(mixed, clean) == pytest.approx(12.3456789, abs=1e-9)


# --- manifests -----------------------------------------------------------------

def make_manifest(root):
    records = [
        ManifestRecord("events/b_000.wav", "beta", "train"),
        ManifestRecord("events/a_000.wav", "alpha", "train"),
        ManifestRecord("events/a_001.wav", "alpha", "validation"),
        ManifestRecord("events/b_001.wav", "beta", "test"),
    ]
    return Manifest(records=records, root=root)


def test_manifest_label_table_sorted_and_dense(tmp_path):
    m = make_manifest(tmp_path)
    assert m.label_table == ["alpha", "beta"]
    assert m.class_index("alpha") == 0
    assert m.class_index("beta") == 1
    assert m.n_classes == 2
    with pytest.raises(KeyError):
        m.class_index("gamma")


def test_manifest_rejects_duplicate_path(tmp_path):
    rec = ManifestRecord("x.wav", "a", "train")
    with pytest.raises(ValueError, match="duplicate"):
        Manifest(records=[rec, ManifestRecord("x.wav", "a", "test")], root=tmp_path)
    path = tmp_path / "m.tsv"
    path.write_text(MANIFEST_HEADER + "\nx.wav\ta\ttrain\tclean\t-\n" * 2)
    with pytest.raises(ManifestFormatError, match="duplicate"):
        read_manifest(path)


def test_manifest_record_validation():
    with pytest.raises(ValueError, match="split"):
        ManifestRecord("x.wav", "a", "dev")
    with pytest.raises(ValueError, match="label"):
        ManifestRecord("x.wav", "", "train")


@pytest.mark.parametrize("condition, source", [
    ("snr0", "-"),
    ("noisy", "-"),
    ("clean", "events/a.wav"),
    ("snr0", "events/a.wav"),
])
def test_manifest_rejects_non_clean_rows(tmp_path, condition, source):
    """Corrupted copies are derived at run time; a listed one would be corrupted again."""
    path = tmp_path / "m.tsv"
    path.write_text(
        MANIFEST_HEADER
        + "\nevents/a.wav\talpha\ttrain\tclean\t-"
        + f"\nnoisy/a.wav\talpha\ttest\t{condition}\t{source}\n"
    )
    with pytest.raises(ManifestFormatError, match=r"m\.tsv:3: condition and source"):
        read_manifest(path)


def test_manifest_round_trip(tmp_path):
    m = make_manifest(tmp_path)
    path = tmp_path / "manifest.tsv"
    write_manifest(m, path)
    text = path.read_text()
    assert text.startswith(MANIFEST_HEADER + "\n")
    back = read_manifest(path)
    assert back.records == m.records
    assert back.root == tmp_path


def test_manifest_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(
        MANIFEST_HEADER
        + "\n\n# a comment\nevents/a.wav\talpha\ttrain\tclean\t-\n"
    )
    assert len(read_manifest(path).records) == 1


def test_manifest_bad_inputs(tmp_path):
    missing_header = tmp_path / "h.tsv"
    missing_header.write_text("events/a.wav\talpha\ttrain\tclean\t-\n")
    with pytest.raises(ManifestFormatError, match="header"):
        read_manifest(missing_header)

    short_row = tmp_path / "s.tsv"
    short_row.write_text(MANIFEST_HEADER + "\nevents/a.wav\talpha\ttrain\n")
    with pytest.raises(ManifestFormatError, match="fields"):
        read_manifest(short_row)

    bad_split = tmp_path / "b.tsv"
    bad_split.write_text(MANIFEST_HEADER + "\nevents/a.wav\talpha\tdev\tclean\t-\n")
    with pytest.raises(ManifestFormatError):
        read_manifest(bad_split)

    with pytest.raises(ManifestFormatError):
        read_manifest(tmp_path / "does_not_exist.tsv")


# --- noise mixing ---------------------------------------------------------------

def toy_bank(rng=None, n=2, length=48000):
    rng = rng or np.random.default_rng(42)
    waves = {}
    for i in range(n):
        waves[f"noise{i}"] = Waveform(rng.uniform(-0.2, 0.2, size=length), 16000)
    return NoiseBank(waves)


def measured_snr_db(mixed, clean):
    p_signal = np.mean(clean.samples**2)
    residual = mixed.samples - clean.samples
    return 10.0 * np.log10(p_signal / np.mean(residual**2))


def test_mix_hits_requested_snr_exactly():
    rng = np.random.default_rng(7)
    bank = toy_bank(rng)
    clean = Waveform(rng.uniform(-0.5, 0.5, size=8000), 16000)
    for i, snr in enumerate([20.0, 10.0, 0.0, -5.0, 33.3]):
        for seed in range(4):
            mixed = mix_noise_at_snr(clean, bank, snr, rng_seed=1000 * i + seed)
            assert measured_snr_db(mixed, clean) == pytest.approx(snr, abs=1e-9)


def test_mix_at_zero_db_equalizes_power():
    rng = np.random.default_rng(8)
    bank = toy_bank(rng)
    clean = Waveform(rng.uniform(-0.5, 0.5, size=4000), 16000)
    mixed = mix_noise_at_snr(clean, bank, 0.0, rng_seed=5)
    residual = mixed.samples - clean.samples
    assert np.mean(residual**2) == pytest.approx(np.mean(clean.samples**2), rel=1e-12)


def test_mix_same_seed_is_bit_identical():
    rng = np.random.default_rng(9)
    bank = toy_bank(rng)
    clean = Waveform(rng.uniform(-0.5, 0.5, size=4000), 16000)
    a = mix_noise_at_snr(clean, bank, 10.0, rng_seed=123)
    b = mix_noise_at_snr(clean, bank, 10.0, rng_seed=123)
    assert a.samples.tobytes() == b.samples.tobytes()


def test_mix_different_seeds_differ():
    rng = np.random.default_rng(10)
    bank = toy_bank(rng)
    clean = Waveform(rng.uniform(-0.5, 0.5, size=4000), 16000)
    outputs = {
        mix_noise_at_snr(clean, bank, 10.0, rng_seed=s).samples.tobytes()
        for s in range(6)
    }
    assert len(outputs) > 1


def test_mix_error_paths():
    bank = toy_bank()
    silent = Waveform(np.zeros(1000), 16000)
    with pytest.raises(ValueError, match="silent"):
        mix_noise_at_snr(silent, bank, 10.0, rng_seed=0)

    long_clean = Waveform(np.random.default_rng(0).uniform(-1, 1, 50000), 16000)
    with pytest.raises(ValueError, match="shorter"):
        mix_noise_at_snr(long_clean, bank, 10.0, rng_seed=0)

    wrong_rate = Waveform(np.random.default_rng(0).uniform(-1, 1, 100), 8000)
    with pytest.raises(ValueError, match="Hz"):
        mix_noise_at_snr(wrong_rate, bank, 10.0, rng_seed=0)

    clean = Waveform(np.random.default_rng(0).uniform(-1, 1, 100), 16000)
    with pytest.raises(ValueError, match="finite"):
        mix_noise_at_snr(clean, bank, float("inf"), rng_seed=0)


def test_noise_bank_validation():
    with pytest.raises(ValueError):
        NoiseBank({})
    with pytest.raises(ValueError, match="sample rates"):
        NoiseBank({
            "a": Waveform(np.zeros(10), 16000),
            "b": Waveform(np.zeros(10), 8000),
        })


def test_load_noise_bank(tmp_path):
    for name in ("hum", "fan"):
        write_raw_wav(tmp_path / f"{name}.wav", np.arange(100))
    bank = load_noise_bank(tmp_path)
    assert bank.names == ["fan", "hum"]
    with pytest.raises(WavFormatError, match="no .wav"):
        load_noise_bank(tmp_path / "empty")


# --- synthetic corpus -----------------------------------------------------------

def test_synth_corpus_layout(tiny_corpus):
    manifest, bank, root = tiny_corpus
    # 3 classes x 8 instances; splits 4/1/3 per class
    assert len(manifest.records) == 24
    assert len(manifest.by_split("train")) == 12
    assert len(manifest.by_split("validation")) == 3
    assert len(manifest.by_split("test")) == 9
    assert manifest.n_classes == 3
    assert bank.names == sorted(NOISE_NAMES)
    for rec in manifest.records:
        assert (root / rec.path).exists()
        assert rec.path.startswith("events/")
    rows = (root / "manifest.tsv").read_text().splitlines()[1:]
    assert len(rows) == 24 and all(row.endswith("\tclean\t-") for row in rows)
    for name in NOISE_NAMES:
        assert (root / "noise" / f"{name}.wav").exists()


def test_synth_event_durations_in_bounds(tiny_corpus):
    manifest, _, root = tiny_corpus
    cfg = SynthConfig()
    for rec in manifest.records:
        wave = load_wav(root / rec.path)
        assert wave.sample_rate == 16000
        duration = len(wave) / wave.sample_rate
        assert cfg.min_duration_s - 1e-6 <= duration <= cfg.max_duration_s + 1e-6
        assert np.max(np.abs(wave.samples)) <= 1.0


def test_synth_corpus_reproducible(tmp_path):
    cfg = SynthConfig(n_classes=2, instances_per_class=3)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    synth_corpus(cfg, dir_a, rng_seed=77)
    synth_corpus(cfg, dir_b, rng_seed=77)
    files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel


def test_synth_corpus_seed_changes_audio(tmp_path):
    cfg = SynthConfig(n_classes=2, instances_per_class=2)
    m1, _ = synth_corpus(cfg, tmp_path / "a", rng_seed=1)
    m2, _ = synth_corpus(cfg, tmp_path / "b", rng_seed=2)
    rel = m1.records[0].path
    assert rel == m2.records[0].path
    assert (tmp_path / "a" / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes()


def test_synth_classes_stay_distinct_past_twelve():
    # one seed for every class, so only the class's own parameters can differ
    cfg = SynthConfig(min_duration_s=0.3, max_duration_s=0.3)
    seen = {}
    for c in range(60):
        kind = data.EVENT_KINDS[c % len(data.EVENT_KINDS)]
        samples = data._synth_event(kind, c, cfg, np.random.default_rng(0))
        digest = (kind, samples.tobytes())
        assert digest not in seen, f"class {c} repeats class {seen.get(digest)}"
        seen[digest] = c


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_classes=1)
    with pytest.raises(ValueError):
        SynthConfig(min_duration_s=2.0, max_duration_s=1.0)
    with pytest.raises(ValueError):
        SynthConfig(noise_duration_s=0.5)


@pytest.mark.parametrize("name", ["min_duration_s", "max_duration_s", "noise_duration_s"])
def test_synth_config_rejects_non_finite_floats(name):
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SynthConfig(**{name: value})


# --- condition sets ---------------------------------------------------------------

def test_mismatched_trains_clean_only(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    cs = build_condition_set(manifest, bank, "mismatched", rng_seed=3)
    assert all(s.condition == "clean" for s in cs.train)
    assert all(s.condition == "clean" for s in cs.validation)
    assert len(cs.train) == 12
    assert len(cs.validation) == 3
    assert set(cs.test) == {"clean", "snr20", "snr10", "snr0"}
    for cond, samples in cs.test.items():
        assert len(samples) == 9
        assert all(s.condition == cond for s in samples)


def test_multi_expands_train_and_validation(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    cs = build_condition_set(manifest, bank, "multi", rng_seed=3)
    # clean + 3 SNRs x 1 copy
    assert len(cs.train) == 12 * 4
    assert len(cs.validation) == 3 * 4
    by_cond = {}
    for s in cs.train:
        by_cond.setdefault(s.condition, 0)
        by_cond[s.condition] += 1
    assert by_cond == {"clean": 12, "snr20": 12, "snr10": 12, "snr0": 12}


def test_multi_validate_clean_only_flag(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    cs = build_condition_set(
        manifest, bank, "multi", rng_seed=3, validate_clean_only=True
    )
    assert len(cs.train) == 12 * 4
    assert all(s.condition == "clean" for s in cs.validation)


def test_copies_per_snr_multiplies_training_stream(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    cs = build_condition_set(manifest, bank, "multi", rng_seed=3, copies_per_snr=2)
    assert len(cs.train) == 12 * (1 + 3 * 2)
    snr0 = [s for s in cs.train if s.condition == "snr0"]
    assert {s.copy for s in snr0} == {0, 1}
    # the two copies of one event must have different mix seeds
    seeds = {}
    for s in snr0:
        seeds.setdefault(s.record.path, set()).add(s.mix_seed)
    assert all(len(v) == 2 for v in seeds.values())


def test_mix_seeds_stable_across_regimes(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    a = build_condition_set(manifest, bank, "mismatched", rng_seed=3)
    b = build_condition_set(manifest, bank, "multi", rng_seed=3)
    key = lambda s: (s.record.path, s.copy)
    seeds_a = {key(s): s.mix_seed for s in a.test["snr0"]}
    seeds_b = {key(s): s.mix_seed for s in b.test["snr0"]}
    assert seeds_a == seeds_b
    c = build_condition_set(manifest, bank, "mismatched", rng_seed=4)
    seeds_c = {key(s): s.mix_seed for s in c.test["snr0"]}
    assert seeds_a != seeds_c


def test_clean_samples_carry_no_mix_seed(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    cs = build_condition_set(manifest, bank, "multi", rng_seed=3)
    for s in cs.train:
        if s.condition == "clean":
            assert s.mix_seed is None
        else:
            assert s.mix_seed is not None


def test_build_condition_set_validation(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    with pytest.raises(ValueError, match="regime"):
        build_condition_set(manifest, bank, "matched", rng_seed=0)
    with pytest.raises(ValueError, match="copies_per_snr"):
        build_condition_set(manifest, bank, "multi", rng_seed=0, copies_per_snr=0)


@pytest.mark.parametrize("snrs", [(10.0, 10.0), (0.0, 20.0, 0.0)])
def test_build_condition_set_rejects_repeated_snrs(tiny_corpus, snrs):
    manifest, bank, _ = tiny_corpus
    with pytest.raises(ValueError, match="distinct"):
        build_condition_set(manifest, bank, "multi", rng_seed=0, snrs=snrs)


def test_resolve_sample_clean_and_corrupted(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    cs = build_condition_set(manifest, bank, "multi", rng_seed=3)
    clean_sample = next(s for s in cs.test["clean"])
    corrupted = next(
        s for s in cs.test["snr0"] if s.record.path == clean_sample.record.path
    )
    clean = resolve_sample(clean_sample, manifest, bank)
    mixed = resolve_sample(corrupted, manifest, bank)
    assert len(clean) == len(mixed)
    assert measured_snr_db(mixed, clean) == pytest.approx(0.0, abs=1e-9)
    # resolving again reproduces the same corruption bit for bit
    again = resolve_sample(corrupted, manifest, bank)
    assert mixed.samples.tobytes() == again.samples.tobytes()
    with pytest.raises(ValueError, match="bank"):
        resolve_sample(corrupted, manifest, None)


# --- batching ----------------------------------------------------------------------

def test_make_batches_sizes_and_final_short_batch():
    batches = make_batches(7, batch_size=3, shuffle_seed=0)
    assert [len(b) for b in batches] == [3, 3, 1]
    seen = np.concatenate(batches)
    assert sorted(seen.tolist()) == list(range(7))


def test_make_batches_shuffle_deterministic():
    a = make_batches(10, 4, shuffle_seed=9)
    b = make_batches(10, 4, shuffle_seed=9)
    assert [x.tolist() for x in a] == [x.tolist() for x in b]
    c = make_batches(10, 4, shuffle_seed=10)
    assert [x.tolist() for x in a] != [x.tolist() for x in c]


def test_make_batches_validation():
    with pytest.raises(ValueError, match="empty"):
        make_batches(0, 2, 0)
    with pytest.raises(ValueError, match="batch_size"):
        make_batches(1, 0, 0)


def test_sample_cache_key_distinguishes_copies():
    rec = ManifestRecord("events/a.wav", "alpha", "train")
    a = Sample(rec, "snr0", 0, mix_seed=1, copy=0)
    b = Sample(rec, "snr0", 0, mix_seed=2, copy=1)
    assert a.cache_key != b.cache_key
    assert a.cache_key == "events/a.wav|snr0|0"
