"""Corpus management: WAV I/O, manifests, noise corruption, batching.

The noise-corruption protocol: each corrupted copy of a clean event picks
one noise from the bank and a random start offset into it, then scales
that segment so the signal-to-noise ratio hits the requested dB value
exactly. Training regimes: "mismatched" trains on clean audio only;
"multi" trains on clean plus corrupted copies. Test streams always cover
clean and every SNR level so the two regimes are evaluated identically.

A small synthetic corpus generator stands in for a real recording
session: each class is a distinct time-frequency signature (tone bursts,
chirps, AM noise, click trains, harmonic stacks) with jittered duration,
pitch, and amplitude, plus four synthetic background noises.
"""

from __future__ import annotations

import struct
import wave as wave_module
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .container import read_text, write_atomic
from .dsp import SAMPLE_RATE, Waveform
from .seeds import derive_seed

MANIFEST_HEADER = "#manifest-v1"
SPLITS = ("train", "validation", "test")
REGIMES = ("mismatched", "multi")
DEFAULT_SNRS = (20.0, 10.0, 0.0)

EVENT_KINDS = ("tone", "chirp_up", "chirp_down", "am_noise", "clicks", "harmonic")
NOISE_NAMES = ("white", "pink", "babble", "machinery")


class WavFormatError(ValueError):
    """Raised when a WAV file is missing, malformed, or an unsupported flavor."""


class ManifestFormatError(ValueError):
    """Raised when a manifest file cannot be parsed."""


# ---------------------------------------------------------------------------
# WAV I/O (16-bit PCM mono only; no silent resampling or remixing)

def load_wav(path) -> Waveform:
    """Read a RIFF/WAVE file of 16-bit PCM mono samples, scaled by 1/32768.

    The file's rate is kept; dsp.spectrogram rejects all but dsp.SAMPLE_RATE.
    """
    try:
        with wave_module.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise WavFormatError(f"{path}: compressed WAV ({wf.getcomptype()}) not supported")
            if wf.getsampwidth() != 2:
                raise WavFormatError(
                    f"{path}: {8 * wf.getsampwidth()}-bit samples; only 16-bit PCM supported"
                )
            if wf.getnchannels() != 1:
                raise WavFormatError(f"{path}: {wf.getnchannels()} channels; only mono supported")
            rate = wf.getframerate()
            n = wf.getnframes()
            raw = wf.readframes(n)
    except FileNotFoundError:
        raise
    except (wave_module.Error, EOFError, struct.error) as exc:
        raise WavFormatError(f"{path}: not a readable WAV file ({exc})") from exc
    if len(raw) < 2 * n:
        raise WavFormatError(f"{path}: data chunk truncated ({len(raw)} bytes for {n} frames)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(path, wave: Waveform) -> int:
    """Write 16-bit PCM mono; returns how many samples had to be clipped."""
    scaled = np.rint(wave.samples * 32768.0)
    clipped = int(np.count_nonzero((scaled < -32768) | (scaled > 32767)))
    data = np.clip(scaled, -32768, 32767).astype("<i2")
    with wave_module.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(wave.sample_rate)
        wf.writeframes(data.tobytes())
    return clipped


# ---------------------------------------------------------------------------
# Manifests

@dataclass(frozen=True)
class ManifestRecord:
    """One clean audio event: relative path, class label, split."""

    path: str
    label: str
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if not self.label:
            raise ValueError("label must be non-empty")


@dataclass
class Manifest:
    """Record list plus the directory its relative paths resolve against.

    The label-to-class table is built once here, so records must not be
    changed after construction.
    """

    records: list[ManifestRecord]
    root: Path

    def __post_init__(self):
        self.root = Path(self.root)
        seen = set()
        for rec in self.records:
            if rec.path in seen:
                raise ValueError(f"duplicate record for path {rec.path!r}")
            seen.add(rec.path)
        labels = sorted({rec.label for rec in self.records})
        self._class_of = {label: i for i, label in enumerate(labels)}

    @property
    def label_table(self) -> list[str]:
        """Sorted unique labels; index in this list is the class index."""
        return list(self._class_of)

    def class_index(self, label: str) -> int:
        try:
            return self._class_of[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in manifest") from None

    @property
    def n_classes(self) -> int:
        return len(self._class_of)

    def by_split(self, split: str) -> list[ManifestRecord]:
        if split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
        return [rec for rec in self.records if rec.split == split]

    def abspath(self, record: ManifestRecord) -> Path:
        return self.root / record.path


def condition_name(snr_db: float | None) -> str:
    """None -> 'clean'; 20.0 -> 'snr20'; 2.5 -> 'snr2.5'.

    Non-integer dB is spelled with repr, so condition_snr reads back the
    exact SNR and distinct SNRs get distinct names.
    """
    if snr_db is None:
        return "clean"
    snr_db = float(snr_db)
    return f"snr{int(snr_db)}" if snr_db.is_integer() else f"snr{snr_db!r}"


def condition_snr(name: str) -> float | None:
    """Inverse of condition_name; raises ValueError on unknown names."""
    if name == "clean":
        return None
    if name.startswith("snr"):
        try:
            return float(name[3:])
        except ValueError:
            pass
    raise ValueError(f"unknown condition {name!r}")


def write_manifest(manifest: Manifest, path) -> None:
    lines = [MANIFEST_HEADER]
    for rec in manifest.records:
        lines.append(f"{rec.path}\t{rec.label}\t{rec.split}\tclean\t-")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_manifest(path) -> Manifest:
    path = Path(path)
    lines = read_text(path, ManifestFormatError).splitlines()
    if not lines or lines[0].strip() != MANIFEST_HEADER:
        raise ManifestFormatError(f"{path}: missing {MANIFEST_HEADER} header line")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
        if len(fields) != 5:
            raise ManifestFormatError(
                f"{path}:{lineno}: expected 5 tab-separated fields, got {len(fields)}"
            )
        rel, label, split, condition, source = fields
        # corrupted copies are derived from clean events at run time, never listed
        if (condition, source) != ("clean", "-"):
            raise ManifestFormatError(
                f"{path}:{lineno}: condition and source must be 'clean' and '-', "
                f"got {condition!r} and {source!r}"
            )
        try:
            records.append(ManifestRecord(path=rel, label=label, split=split))
        except ValueError as exc:
            raise ManifestFormatError(f"{path}:{lineno}: {exc}") from exc
    try:
        return Manifest(records=records, root=path.parent)
    except ValueError as exc:
        raise ManifestFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Noise bank and SNR-controlled mixing

@dataclass
class NoiseBank:
    """Named background noises, all at one sample rate; names kept sorted."""

    waves: dict[str, Waveform]

    def __post_init__(self):
        if not self.waves:
            raise ValueError("noise bank must contain at least one noise")
        rates = {w.sample_rate for w in self.waves.values()}
        if len(rates) != 1:
            raise ValueError(f"noise bank mixes sample rates: {sorted(rates)}")

    @property
    def names(self) -> list[str]:
        return sorted(self.waves)


def load_noise_bank(noise_dir) -> NoiseBank:
    """Load every .wav in a directory; the file stem becomes the noise name."""
    noise_dir = Path(noise_dir)
    paths = sorted(noise_dir.glob("*.wav"))
    if not paths:
        raise WavFormatError(f"{noise_dir}: no .wav files found")
    return NoiseBank({p.stem: load_wav(p) for p in paths})


def mix_noise_at_snr(
    clean: Waveform, bank: NoiseBank, snr_db: float, rng_seed: int
) -> Waveform:
    """Add a randomly chosen, randomly offset noise segment at an exact SNR.

    The segment is scaled by g = sqrt(P_s / (P_n * 10^(snr_db/10))) where
    P_s and P_n are the mean squares of the clean signal and the segment,
    so 10*log10(P_s / P_{g*n}) == snr_db identically. The sum is returned
    as floats without re-normalization and may exceed [-1, 1].
    """
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    p_signal = float(np.mean(clean.samples**2))
    if p_signal == 0.0:
        raise ValueError("clean signal is silent; SNR is undefined")
    rng = np.random.default_rng(rng_seed)
    name = bank.names[int(rng.integers(len(bank.names)))]
    noise = bank.waves[name]
    if noise.sample_rate != clean.sample_rate:
        raise ValueError(
            f"noise {name!r} at {noise.sample_rate} Hz, clean at {clean.sample_rate} Hz"
        )
    max_start = len(noise) - len(clean)
    if max_start < 0:
        raise ValueError(
            f"noise {name!r} ({len(noise)} samples) shorter than clean event ({len(clean)})"
        )
    start = int(rng.integers(max_start + 1))
    segment = noise.samples[start : start + len(clean)]
    p_noise = float(np.mean(segment**2))
    if p_noise == 0.0:
        raise ValueError(f"noise {name!r} segment at offset {start} is silent")
    gain = np.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    return Waveform(clean.samples + gain * segment, clean.sample_rate)


# ---------------------------------------------------------------------------
# Synthetic corpus generation

# each event's peak amplitude is drawn from [MIN_AMPLITUDE, MAX_AMPLITUDE] and
# its pitch scaled by a factor drawn from 1 +/- PITCH_JITTER
MIN_AMPLITUDE = 0.3
MAX_AMPLITUDE = 0.9
PITCH_JITTER = 0.05


@dataclass(frozen=True)
class SynthConfig:
    n_classes: int = 5
    instances_per_class: int = 16
    min_duration_s: float = 0.3
    max_duration_s: float = 1.5
    noise_duration_s: float = 3.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if self.instances_per_class < 1:
            raise ValueError("need at least 1 instance per class")
        if not 0 < self.min_duration_s <= self.max_duration_s:
            raise ValueError("need 0 < min_duration_s <= max_duration_s")
        if self.noise_duration_s < self.max_duration_s:
            raise ValueError("noises must be at least as long as the longest event")


def _edge_ramp(n_samples: int, ramp_s: float = 0.005) -> np.ndarray:
    """Raised-cosine fade-in/out envelope so synthetic events don't click."""
    env = np.ones(n_samples)
    ramp = min(int(ramp_s * SAMPLE_RATE), n_samples // 2)
    if ramp > 0:
        ramp_shape = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        env[:ramp] = ramp_shape
        env[-ramp:] = ramp_shape[::-1]
    return env


def _class_detune(class_index: int) -> float:
    """0 for classes 0-11, then a fifth more for each later round of 12.

    The kind repeats every 6 classes and the pitch step every 12; adding
    this to a class's pitch step and modulation rate keeps the first 60
    classes' generators distinct.
    """
    return (class_index // 12) / 5


def _class_base_freq(class_index: int) -> float:
    # spread classes across the band, a third of an octave apart
    return 220.0 * 2.0 ** ((class_index % 12 + _class_detune(class_index)) / 3.0)


def _synth_event(kind: str, class_index: int, cfg: SynthConfig, rng) -> np.ndarray:
    sr = SAMPLE_RATE
    duration = rng.uniform(cfg.min_duration_s, cfg.max_duration_s)
    amplitude = rng.uniform(MIN_AMPLITUDE, MAX_AMPLITUDE)
    jitter = 1.0 + rng.uniform(-PITCH_JITTER, PITCH_JITTER)
    freq = _class_base_freq(class_index) * jitter
    n = int(round(duration * sr))
    t = np.arange(n) / sr

    if kind == "tone":
        x = np.sin(2.0 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    elif kind in ("chirp_up", "chirp_down"):
        f0, f1 = (freq, 2.0 * freq) if kind == "chirp_up" else (2.0 * freq, freq)
        phase = 2.0 * np.pi * (f0 * t + (f1 - f0) / (2.0 * duration) * t**2)
        x = np.sin(phase + rng.uniform(0, 2 * np.pi))
    elif kind == "am_noise":
        mod_hz = 3.0 + (class_index % 7) + _class_detune(class_index)
        x = rng.standard_normal(n) * (0.55 + 0.45 * np.sin(2.0 * np.pi * mod_hz * t))
    elif kind == "clicks":
        rate_hz = 6.0 + 2.0 * (class_index % 5)
        period = int(sr / rate_hz)
        click_len = int(0.02 * sr)
        tc = np.arange(click_len) / sr
        click = np.exp(-tc / 0.004) * np.sin(2.0 * np.pi * freq * tc)
        x = np.zeros(n)
        for start in range(int(rng.integers(period // 2)), n, period):
            stop = min(start + click_len, n)
            x[start:stop] += click[: stop - start]
    elif kind == "harmonic":
        x = np.zeros(n)
        for h in range(1, 6):
            if h * freq >= sr / 2:
                break
            x += np.sin(2.0 * np.pi * h * freq * t + rng.uniform(0, 2 * np.pi)) / h
    else:
        raise ValueError(f"unknown event kind {kind!r}")

    x *= _edge_ramp(n)
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= amplitude / peak
    return x


def _synth_noise(name: str, cfg: SynthConfig, rng) -> np.ndarray:
    sr = SAMPLE_RATE
    n = int(round(cfg.noise_duration_s * sr))
    t = np.arange(n) / sr
    if name == "white":
        x = rng.standard_normal(n)
    elif name == "pink":
        spectrum = np.fft.rfft(rng.standard_normal(n))
        weights = 1.0 / np.sqrt(np.maximum(np.arange(len(spectrum)), 1.0))
        x = np.fft.irfft(spectrum * weights, n=n)
    elif name == "babble":
        x = np.zeros(n)
        for _ in range(40):
            f = rng.uniform(120.0, 3800.0)
            phase = rng.uniform(0, 2 * np.pi)
            mod = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.5, 3.0) * t + rng.uniform(0, 2 * np.pi))
            x += mod * np.sin(2 * np.pi * f * t + phase)
        x /= np.sqrt(40.0)
    elif name == "machinery":
        hum = np.zeros(n)
        for k, a in enumerate([1.0, 0.6, 0.35, 0.2], start=1):
            hum += a * np.sin(2 * np.pi * 60.0 * k * t + rng.uniform(0, 2 * np.pi))
        x = hum * (1.0 + 0.3 * np.sin(2 * np.pi * 7.0 * t)) + 0.05 * rng.standard_normal(n)
    else:
        raise ValueError(f"unknown noise kind {name!r}")
    rms = np.sqrt(np.mean(x**2))
    x *= 0.08 / rms
    peak = np.max(np.abs(x))
    if peak > 0.9:
        x *= 0.9 / peak
    return x


def synth_corpus(cfg: SynthConfig, out_dir, rng_seed: int) -> tuple[Manifest, NoiseBank]:
    """Generate a labeled WAV corpus plus a noise bank under out_dir.

    Layout: events/<label>_<idx>.wav, noise/<name>.wav, manifest.tsv.
    Splits follow 50% / 12.5% / 37.5% train/validation/test proportions
    per class (rounded). Every file's samples derive from its own seed,
    so regenerating with the same master seed is byte-identical and
    adding classes or instances never reshuffles existing files.
    """
    out_dir = Path(out_dir)
    events_dir = out_dir / "events"
    noise_dir = out_dir / "noise"
    events_dir.mkdir(parents=True, exist_ok=True)
    noise_dir.mkdir(parents=True, exist_ok=True)

    n = cfg.instances_per_class
    n_train = round(n * 0.5)
    n_val = round(n * 0.125)

    records = []
    for c in range(cfg.n_classes):
        kind = EVENT_KINDS[c % len(EVENT_KINDS)]
        label = f"c{c:02d}_{kind}"
        for i in range(n):
            rng = np.random.default_rng(derive_seed(rng_seed, "event", c, i))
            samples = _synth_event(kind, c, cfg, rng)
            rel = f"events/{label}_{i:03d}.wav"
            write_wav(out_dir / rel, Waveform(samples, SAMPLE_RATE))
            split = "train" if i < n_train else ("validation" if i < n_train + n_val else "test")
            records.append(ManifestRecord(path=rel, label=label, split=split))

    waves = {}
    for name in NOISE_NAMES:
        rng = np.random.default_rng(derive_seed(rng_seed, "noise", name))
        samples = _synth_noise(name, cfg, rng)
        write_wav(noise_dir / f"{name}.wav", Waveform(samples, SAMPLE_RATE))
        # reload so the in-memory bank matches the int16 files bit-for-bit
        waves[name] = load_wav(noise_dir / f"{name}.wav")

    manifest = Manifest(records=records, root=out_dir)
    write_manifest(manifest, out_dir / "manifest.tsv")
    return manifest, NoiseBank(waves)


# ---------------------------------------------------------------------------
# Condition sets (mismatched / multi-condition regimes)

@dataclass(frozen=True)
class Sample:
    """One (event, condition) pairing; corrupted samples carry their mix seed."""

    record: ManifestRecord
    condition: str
    class_index: int
    mix_seed: int | None = None
    copy: int = 0

    @property
    def cache_key(self) -> str:
        return f"{self.record.path}|{self.condition}|{self.copy}"

    @property
    def description(self) -> str:
        """`path [condition]`, naming the copy past the first: `path [snr0 copy 1]`."""
        copy = f" copy {self.copy}" if self.copy else ""
        return f"{self.record.path} [{self.condition}{copy}]"


@dataclass
class ConditionSet:
    """Sample streams for one training regime."""

    train: list[Sample]
    validation: list[Sample]
    test: dict[str, list[Sample]] = field(default_factory=dict)


def build_condition_set(
    manifest: Manifest,
    bank: NoiseBank | None,
    regime: str,
    rng_seed: int,
    snrs: tuple[float, ...] = DEFAULT_SNRS,
    copies_per_snr: int = 1,
    validate_clean_only: bool = False,
) -> ConditionSet:
    """Expand a clean manifest into regime-specific sample streams.

    mismatched: train on clean only. multi: train on clean plus
    copies_per_snr corrupted copies per SNR level per instance; the
    validation stream gets the same treatment (model selection sees the
    conditions it will be tested on) unless validate_clean_only. Test
    streams always cover clean plus every SNR; make_sample builds each
    sample. bank is not read, and may be None: a sample names its noise
    condition and mix seed, and resolve_sample mixes the noise in.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be 'mismatched' or 'multi', got {regime!r}")
    if copies_per_snr < 1:
        raise ValueError(f"copies_per_snr must be >= 1, got {copies_per_snr}")
    if len({condition_name(s) for s in snrs}) != len(snrs):
        raise ValueError(f"snrs must name distinct conditions, got {tuple(snrs)}")

    def clean(recs: list[ManifestRecord]) -> list[Sample]:
        return [make_sample(manifest, r, None, rng_seed) for r in recs]

    def expand(recs: list[ManifestRecord]) -> list[Sample]:
        out = clean(recs)
        for snr in snrs:
            for k in range(copies_per_snr):
                out.extend(make_sample(manifest, r, snr, rng_seed, k) for r in recs)
        return out

    train_recs = manifest.by_split("train")
    val_recs = manifest.by_split("validation")
    train = clean(train_recs) if regime == "mismatched" else expand(train_recs)
    if regime == "multi" and not validate_clean_only:
        validation = expand(val_recs)
    else:
        validation = clean(val_recs)

    test_recs = manifest.by_split("test")
    test = {"clean": clean(test_recs)}
    for snr in snrs:
        test[condition_name(snr)] = [make_sample(manifest, r, snr, rng_seed) for r in test_recs]
    return ConditionSet(train=train, validation=validation, test=test)


def make_sample(
    manifest: Manifest, record: ManifestRecord, snr: float | None, rng_seed: int, copy: int = 0
) -> Sample:
    """One record under one condition: clean when snr is None, else corrupted.

    A corrupted copy's mix seed is derived from (rng_seed, path,
    condition, copy), so it is identical across regimes and runs.
    """
    class_index = manifest.class_index(record.label)
    if snr is None:
        return Sample(record=record, condition="clean", class_index=class_index)
    condition = condition_name(snr)
    return Sample(
        record=record,
        condition=condition,
        class_index=class_index,
        mix_seed=derive_seed(rng_seed, "mix", record.path, condition, copy),
        copy=copy,
    )


def resolve_sample(sample: Sample, manifest: Manifest, bank: NoiseBank | None) -> Waveform:
    """Load a sample's audio, applying its noise corruption if any."""
    clean = load_wav(manifest.abspath(sample.record))
    snr = condition_snr(sample.condition)
    if snr is None:
        return clean
    if bank is None:
        raise ValueError(f"sample {sample.record.path} needs noise but no bank was given")
    if sample.mix_seed is None:
        raise ValueError(f"corrupted sample {sample.record.path} has no mix seed")
    return mix_noise_at_snr(clean, bank, snr, sample.mix_seed)


# ---------------------------------------------------------------------------
# Minibatches

def make_batches(n: int, batch_size: int, shuffle_seed: int) -> list[np.ndarray]:
    """Shuffle dataset positions 0..n-1 and split them into batches of indices.

    The final short batch is kept. Indices are original dataset positions,
    so per-sample seeds can be tied to stable identities.
    """
    if n < 1:
        raise ValueError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(shuffle_seed).permutation(n)
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]
