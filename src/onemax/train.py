"""Training loop with validation-based retention, evaluation, width sweeps.

Each epoch: shuffled minibatches, per-sample forward (train mode) and
backward, arithmetic-mean gradient over the batch, one Adam step. After
every epoch the clean-or-corrupted validation stream is scored in eval
mode and the best-scoring parameter snapshot is retained (ties keep the
earlier epoch). Every stream's features are extracted once up front —
optionally through an on-disk cache — so the DSP cost is paid a single
time and a bad clip fails the run before it trains.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dsp, model
from .data import (
    ConditionSet,
    DEFAULT_SNRS,
    Manifest,
    NoiseBank,
    REGIMES,
    Sample,
    build_condition_set,
    condition_name,
    make_batches,
    resolve_sample,
)
from .optim import adam_init, adam_step
from .seeds import derive_seed

DEFAULT_WIDTHS = tuple(range(1, 26, 2))  # {1, 3, ..., 25}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; defaults are the published large-corpus settings."""

    widths: tuple[int, ...] = DEFAULT_WIDTHS
    filters_per_width: int = 100
    learning_rate: float = 1e-4
    dropout_rate: float = 0.5
    l2_lambda: float = 1e-4
    batch_size: int = 100
    epochs: int | None = None      # None -> 1000 mismatched / 500 multi
    seed: int = 0
    regime: str = "mismatched"
    with_energy: bool = False
    n_freq: int = dsp.N_FREQ
    snrs: tuple[float, ...] = DEFAULT_SNRS
    copies_per_snr: int = 1
    validate_clean_only: bool = False

    def __post_init__(self):
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError(f"widths must all be >= 1, got {self.widths}")
        if len(set(self.widths)) != len(self.widths):
            raise ValueError(f"widths must be distinct, got {self.widths}")
        if self.filters_per_width < 1:
            raise ValueError("filters_per_width must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not (np.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ValueError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        if not np.all(np.isfinite(self.snrs)):
            raise ValueError(f"snrs must all be finite, got {self.snrs}")
        if len({condition_name(s) for s in self.snrs}) != len(self.snrs):
            raise ValueError(f"snrs must name distinct conditions, got {self.snrs}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be 'mismatched' or 'multi', got {self.regime!r}")
        if not 1 <= self.n_freq <= dsp.FFT_SIZE // 2:
            raise ValueError(f"n_freq must be in [1, {dsp.FFT_SIZE // 2}], got {self.n_freq}")
        if self.copies_per_snr < 1:
            raise ValueError("copies_per_snr must be >= 1")

    @property
    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return 1000 if self.regime == "mismatched" else 500

    @property
    def input_rows(self) -> int:
        return self.n_freq + (1 if self.with_energy else 0)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_tuple(item):
    def parse(text: str) -> tuple:
        return tuple(item(part) for part in text.split(",")) if text.strip() else ()
    parse.__name__ = f"{item.__name__} list"  # argparse names the type in its errors
    return parse


# Text parser for each TrainConfig field type; config files and flags use it,
# and it reads back what config_text writes.
_PARSERS = {
    "tuple[int, ...]": _parse_tuple(int),
    "tuple[float, ...]": _parse_tuple(float),
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
}
CONFIG_PARSERS = {f.name: _PARSERS[f.type] for f in fields(TrainConfig)}


def value_text(value) -> str:
    """The config_text form of one field value: tuples comma-joined, floats in
    them as %g where that reads back exactly and as repr where it does not."""
    if isinstance(value, tuple):
        return ",".join(_float_text(v) if isinstance(v, float) else str(v) for v in value)
    return str(value)


def _float_text(v: float) -> str:
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


@dataclass
class TrainReport:
    """Learning curves plus the final test-accuracy row.

    val_acc[0] scores the untrained initialization; val_acc[e] the state
    after epoch e. train_loss[e-1] is epoch e's sample-weighted mean
    minibatch loss. best_epoch indexes val_acc (0 = initialization).
    """

    train_loss: list[float]
    val_acc: list[float]
    best_epoch: int
    best_val_acc: float
    test_acc: dict[str, float] = field(default_factory=dict)  # ends with "mean"
    wall_seconds: float = 0.0

    def epoch_lines(self) -> list[str]:
        """One machine-readable JSON line per trained epoch."""
        return [
            json.dumps(
                {"epoch": e, "train_loss": self.train_loss[e - 1], "val_acc": self.val_acc[e]}
            )
            for e in range(1, len(self.train_loss) + 1)
        ]

    def to_text(self) -> str:
        lines = ["epoch  train_loss    val_acc"]
        lines.append(f"{0:>5}  {'-':>10}  {self.val_acc[0]:>9.4f}")
        for e in range(1, len(self.train_loss) + 1):
            lines.append(f"{e:>5}  {self.train_loss[e - 1]:>10.6f}  {self.val_acc[e]:>9.4f}")
        lines.append(
            f"best epoch {self.best_epoch} (validation accuracy {self.best_val_acc:.4f})"
        )
        if self.test_acc:
            lines.append("")
            lines.append(accuracy_table(self.test_acc))
        return "\n".join(lines)


def accuracy_table(acc: dict[str, float]) -> str:
    """Text accuracy row: one column per condition, then the dict's "mean"."""
    header = "  ".join(f"{n:>8}" for n in acc)
    row = "  ".join(f"{v:>8.4f}" for v in acc.values())
    return header + "\n" + row


def feature_digest(config: TrainConfig, sample: Sample) -> str:
    """Cache filename stem for one (sample, feature-config) pairing.

    It keys on the sample's mix seed, not the master seed: a corrupted
    copy's noise draw follows the seed, a clean clip does not, so one
    clean entry serves every seed.
    """
    key = "|".join(
        str(x)
        for x in (
            sample.cache_key,
            sample.mix_seed,
            config.n_freq,
            config.with_energy,
            dsp.WINDOW_LEN,
            dsp.HOP_LEN,
            dsp.FFT_SIZE,
        )
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def cache_path(cache_dir, config: TrainConfig, sample: Sample) -> Path:
    """Where a sample's features are cached under one feature config."""
    return Path(cache_dir) / f"{feature_digest(config, sample)}.sif"


def read_cached(path) -> np.ndarray | None:
    """The features cached at path; None when there is no readable entry.

    An entry cut short by a killed writer counts as a miss, so the caller
    extracts and rewrites it.
    """
    if path is None or not path.exists():
        return None
    try:
        return dsp.read_sif(path).values
    except dsp.SifFormatError:
        return None


def extract_features(
    samples: list[Sample],
    manifest: Manifest,
    bank: NoiseBank | None,
    config: TrainConfig,
    cache_dir=None,
) -> list[np.ndarray]:
    """SIF matrices for a sample stream, via the cache directory when given.

    A data error in loading, mixing or extracting one sample is raised as
    a ValueError prefixed with the sample's description; a failure to write
    the cache entry is raised as it is.
    """
    cache = Path(cache_dir) if cache_dir is not None else None
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)
    out = []
    for sample in samples:
        path = cache_path(cache, config, sample) if cache is not None else None
        cached = read_cached(path)
        if cached is not None:
            out.append(cached)
            continue
        try:
            sif = dsp.extract_sif(
                resolve_sample(sample, manifest, bank),
                n_freq=config.n_freq,
                with_energy=config.with_energy,
            )
        except (OSError, ValueError) as exc:
            raise ValueError(f"{sample.description}: {exc}") from exc
        if path is not None:
            dsp.write_sif(sif, path)
        out.append(sif.values)
    return out


def _accuracy(params: model.ModelParams, sifs: list[np.ndarray], labels: list[int]) -> float:
    correct = 0
    for sif, label in zip(sifs, labels):
        trace = model.forward(params, sif, sif.shape[1], mode="eval")
        correct += int(np.argmax(trace.y_hat)) == label
    return correct / len(sifs)


def _check_manifest(manifest: Manifest) -> None:
    """Raise the data errors that no width or epoch count can avoid."""
    for split in ("train", "validation", "test"):
        if not manifest.by_split(split):
            raise ValueError(f"manifest has no records in the {split!r} split")
    if manifest.n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {manifest.n_classes}")


def _condition_set(config: TrainConfig, manifest: Manifest, bank: NoiseBank) -> ConditionSet:
    return build_condition_set(
        manifest, bank, config.regime, config.seed,
        snrs=config.snrs, copies_per_snr=config.copies_per_snr,
        validate_clean_only=config.validate_clean_only,
    )


Stream = tuple[list[np.ndarray], list[int]]  # a loaded stream: SIF matrices, class indices


def _load(streams: dict[str, list[Sample]], manifest, bank, config, cache_dir):
    """Each named sample stream's loaded Stream, under the same name."""
    return {name: (extract_features(samples, manifest, bank, config, cache_dir),
                   [s.class_index for s in samples]) for name, samples in streams.items()}


def _load_all(config, manifest, bank, cache_dir) -> tuple[Stream, Stream, dict[str, Stream]]:
    """Check the manifest, expand it once, and load its train, validation and test streams."""
    _check_manifest(manifest)
    cs = _condition_set(config, manifest, bank)
    fit = _load({"train": cs.train, "validation": cs.validation}, manifest, bank, config, cache_dir)
    return fit["train"], fit["validation"], _load(cs.test, manifest, bank, config, cache_dir)


def train(
    config: TrainConfig,
    manifest: Manifest,
    bank: NoiseBank,
    cache_dir=None,
    progress=None,
) -> tuple[model.ModelParams, TrainReport]:
    """Train on the manifest's train split; return the best snapshot and report.

    Every stream, test streams included, is loaded before epoch 1. The
    returned parameters maximized validation accuracy (earliest epoch on
    ties, including the untrained epoch 0); the report carries the learning
    curve and the retained model's test-accuracy row. Bit-deterministic
    for a fixed (config, corpus).
    """
    t0 = time.monotonic()
    streams = _load_all(config, manifest, bank, cache_dir)
    params, report = _fit(config, manifest.n_classes, *streams, progress)
    report.wall_seconds = time.monotonic() - t0
    return params, report


def _fit(config: TrainConfig, n_classes: int, train_set: Stream, validation: Stream,
         test: dict[str, Stream], progress=None) -> tuple[model.ModelParams, TrainReport]:
    """train()'s epoch loop and final test scoring, on loaded streams."""
    train_clips, train_labels = train_set
    params = model.init_params(
        n_classes=n_classes,
        input_rows=config.input_rows,
        widths=config.widths,
        filters_per_width=config.filters_per_width,
        seed=derive_seed(config.seed, "init"),
    )
    state = adam_init(params.blocks(), alpha=config.learning_rate)

    val_curve = [_accuracy(params, *validation)]
    best_params = params.copy()
    best_acc = val_curve[0]
    best_epoch = 0
    loss_curve: list[float] = []

    for epoch in range(1, config.resolved_epochs + 1):
        batches = make_batches(
            len(train_clips), config.batch_size,
            shuffle_seed=derive_seed(config.seed, "shuffle", epoch),
        )
        epoch_ce = 0.0
        epoch_reg = 0.0
        for b, batch in enumerate(batches):
            grad_sum = None
            batch_ce = 0.0
            for i in batch.tolist():
                sif = train_clips[i]
                target = train_labels[i]
                trace = model.forward(
                    params, sif, sif.shape[1], mode="train",
                    dropout_rate=config.dropout_rate,
                    rng_seed=derive_seed(config.seed, "dropout", epoch, i),
                )
                batch_ce += model.loss(trace, target, params, 0.0)
                grads = model.backward(params, trace, sif, target, config.l2_lambda)
                if grad_sum is None:
                    grad_sum = grads.arrays()
                else:
                    for acc, g in zip(grad_sum, grads.arrays()):
                        acc += g
            n = len(batch)
            mean_grads = [g / n for g in grad_sum]
            reg = model.regularizer(params, config.l2_lambda)
            batch_loss = batch_ce / n + reg
            if not np.isfinite(batch_loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {b}"
                )
            try:
                adam_step(state, params.blocks(), mean_grads)
            except FloatingPointError as exc:
                raise RuntimeError(
                    f"training diverged at epoch {epoch}, batch {b}: {exc}"
                ) from exc
            epoch_ce += batch_ce
            epoch_reg += reg * n
        n_train = len(train_clips)
        loss_curve.append(epoch_ce / n_train + epoch_reg / n_train)

        acc = _accuracy(params, *validation)
        val_curve.append(acc)
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best_params = params.copy()
        if progress is not None:
            progress(epoch, loss_curve[-1], acc)

    report = TrainReport(
        train_loss=loss_curve,
        val_acc=val_curve,
        best_epoch=best_epoch,
        best_val_acc=best_acc,
        test_acc=_test_accuracy(best_params, test),
    )
    return best_params, report


def evaluate(
    params: model.ModelParams,
    manifest: Manifest,
    bank: NoiseBank,
    config: TrainConfig,
    cache_dir=None,
) -> dict[str, float]:
    """Test accuracy per condition (clean plus each SNR) and their mean.

    Returned dict preserves condition order and ends with a "mean" entry.
    """
    _check_manifest(manifest)
    if params.n_classes != manifest.n_classes:
        raise ValueError(
            f"checkpoint has {params.n_classes} classes, manifest has {manifest.n_classes}"
        )
    if params.input_rows != config.input_rows:
        raise ValueError(
            f"checkpoint expects {params.input_rows} input rows, "
            f"config produces {config.input_rows}"
        )
    cs = _condition_set(config, manifest, bank)
    return _test_accuracy(params, _load(cs.test, manifest, bank, config, cache_dir))


def _test_accuracy(params: model.ModelParams, test: dict[str, Stream]) -> dict[str, float]:
    """Accuracy on each loaded test stream, in condition order, then their "mean"."""
    out = {condition: _accuracy(params, *stream) for condition, stream in test.items()}
    out["mean"] = float(np.mean(list(out.values())))
    return out


def width_sweep(
    config: TrainConfig,
    manifest: Manifest,
    bank: NoiseBank,
    cache_dir=None,
) -> list[dict]:
    """Train one single-width model per width of config.widths; report
    per-condition accuracy.

    Each width w is fitted as replace(config, widths=(w,)). Features do not
    depend on the width, so every stream is loaded once, in memory (through
    the cache directory when given), and a data error raises once, before
    any width is fitted. A width that diverges becomes a row with its error
    message, and the sweep continues.
    Each row: {"width": w, "accuracy": {...}, "error": None}.
    """
    streams = _load_all(config, manifest, bank, cache_dir)
    rows = []
    for w in config.widths:
        try:
            _, report = _fit(replace(config, widths=(w,)), manifest.n_classes, *streams)
            rows.append({"width": w, "accuracy": report.test_acc, "error": None})
        except RuntimeError as exc:
            rows.append({"width": w, "accuracy": None, "error": str(exc)})
    return rows


def sweep_tsv(rows: list[dict]) -> str:
    """Plot-ready TSV: one line per (width, condition) pair."""
    lines = ["width\tcondition\taccuracy"]
    for row in rows:
        if row["error"] is not None:
            lines.append(f"{row['width']}\terror\t{row['error']}")
            continue
        for condition, acc in row["accuracy"].items():
            lines.append(f"{row['width']}\t{condition}\t{acc:.6f}")
    return "\n".join(lines)


def config_text(config: TrainConfig) -> str:
    """key=value dump of every TrainConfig field, with epochs resolved."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    values["epochs"] = config.resolved_epochs
    return "\n".join(f"{k}={value_text(v)}" for k, v in values.items())
