"""Command-line interface: synth, extract, train, eval, sweep, gradcheck.

Configuration precedence: built-in defaults < config file (key=value
lines, # comments) < command-line flags. All randomness flows from one
--seed; sub-seeds are derived by labeled hashing, so adding a consumer
never perturbs existing streams. Exit codes: 0 success, 1 runtime, I/O
or data failure (any ValueError raised past configuration), 2 usage or
configuration error (flags, config file, TrainConfig, SynthConfig).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import model
from .data import (
    Manifest,
    NoiseBank,
    REGIMES,
    SynthConfig,
    build_condition_set,
    load_noise_bank,
    read_manifest,
    synth_corpus,
)
from .seeds import derive_seed
from .train import (
    CONFIG_PARSERS,
    TrainConfig,
    accuracy_table,
    cache_path,
    config_text,
    evaluate,
    extract_features,
    read_cached,
    sweep_tsv,
    train,
    value_text,
    width_sweep,
)

DEFAULTS = TrainConfig()

# keys a config file may set; anything else is a typo worth failing on
CONFIG_KEYS = set(CONFIG_PARSERS) | {"cache"}

# every data-format error (WAV, manifest, .sif, checkpoint, Adam state) is a ValueError
RUNTIME_ERRORS = (OSError, ValueError, RuntimeError, FloatingPointError)


class ConfigError(ValueError):
    """A flag, config-file value or config object that cannot be built; exit 2."""


def _build(cls, **values):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config_file(path) -> dict[str, str]:
    """Parse key=value lines; # starts a comment; unknown keys are errors."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _given(args, file_cfg: dict[str, str]) -> dict:
    """The TrainConfig fields set by a flag or, failing that, by the config file."""
    values = {}
    for key, parse in CONFIG_PARSERS.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
        elif key in file_cfg:
            try:
                values[key] = parse(file_cfg[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from None
    return values


def resolve_seed(args, file_cfg: dict[str, str]) -> int:
    return _given(args, file_cfg).get("seed", DEFAULTS.seed)


def resolve_train_config(args, file_cfg: dict[str, str]) -> TrainConfig:
    """Apply precedence defaults < config file < flags and validate.

    Every command that reads a corpus takes its settings from here alone.
    """
    return _build(TrainConfig, **_given(args, file_cfg))


def resolve_cache_dir(args, file_cfg: dict[str, str]) -> Path | None:
    """--cache, else the config file's cache key, else no cache."""
    path = args.cache if args.cache is not None else file_cfg.get("cache")
    return Path(path) if path is not None else None


def _load_inputs(args, config: TrainConfig) -> tuple[Manifest, NoiseBank | None]:
    """The manifest and, when config names an SNR, the noise bank from
    --noise-dir or <manifest dir>/noise."""
    manifest = read_manifest(args.manifest)
    if not config.snrs:
        return manifest, None
    noise_dir = Path(args.noise_dir) if args.noise_dir else manifest.root / "noise"
    return manifest, load_noise_bank(noise_dir)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_synth(args, file_cfg) -> int:
    cfg = _build(
        SynthConfig,
        n_classes=args.classes,
        instances_per_class=args.per_class,
        noise_duration_s=args.noise_duration,
    )
    manifest, bank = synth_corpus(cfg, args.out, resolve_seed(args, file_cfg))
    counts = {split: len(manifest.by_split(split)) for split in ("train", "validation", "test")}
    print(f"wrote {len(manifest.records)} event WAVs across {manifest.n_classes} classes")
    print(f"splits: train={counts['train']} validation={counts['validation']} test={counts['test']}")
    print(f"noises: {', '.join(bank.names)}")
    print(f"manifest: {Path(args.out) / 'manifest.tsv'}")
    return 0


def cmd_extract(args, file_cfg) -> int:
    config = resolve_train_config(args, file_cfg)
    cache_dir = resolve_cache_dir(args, file_cfg)
    if cache_dir is None:
        raise ConfigError("extract needs --cache or the config file's cache key")
    manifest, bank = _load_inputs(args, config)
    cache_dir.mkdir(parents=True, exist_ok=True)
    # the multi regime's streams hold every pair either regime reads
    cs = build_condition_set(manifest, bank, "multi", config.seed,
                             snrs=config.snrs, copies_per_snr=config.copies_per_snr)

    index_lines = ["digest\tpath\tcondition\tcopy\trows\tcols"]
    failures = 0
    for sample in [*cs.train, *cs.validation, *(s for test in cs.test.values() for s in test)]:
        path = cache_path(cache_dir, config, sample)
        where = f"{sample.description} -> {path.name}"
        values = read_cached(path)
        if values is not None:
            print(f"skip (cached): {where}")
        else:
            try:
                [values] = extract_features([sample], manifest, bank, config, cache_dir)
            except (OSError, ValueError) as exc:  # a data error names its clip
                print(f"error: {exc}", file=sys.stderr)
                failures += 1
                continue
            print(f"wrote: {where} ({values.shape[0]}x{values.shape[1]})")
        fields = (path.stem, sample.record.path, sample.condition, sample.copy, *values.shape)
        index_lines.append("\t".join(map(str, fields)))
    (cache_dir / "index.tsv").write_text("\n".join(index_lines) + "\n", encoding="utf-8")
    if failures:
        print(f"{failures} file(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_train(args, file_cfg) -> int:
    config = resolve_train_config(args, file_cfg)
    out = Path(args.out)
    log_path = Path(args.log) if args.log else out.with_name(out.name + ".log.jsonl")
    for path in (out, log_path):  # a path that cannot be written fails before epoch 1
        path.parent.mkdir(parents=True, exist_ok=True)
    manifest, bank = _load_inputs(args, config)
    cache_dir = resolve_cache_dir(args, file_cfg)

    print("resolved configuration:")
    print(config_text(config))
    total = config.resolved_epochs
    interval = max(1, total // 10)

    def progress(epoch, loss, acc):
        if epoch % interval == 0 or epoch == total:
            print(f"epoch {epoch}/{total}  train_loss {loss:.6f}  val_acc {acc:.4f}")

    params, report = train(config, manifest, bank, cache_dir, progress=progress)

    model.save_checkpoint(params, out)
    # the sidecar is a config file: `eval --config <sidecar>` restores the run's settings
    sidecar = out.with_name(out.name + ".config.txt")
    sidecar.write_text(
        config_text(config) + f"\n# manifest={args.manifest}\n# checkpoint={out}\n",
        encoding="utf-8",
    )
    log_path.write_text("\n".join(report.epoch_lines()) + "\n", encoding="utf-8")

    print(f"best epoch {report.best_epoch} (validation accuracy {report.best_val_acc:.4f})")
    print(accuracy_table(report.test_acc))
    print(f"checkpoint: {out}")
    print(f"epoch log: {log_path}")
    return 0


def cmd_eval(args, file_cfg) -> int:
    config = resolve_train_config(args, file_cfg)
    params = model.load_checkpoint(args.ckpt)
    manifest, bank = _load_inputs(args, config)
    cache_dir = resolve_cache_dir(args, file_cfg)
    accuracies = evaluate(params, manifest, bank, config, cache_dir)
    if args.tsv:
        print("\t".join(accuracies))
        print("\t".join(f"{v:.6f}" for v in accuracies.values()))
    else:
        print(accuracy_table(accuracies))
    return 0


def cmd_sweep(args, file_cfg) -> int:
    config = resolve_train_config(args, file_cfg)
    if args.out:  # a path that cannot be written fails before the first width
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    manifest, bank = _load_inputs(args, config)
    cache_dir = resolve_cache_dir(args, file_cfg)
    rows = width_sweep(config, manifest, bank, cache_dir)
    text = sweep_tsv(rows)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    failed = [row for row in rows if row["error"] is not None]
    for row in failed:
        print(f"width {row['width']} failed: {row['error']}", file=sys.stderr)
    return 1 if failed else 0


def cmd_gradcheck(args, file_cfg) -> int:
    for flag, v in (("--trials", args.trials), ("--h", args.h), ("--tolerance", args.tolerance)):
        if not (np.isfinite(v) and v > 0):
            raise ConfigError(f"{flag} must be finite and > 0, got {v}")
    seed = resolve_seed(args, file_cfg)
    worst = 0.0
    for t in range(args.trials):
        rng = np.random.default_rng(derive_seed(seed, "gradcheck", t))
        rows = int(rng.integers(8, 54))
        n_cols = int(rng.integers(5, 41))
        widths = tuple(w for w in (1, 3, 5) if rng.random() < 0.5) or (3,)
        p = int(rng.integers(2, 6))
        n_classes = int(rng.integers(2, 7))
        lam = (0.0, 1e-4, 1e-2)[t % 3]
        params = model.init_params(
            n_classes, rows, widths, p, seed=derive_seed(seed, "gradcheck-init", t)
        )
        sif = rng.uniform(0.0, 3.0, size=(rows, n_cols))
        true_len = int(rng.integers(1, n_cols + 1))
        target = int(rng.integers(n_classes))

        trace = model.forward(params, sif, true_len, mode="eval")
        analytic = model.backward(params, trace, sif, target, lam)
        fd = model.finite_difference_gradients(params, sif, true_len, target, lam, h=args.h)
        trial_worst = 0.0
        for a, f in zip(analytic.arrays(), fd):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
            trial_worst = np.maximum(trial_worst, np.max(np.abs(a - f) / denom))
        worst = np.maximum(worst, trial_worst)  # a NaN error survives, and fails
        print(
            f"trial {t}: rows={rows} T={n_cols} widths={widths} P={p} "
            f"classes={n_classes} lambda={lam:g} max_rel_err={trial_worst:.3e}"
        )
    passed = worst < args.tolerance
    print(f"max relative error {worst:.3e} over {args.trials} trials "
          f"({'PASS' if passed else 'FAIL'}, tolerance {args.tolerance:g})")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Parser

def _default(key: str) -> str:
    return f"(default: {value_text(getattr(DEFAULTS, key))})"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"master random seed {_default('seed')}")
    common.add_argument("--config", default=None,
                        help="config file of key=value lines; flags win over it")

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--manifest", default="manifest.tsv",
                        help="corpus manifest (default: manifest.tsv)")
    corpus.add_argument("--noise-dir", default=None,
                        help="noise bank directory (default: <manifest dir>/noise)")
    corpus.add_argument("--energy", dest="with_energy", default=None,
                        action=argparse.BooleanOptionalAction,
                        help=f"append the short-time energy row {_default('with_energy')}")
    corpus.add_argument("--n-freq", dest="n_freq", type=int, default=None,
                        help=f"down-sampled frequency rows {_default('n_freq')}")
    corpus.add_argument("--snrs", type=CONFIG_PARSERS["snrs"], default=None,
                        help=f"comma-separated corruption SNRs in dB {_default('snrs')}")
    corpus.add_argument("--cache", default=None,
                        help="SIF cache directory (default: none)")
    corpus.add_argument("--widths", type=CONFIG_PARSERS["widths"], default=None,
                        help=f"comma-separated filter widths {_default('widths')}")
    corpus.add_argument("--filters", dest="filters_per_width", type=int, default=None,
                        help=f"filters per width {_default('filters_per_width')}")
    corpus.add_argument("--lr", dest="learning_rate", type=float, default=None,
                        help=f"Adam learning rate {_default('learning_rate')}")
    corpus.add_argument("--dropout", dest="dropout_rate", type=float, default=None,
                        help=f"dropout rate on the pooled vector {_default('dropout_rate')}")
    corpus.add_argument("--l2", dest="l2_lambda", type=float, default=None,
                        help=f"L2 regularization strength {_default('l2_lambda')}")
    corpus.add_argument("--batch-size", dest="batch_size", type=int, default=None,
                        help=f"minibatch size {_default('batch_size')}")
    corpus.add_argument("--epochs", type=int, default=None,
                        help="training epochs (default: " + ", ".join(
                            f"{TrainConfig(regime=r).resolved_epochs} {r}"
                            for r in REGIMES) + ")")
    corpus.add_argument("--regime", choices=REGIMES, default=None,
                        help=f"training regime {_default('regime')}")
    corpus.add_argument("--copies-per-snr", dest="copies_per_snr", type=int, default=None,
                        help="corrupted copies per SNR per training instance "
                             f"{_default('copies_per_snr')}")
    corpus.add_argument("--validate-clean-only", dest="validate_clean_only", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="score validation on clean audio only; otherwise the multi "
                             "regime validates on all conditions "
                             f"{_default('validate_clean_only')}")

    parser = argparse.ArgumentParser(
        prog="onemax",
        description="Noise-robust audio event recognition with a "
                    "1-max pooling convolutional network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic labeled corpus plus noise bank")
    p.add_argument("--classes", type=int, default=5,
                   help="number of event classes (default: 5)")
    p.add_argument("--per-class", type=int, default=16,
                   help="instances per class (default: 16)")
    p.add_argument("--noise-duration", type=float, default=3.0,
                   help="noise file length in seconds (default: 3.0)")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", parents=[common, corpus],
                       help="extract features for every (record, condition, copy) triple")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[common, corpus],
                       help="train a model and write the best checkpoint")
    p.add_argument("--out", default="model.1max",
                   help="checkpoint output path (default: model.1max)")
    p.add_argument("--log", default=None,
                   help="per-epoch JSONL log path (default: <out>.log.jsonl)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common, corpus],
                       help="evaluate a checkpoint per noise condition")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--tsv", action="store_true", help="tab-separated output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", parents=[common, corpus],
                       help="train one single-width model per width")
    p.add_argument("--out", default=None, help="TSV output path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="verify analytic gradients against finite differences")
    p.add_argument("--trials", type=int, default=20,
                   help="random model configurations to check (default: 20)")
    p.add_argument("--tolerance", type=float, default=1e-6,
                   help="maximum allowed relative error (default: 1e-6; the "
                        "comparison floors denominators at 1e-3 so finite-"
                        "difference roundoff cannot fail near-zero gradients)")
    p.add_argument("--h", type=float, default=1e-5,
                   help="central-difference step (default: 1e-5)")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = load_config_file(args.config) if args.config else {}
        return args.func(args, file_cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
