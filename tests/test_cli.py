import json
import wave as wave_module
from dataclasses import fields

import numpy as np
import pytest

from onemax import cli, dsp, model
from onemax.cli import (
    CONFIG_KEYS,
    build_parser,
    load_config_file,
    main,
    resolve_train_config,
)
from onemax.data import ManifestFormatError, WavFormatError, build_condition_set, read_manifest
from onemax.dsp import SifFormatError, read_sif
from onemax.model import CheckpointFormatError, load_checkpoint
from onemax.optim import AdamStateFormatError
from onemax.train import TrainConfig, config_text, value_text

SEED = ["--seed", "5"]
TINY_TRAIN = ["--widths", "1,3", "--filters", "2", "--batch-size", "8", "--epochs", "2"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-corpus")
    code = main(["synth", "--out", str(root), "--classes", "3", "--per-class", "6", *SEED])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-cache")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parser basics ---------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polish"])
    assert exc.value.code == 2


# the flag that sets each TrainConfig field
FIELD_FLAGS = {
    "widths": "--widths", "filters_per_width": "--filters", "learning_rate": "--lr",
    "dropout_rate": "--dropout", "l2_lambda": "--l2", "batch_size": "--batch-size",
    "epochs": "--epochs", "seed": "--seed", "regime": "--regime",
    "with_energy": "--energy", "n_freq": "--n-freq",
    "snrs": "--snrs", "copies_per_snr": "--copies-per-snr",
    "validate_clean_only": "--validate-clean-only",
}


def test_help_shows_real_defaults(capsys, monkeypatch):
    # every corpus command takes every setting its config file takes
    monkeypatch.setenv("COLUMNS", "400")  # one help entry per option, unwrapped
    defaults = TrainConfig()
    assert set(FIELD_FLAGS) == {f.name for f in fields(TrainConfig)}
    for command in ("extract", "train", "eval", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "0.0001" in text      # learning rate and L2
        assert "100" in text         # filters per width
        assert "0.5" in text         # dropout
        assert "1000 mismatched, 500 multi" in text
        assert "SIF cache directory (default: none)" in text

        entries = text.split("\n  -")
        for name, flag in FIELD_FLAGS.items():
            [entry] = [e for e in entries if e.split()[0].rstrip(",") == flag[1:]]
            value = defaults.resolved_epochs if name == "epochs" else getattr(defaults, name)
            assert f"(default: {value_text(value)}" in entry, (command, flag, entry)


# --- synth --------------------------------------------------------------------------

def test_synth_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth"])
    assert exc.value.code == 2


def test_synth_one_class_is_usage_error(tmp_path, capsys):
    code, _, stderr = run(capsys, ["synth", "--out", str(tmp_path / "c"), "--classes", "1"])
    assert code == 2
    assert "2 classes" in stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_rejects_non_finite_noise_duration_before_touching_disk(tmp_path, capsys, value):
    out = tmp_path / "c"
    code, _, stderr = run(capsys, ["synth", "--out", str(out), "--noise-duration", value])
    assert code == 2
    assert "noise_duration_s" in stderr
    assert not out.exists()


def test_synth_reports_and_writes(corpus_dir, capsys):
    # the fixture already ran synth; spot-check the directory contents
    assert (corpus_dir / "manifest.tsv").exists()
    wavs = list((corpus_dir / "events").glob("*.wav"))
    assert len(wavs) == 18
    noises = sorted(p.stem for p in (corpus_dir / "noise").glob("*.wav"))
    assert noises == ["babble", "machinery", "pink", "white"]


def test_synth_same_seed_same_bytes(tmp_path, capsys):
    argv = ["synth", "--classes", "2", "--per-class", "5", *SEED]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()
    for wav in sorted((a / "events").glob("*.wav")):
        assert wav.read_bytes() == (b / "events" / wav.name).read_bytes()


# --- extract -------------------------------------------------------------------------

def test_extract_writes_every_record_condition_pair(corpus_dir, tmp_path, capsys):
    out = tmp_path / "sifs"
    code, stdout, _ = run(capsys, [
        "extract", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--cache", str(out), *SEED,
    ])
    assert code == 0
    sifs = list(out.glob("*.sif"))
    assert len(sifs) == 18 * 4  # clean + three SNRs
    index = (out / "index.tsv").read_text().splitlines()
    assert index[0] == "digest\tpath\tcondition\tcopy\trows\tcols"
    assert len(index) == 1 + 18 * 4
    assert all(line.split("\t")[4] == "52" for line in index[1:])


def test_extract_skips_cached_files(corpus_dir, tmp_path, capsys):
    out = tmp_path / "sifs"
    argv = ["extract", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--cache", str(out), *SEED]
    run(capsys, argv)
    code, stdout, _ = run(capsys, argv)
    assert code == 0
    assert stdout.count("skip (cached):") == 18 * 4
    assert "wrote:" not in stdout


def test_extract_rewrites_truncated_cache_entry(corpus_dir, tmp_path, capsys):
    out = tmp_path / "sifs"
    argv = ["extract", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--cache", str(out), "--snrs", "", *SEED]
    assert run(capsys, argv)[0] == 0
    victim = sorted(out.glob("*.sif"))[0]
    whole = victim.read_bytes()
    victim.write_bytes(whole[: len(whole) // 2])
    code, stdout, _ = run(capsys, argv)
    assert code == 0
    assert stdout.count("wrote:") == 1
    assert victim.read_bytes() == whole


def test_extract_energy_row(corpus_dir, tmp_path, capsys):
    out = tmp_path / "sifs-e"
    code, _, _ = run(capsys, [
        "extract", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--cache", str(out), "--energy", *SEED,
    ])
    assert code == 0
    sif = read_sif(next(iter(out.glob("*.sif"))))
    assert sif.n_rows == 53
    assert sif.has_energy


def test_extract_continues_past_bad_file(corpus_dir, tmp_path, capsys):
    broken_root = tmp_path / "broken"
    broken_root.mkdir()
    (broken_root / "events").mkdir()
    for wav in (corpus_dir / "events").glob("*.wav"):
        (broken_root / "events" / wav.name).write_bytes(wav.read_bytes())
    (broken_root / "noise").mkdir()
    for wav in (corpus_dir / "noise").glob("*.wav"):
        (broken_root / "noise" / wav.name).write_bytes(wav.read_bytes())
    manifest_text = (corpus_dir / "manifest.tsv").read_text()
    (broken_root / "manifest.tsv").write_text(manifest_text)
    victim = sorted((broken_root / "events").glob("*.wav"))[0]
    victim.write_bytes(b"not audio")

    out = tmp_path / "sifs"
    code, stdout, stderr = run(capsys, [
        "extract", "--manifest", str(broken_root / "manifest.tsv"),
        "--cache", str(out), *SEED,
    ])
    assert code == 1
    assert "error:" in stderr
    assert "failed" in stderr
    # the 17 intact events were still processed under all 4 conditions
    assert len(list(out.glob("*.sif"))) == 17 * 4


def corpus_with_slow_clip(corpus_dir, root):
    """A copy of the corpus whose first event is relabelled 8 kHz; returns its path."""
    (root / "events").mkdir(parents=True)
    (root / "noise").symlink_to(corpus_dir / "noise")
    (root / "manifest.tsv").write_text((corpus_dir / "manifest.tsv").read_text())
    wavs = sorted((corpus_dir / "events").glob("*.wav"))
    for wav in wavs[1:]:
        (root / "events" / wav.name).symlink_to(wav)
    with wave_module.open(str(wavs[0]), "rb") as src:
        frames = src.readframes(src.getnframes())
    with wave_module.open(str(root / "events" / wavs[0].name), "wb") as dst:
        dst.setnchannels(1)
        dst.setsampwidth(2)
        dst.setframerate(8000)
        dst.writeframes(frames)
    return f"events/{wavs[0].name}"


def test_extract_names_clip_at_another_rate(corpus_dir, tmp_path, capsys):
    slow = corpus_with_slow_clip(corpus_dir, tmp_path / "corpus")
    out = tmp_path / "sifs"
    code, _, stderr = run(capsys, [
        "extract", "--manifest", str(tmp_path / "corpus" / "manifest.tsv"),
        "--cache", str(out), *SEED,
    ])
    assert code == 1
    assert f"error: {slow} [clean]: sample rate 8000 Hz" in stderr
    # the 17 other events were still processed under all 4 conditions
    assert len(list(out.glob("*.sif"))) == 17 * 4


def test_clean_only_extract_loads_no_noise_bank(corpus_dir, tmp_path, capsys):
    out = tmp_path / "sifs"
    code, _, _ = run(capsys, [
        "extract", "--manifest", str(corpus_dir / "manifest.tsv"), "--cache", str(out),
        "--noise-dir", str(tmp_path / "no-such-dir"), "--snrs", "", *SEED,
    ])
    assert code == 0
    assert len(list(out.glob("*.sif"))) == 18


def test_train_extracts_nothing_after_extract_with_copies(tiny_corpus, tmp_path, monkeypatch,
                                                           capsys):
    _, _, root = tiny_corpus
    cfg = tmp_path / "run.cfg"
    cfg.write_text("regime = multi\ncopies_per_snr = 2\nwidths = 1\nfilters_per_width = 2\n"
                   "epochs = 1\nseed = 5\n")
    common = ["--manifest", str(root / "manifest.tsv"), "--config", str(cfg),
              "--cache", str(tmp_path / "sifs")]
    assert run(capsys, ["extract", *common])[0] == 0
    calls = []
    extract_sif = dsp.extract_sif
    monkeypatch.setattr(dsp, "extract_sif", lambda *a, **k: calls.append(1) or extract_sif(*a, **k))
    assert run(capsys, ["train", *common, "--out", str(tmp_path / "m.1max")])[0] == 0
    assert calls == []


def test_extract_index_names_each_copy(corpus_dir, tmp_path, capsys):
    out = tmp_path / "sifs"
    code, stdout, _ = run(capsys, [
        "extract", "--manifest", str(corpus_dir / "manifest.tsv"), "--cache", str(out),
        "--copies-per-snr", "2", *SEED,
    ])
    assert code == 0
    rows = [line.split("\t") for line in (out / "index.tsv").read_text().splitlines()[1:]]
    keys = [tuple(row[1:4]) for row in rows]
    assert len(set(keys)) == len(keys)
    assert {row[3] for row in rows} == {"0", "1"}
    assert len({row[0] for row in rows}) == len(rows) == len(list(out.glob("*.sif")))
    # each listed line names one pair and copy: the second copy says so, the first does not
    lines = [line.split(" -> ")[0] for line in stdout.splitlines()]
    assert len(set(lines)) == len(lines) == len(rows)
    assert any(line.endswith(" copy 1]") for line in lines)
    assert not any(" copy 0]" in line for line in lines)


def test_extract_without_a_cache_is_usage_error(corpus_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["extract", "--manifest", str(corpus_dir / "manifest.tsv"), "--snrs", "", *SEED]
    code, stdout, stderr = run(capsys, argv)
    assert code == 2
    assert "--cache" in stderr and "cache key" in stderr
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []
    assert not (corpus_dir / "sif_cache").exists()
    # the config file's cache key is the other place a cache can be named
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"cache = {tmp_path / 'keyed'}\n")
    assert run(capsys, argv + ["--config", str(cfg)])[0] == 0
    assert len(list((tmp_path / "keyed").glob("*.sif"))) == 18  # clean only


def test_cache_env_var_is_not_read(corpus_dir, tmp_path, monkeypatch, capsys):
    env_cache = tmp_path / "env-cache"
    monkeypatch.setenv("ONEMAX_CACHE", str(env_cache))
    code, _, _ = run(capsys, [
        "train", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--out", str(tmp_path / "m.1max"), *TINY_TRAIN, "--snrs", "", *SEED,
    ])
    assert code == 0
    assert not env_cache.exists()


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_clean_only_run_loads_no_noise_bank(corpus_dir, cache_dir, trained_checkpoint, tmp_path,
                                            capsys, command):
    argv = [command, "--manifest", str(corpus_dir / "manifest.tsv"), "--cache", str(cache_dir),
            "--noise-dir", str(tmp_path / "no-such-dir"), "--snrs", "", *SEED]
    argv += {
        "train": [*TINY_TRAIN, "--out", str(tmp_path / "m.1max")],
        "eval": ["--ckpt", str(trained_checkpoint)],
        "sweep": ["--widths", "1", "--filters", "2", "--epochs", "1"],
    }[command]
    code, stdout, stderr = run(capsys, argv)
    assert code == 0, stderr
    assert "clean" in stdout


# --- train ---------------------------------------------------------------------------

def test_train_writes_checkpoint_sidecar_and_log(corpus_dir, cache_dir, tmp_path, capsys):
    out = tmp_path / "model.1max"
    code, stdout, _ = run(capsys, [
        "train", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--out", str(out), "--cache", str(cache_dir), *TINY_TRAIN, *SEED,
    ])
    assert code == 0
    assert "resolved configuration:" in stdout
    assert "best epoch" in stdout
    assert out.exists()
    sidecar = tmp_path / "model.1max.config.txt"
    assert "widths=1,3" in sidecar.read_text()
    log_lines = (tmp_path / "model.1max.log.jsonl").read_text().splitlines()
    assert len(log_lines) == 2
    assert set(json.loads(log_lines[0])) == {"epoch", "train_loss", "val_acc"}
    params = load_checkpoint(out)
    assert params.bank.widths == (1, 3)


def test_train_makes_the_directory_it_writes_to(corpus_dir, cache_dir, tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "m.1max"
    code, _, stderr = run(capsys, [
        "train", "--manifest", str(corpus_dir / "manifest.tsv"), "--out", str(out),
        "--log", str(tmp_path / "logs" / "m.jsonl"), "--cache", str(cache_dir),
        *TINY_TRAIN, *SEED,
    ])
    assert code == 0, stderr
    assert out.exists()
    assert len((tmp_path / "logs" / "m.jsonl").read_text().splitlines()) == 2


@pytest.mark.parametrize("command, flag", [
    ("train", "--out"), ("train", "--log"), ("sweep", "--out"),
])
def test_unwritable_output_path_fails_before_training(corpus_dir, cache_dir, tmp_path, capsys,
                                                      monkeypatch, command, flag):
    loaded = []
    monkeypatch.setattr(cli, "read_manifest", lambda *a: loaded.append(a) or read_manifest(*a))
    blocker = tmp_path / "file"
    blocker.write_text("a regular file, not a directory\n")
    argv = [command, "--manifest", str(corpus_dir / "manifest.tsv"), "--cache", str(cache_dir),
            *TINY_TRAIN, *SEED, flag, str(blocker / "out")]
    if command == "train" and flag == "--log":
        argv += ["--out", str(tmp_path / "m.1max")]
    code, stdout, stderr = run(capsys, argv)
    assert code == 1
    assert "error:" in stderr
    assert loaded == []  # it failed before reading the corpus
    assert not any(line.startswith(("epoch", "width", "best epoch"))
                   for line in stdout.splitlines())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_train_rejects_bad_dropout_before_touching_disk(corpus_dir, tmp_path, capsys):
    out = tmp_path / "model.1max"
    code, _, stderr = run(capsys, [
        "train", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--out", str(out), "--dropout", "1.5", *SEED,
    ])
    assert code == 2
    assert "dropout" in stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "extract"])
def test_n_freq_above_the_spectrum_is_usage_error_before_touching_disk(
    corpus_dir, tmp_path, capsys, command
):
    out = tmp_path / "out"
    out_flag = {"train": "--out", "extract": "--cache"}[command]
    code, _, stderr = run(capsys, [
        command, "--manifest", str(corpus_dir / "manifest.tsv"),
        out_flag, str(out), "--n-freq", "2000", *SEED,
    ])
    assert code == 2
    assert "n_freq" in stderr
    assert not out.exists()


@pytest.mark.parametrize("flags, field", [
    (["--lr", "nan"], "learning_rate"),
    (["--lr", "inf"], "learning_rate"),
    (["--l2", "inf"], "l2_lambda"),
    (["--dropout", "nan"], "dropout_rate"),
    (["--snrs", "20,inf"], "snrs"),
])
def test_train_rejects_non_finite_setting(corpus_dir, tmp_path, capsys, flags, field):
    out = tmp_path / "model.1max"
    code, _, stderr = run(capsys, [
        "train", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--out", str(out), *TINY_TRAIN, *flags, *SEED,
    ])
    assert code == 2
    assert field in stderr
    assert not out.exists()


def test_train_without_validation_records_is_data_error(corpus_dir, tmp_path, capsys):
    lines = (corpus_dir / "manifest.tsv").read_text().splitlines()
    kept = [line for line in lines if "\tvalidation\t" not in line]
    assert len(kept) < len(lines)
    manifest = corpus_dir / "no-validation.tsv"
    manifest.write_text("\n".join(kept) + "\n")
    out = tmp_path / "m.1max"
    code, _, stderr = run(capsys, [
        "train", "--manifest", str(manifest), "--out", str(out), *TINY_TRAIN, *SEED,
    ])
    assert code == 1
    assert "validation" in stderr
    assert not out.exists()


def test_train_rejects_clip_at_another_rate(corpus_dir, tmp_path, capsys):
    slow = corpus_with_slow_clip(corpus_dir, tmp_path / "corpus")
    out = tmp_path / "m.1max"
    code, _, stderr = run(capsys, [
        "train", "--manifest", str(tmp_path / "corpus" / "manifest.tsv"),
        "--out", str(out), *TINY_TRAIN, *SEED,
    ])
    assert code == 1
    assert "8000 Hz" in stderr
    assert f"error: {slow} [clean]: " in stderr
    assert not out.exists()


def test_train_repeated_snrs_is_usage_error(corpus_dir, tmp_path, capsys):
    out = tmp_path / "m.1max"
    code, _, stderr = run(capsys, [
        "train", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--out", str(out), *TINY_TRAIN, "--snrs", "10,10", *SEED,
    ])
    assert code == 2
    assert "snrs" in stderr
    assert not out.exists()


def test_train_missing_manifest_is_runtime_error(tmp_path, capsys):
    code, _, stderr = run(capsys, [
        "train", "--manifest", str(tmp_path / "nope.tsv"), "--out",
        str(tmp_path / "m.1max"),
    ])
    assert code == 1
    assert "error:" in stderr


def test_train_rejects_manifest_with_corrupted_row(corpus_dir, tmp_path, capsys):
    """A listed snr0 copy would be corrupted again by the multi regime."""
    for name in ("events", "noise"):
        (tmp_path / name).symlink_to(corpus_dir / name)
    header, *rows = (corpus_dir / "manifest.tsv").read_text().splitlines()
    rows[-1] = rows[-1].replace("\tclean\t", "\tsnr0\t")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "m.1max"
    code, _, stderr = run(capsys, [
        "train", "--manifest", str(manifest), "--out", str(out), *TINY_TRAIN, *SEED,
    ])
    assert code == 1
    assert f"manifest.tsv:{len(rows) + 1}: condition" in stderr
    assert not out.exists()


# --- config files -----------------------------------------------------------------------

def test_config_file_feeds_defaults_flags_win(corpus_dir, cache_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment settings\n"
        "dropout_rate = 0.2\n"
        "widths = 1,3\n"
        "filters_per_width = 2\n"
        "batch_size = 8\n"
        "epochs = 0\n"
    )
    out = tmp_path / "m.1max"
    argv = ["train", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--out", str(out), "--config", str(cfg), "--cache", str(cache_dir), *SEED]
    code, stdout, _ = run(capsys, argv)
    assert code == 0
    assert "dropout_rate=0.2" in stdout

    code, stdout, _ = run(capsys, argv + ["--dropout", "0.3"])
    assert code == 0
    assert "dropout_rate=0.3" in stdout


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("learning_rte = 0.01\n")
    code, _, stderr = run(capsys, [
        "train", "--manifest", "whatever.tsv", "--out", "m.1max",
        "--config", str(cfg),
    ])
    assert code == 2
    assert "learning_rte" in stderr


def test_retired_masked_pool_key_is_usage_error(tmp_path, capsys):
    # pooling always stops at the clip's true length, L2 never covers a
    # bias and the energy row is the plain column sum; the keys that could
    # change those are gone, and an old config file naming one fails loudly
    for key in ("masked_pool", "regularize_biases", "energy_scale"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, _, stderr = run(capsys, [
            "train", "--manifest", "whatever.tsv", "--out", "m.1max",
            "--config", str(cfg),
        ])
        assert code == 2, key
        assert key in stderr, key


@pytest.mark.parametrize("flags", [
    ["--regularize-biases"], ["--energy-scale", "0.5"], ["--paper-defaults"],
])
def test_retired_flag_is_usage_error(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--manifest", "whatever.tsv", "--out", str(tmp_path / "m.1max"), *flags])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "m.1max").exists()


def test_extract_out_is_usage_error(tmp_path, capsys):
    # extract writes where --cache (or the config file's cache key) says,
    # the one place train and eval read
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--manifest", "whatever.tsv", "--out", str(tmp_path / "sifs")])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "sifs").exists()


def test_data_format_errors_are_value_errors():
    # main() exits 1 on any ValueError raised past configuration
    for error in (WavFormatError, ManifestFormatError, SifFormatError, CheckpointFormatError,
                  AdamStateFormatError):
        assert issubclass(error, ValueError), error


def test_config_keys_are_the_train_config_fields():
    names = {f.name for f in fields(TrainConfig)}
    assert CONFIG_KEYS == names | {"cache"}


def test_config_text_reads_back_as_a_config_file(tmp_path):
    cfg = TrainConfig(
        widths=(2, 5), filters_per_width=7, learning_rate=0.003, dropout_rate=0.25,
        l2_lambda=0.0, batch_size=3, epochs=9, seed=4, regime="multi", with_energy=True,
        n_freq=40, snrs=(15.0, 5.0, -5.0), copies_per_snr=2, validate_clean_only=True,
    )
    defaults = TrainConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name) for f in fields(cfg))
    path = tmp_path / "run.cfg"
    path.write_text(config_text(cfg) + "\n")
    args = build_parser().parse_args(["train", "--config", str(path)])
    assert resolve_train_config(args, load_config_file(path)) == cfg


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("widths = 1,x\n")
    code, _, stderr = run(capsys, [
        "train", "--manifest", "whatever.tsv", "--out", "m.1max", "--config", str(cfg),
    ])
    assert code == 2
    assert "widths" in stderr


def test_load_config_file_parses_comments_and_spaces(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 9   # master seed\n\n# full line comment\nregime=multi\n")
    assert load_config_file(cfg) == {"seed": "9", "regime": "multi"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed 9\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config_file(bad)


# --- eval -----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_checkpoint(corpus_dir, cache_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "model.1max"
    code = main([
        "train", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--out", str(out), "--cache", str(cache_dir), *TINY_TRAIN, *SEED,
    ])
    assert code == 0
    return out


def test_eval_prints_accuracy_table(corpus_dir, cache_dir, trained_checkpoint, capsys):
    code, stdout, _ = run(capsys, [
        "eval", "--ckpt", str(trained_checkpoint),
        "--manifest", str(corpus_dir / "manifest.tsv"),
        "--cache", str(cache_dir), *SEED,
    ])
    assert code == 0
    header = stdout.splitlines()[0].split()
    assert header == ["clean", "snr20", "snr10", "snr0", "mean"]


def test_eval_tsv_output(corpus_dir, cache_dir, trained_checkpoint, capsys):
    code, stdout, _ = run(capsys, [
        "eval", "--ckpt", str(trained_checkpoint),
        "--manifest", str(corpus_dir / "manifest.tsv"),
        "--cache", str(cache_dir), "--tsv", *SEED,
    ])
    assert code == 0
    names, values = stdout.splitlines()
    assert names.split("\t") == ["clean", "snr20", "snr10", "snr0", "mean"]
    parsed = [float(v) for v in values.split("\t")]
    assert len(parsed) == 5
    assert parsed[4] == pytest.approx(np.mean(parsed[:4]))


def test_eval_missing_checkpoint_is_runtime_error(corpus_dir, tmp_path, capsys):
    code, _, stderr = run(capsys, [
        "eval", "--ckpt", str(tmp_path / "missing.1max"),
        "--manifest", str(corpus_dir / "manifest.tsv"), *SEED,
    ])
    assert code == 1
    assert "error:" in stderr


def test_eval_infers_energy_row_from_checkpoint(corpus_dir, cache_dir, tmp_path, capsys):
    """It does not: an --energy checkpoint scores with --energy or with its
    sidecar, and a data error names both row counts without either."""
    out = tmp_path / "energy.1max"
    code, _, _ = run(capsys, [
        "train", "--manifest", str(corpus_dir / "manifest.tsv"), "--cache", str(cache_dir),
        "--out", str(out), "--energy", "--epochs", "0",
        "--widths", "1", "--filters", "2", *SEED,
    ])
    assert code == 0
    assert load_checkpoint(out).input_rows == 53
    argv = ["eval", "--ckpt", str(out), "--manifest", str(corpus_dir / "manifest.tsv"),
            "--cache", str(cache_dir), *SEED]
    for flags in (["--energy"], ["--config", f"{out}.config.txt"]):
        code, stdout, _ = run(capsys, argv + flags)
        assert code == 0, flags
        assert "clean" in stdout
    for flags in ([], ["--no-energy"]):
        code, stdout, stderr = run(capsys, argv + flags)
        assert code == 1, flags
        assert stdout == ""
        assert "checkpoint expects 53 input rows, config produces 52" in stderr


def test_eval_takes_no_energy_row_from_checkpoint(corpus_dir, cache_dir, trained_checkpoint,
                                                  capsys):
    code, stdout, stderr = run(capsys, [
        "eval", "--ckpt", str(trained_checkpoint), "--energy",
        "--manifest", str(corpus_dir / "manifest.tsv"), "--cache", str(cache_dir), *SEED,
    ])
    assert code == 1
    assert stdout == ""
    assert "checkpoint expects 52 input rows, config produces 53" in stderr


def test_eval_without_the_trained_n_freq_is_data_error(corpus_dir, cache_dir, tmp_path, capsys):
    # 53 frequency rows look like 52 plus an energy row, and must not score as such
    out = tmp_path / "rows53.1max"
    code, _, _ = run(capsys, [
        "train", "--manifest", str(corpus_dir / "manifest.tsv"), "--cache", str(cache_dir),
        "--out", str(out), "--n-freq", "53", "--epochs", "0",
        "--widths", "1", "--filters", "2", *SEED,
    ])
    assert code == 0
    code, stdout, stderr = run(capsys, [
        "eval", "--ckpt", str(out), "--manifest", str(corpus_dir / "manifest.tsv"),
        "--cache", str(cache_dir), *SEED,
    ])
    assert code == 1
    assert stdout == ""
    assert "checkpoint expects 53 input rows, config produces 52" in stderr


def test_eval_with_the_sidecar_reproduces_the_training_row(corpus_dir, cache_dir, tmp_path,
                                                           capsys):
    out = tmp_path / "m.1max"
    code, stdout, _ = run(capsys, [
        "train", "--manifest", str(corpus_dir / "manifest.tsv"), "--cache", str(cache_dir),
        "--out", str(out), *TINY_TRAIN, "--energy", "--snrs", "15,5", *SEED,
    ])
    assert code == 0
    lines = stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("best epoch"))
    test_row = lines[at + 1 : at + 3]
    # the sidecar alone restores the seed, the SNRs and the energy row
    code, stdout, stderr = run(capsys, [
        "eval", "--ckpt", str(out), "--manifest", str(corpus_dir / "manifest.tsv"),
        "--config", f"{out}.config.txt", "--cache", str(cache_dir),
    ])
    assert code == 0, stderr
    assert stdout.splitlines() == test_row
    assert test_row[0].split() == ["clean", "snr15", "snr5", "mean"]


@pytest.mark.parametrize("command, name", [
    ("eval", "evaluate"), ("sweep", "width_sweep"), ("extract", "extract_features"),
])
def test_commands_hand_the_library_the_resolved_config(
    corpus_dir, trained_checkpoint, tmp_path, monkeypatch, command, name
):
    """eval, sweep and extract resolve their settings exactly as train does,
    from a config file or from the same settings given as flags."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("widths = 1,3\nfilters_per_width = 2\nepochs = 1\nseed = 9\n"
                   "snrs = 20,0\ncopies_per_snr = 2\n")
    flags = ["--widths", "1,3", "--filters", "2", "--epochs", "1", "--seed", "9",
             "--snrs", "20,0", "--copies-per-snr", "2"]
    base = [command, "--manifest", str(corpus_dir / "manifest.tsv"),
            "--energy", "--cache", str(tmp_path / "sifs")]
    if command == "eval":
        base += ["--ckpt", str(trained_checkpoint)]
    calls = []

    def capture(*args):
        calls.append(args)
        if name == "extract_features":
            return [np.zeros((53, 4)) for _ in args[0]]
        return {"mean": 0.0} if name == "evaluate" else []

    monkeypatch.setattr(cli, name, capture)
    manifest = read_manifest(corpus_dir / "manifest.tsv")
    cs = build_condition_set(manifest, None, "multi", 9, snrs=(20.0, 0.0), copies_per_snr=2)
    for argv, file_cfg in ((base + ["--config", str(cfg)], load_config_file(cfg)),
                           (base + flags, {})):
        calls.clear()
        assert main(argv) == 0, argv
        want = resolve_train_config(build_parser().parse_args(argv), file_cfg)
        assert want.widths == (1, 3) and want.with_energy and want.copies_per_snr == 2
        assert want.seed == 9 and want.snrs == (20.0, 0.0)
        config_at = {"evaluate": 3, "width_sweep": 0, "extract_features": 3}[name]
        assert calls and all(args[config_at] == want for args in calls)
        if name == "extract_features":
            # one call per pair, covering every pair either regime reads
            every = [*cs.train, *cs.validation, *(s for t in cs.test.values() for s in t)]
            assert [s for args in calls for s in args[0]] == every


# --- sweep -----------------------------------------------------------------------------

def test_sweep_writes_tsv(corpus_dir, cache_dir, tmp_path, capsys):
    out = tmp_path / "sweep.tsv"
    code, _, _ = run(capsys, [
        "sweep", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--widths", "1,3", "--filters", "2", "--batch-size", "8",
        "--epochs", "1", "--out", str(out), "--cache", str(cache_dir), *SEED,
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "width\tcondition\taccuracy"
    assert len(lines) == 1 + 2 * 5
    assert {line.split("\t")[0] for line in lines[1:]} == {"1", "3"}


def test_sweep_takes_widths_from_config_file(corpus_dir, cache_dir, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("widths = 1,3\n")
    code, stdout, _ = run(capsys, [
        "sweep", "--manifest", str(corpus_dir / "manifest.tsv"), "--config", str(cfg),
        "--filters", "2", "--batch-size", "8", "--epochs", "1", "--cache", str(cache_dir),
        *SEED,
    ])
    assert code == 0
    assert {line.split("\t")[0] for line in stdout.splitlines()[1:]} == {"1", "3"}


def test_sweep_reports_manifest_error_once(corpus_dir, tmp_path, capsys):
    lines = (corpus_dir / "manifest.tsv").read_text().splitlines()
    manifest = corpus_dir / "sweep-no-validation.tsv"
    manifest.write_text("\n".join(l for l in lines if "\tvalidation\t" not in l) + "\n")
    code, stdout, stderr = run(capsys, [
        "sweep", "--manifest", str(manifest), "--widths", "1,3", "--filters", "2",
        "--epochs", "1", *SEED,
    ])
    assert code == 1
    assert stdout == ""
    assert stderr.splitlines() == ["error: manifest has no records in the 'validation' split"]


def test_sweep_reports_clip_error_once(corpus_dir, tmp_path, capsys):
    slow = corpus_with_slow_clip(corpus_dir, tmp_path / "corpus")
    code, stdout, stderr = run(capsys, [
        "sweep", "--manifest", str(tmp_path / "corpus" / "manifest.tsv"),
        "--widths", "1,3,5", "--filters", "2", "--epochs", "1", *SEED,
    ])
    assert code == 1
    assert stdout == ""
    [line] = stderr.splitlines()
    assert line.startswith(f"error: {slow} [clean]: sample rate 8000 Hz")


def test_sweep_reports_failed_width(corpus_dir, cache_dir, capsys, width_1_diverges):
    code, stdout, stderr = run(capsys, [
        "sweep", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--widths", "1,3", "--filters", "2", "--batch-size", "8",
        "--epochs", "1", "--cache", str(cache_dir), *SEED,
    ])
    assert code == 1
    assert "width 1 failed: training diverged" in stderr
    assert "1\terror\ttraining diverged" in stdout
    assert "3\tclean\t" in stdout  # the other width still ran


@pytest.mark.parametrize("widths", ["0,1", "3,3"])
def test_sweep_bad_width_is_usage_error(corpus_dir, tmp_path, capsys, widths):
    out = tmp_path / "sweep.tsv"
    code, stdout, stderr = run(capsys, [
        "sweep", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--widths", widths, "--out", str(out), *SEED,
    ])
    assert code == 2
    assert "widths" in stderr
    assert not out.exists()


# --- gradcheck ---------------------------------------------------------------------------

def test_gradcheck_passes(capsys):
    code, stdout, _ = run(capsys, ["gradcheck", "--trials", "3", *SEED])
    assert code == 0
    assert "PASS" in stdout


def test_gradcheck_negative_control_fails(capsys, monkeypatch):
    exact = model.backward

    def broken(*args, **kwargs):
        grads = exact(*args, **kwargs)
        grads.bank.weights[0].reshape(-1)[0] += 1e-3
        return grads

    monkeypatch.setattr(model, "backward", broken)
    code, stdout, _ = run(capsys, ["gradcheck", "--trials", "1", *SEED])
    assert code == 1
    assert "FAIL" in stdout


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_without_trials_is_usage_error(capsys, trials):
    code, stdout, stderr = run(capsys, ["gradcheck", "--trials", trials, *SEED])
    assert code == 2
    assert "PASS" not in stdout
    assert "--trials" in stderr


def test_gradcheck_nan_gradient_fails(capsys, monkeypatch):
    exact = model.backward

    def broken(*args, **kwargs):
        grads = exact(*args, **kwargs)
        grads.bank.weights[0].reshape(-1)[0] = np.nan
        return grads

    monkeypatch.setattr(model, "backward", broken)
    code, stdout, _ = run(capsys, ["gradcheck", "--trials", "1", *SEED])
    assert code == 1
    assert "FAIL" in stdout


@pytest.mark.parametrize("flag, value", [("--h", "0"), ("--h", "nan"), ("--tolerance", "nan")])
def test_gradcheck_bad_step_or_tolerance_is_usage_error(capsys, flag, value):
    code, stdout, stderr = run(capsys, ["gradcheck", "--trials", "1", flag, value, *SEED])
    assert code == 2
    assert "PASS" not in stdout
    assert flag in stderr
