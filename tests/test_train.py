import json
import re
import wave
from dataclasses import replace

import numpy as np
import pytest

from onemax import dsp, model
from onemax.cli import config_text
from onemax.data import Manifest, build_condition_set
from onemax.dsp import Sif
from onemax.train import (
    DEFAULT_WIDTHS,
    TrainConfig,
    TrainReport,
    accuracy_table,
    evaluate,
    extract_features,
    feature_digest,
    sweep_tsv,
    train,
    width_sweep,
)

TINY = dict(widths=(1, 3), filters_per_width=2, batch_size=8, seed=13)


@pytest.fixture(scope="module")
def sif_cache(tmp_path_factory):
    """Shared feature cache so repeated train() calls skip re-extraction."""
    return tmp_path_factory.mktemp("sif-cache")


def test_package_attribute_train_is_the_module():
    import onemax.train as m

    assert type(m).__name__ == "module"
    assert m.train is train


# --- configuration ---------------------------------------------------------------

def test_default_epoch_budgets():
    assert TrainConfig(regime="mismatched").resolved_epochs == 1000
    assert TrainConfig(regime="multi").resolved_epochs == 500
    assert TrainConfig(regime="multi", epochs=17).resolved_epochs == 17


def test_default_hyperparameters():
    cfg = TrainConfig()
    assert cfg.widths == DEFAULT_WIDTHS == tuple(range(1, 26, 2))
    assert cfg.filters_per_width == 100
    assert cfg.learning_rate == 1e-4
    assert cfg.dropout_rate == 0.5
    assert cfg.l2_lambda == 1e-4
    assert cfg.batch_size == 100
    assert cfg.input_rows == 52
    assert TrainConfig(with_energy=True).input_rows == 53


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(widths=())
    with pytest.raises(ValueError):
        TrainConfig(widths=(0, 3))
    with pytest.raises(ValueError):
        TrainConfig(widths=(3, 3))
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(regime="matched")
    with pytest.raises(ValueError):
        TrainConfig(l2_lambda=-1e-4)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(n_freq=0)
    with pytest.raises(ValueError):
        TrainConfig(copies_per_snr=0)


def test_n_freq_is_bounded_by_the_spectrum(tiny_corpus):
    # a spectrum has FFT_SIZE / 2 bins; more rows cannot be averaged out of it
    with pytest.raises(ValueError, match="n_freq"):
        TrainConfig(n_freq=dsp.FFT_SIZE // 2 + 1)
    manifest, bank, _ = tiny_corpus
    params, _ = train(TrainConfig(**TINY, epochs=1, n_freq=dsp.FFT_SIZE // 2), manifest, bank)
    assert params.input_rows == dsp.FFT_SIZE // 2


@pytest.mark.parametrize("snrs", [(10.0, 10.0), (0.0, -0.0), (20.0, 5.0, 20.0)])
def test_train_config_rejects_repeated_snrs(snrs):
    # repeats would train on duplicated copies and share one test stream
    with pytest.raises(ValueError, match="distinct"):
        TrainConfig(snrs=snrs)
    TrainConfig(snrs=(7.0000001, 7.0000002))


def test_config_text_spells_snrs_exactly():
    # %g would write 12.3457, which reads back as another SNR and condition
    text = config_text(TrainConfig(snrs=(12.3456789, 20.0, 2.5, -0.5)))
    assert "snrs=12.3456789,20,2.5,-0.5" in text.splitlines()


def test_config_text_lists_every_knob():
    text = config_text(TrainConfig(**TINY, epochs=4))
    assert "widths=1,3" in text
    assert "epochs=4" in text
    assert "seed=13" in text
    assert "regime=mismatched" in text


# --- training -----------------------------------------------------------------------

def test_zero_epochs_returns_initialization(tiny_corpus, sif_cache):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY, epochs=0)
    params, report = train(cfg, manifest, bank, cache_dir=sif_cache)
    assert report.train_loss == []
    assert len(report.val_acc) == 1
    assert report.best_epoch == 0
    expected = model.init_params(
        manifest.n_classes, cfg.input_rows, cfg.widths, cfg.filters_per_width,
        seed=__import__("onemax.seeds", fromlist=["derive_seed"]).derive_seed(cfg.seed, "init"),
    )
    for (name, arr), (_, arr2) in zip(params.blocks(), expected.blocks()):
        assert arr.tobytes() == arr2.tobytes(), name
    assert list(report.test_acc) == ["clean", "snr20", "snr10", "snr0", "mean"]


def test_training_is_bit_deterministic(tiny_corpus, sif_cache, tmp_path):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY, epochs=3)
    params_a, report_a = train(cfg, manifest, bank, cache_dir=sif_cache)
    params_b, report_b = train(cfg, manifest, bank, cache_dir=sif_cache)
    assert report_a.train_loss == report_b.train_loss
    assert report_a.val_acc == report_b.val_acc
    assert report_a.test_acc == report_b.test_acc
    model.save_checkpoint(params_a, tmp_path / "a.1max")
    model.save_checkpoint(params_b, tmp_path / "b.1max")
    assert (tmp_path / "a.1max").read_bytes() == (tmp_path / "b.1max").read_bytes()


def test_longer_run_extends_shorter_run(tiny_corpus, sif_cache):
    """Same seed: epochs 1..3 of a 6-epoch run replay the 3-epoch run exactly."""
    manifest, bank, _ = tiny_corpus
    cfg3 = TrainConfig(**TINY, epochs=3)
    cfg6 = TrainConfig(**TINY, epochs=6)
    _, report3 = train(cfg3, manifest, bank, cache_dir=sif_cache)
    _, report6 = train(cfg6, manifest, bank, cache_dir=sif_cache)
    assert report6.train_loss[:3] == report3.train_loss
    assert report6.val_acc[:4] == report3.val_acc


def test_retention_keeps_earliest_best_epoch(tiny_corpus, sif_cache):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY, epochs=4)
    _, report = train(cfg, manifest, bank, cache_dir=sif_cache)
    assert report.best_val_acc == max(report.val_acc)
    assert report.best_epoch == report.val_acc.index(max(report.val_acc))


def test_multi_regime_runs_and_expands_stream(tiny_corpus, sif_cache):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY, epochs=1, regime="multi")
    params, report = train(cfg, manifest, bank, cache_dir=sif_cache)
    assert len(report.train_loss) == 1
    assert params.all_finite()


def test_progress_callback_sees_every_epoch(tiny_corpus, sif_cache):
    manifest, bank, _ = tiny_corpus
    seen = []
    cfg = TrainConfig(**TINY, epochs=2)
    train(cfg, manifest, bank, cache_dir=sif_cache,
          progress=lambda e, l, a: seen.append((e, l, a)))
    assert [e for e, _, _ in seen] == [1, 2]


def test_divergence_raises_with_location(tiny_corpus, tmp_path):
    """A poisoned feature cache overflows the forward pass; training must
    stop with a diagnostic rather than march on through NaNs."""
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY, epochs=2)
    cs = build_condition_set(
        manifest, bank, cfg.regime, cfg.seed,
        snrs=cfg.snrs, copies_per_snr=cfg.copies_per_snr,
        validate_clean_only=cfg.validate_clean_only,
    )
    cache = tmp_path / "poisoned"
    cache.mkdir()
    for sample in cs.train:
        digest = feature_digest(cfg, sample)
        poisoned = Sif(
            values=np.full((cfg.input_rows, 10), 1e308),
            n_freq=cfg.n_freq, has_energy=cfg.with_energy,
        )
        dsp.write_sif(poisoned, cache / f"{digest}.sif")
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match=r"diverged.*epoch 1"):
            train(cfg, manifest, bank, cache_dir=cache)


def test_loss_decreases_on_average(tiny_corpus, sif_cache):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY, epochs=10, dropout_rate=0.0, learning_rate=1e-3)
    _, report = train(cfg, manifest, bank, cache_dir=sif_cache)
    assert report.train_loss[-1] < report.train_loss[0]


def test_missing_split_rejected(tiny_corpus, sif_cache):
    manifest, bank, _ = tiny_corpus
    from onemax.data import Manifest
    trainless = Manifest(
        records=[r for r in manifest.records if r.split != "train"],
        root=manifest.root,
    )
    with pytest.raises(ValueError, match="train"):
        train(TrainConfig(**TINY, epochs=1), trainless, bank)


# --- evaluation ----------------------------------------------------------------------

def zeroed_params(n_classes, rows, widths=(1, 3), p=2):
    params = model.init_params(n_classes, rows, widths, p, seed=0)
    for _, arr in params.blocks():
        arr[:] = 0.0
    return params


def test_evaluate_trivial_model_scores_chance(tiny_corpus, sif_cache):
    """All-zero parameters predict class 0 everywhere; the tiny corpus is
    balanced, so every condition scores exactly 1/3."""
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY)
    params = zeroed_params(manifest.n_classes, cfg.input_rows)
    acc = evaluate(params, manifest, bank, cfg, cache_dir=sif_cache)
    assert set(acc) == {"clean", "snr20", "snr10", "snr0", "mean"}
    for condition in ("clean", "snr20", "snr10", "snr0"):
        assert acc[condition] == pytest.approx(1.0 / 3.0)
    assert acc["mean"] == pytest.approx(1.0 / 3.0)


def test_evaluate_matches_report_row(tiny_corpus, sif_cache):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY, epochs=2)
    params, report = train(cfg, manifest, bank, cache_dir=sif_cache)
    acc = evaluate(params, manifest, bank, cfg, cache_dir=sif_cache)
    assert acc == report.test_acc
    assert list(acc)[-1] == "mean"


def manifest_with_slow_test_clip(manifest, root):
    """A copy of the corpus at root whose first test clip is relabelled 8 kHz;
    returns its manifest and that clip's path."""
    slow = manifest.by_split("test")[0].path
    for rec in manifest.records:
        (root / rec.path).parent.mkdir(parents=True, exist_ok=True)
        if rec.path != slow:
            (root / rec.path).symlink_to(manifest.root / rec.path)
    with wave.open(str(manifest.root / slow), "rb") as src:
        frames = src.readframes(src.getnframes())
    with wave.open(str(root / slow), "wb") as dst:
        dst.setnchannels(1)
        dst.setsampwidth(2)
        dst.setframerate(8000)
        dst.writeframes(frames)
    return Manifest(manifest.records, root), slow


def test_train_loads_test_clips_before_epoch_1(tiny_corpus, tmp_path):
    """A bad test clip fails the run before any epoch is trained."""
    manifest, bank, _ = tiny_corpus
    slow_manifest, slow = manifest_with_slow_test_clip(manifest, tmp_path)
    epochs = []
    with pytest.raises(ValueError, match=re.escape(f"{slow} [clean]: sample rate 8000 Hz")):
        train(TrainConfig(**TINY, epochs=2), slow_manifest, bank,
              progress=lambda epoch, loss, acc: epochs.append(epoch))
    assert epochs == []


def test_train_expands_the_manifest_once(tiny_corpus, sif_cache, monkeypatch):
    """The final test scoring reuses the condition set train() built."""
    manifest, bank, _ = tiny_corpus
    calls = []
    monkeypatch.setattr(
        "onemax.train.build_condition_set",
        lambda *a, **k: calls.append(1) or build_condition_set(*a, **k),
    )
    train(TrainConfig(**TINY, epochs=1), manifest, bank, cache_dir=sif_cache)
    assert len(calls) == 1


def test_evaluate_after_checkpoint_round_trip(tiny_corpus, sif_cache, tmp_path):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY, epochs=2)
    params, report = train(cfg, manifest, bank, cache_dir=sif_cache)
    path = tmp_path / "m.1max"
    model.save_checkpoint(params, path)
    loaded = model.load_checkpoint(path)
    acc = evaluate(loaded, manifest, bank, cfg, cache_dir=sif_cache)
    assert acc == report.test_acc


def test_evaluate_rejects_class_mismatch(tiny_corpus, sif_cache):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY)
    params = zeroed_params(manifest.n_classes + 2, cfg.input_rows)
    with pytest.raises(ValueError, match="class"):
        evaluate(params, manifest, bank, cfg, cache_dir=sif_cache)


# --- caching ---------------------------------------------------------------------------

def test_cache_does_not_change_results(tiny_corpus, tmp_path):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY, epochs=2)
    params_nc, report_nc = train(cfg, manifest, bank, cache_dir=None)
    cache = tmp_path / "cache"
    params_c1, report_c1 = train(cfg, manifest, bank, cache_dir=cache)  # cold
    params_c2, report_c2 = train(cfg, manifest, bank, cache_dir=cache)  # warm
    assert report_nc.train_loss == report_c1.train_loss == report_c2.train_loss
    assert report_nc.test_acc == report_c1.test_acc == report_c2.test_acc
    for (_, a), (_, b), (_, c) in zip(
        params_nc.blocks(), params_c1.blocks(), params_c2.blocks()
    ):
        assert a.tobytes() == b.tobytes() == c.tobytes()


def test_cache_files_round_trip_features(tiny_corpus, tmp_path):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY)
    cs = build_condition_set(manifest, bank, "mismatched", cfg.seed)
    cache = tmp_path / "c"
    direct = extract_features(cs.train, manifest, bank, cfg, cache_dir=None)
    cold = extract_features(cs.train, manifest, bank, cfg, cache_dir=cache)
    warm = extract_features(cs.train, manifest, bank, cfg, cache_dir=cache)
    for d, c, w in zip(direct, cold, warm):
        assert d.tobytes() == c.tobytes() == w.tobytes()
    assert len(list(cache.glob("*.sif"))) == len(cs.train)


def test_feature_digest_keys_on_feature_settings(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY)
    cs = build_condition_set(manifest, bank, "mismatched", cfg.seed)
    sample = cs.train[0]
    base = feature_digest(cfg, sample)
    assert feature_digest(cfg, sample) == base
    assert feature_digest(replace(cfg, with_energy=True), sample) != base
    assert feature_digest(replace(cfg, n_freq=26), sample) != base
    # training hyperparameters must not invalidate the cache
    assert feature_digest(replace(cfg, learning_rate=1.0), sample) == base
    assert feature_digest(replace(cfg, epochs=9), sample) == base


def test_feature_digest_keys_clean_clips_without_the_seed(tiny_corpus):
    manifest, bank, _ = tiny_corpus
    a, b = (build_condition_set(manifest, bank, "multi", seed).train for seed in (1, 2))
    pairs = list(zip(a, b))
    assert all(x.cache_key == y.cache_key for x, y in pairs)
    assert {x.condition for x, _ in pairs} == {"clean", "snr20", "snr10", "snr0"}
    for x, y in pairs:
        same = feature_digest(TrainConfig(seed=1), x) == feature_digest(TrainConfig(seed=2), y)
        # a corrupted copy's noise draw follows the seed; a clean clip's audio does not
        assert same == (x.condition == "clean")


def test_truncated_cache_entry_is_a_miss(tiny_corpus, tmp_path):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY)
    samples = build_condition_set(manifest, bank, "multi", cfg.seed).train[:6]
    cache = tmp_path / "c"
    extract_features(samples, manifest, bank, cfg, cache_dir=cache)
    victim = cache / f"{feature_digest(cfg, samples[3])}.sif"
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
    direct = extract_features(samples, manifest, bank, cfg, cache_dir=None)
    again = extract_features(samples, manifest, bank, cfg, cache_dir=cache)
    for d, c in zip(direct, again):
        assert d.shape == c.shape and d.tobytes() == c.tobytes()
    # the entry was rewritten whole, and no temporary file is left behind
    assert dsp.read_sif(victim).values.tobytes() == direct[3].tobytes()
    assert sorted(p.suffix for p in cache.iterdir()) == [".sif"] * 6


# --- reporting -------------------------------------------------------------------------

def test_epoch_lines_are_json_with_exact_keys(tiny_corpus, sif_cache):
    manifest, bank, _ = tiny_corpus
    cfg = TrainConfig(**TINY, epochs=3)
    _, report = train(cfg, manifest, bank, cache_dir=sif_cache)
    lines = report.epoch_lines()
    assert len(lines) == 3
    for e, line in enumerate(lines, start=1):
        parsed = json.loads(line)
        assert set(parsed) == {"epoch", "train_loss", "val_acc"}
        assert parsed["epoch"] == e
        assert parsed["train_loss"] == report.train_loss[e - 1]
        assert parsed["val_acc"] == report.val_acc[e]


def test_report_text_mentions_best_epoch():
    report = TrainReport(
        train_loss=[1.5, 1.2], val_acc=[0.2, 0.5, 0.4],
        best_epoch=1, best_val_acc=0.5,
        test_acc={"clean": 0.75, "snr0": 0.5, "mean": 0.625},
    )
    text = report.to_text()
    assert "best epoch 1" in text
    assert "0.6250" in text


def test_accuracy_table_layout():
    table = accuracy_table({"clean": 1.0, "snr0": 0.25, "mean": 0.625})
    header, row = table.splitlines()
    assert header.split() == ["clean", "snr0", "mean"]
    assert row.split() == ["1.0000", "0.2500", "0.6250"]


# --- width sweep ---------------------------------------------------------------------------

def test_width_sweep_rows_and_tsv(tiny_corpus, sif_cache):
    manifest, bank, _ = tiny_corpus
    base = TrainConfig(**TINY, epochs=1)
    rows = width_sweep(base, manifest, bank, cache_dir=sif_cache)
    assert [r["width"] for r in rows] == [1, 3]
    for row in rows:
        assert row["error"] is None
        assert set(row["accuracy"]) == {"clean", "snr20", "snr10", "snr0", "mean"}
    tsv = sweep_tsv(rows)
    lines = tsv.splitlines()
    assert lines[0] == "width\tcondition\taccuracy"
    assert len(lines) == 1 + 2 * 5


def test_width_sweep_continues_past_failures(tiny_corpus, sif_cache, width_1_diverges):
    manifest, bank, _ = tiny_corpus
    rows = width_sweep(TrainConfig(**TINY, epochs=1), manifest, bank, cache_dir=sif_cache)
    assert [r["width"] for r in rows] == [1, 3]
    assert rows[0]["error"].startswith("training diverged")
    assert rows[0]["accuracy"] is None
    assert rows[1]["error"] is None
    tsv = sweep_tsv(rows)
    assert "1\terror\ttraining diverged" in tsv
    assert "3\tclean\t" in tsv


def test_width_sweep_without_cache_extracts_once(tiny_corpus, monkeypatch):
    """Features do not depend on the width, so a second width extracts nothing."""
    manifest, bank, _ = tiny_corpus
    calls = []
    extract_sif = dsp.extract_sif
    monkeypatch.setattr(dsp, "extract_sif", lambda *a, **k: calls.append(1) or extract_sif(*a, **k))
    base = TrainConfig(**TINY, epochs=0)
    counts = []
    for widths in ((1,), (1, 3)):
        calls.clear()
        rows = width_sweep(replace(base, widths=widths), manifest, bank)
        assert all(row["error"] is None for row in rows)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def count_calls(monkeypatch, module, name) -> list:
    """Patch module.name to record each call's arguments; returns the record."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


def test_width_sweep_without_cache_touches_no_sif_file(tiny_corpus, monkeypatch):
    manifest, bank, _ = tiny_corpus
    writes = count_calls(monkeypatch, dsp, "write_sif")
    reads = count_calls(monkeypatch, dsp, "read_sif")
    rows = width_sweep(TrainConfig(**TINY, epochs=1), manifest, bank)
    assert all(row["error"] is None for row in rows)
    assert writes == [] and reads == []


def test_width_sweep_reads_each_cache_entry_once(tiny_corpus, tmp_path, monkeypatch):
    manifest, bank, _ = tiny_corpus
    base = TrainConfig(**TINY, epochs=1)
    width_sweep(replace(base, widths=(1,)), manifest, bank, cache_dir=tmp_path)  # fills the cache
    reads = count_calls(monkeypatch, dsp, "read_sif")
    rows = width_sweep(replace(base, widths=(1, 3, 5)), manifest, bank, cache_dir=tmp_path)
    assert all(row["error"] is None for row in rows)
    assert sorted(path for path, in reads) == sorted(tmp_path.glob("*.sif"))
