"""The benchmark's workloads: inputs made from the seed, timed probes, checks.

Every onemax function is called through its module attribute (never a
name imported here), so that a traced run's wrappers see these calls too.
The package attribute `onemax.train` is the `train` function, so modules
are fetched with importlib.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks as ref
from harness import Checks, Probe

D = importlib.import_module("onemax.data")
DSP = importlib.import_module("onemax.dsp")
M = importlib.import_module("onemax.model")
O = importlib.import_module("onemax.optim")
S = importlib.import_module("onemax.seeds")
T = importlib.import_module("onemax.train")

# The stale-cache probe's corpus uses fixed seeds, so its failures do not depend on --seed.
STALE_SEEDS = (101, 202)
STALE_SYNTH = D.SynthConfig(n_classes=2, instances_per_class=4,
                            min_duration_s=0.3, max_duration_s=0.6)


@dataclass(frozen=True)
class Spec:
    synth: D.SynthConfig
    config: T.TrainConfig           # its seed is replaced by the run's seed
    chunk: int                      # (sample, condition) pairs per extraction call
    heavy: tuple[str, ...]          # probes sampled once per round; the rest twice
    expand_records: int = 0         # > 0: expansion runs on a generated manifest of this size
    stale_probe: bool = False


SPECS = {
    # The README quick start: 80 clips, clean + 20/10/0 dB, 5 widths x 16 filters,
    # plus condition-set expansion on a generated 2000-record manifest (quadratic
    # today) and the stale-cache probe. Clip lengths are drawn from a narrow range
    # in every workload: the work in a run then hardly depends on the seed, so runs
    # with different seeds compare.
    "desk-multi": Spec(
        synth=D.SynthConfig(n_classes=5, instances_per_class=16,
                            min_duration_s=0.8, max_duration_s=1.0),
        config=T.TrainConfig(regime="multi", widths=(1, 3, 5, 7, 9), filters_per_width=16,
                             batch_size=10, epochs=2),
        chunk=32,
        expand_records=2000,
        stale_probe=True,
        heavy=("setup", "train", "expand"),
    ),
    # The published hyperparameters (TrainConfig's defaults: widths 1,3,...,25 x 100,
    # lr 1e-4, dropout 0.5, L2 1e-4, batch 100) on 10 full-length clips (T = 121..141).
    "paper-shape": Spec(
        synth=D.SynthConfig(n_classes=2, instances_per_class=5,
                            min_duration_s=1.3, max_duration_s=1.5),
        config=T.TrainConfig(epochs=2),
        chunk=4,
        heavy=("setup", "train", "eval", "ckpt_save", "ckpt_load", "adam_save", "adam_load"),
    ),
}


def all_pairs(cs) -> list:
    return cs.train + cs.validation + [s for stream in cs.test.values() for s in stream]


class Workload:
    def __init__(self, name: str, seed: int, work_dir: Path, tracer=None):
        self.spec = SPECS[name]
        self.seed = seed
        self.config = replace(self.spec.config, seed=seed)
        self.dir = work_dir
        self.warm = work_dir / "cache-warm"
        # Saves always write fresh files, and nothing is deleted before the run
        # ends: ext4 flushes a file that is truncated and rewritten, and deletions
        # on a discard mount slow later writes, both by varying amounts.
        self._fresh = 0
        self.ckpt_path = self._fresh_path("model.1max")
        self.adam_path = self._fresh_path("adam.state")
        self.tracer = tracer
        self.trained: list[tuple] = []   # (params, report) of the first two train() calls
        self.loaded = None               # latest results of the load, eval and expansion probes
        self.adam_loaded = None
        self.accuracy = None
        self.expanded = None
        self._extract_next = 0
        self._warm_next = 0

    def _fresh_path(self, name: str) -> Path:
        self._fresh += 1
        return self.dir / f"{self._fresh:05d}-{name}"

    def _seed(self, *labels) -> int:
        return S.derive_seed(self.seed, "bench", *labels)

    # -- set-up ------------------------------------------------------------

    def _set_up(self, dest: Path):
        cfg = self.config
        D.synth_corpus(self.spec.synth, dest, rng_seed=self.seed)
        manifest = D.read_manifest(dest / "manifest.tsv")
        bank = D.load_noise_bank(dest / "noise")
        params = M.init_params(manifest.n_classes, cfg.input_rows, cfg.widths,
                               cfg.filters_per_width, seed=self._seed("init"))
        # one step with seeded gradients, so the saved moments are not all zero
        state = O.adam_init(params.blocks(), alpha=cfg.learning_rate)
        rng = np.random.default_rng(self._seed("grads"))
        O.adam_step(state, params.blocks(), [rng.standard_normal(a.shape) for _, a in params.blocks()])
        expand_manifest = manifest
        if self.spec.expand_records:
            expand_manifest = self._expansion_manifest(self.spec.expand_records, dest)
        return manifest, bank, params, state, expand_manifest

    def _expansion_manifest(self, n: int, root: Path):
        """n records over n/25 labels in train/validation/test shares 4:1:3; no audio needed."""
        rng = np.random.default_rng(self._seed("expand"))
        labels = [f"label{k:03d}" for k in range(n // 25)]
        splits = ("train",) * 4 + ("validation",) + ("test",) * 3
        records = [D.ManifestRecord(path=f"events/clip{i:05d}.wav",
                                    label=labels[int(rng.integers(len(labels)))],
                                    split=splits[i % len(splits)]) for i in range(n)]
        return D.Manifest(records=records, root=root)

    def setup(self) -> None:
        """The run's own set-up. The setup probe repeats it in the timed rounds."""
        t0 = time.perf_counter()
        made = self._set_up(self._fresh_path("corpus"))
        self.first_setup_s = time.perf_counter() - t0
        self.manifest, self.bank, self.params, self.adam, self.expand_manifest = made

    def fill(self) -> None:
        """Extract every (sample, condition) pair train() and evaluate() will ask for."""
        cfg = self.config
        self.cs = D.build_condition_set(
            self.manifest, self.bank, cfg.regime, cfg.seed, snrs=cfg.snrs,
            copies_per_snr=cfg.copies_per_snr, validate_clean_only=cfg.validate_clean_only)
        self.pairs = all_pairs(self.cs)
        span = self.tracer.open("bench.fill") if self.tracer else None
        sifs = T.extract_features(self.pairs, self.manifest, self.bank, cfg, self.warm)
        if span is not None:
            self.tracer.close(span)
        self.train_lengths = [x.shape[1] for x in sifs[: len(self.cs.train)]]
        # strided, so every chunk holds the same mix of splits and conditions
        n_chunks = -(-len(self.pairs) // self.spec.chunk)
        self.chunks = [self.pairs[k::n_chunks] for k in range(n_chunks)]

    # -- timed probes --------------------------------------------------------

    def probes(self) -> list[Probe]:
        cfg, man, bank = self.config, self.manifest, self.bank

        def setup():
            self._set_up(self._fresh_path("setup"))
            return 1

        def train():
            progress = None
            if self.tracer is not None:
                progress = lambda epoch, loss, acc: self.tracer.mark("train.epoch_end")
            result = T.train(cfg, man, bank, cache_dir=self.warm, progress=progress)
            if len(self.trained) < 2:
                self.trained.append(result)
            return cfg.resolved_epochs * len(self.cs.train)

        def evaluate():
            self.accuracy = T.evaluate(self.params, man, bank, cfg, self.warm)
            return sum(len(s) for s in self.cs.test.values())

        def extract():
            # No cache: creating thousands of small files costs from 0.05 to 2 ms each
            # here, by run, which no run length evens out. dsp.write_sif_ms, from the
            # traced cache fill, follows the write path instead.
            chunk = self.chunks[self._extract_next % len(self.chunks)]
            self._extract_next += 1
            T.extract_features(chunk, man, bank, cfg, None)
            return len(chunk)

        def extract_warm():
            chunk = self.chunks[self._warm_next % len(self.chunks)]
            self._warm_next += 1
            T.extract_features(chunk, man, bank, cfg, self.warm)
            return len(chunk)

        def expand():
            self.expanded = D.build_condition_set(
                self.expand_manifest, bank, "multi", cfg.seed, snrs=cfg.snrs,
                copies_per_snr=cfg.copies_per_snr)
            return len(self.expand_manifest.records)

        def ckpt_save():
            self.ckpt_path = self._fresh_path("model.1max")
            M.save_checkpoint(self.params, self.ckpt_path)
            return 1

        def ckpt_load():
            self.loaded = M.load_checkpoint(self.ckpt_path)
            return 1

        def adam_save():
            self.adam_path = self._fresh_path("adam.state")
            O.save_adam_state(self.adam, self.adam_path)
            return 1

        def adam_load():
            self.adam_loaded = O.load_adam_state(self.adam_path)
            return 1

        return [
            Probe("setup", setup),
            Probe("train", train),
            Probe("eval", evaluate),
            Probe("extract", extract, min_block=0.3),
            Probe("cache_read", extract_warm),
            Probe("expand", expand),
            Probe("ckpt_save", ckpt_save),
            Probe("ckpt_load", ckpt_load),
            Probe("adam_save", adam_save),
            Probe("adam_load", adam_load),
        ]

    # -- correctness ---------------------------------------------------------

    def run_checks(self, c: Checks) -> None:
        groups = [self._check_features, self._check_mixing, self._check_forward,
                  self._check_backward, self._check_adam, self._check_containers,
                  self._check_expansion, self._check_cache, self._check_training]
        if self.spec.stale_probe:
            groups.append(self._check_stale_cache)
        for group in groups:
            try:
                group(c)
            except Exception as exc:  # a crash in one group is one failed check, not a lost run
                c.check(False, f"{group.__name__} raised {exc!r}")

    def _features(self, samples) -> list[np.ndarray]:
        return T.extract_features(samples, self.manifest, self.bank, self.config, self.warm)

    def _check_features(self, c: Checks) -> None:
        cs = self.cs
        last_snr = list(cs.test)[-1]
        for s in (cs.train[0], cs.validation[0], cs.test[last_snr][0]):
            wave = D.resolve_sample(s, self.manifest, self.bank)
            got = DSP.extract_sif(wave, n_freq=self.config.n_freq).values
            want = ref.plain_sif(wave.samples, self.config.n_freq)
            c.check(got.shape == want.shape
                    and np.allclose(got, want, rtol=0.0, atol=1e-9 * float(np.abs(want).max())),
                    f"extract_sif vs plain DFT for {s.cache_key}")
            c.check(bool(np.all(got.min(axis=1) == 0.0)), f"row minima of {s.cache_key} are 0")

    def _check_mixing(self, c: Checks) -> None:
        for rec in self.manifest.by_split("test")[:3]:
            clean = D.load_wav(self.manifest.abspath(rec))
            for snr in self.config.snrs:
                mixed = D.mix_noise_at_snr(clean, self.bank, snr, self._seed("mix", rec.path, snr))
                got = ref.measured_snr_db(clean.samples, mixed.samples)
                c.check(abs(got - snr) <= 1e-9, f"{rec.path} mixed at {snr} dB measures {got!r} dB")

    def _check_forward(self, c: Checks) -> None:
        params = self.params
        min_cols = max(params.bank.widths)
        for s, sif in zip(self.cs.train[:2], self._features(self.cs.train[:2])):
            padded, true_len = M.pad_to_min(sif, min_cols)
            trace = M.forward(params, padded, true_len, mode="eval")
            pooled, y_hat = ref.loop_forward(params, sif)
            c.check(np.allclose(trace.pooled, pooled, rtol=1e-10, atol=1e-12)
                    and np.allclose(trace.y_hat, y_hat, rtol=1e-10, atol=1e-12),
                    f"forward vs per-filter loop for {s.cache_key}")
            wider = np.zeros((padded.shape[0], padded.shape[1] + 13))
            wider[:, : padded.shape[1]] = padded
            again = M.forward(params, wider, true_len, mode="eval")
            c.check(np.array_equal(again.pooled, trace.pooled)
                    and np.array_equal(again.y_hat, trace.y_hat),
                    f"zero padding changes the forward pass of {s.cache_key}")

    def _check_backward(self, c: Checks) -> None:
        cfg, params = self.config, self.params
        rng = np.random.default_rng(self._seed("direction"))
        h = 1e-5
        for s, sif in zip(self.cs.train[:2], self._features(self.cs.train[:2])):
            padded, true_len = M.pad_to_min(sif, max(cfg.widths))

            def run(p):
                return M.forward(p, padded, true_len, mode="train",
                                 dropout_rate=cfg.dropout_rate, rng_seed=self._seed("dropout"))

            def moved(step):
                p = params.copy()
                for (_, arr), d in zip(p.blocks(), direction):
                    arr += step * d
                return M.loss(run(p), s.class_index, p, cfg.l2_lambda)

            direction = [rng.standard_normal(a.shape) for _, a in params.blocks()]
            norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
            direction = [d / norm for d in direction]
            grads = M.backward(params, run(params), padded, s.class_index, cfg.l2_lambda)
            analytic = sum(float(np.sum(g * d)) for g, d in zip(grads.arrays(), direction))
            numeric = (moved(h) - moved(-h)) / (2.0 * h)
            c.check(abs(numeric - analytic) <= 1e-6 * max(1.0, abs(analytic)),
                    f"directional derivative {numeric!r} vs <grad, v> {analytic!r} for {s.cache_key}")

    def _check_adam(self, c: Checks) -> None:
        rng = np.random.default_rng(self._seed("adam"))
        blocks = [(name, arr.copy()) for name, arr in self.params.blocks()]
        before = [arr.copy() for _, arr in blocks]
        grads = [rng.standard_normal(arr.shape) for _, arr in blocks]
        state = O.adam_init(blocks, alpha=self.config.learning_rate)
        O.adam_step(state, blocks, grads)
        c.check(all(np.allclose(arr, ref.adam_closed_form(t0, g, state.alpha, state.beta1,
                                                          state.beta2, state.eps),
                                rtol=1e-12, atol=1e-15)
                    for (_, arr), t0, g in zip(blocks, before, grads)),
                "one Adam step differs from the closed-form update")

    def _check_containers(self, c: Checks) -> None:
        c.check(self.loaded.bank.widths == self.params.bank.widths
                and ref.params_bytes(self.loaded) == ref.params_bytes(self.params),
                "checkpoint does not round-trip bit-exactly")
        a, b = self.adam, self.adam_loaded
        c.check((a.alpha, a.beta1, a.beta2, a.eps, a.step, a.block_names)
                == (b.alpha, b.beta1, b.beta2, b.eps, b.step, b.block_names)
                and all(x.tobytes() == y.tobytes() for x, y in zip(a.m + a.v, b.m + b.v)),
                "Adam state does not round-trip bit-exactly")

    def _check_expansion(self, c: Checks) -> None:
        cfg, man, cs = self.config, self.expand_manifest, self.expanded
        per_record = 1 + len(cfg.snrs) * cfg.copies_per_snr
        n = {split: len([r for r in man.records if r.split == split]) for split in D.SPLITS}
        c.check(len(cs.train) == n["train"] * per_record
                and len(cs.validation) == n["validation"] * per_record
                and all(len(stream) == n["test"] for stream in cs.test.values())
                and len(cs.test) == 1 + len(cfg.snrs),
                "condition-set stream sizes")
        table = {label: k for k, label in enumerate(sorted({r.label for r in man.records}))}
        c.check(all(s.class_index == table[s.record.label] for s in all_pairs(cs)),
                "class_index is not the label's position in the sorted label list")

    def _check_cache(self, c: Checks) -> None:
        chunk, cache = self.chunks[0], self._fresh_path("cache-check")
        cold = T.extract_features(chunk, self.manifest, self.bank, self.config, cache)
        reread = T.extract_features(chunk, self.manifest, self.bank, self.config, cache)
        warm = self._features(chunk)
        for name, other in (("re-read", reread), ("warm cache", warm)):
            c.check(all(x.tobytes() == y.tobytes() and x.shape == y.shape
                        for x, y in zip(cold, other)),
                    f"{name} features differ from the cold extraction")

    def _check_training(self, c: Checks) -> None:
        cfg = self.config
        # Dropout noise can outweigh an epoch's progress (a 4-clip paper-shape
        # epoch is one Adam step), so the loss is followed with dropout off.
        plain = replace(cfg, dropout_rate=0.0, epochs=2)
        curve = T.train(plain, self.manifest, self.bank, cache_dir=self.warm)[1].train_loss
        c.check(curve[-1] < curve[0], f"training loss does not fall: {curve}")
        while len(self.trained) < 2:
            self.trained.append(T.train(cfg, self.manifest, self.bank, cache_dir=self.warm))
        c.check(ref.params_bytes(self.trained[0][0]) == ref.params_bytes(self.trained[1][0]),
                "two identical train() calls give different checkpoints")
        for condition, samples in self.cs.test.items():
            hits = sum(int(np.argmax(ref.loop_forward(self.params, x)[1])) == s.class_index
                       for s, x in zip(samples, self._features(samples)))
            got = self.accuracy[condition]
            c.check(got == hits / len(samples),
                    f"evaluate() {condition} accuracy {got} vs {hits}/{len(samples)}")

    def _check_stale_cache(self, c: Checks) -> None:
        """Re-synthesize a fixed corpus in place with another seed and read it
        through the cache: every clip whose cached features differ from a fresh
        extraction of the audio now on disk is a failed operation."""
        corpus, cache = self.dir / "stale-corpus", self.dir / "stale-cache"
        cfg = replace(self.config, seed=STALE_SEEDS[0])
        D.synth_corpus(STALE_SYNTH, corpus, rng_seed=STALE_SEEDS[0])
        man = D.read_manifest(corpus / "manifest.tsv")
        samples = [D.Sample(record=r, condition="clean", class_index=man.class_index(r.label))
                   for r in man.records]
        T.extract_features(samples, man, None, cfg, cache)
        D.synth_corpus(STALE_SYNTH, corpus, rng_seed=STALE_SEEDS[1])
        cached = T.extract_features(samples, man, None, cfg, cache)
        fresh = T.extract_features(samples, man, None, cfg, None)
        for s, old, new in zip(samples, cached, fresh):
            c.check(old.shape == new.shape and np.array_equal(old, new),
                    f"cache serves stale features for {s.record.path}", known_fault=True)

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, probes: dict[str, Probe], peak_rss_mb: float) -> dict:
        rate = lambda name: 1.0 / probes[name].unit_time()
        setups = [self.first_setup_s] + [s / u for _, s, u in probes["setup"].samples]
        return {
            "setup_s": (statistics.median(setups), "s"),
            "train_samples_per_s": (rate("train"), "samples/s"),
            "eval_clips_per_s": (rate("eval"), "clips/s"),
            "extract_clips_per_s": (rate("extract"), "clips/s"),
            "cache_read_clips_per_s": (rate("cache_read"), "clips/s"),
            "expand_records_per_s": (rate("expand"), "records/s"),
            "ckpt_save_s": (probes["ckpt_save"].unit_time(), "s"),
            "ckpt_load_s": (probes["ckpt_load"].unit_time(), "s"),
            "adam_save_s": (probes["adam_save"].unit_time(), "s"),
            "adam_load_s": (probes["adam_load"].unit_time(), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
