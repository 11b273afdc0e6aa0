"""Per-layer metrics of a traced run, derived from its spans.

Times are means per call unless the name says otherwise. Counts are
taken over operations whose size does not depend on the machine's
speed (the cache fill, the first train() call), so they repeat exactly.
"""

from __future__ import annotations

import time

import numpy as np

from tracing import PARENT, SIZE, START
from workloads import M, T

CONV_WIDTHS = tuple(range(1, 26, 2))   # every published width, measured on every workload
CONV_CLIPS = 4
CONV_BLOCK_S = 0.1


def conv_width_ms(w) -> dict[int, float]:
    """Milliseconds per clip of a one-group forward pass, for each width,
    with the workload's filter count on its first training clips."""
    cfg = w.config
    clips = T.extract_features(w.cs.train[:CONV_CLIPS], w.manifest, w.bank, cfg, w.warm)
    rng = np.random.default_rng(0)
    out = {}
    for width in CONV_WIDTHS:
        p = cfg.filters_per_width
        params = M.ModelParams(
            bank=M.FilterBank(widths=(width,), filters_per_width=p,
                              weights=[rng.uniform(-0.1, 0.1, (p, cfg.input_rows, width))],
                              biases=[np.zeros(p)]),
            softmax=M.SoftmaxParams(weights=rng.uniform(-0.1, 0.1, (w.manifest.n_classes, p)),
                                    biases=np.zeros(w.manifest.n_classes)),
            n_classes=w.manifest.n_classes,
        )
        padded = [M.pad_to_min(x, width) for x in clips]
        spent, calls = 0.0, 0
        while spent < CONV_BLOCK_S:
            for x, true_len in padded:
                t0 = time.perf_counter()
                M.forward(params, x, true_len, mode="eval")
                spent += time.perf_counter() - t0
                calls += 1
        out[width] = 1e3 * spent / calls
    return out


def conv_gflop_per_epoch(w) -> float:
    """Multiply-adds x 2 of the masked convolution over one epoch's training stream."""
    cfg = w.config
    rows, p = cfg.input_rows, cfg.filters_per_width
    flop = sum(2 * p * rows * width * (max(t, width) - width + 1)
               for t in w.train_lengths for width in cfg.widths)
    return flop / 1e9


def per_layer(w, tr, probes, conv_ms: dict[int, float]) -> dict:
    def mean_ms(name, under=None):
        d = tr.durations(tr.select(name, under))
        return 1e3 * sum(d) / len(d)

    def per_item_ms(name, under):
        idxs = tr.select(name, under)
        return 1e3 * sum(tr.durations(idxs)) / sum(tr.spans[i][SIZE] for i in idxs)

    trains = tr.select("train.train")
    first = trains[0]
    epochs = []
    for t in trains:
        starts = [i for i in tr.select("data.make_batches") if tr.spans[i][PARENT] == t]
        ends = [i for i in tr.select("train.epoch_end") if tr.spans[i][PARENT] == t]
        epochs += [tr.spans[e][START] - tr.spans[s][START] for s, e in zip(starts, ends)]
    validation = [sum(tr.durations(i for i in tr.select("train.accuracy") if tr.spans[i][PARENT] == t))
                  for t in trains]
    fnv = tr.select("optim.fnv1a")
    fnv_bytes = sum(tr.spans[i][SIZE] for i in fnv)
    forward_train_s = sum(tr.durations(tr.select("model.forward_train")))
    gflop = conv_gflop_per_epoch(w)
    derive = tr.select("seeds.derive_seed")

    m = {
        "dsp.spectrogram_ms": (mean_ms("dsp.spectrogram"), "ms"),
        "dsp.downsample_ms": (mean_ms("dsp.downsample"), "ms"),
        "dsp.denoise_ms": (mean_ms("dsp.denoise"), "ms"),
        "dsp.write_sif_ms": (mean_ms("dsp.write_sif"), "ms"),
        "dsp.read_sif_ms": (mean_ms("dsp.read_sif"), "ms"),
        "data.load_wav_ms": (mean_ms("data.load_wav", "train.extract_features"), "ms"),
        "data.mix_noise_ms": (mean_ms("data.mix_noise"), "ms"),
        "data.expand_s": (mean_ms("data.expand", "probe.expand") / 1e3, "s"),
        "data.make_batches_ms": (mean_ms("data.make_batches"), "ms"),
        "data.synth_s": (mean_ms("data.synth_corpus") / 1e3, "s"),
        "model.forward_train_ms": (mean_ms("model.forward_train"), "ms"),
        "model.forward_eval_ms": (mean_ms("model.forward_eval"), "ms"),
    }
    for width in CONV_WIDTHS:
        m[f"model.conv_w{width}_ms"] = (conv_ms[width], "ms")
    m.update({
        "model.conv_gflop": (gflop, "GFLOP"),
        "model.conv_gflop_per_s": (gflop * len(epochs) / forward_train_s, "GFLOP/s"),
        "model.backward_ms": (mean_ms("model.backward"), "ms"),
        "model.live_filter_share": (tr.live_pairs / tr.total_pairs, "share"),
        "model.loss_ms": (mean_ms("model.loss"), "ms"),
        "model.regularizer_ms": (mean_ms("model.regularizer"), "ms"),
        "model.ckpt_bytes": (w.ckpt_path.stat().st_size, "B"),
        "optim.adam_step_ms": (mean_ms("optim.adam_step"), "ms"),
        "optim.fnv1a_mb_per_s": (fnv_bytes / 1e6 / sum(tr.durations(fnv)), "MB/s"),
        "optim.adam_state_bytes": (w.adam_path.stat().st_size, "B"),
        "train.epoch_s": (sum(epochs) / len(epochs), "s"),
        "train.validation_s": (sum(validation) / len(validation), "s"),
        "train.evaluate_s": (mean_ms("train.evaluate") / 1e3, "s"),
        "train.self_s": (sum(tr.self_times(trains)) / len(trains), "s"),
        "train.extract_cold_ms": (per_item_ms("train.extract_features", "bench.fill"), "ms"),
        "train.extract_nocache_ms": (per_item_ms("train.extract_features", "probe.extract"), "ms"),
        "train.extract_warm_ms": (per_item_ms("train.extract_features", "probe.cache_read"), "ms"),
        "train.cache_hits": (len(_within(tr, tr.select("dsp.read_sif"), first)), "count"),
        "train.cache_misses": (len(tr.select("dsp.extract_sif", "bench.fill")), "count"),
        "seeds.derive_seed_us": (1e6 * sum(tr.durations(derive)) / len(derive), "us"),
        "seeds.derive_seed_calls": (len(_within(tr, derive, first)), "count"),
        "trace.train_samples_per_s": (1.0 / probes["train"].unit_time(), "samples/s"),
    })
    return m


def _within(tr, idxs, ancestor: int) -> list[int]:
    """The spans of idxs that ran inside span `ancestor`."""
    out = []
    for i in idxs:
        parent = tr.spans[i][PARENT]
        while parent > ancestor:
            parent = tr.spans[parent][PARENT]
        if parent == ancestor:
            out.append(i)
    return out
