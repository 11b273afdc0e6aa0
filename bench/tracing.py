"""In-memory span recorder that wraps onemax's public functions from outside.

A wrapper is installed at the name its caller looks the function up by:
`onemax.train` imports `adam_step`, `make_batches`, `build_condition_set`,
`resolve_sample` and `derive_seed` by name, so those are replaced inside
that module; `model` binds `fnv1a` by name; functions that a module calls
through another module's attribute (`dsp.read_sif`, `model.forward`) are
replaced on the module that defines them. The benchmark itself calls every
function through its module attribute, so its own calls are traced too.

Each span is [name, start, end, parent index, size]; `size` is a per-call
quantity (bytes hashed, samples extracted) that some metrics divide by.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

import numpy as np

START, END, PARENT, SIZE = 1, 2, 3, 4


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.live_pairs = 0      # (sample, filter) pairs whose 1-max winner is positive
        self.total_pairs = 0     # (sample, filter) pairs seen by train-mode forwards
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, size: float = 0) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, size])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def mark(self, name: str) -> None:
        """A zero-length span, used for events such as the end of an epoch."""
        self.close(self.open(name))

    def wrap(self, module, attr: str, name, size=None, after=None) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = self.open(label, size(args, kwargs) if size else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(label, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)
        self._restore.append((module, attr, fn))

    def install(self) -> None:
        dsp = importlib.import_module("onemax.dsp")
        data = importlib.import_module("onemax.data")
        model = importlib.import_module("onemax.model")
        optim = importlib.import_module("onemax.optim")
        train = importlib.import_module("onemax.train")

        for attr, name in (("spectrogram", "dsp.spectrogram"),
                           ("downsample_freq", "dsp.downsample"),
                           ("denoise", "dsp.denoise"),
                           ("extract_sif", "dsp.extract_sif"),
                           ("write_sif", "dsp.write_sif"),
                           ("read_sif", "dsp.read_sif")):
            self.wrap(dsp, attr, name)
        for attr, name in (("load_wav", "data.load_wav"),
                           ("mix_noise_at_snr", "data.mix_noise"),
                           ("synth_corpus", "data.synth_corpus"),
                           ("build_condition_set", "data.expand"),
                           ("derive_seed", "seeds.derive_seed")):
            self.wrap(data, attr, name)
        for attr, name in (("build_condition_set", "data.expand"),
                           ("make_batches", "data.make_batches"),
                           ("resolve_sample", "data.resolve_sample"),
                           ("derive_seed", "seeds.derive_seed"),
                           ("adam_init", "optim.adam_init"),
                           ("adam_step", "optim.adam_step"),
                           ("_accuracy", "train.accuracy"),
                           ("evaluate", "train.evaluate"),
                           ("train", "train.train")):
            self.wrap(train, attr, name)
        self.wrap(train, "extract_features", "train.extract_features",
                  size=lambda a, k: len(a[0]))
        self.wrap(model, "forward", _forward_name, after=self._count_live)
        for attr, name in (("backward", "model.backward"),
                           ("loss", "model.loss"),
                           ("regularizer", "model.regularizer"),
                           ("init_params", "model.init_params"),
                           ("save_checkpoint", "model.save_checkpoint"),
                           ("load_checkpoint", "model.load_checkpoint")):
            self.wrap(model, attr, name)
        for module in (model, optim):
            self.wrap(module, "fnv1a", "optim.fnv1a", size=lambda a, k: len(a[0]))
        for attr, name in (("save_adam_state", "optim.save_adam_state"),
                           ("load_adam_state", "optim.load_adam_state")):
            self.wrap(optim, attr, name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _count_live(self, label: str, trace) -> None:
        if label != "model.forward_train":
            return
        for pre, idx in zip(trace.pre_relu, trace.argmax):
            self.live_pairs += int(np.count_nonzero(pre[np.arange(len(idx)), idx] > 0.0))
            self.total_pairs += len(idx)

    # -- analysis ----------------------------------------------------------

    def under(self, idx: int, ancestor: str) -> bool:
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def select(self, name: str, under: str | None = None) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (under is None or self.under(i, under))]

    def durations(self, idxs) -> list[float]:
        return [self.spans[i][END] - self.spans[i][START] for i in idxs]

    def self_times(self, idxs) -> list[float]:
        """Duration minus the time covered by direct children (single-threaded,
        so children never overlap)."""
        wanted = {i: 0.0 for i in idxs}
        for s in self.spans:
            if s[PARENT] in wanted:
                wanted[s[PARENT]] += s[END] - s[START]
        return [self.spans[i][END] - self.spans[i][START] - wanted[i] for i in idxs]

    def write(self, path: Path, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        doc = dict(extra)
        doc["span_names"] = names
        doc["span_fields"] = ["name_id", "start_us", "end_us", "parent", "size"]
        doc["spans"] = [[ids[s[0]], round((s[START] - t0) * 1e6), round((s[END] - t0) * 1e6),
                         s[PARENT], s[SIZE]] for s in self.spans]
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
    return f"model.forward_{mode}"
