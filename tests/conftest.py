import numpy as np
import pytest

from onemax import train
from onemax.data import SynthConfig, synth_corpus

DIVERGED = "training diverged: non-finite loss at epoch 1, batch 0"


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """3 classes x 8 instances: enough for fast end-to-end training tests."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    cfg = SynthConfig(n_classes=3, instances_per_class=8)
    manifest, bank = synth_corpus(cfg, root, rng_seed=7)
    return manifest, bank, root


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def width_1_diverges(monkeypatch):
    """Fitting a single-width-1 model raises DIVERGED, as a diverged run does."""
    fit = train._fit

    def fit_or_diverge(config, *args):
        if config.widths == (1,):
            raise RuntimeError(DIVERGED)
        return fit(config, *args)

    monkeypatch.setattr(train, "_fit", fit_or_diverge)
