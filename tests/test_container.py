"""Corruption and killed-writer behaviour shared by the three binary containers."""

import os
import struct

import numpy as np
import pytest

from onemax.dsp import Sif, SifFormatError, read_sif, write_sif
from onemax.model import CheckpointFormatError, init_params, load_checkpoint, save_checkpoint
from onemax.optim import (
    AdamStateFormatError, adam_init, fnv1a, load_adam_state, save_adam_state,
)


def _sif(seed):
    return Sif(np.random.default_rng(seed).uniform(0, 5, (3, 4)), n_freq=2, has_energy=True)


def _adam(seed):
    state = adam_init([("w", np.zeros(2))])
    state.m[0] += seed
    return state


# name -> (save, load, error, make an object from a seed); each file is 84-109 bytes
FORMATS = {
    "sif": (write_sif, read_sif, SifFormatError, _sif),
    "1max": (save_checkpoint, load_checkpoint, CheckpointFormatError,
             lambda seed: init_params(2, 1, (1,), 1, seed=seed)),
    "adm1": (save_adam_state, load_adam_state, AdamStateFormatError, _adam),
}
CHECKSUMMED = ["1max", "adm1"]


def _saved(fmt, tmp_path, seed=0):
    save, _, _, make = FORMATS[fmt]
    path = tmp_path / f"x.{fmt}"
    save(make(seed), path)
    return path, path.read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_strict_prefix_raises_the_format_error(fmt, tmp_path):
    path, raw = _saved(fmt, tmp_path)
    _, load, error, _ = FORMATS[fmt]
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(error):
            load(path)


@pytest.mark.parametrize("fmt", FORMATS)
def test_trailing_bytes_rejected(fmt, tmp_path):
    path, raw = _saved(fmt, tmp_path)
    _, load, error, _ = FORMATS[fmt]
    for extra in (b"\x00", b"\x00" * 8, raw):
        path.write_bytes(raw + extra)
        with pytest.raises(error):
            load(path)
        if fmt in CHECKSUMMED:  # resealed, so the checksum cannot notice the extra bytes
            payload = raw[:-8] + extra
            path.write_bytes(payload + struct.pack("<Q", fnv1a(payload)))
            with pytest.raises(error, match="trailing"):
                load(path)


@pytest.mark.parametrize("fmt", CHECKSUMMED)
def test_every_single_byte_flip_rejected(fmt, tmp_path):
    # each FNV-1a step is a bijection of the state, so any one changed byte changes the hash
    path, raw = _saved(fmt, tmp_path)
    _, load, error, _ = FORMATS[fmt]
    for i in range(len(raw)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(raw)
            flipped[i] ^= mask
            path.write_bytes(bytes(flipped))
            with pytest.raises(error):
                load(path)


@pytest.mark.parametrize("fmt", FORMATS)
def test_failed_save_leaves_previous_file(fmt, tmp_path, monkeypatch):
    path, before = _saved(fmt, tmp_path, seed=1)
    save, load, _, make = FORMATS[fmt]

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError, match="killed"):
        save(make(2), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    load(path)
