"""Corruption and killed-writer behaviour shared by the three binary containers."""

import hashlib
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from onemax.dsp import Sif, SifFormatError, read_sif, write_sif
from onemax.model import CheckpointFormatError, init_params, load_checkpoint, save_checkpoint
from onemax.optim import (
    AdamStateFormatError, adam_init, adam_step, fnv1a, load_adam_state, save_adam_state,
)

DATA = Path(__file__).parent / "data"


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


def _stepped(n_classes, rows, widths, filters, seed):
    """Seeded parameters and the Adam state after one seeded step."""
    params = init_params(n_classes, rows, widths, filters, seed=seed)
    state = adam_init(params.blocks(), alpha=1e-3)
    rng = np.random.default_rng(seed + 1)
    adam_step(state, params.blocks(), [rng.standard_normal(a.shape) for _, a in params.blocks()])
    return params, state


@pytest.fixture(scope="module")
def desk_files(tmp_path_factory):
    """A desk-shape checkpoint (170 KB) and Adam state (341 KB): several checksum blocks."""
    root = tmp_path_factory.mktemp("desk")
    params, state = _stepped(5, 52, (1, 3, 5, 7, 9), 16, seed=7)
    save_checkpoint(params, root / "x.1max")
    save_adam_state(state, root / "x.adm1")
    return {"1max": (root / "x.1max").read_bytes(), "adm1": (root / "x.adm1").read_bytes()}


def test_file_bytes_are_pinned(desk_files):
    # SHA-256 of these files as the per-byte FNV-1a implementation wrote them
    assert hashlib.sha256(desk_files["1max"]).hexdigest() == (
        "9ac7d51649323b7c2537af244bc0e9c7f8cf3a609eaa40703a0cd15f183f6161")
    assert hashlib.sha256(desk_files["adm1"]).hexdigest() == (
        "be81c73fc525fe4795a398f2b48ecc7ca1a18c1c12a03d7c7da7f4eb03abd3b9")


@pytest.mark.parametrize("fmt", CHECKSUMMED)
def test_large_file_rejects_flips_across_blocks(fmt, desk_files, tmp_path):
    raw = desk_files[fmt]
    _, load, error, _ = FORMATS[fmt]
    path = tmp_path / f"x.{fmt}"
    block = 1 << 16
    ends = (len(raw) - 9, len(raw) - 8, len(raw) - 1)  # last payload byte, then the trailer
    for i in (4, block - 1, block, block + 1, 2 * block + 7, *ends):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(raw)
            flipped[i] ^= mask
            path.write_bytes(bytes(flipped))
            with pytest.raises(error, match="checksum"):
                load(path)


@pytest.mark.parametrize("fmt", CHECKSUMMED)
def test_large_file_rejects_truncation_across_blocks(fmt, desk_files, tmp_path):
    raw = desk_files[fmt]
    _, load, error, _ = FORMATS[fmt]
    path = tmp_path / f"x.{fmt}"
    block = 1 << 16
    for n in (block - 1, block, block + 1, block + 8, 2 * block, len(raw) - 8, len(raw) - 1):
        path.write_bytes(raw[:n])
        with pytest.raises(error):
            load(path)
    path.write_bytes(raw)
    load(path)


def test_files_written_by_the_per_byte_checksum_load(tmp_path):
    # tests/data holds a .1max and an ADM1 file written before fnv1a worked in blocks
    params, state = _stepped(3, 4, (1, 2), 2, seed=5)
    loaded = load_checkpoint(DATA / "small.1max")
    for (name, want), (_, got) in zip(params.blocks(), loaded.blocks()):
        assert np.array_equal(got, want), name
    loaded_state = load_adam_state(DATA / "small.adm1")
    assert loaded_state.step == 1 and loaded_state.block_names == state.block_names
    for want, got in zip(state.m + state.v, loaded_state.m + loaded_state.v):
        assert np.array_equal(got, want)
    save_checkpoint(loaded, tmp_path / "x.1max")
    save_adam_state(loaded_state, tmp_path / "x.adm1")
    assert (tmp_path / "x.1max").read_bytes() == (DATA / "small.1max").read_bytes()
    assert (tmp_path / "x.adm1").read_bytes() == (DATA / "small.adm1").read_bytes()
