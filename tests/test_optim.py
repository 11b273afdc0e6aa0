import struct

import numpy as np
import pytest

from onemax.model import init_params, save_checkpoint
from onemax.optim import (
    FNV_OFFSET,
    FNV_PRIME,
    AdamState,
    AdamStateFormatError,
    adam_init,
    adam_step,
    fnv1a,
    load_adam_state,
    save_adam_state,
)
from onemax.train import DEFAULT_WIDTHS


def fnv1a_per_byte(data) -> int:
    """The textbook one-step-per-byte FNV-1a loop, the oracle for fnv1a."""
    h = FNV_OFFSET
    for b in bytes(data):
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def reference_adam(theta0, grads, alpha, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook update sequence, written independently of the implementation."""
    theta = np.array(theta0, dtype=np.float64)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    history = []
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g**2
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - alpha * m_hat / (np.sqrt(v_hat) + eps)
        history.append(theta.copy())
    return history


def test_matches_reference_trajectory():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(7)
    grads = [rng.standard_normal(7) for _ in range(50)]
    expected = reference_adam(theta, grads, alpha=0.01)

    arr = theta.copy()
    state = adam_init([("w", arr)], alpha=0.01)
    for t, g in enumerate(grads):
        adam_step(state, [("w", arr)], [g])
        np.testing.assert_allclose(arr, expected[t], atol=1e-14, rtol=0)


def test_first_step_magnitude_is_alpha():
    """With a large constant gradient the first update is alpha per coordinate."""
    arr = np.zeros(3)
    state = adam_init([("w", arr)], alpha=1e-4)
    adam_step(state, [("w", arr)], [np.array([5.0, -2.0, 100.0])])
    np.testing.assert_allclose(np.abs(arr), 1e-4, rtol=1e-7)
    assert arr[0] < 0 and arr[1] > 0 and arr[2] < 0


def test_scalar_quadratic_converges():
    """Minimize (x - 3)^2; gradient 2(x - 3)."""
    arr = np.array([0.0])
    state = adam_init([("x", arr)], alpha=0.05)
    for _ in range(2000):
        adam_step(state, [("x", arr)], [2 * (arr - 3.0)])
    assert abs(arr[0] - 3.0) < 1e-3


def test_multiple_blocks_with_mixed_shapes():
    a = np.ones((2, 3))
    b = np.zeros(4)
    blocks = [("a", a), ("b", b)]
    state = adam_init(blocks, alpha=0.1)
    adam_step(state, blocks, [np.full((2, 3), 2.0), np.full(4, -1.0)])
    assert np.all(a < 1.0)
    assert np.all(b > 0.0)
    assert state.step == 1


def test_update_is_in_place():
    arr = np.zeros(2)
    state = adam_init([("w", arr)], alpha=0.5)
    same = arr
    adam_step(state, [("w", arr)], [np.ones(2)])
    assert same is arr
    assert np.all(same != 0.0)


def test_block_order_mismatch_rejected():
    a, b = np.zeros(1), np.zeros(1)
    state = adam_init([("a", a), ("b", b)])
    with pytest.raises(ValueError, match="order"):
        adam_step(state, [("b", b), ("a", a)], [np.zeros(1), np.zeros(1)])


def test_gradient_shape_mismatch_rejected():
    arr = np.zeros((2, 2))
    state = adam_init([("w", arr)])
    with pytest.raises(ValueError, match="shape"):
        adam_step(state, [("w", arr)], [np.zeros(3)])


def test_non_finite_gradient_names_the_block():
    arr = np.zeros(2)
    state = adam_init([("conv0.weights", arr)])
    with pytest.raises(FloatingPointError, match="conv0.weights"):
        adam_step(state, [("conv0.weights", arr)], [np.array([1.0, np.nan])])


def test_duplicate_block_names_rejected():
    with pytest.raises(ValueError):
        adam_init([("w", np.zeros(1)), ("w", np.zeros(2))])


def test_empty_block_list_rejected():
    with pytest.raises(ValueError):
        adam_init([])


def test_exact_first_step_formula():
    g = 3.0
    arr = np.array([1.0])
    state = adam_init([("x", arr)], alpha=0.2)
    adam_step(state, [("x", arr)], [np.array([g])])
    m_hat = (1 - 0.9) * g / (1 - 0.9)
    v_hat = (1 - 0.999) * g * g / (1 - 0.999)
    expected = 1.0 - 0.2 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert arr[0] == pytest.approx(expected, abs=1e-15)


def test_state_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal(5)
    blocks = [("layer.w", a), ("layer.b", b)]
    state = adam_init(blocks, alpha=0.007)
    state.beta1, state.beta2, state.eps = 0.85, 0.99, 1e-9
    for _ in range(9):
        adam_step(state, blocks, [rng.standard_normal((3, 4)), rng.standard_normal(5)])

    path = tmp_path / "opt.adm"
    save_adam_state(state, path)
    loaded = load_adam_state(path)
    assert loaded.step == 9
    assert (loaded.alpha, loaded.beta1, loaded.beta2, loaded.eps) == (0.007, 0.85, 0.99, 1e-9)
    assert loaded.block_names == ["layer.w", "layer.b"]
    for got, want in zip(loaded.m, state.m):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(loaded.v, state.v):
        assert got.tobytes() == want.tobytes()


def test_resumed_state_continues_identically(tmp_path):
    rng = np.random.default_rng(4)
    grads = [rng.standard_normal(6) for _ in range(20)]

    arr1 = np.zeros(6)
    state1 = adam_init([("w", arr1)], alpha=0.03)
    for g in grads:
        adam_step(state1, [("w", arr1)], [g])

    arr2 = np.zeros(6)
    state2 = adam_init([("w", arr2)], alpha=0.03)
    for g in grads[:10]:
        adam_step(state2, [("w", arr2)], [g])
    save_adam_state(state2, tmp_path / "mid.adm")
    resumed = load_adam_state(tmp_path / "mid.adm")
    for g in grads[10:]:
        adam_step(resumed, [("w", arr2)], [g])

    assert arr1.tobytes() == arr2.tobytes()


def test_corrupted_state_rejected(tmp_path):
    arr = np.zeros(3)
    state = adam_init([("w", arr)])
    path = tmp_path / "x.adm"
    save_adam_state(state, path)
    raw = bytearray(path.read_bytes())
    raw[10] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(AdamStateFormatError, match="checksum"):
        load_adam_state(path)


def test_forged_state_with_non_utf8_name_rejected(tmp_path):
    """A matching checksum does not make the contents valid."""
    path = tmp_path / "x.adm"
    save_adam_state(adam_init([("w", np.zeros(3))]), path)
    payload = bytearray(path.read_bytes()[:-8])
    payload[4 + 44 + 4] = 0xFF  # magic, "<ddddQI" header, name length, then the name
    path.write_bytes(bytes(payload) + struct.pack("<Q", fnv1a(bytes(payload))))
    with pytest.raises(AdamStateFormatError, match="UTF-8"):
        load_adam_state(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.adm"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(AdamStateFormatError):
        load_adam_state(path)


def test_truncated_state_rejected(tmp_path):
    arr = np.zeros(3)
    state = adam_init([("w", arr)])
    path = tmp_path / "x.adm"
    save_adam_state(state, path)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(AdamStateFormatError):
        load_adam_state(path)


def test_fnv1a_known_values():
    # published FNV-1a 64-bit test vectors
    for data, want in ((b"", 0xCBF29CE484222325), (b"a", 0xAF63DC4C8601EC8C),
                       (b"foobar", 0x85944171F73967E8)):
        assert fnv1a(data) == fnv1a_per_byte(data) == want
        assert fnv1a(memoryview(data)) == want


# around the 8-byte words and the 64 KiB blocks fnv1a works in
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 65535, 65536, 65537, 3 * 65536 + 17])
def test_fnv1a_matches_per_byte_loop(n):
    data = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8).tobytes()
    want = fnv1a_per_byte(data)
    assert fnv1a(data) == want
    assert fnv1a(memoryview(data)) == want
    assert fnv1a(bytearray(data)) == want


def test_fnv1a_matches_per_byte_loop_on_a_paper_shape_checkpoint(tmp_path):
    path = tmp_path / "paper.1max"
    save_checkpoint(init_params(10, 52, DEFAULT_WIDTHS, 100, seed=3), path)
    raw = path.read_bytes()
    assert len(raw) > 7_000_000
    payload = memoryview(raw)[:-8]
    (stored,) = struct.unpack("<Q", raw[-8:])
    assert fnv1a(payload) == fnv1a(bytes(payload)) == fnv1a_per_byte(payload) == stored
