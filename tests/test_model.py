import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from onemax import model
from onemax.model import (
    CheckpointFormatError,
    FilterBank,
    ModelParams,
    SoftmaxParams,
    backward,
    finite_difference_gradients,
    forward,
    init_params,
    load_checkpoint,
    loss,
    pad_to_min,
    save_checkpoint,
)
from onemax.optim import fnv1a


# --- independent oracles -----------------------------------------------------

def conv_time_valid(sif: np.ndarray, filter_weights: np.ndarray, bias: float) -> np.ndarray:
    """Valid time-only correlation of one filter, plus bias, through ReLU.

    a[i] = max(0, bias + sum_{k,l} sif[k, i+l] * filter_weights[k, l])
    for i = 0 .. T - w. No kernel flip.
    """
    sif = np.asarray(sif, dtype=np.float64)
    filter_weights = np.asarray(filter_weights, dtype=np.float64)
    if sif.ndim != 2 or filter_weights.ndim != 2:
        raise ValueError("sif and filter_weights must both be 2-d")
    if sif.shape[0] != filter_weights.shape[0]:
        raise ValueError(
            f"row mismatch: input has {sif.shape[0]} rows, filter has {filter_weights.shape[0]}"
        )
    w = filter_weights.shape[1]
    if sif.shape[1] < w:
        raise ValueError(f"input has {sif.shape[1]} columns, shorter than filter width {w}")
    windows = np.lib.stride_tricks.sliding_window_view(sif, (sif.shape[0], w))[0]
    pre = np.einsum("lkw,kw->l", windows, filter_weights) + bias
    return np.maximum(pre, 0.0)


def one_max_pool(feature_map: np.ndarray, valid_len: int) -> tuple[float, int]:
    """Max over feature_map[:valid_len] and the earliest index attaining it.

    Positions at or beyond valid_len come from zero-padding and are never
    pooled.
    """
    feature_map = np.asarray(feature_map, dtype=np.float64)
    if not 1 <= valid_len <= len(feature_map):
        raise ValueError(
            f"valid_len must be in [1, {len(feature_map)}], got {valid_len}"
        )
    idx = int(np.argmax(feature_map[:valid_len]))
    return float(feature_map[idx]), idx


def einsum_pre_relu(params: ModelParams, sif: np.ndarray, true_len: int) -> list[np.ndarray]:
    """Each group's [P, L] pre-activation by one einsum over the sliding windows
    of the clip's first max(true_len, w) columns."""
    out = []
    for q, w in enumerate(params.bank.widths):
        content = np.ascontiguousarray(sif[:, : max(true_len, w)])
        windows = np.lib.stride_tricks.sliding_window_view(content, (sif.shape[0], w))[0]
        pre = np.einsum("lkw,pkw->pl", windows, params.bank.weights[q])
        out.append(pre + params.bank.biases[q][:, None])
    return out


def brute_force_conv(sif, weights, bias):
    """Triple-loop correlation + ReLU, straight from the definition."""
    rows, t = sif.shape
    w = weights.shape[1]
    out = np.empty(t - w + 1)
    for i in range(t - w + 1):
        total = bias
        for k in range(rows):
            for j in range(w):
                total += sif[k, i + j] * weights[k, j]
        out[i] = max(0.0, total)
    return out


def max_rel_error(analytic_arrays, fd_arrays, floor=1e-3):
    worst = 0.0
    for a, f in zip(analytic_arrays, fd_arrays):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


PAPER_WIDTHS = tuple(range(1, 26, 2))


def small_params(seed=0, rows=8, widths=(1, 3), p=3, n_classes=4):
    return init_params(n_classes, rows, widths, p, seed=seed)


# --- conv_time_valid ------------------------------------------------------------

def test_conv_all_ones_gives_column_sums():
    out = conv_time_valid(np.ones((2, 3)), np.ones((2, 1)), 0.0)
    np.testing.assert_array_equal(out, [2.0, 2.0, 2.0])


def test_conv_relu_clamps_negative_bias():
    out = conv_time_valid(np.random.default_rng(0).uniform(size=(3, 6)), np.zeros((3, 2)), -1.0)
    assert np.all(out == 0.0)


def test_conv_matches_brute_force_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sif = rng.standard_normal((4, 10))
        weights = rng.standard_normal((4, 3))
        bias = float(rng.standard_normal())
        got = conv_time_valid(sif, weights, bias)
        np.testing.assert_allclose(got, brute_force_conv(sif, weights, bias), atol=1e-12)


def test_conv_row_mismatch_rejected():
    with pytest.raises(ValueError, match="row"):
        conv_time_valid(np.ones((3, 5)), np.ones((2, 2)), 0.0)


def test_conv_input_narrower_than_filter_rejected():
    with pytest.raises(ValueError):
        conv_time_valid(np.ones((2, 2)), np.ones((2, 3)), 0.0)


# --- one_max_pool ------------------------------------------------------------------

def test_pool_basic():
    assert one_max_pool(np.array([0.0, 3.0, 1.0]), 3) == (3.0, 1)


def test_pool_excludes_padded_positions():
    assert one_max_pool(np.array([0.0, 3.0, 9.0]), 2) == (3.0, 1)


def test_pool_earliest_tie():
    assert one_max_pool(np.array([2.0, 2.0, 2.0]), 3) == (2.0, 0)


def test_pool_valid_len_bounds():
    with pytest.raises(ValueError):
        one_max_pool(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        one_max_pool(np.array([1.0, 2.0]), 3)


# --- pad_to_min ----------------------------------------------------------------------

def test_pad_to_min_pads_right_with_zeros():
    sif = np.ones((52, 10))
    padded, true_len = pad_to_min(sif, 25)
    assert padded.shape == (52, 25)
    assert true_len == 10
    assert np.all(padded[:, 10:] == 0.0)
    np.testing.assert_array_equal(padded[:, :10], sif)


def test_pad_to_min_leaves_long_input_alone():
    sif = np.ones((52, 30))
    padded, true_len = pad_to_min(sif, 25)
    assert padded.shape == (52, 30)
    assert true_len == 30


# --- forward ---------------------------------------------------------------------------

def test_forward_zero_params_uniform_probabilities():
    params = ModelParams(
        bank=FilterBank(widths=(1, 3), filters_per_width=2,
                        weights=[np.zeros((2, 5, 1)), np.zeros((2, 5, 3))],
                        biases=[np.zeros(2), np.zeros(2)]),
        softmax=SoftmaxParams(weights=np.zeros((4, 4)), biases=np.zeros(4)),
        n_classes=4,
    )
    trace = forward(params, np.random.default_rng(0).uniform(size=(5, 9)), 9)
    np.testing.assert_array_equal(trace.y_hat, np.full(4, 0.25))


def test_pooled_dimension_at_published_scale():
    params = init_params(10, 52, tuple(range(1, 26, 2)), 100, seed=0)
    trace = forward(params, np.random.default_rng(1).uniform(size=(52, 30)), 30)
    assert len(trace.pooled) == 1300


def test_padding_beyond_true_len_is_neutral():
    params = small_params(seed=2)
    rng = np.random.default_rng(3)
    sif = rng.uniform(0, 2, size=(8, 50))
    padded = np.zeros((8, 80))
    padded[:, :50] = sif
    a = forward(params, sif, 50)
    b = forward(params, padded, 50)
    np.testing.assert_array_equal(a.pooled, b.pooled)
    np.testing.assert_array_equal(a.y_hat, b.y_hat)


def test_forward_matches_conv_op_per_filter():
    params = small_params(seed=4)
    sif = np.random.default_rng(5).uniform(size=(8, 20))
    trace = forward(params, sif, 20)
    for q, w in enumerate(params.bank.widths):
        for p in range(params.bank.filters_per_width):
            expected = conv_time_valid(
                sif, params.bank.weights[q][p], float(params.bank.biases[q][p])
            )
            np.testing.assert_allclose(
                np.maximum(trace.pre_relu[q][p], 0.0), expected, atol=1e-12
            )


def test_forward_matches_einsum_oracle_at_paper_shape():
    params = init_params(10, 52, PAPER_WIDTHS, 100, seed=21)
    rng = np.random.default_rng(22)
    for t in (20, 121, 141):
        sif, true_len = pad_to_min(rng.uniform(0, 2, size=(52, t)), max(PAPER_WIDTHS))
        trace = forward(params, sif, true_len)
        for got, want in zip(trace.pre_relu, einsum_pre_relu(params, sif, true_len)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_pre_relu_columns_do_not_depend_on_position():
    """A clip embedded at offsets 1..33 in a zero background gives the same
    bits in every column whose window sees the same content, although the
    background's length, and with it the padded position count, changes.
    Each column also equals its window scored alone, a one-position clip."""
    rows, p, w, c, tail = 52, 100, 25, 60, 5
    params = init_params(3, rows, (w,), p, seed=23)
    rng = np.random.default_rng(24)
    for _ in range(3):
        # one zero column before the clip, `tail` after it
        content = np.zeros((rows, 1 + c + tail))
        content[:, 1 : 1 + c] = rng.uniform(0, 2, size=(rows, c))
        reference = None
        for offset in range(1, 34):
            t = offset + c + tail
            sif = np.zeros((rows, t))
            sif[:, offset - 1 :] = content
            columns = forward(params, sif, t).pre_relu[0][:, offset - 1 :]
            if reference is None:
                reference = columns
            else:
                np.testing.assert_array_equal(columns, reference)
        for k in range(reference.shape[1]):
            alone = forward(params, content[:, k : k + w], w).pre_relu[0]
            np.testing.assert_array_equal(alone[:, 0], reference[:, k])


# Forward and backward at the desk shape and at one paper-width group
# (w = 25, P = 100; 141 - 25 + 1 = 117 positions, not a multiple of 16).
THREAD_PROBE = """
import hashlib
import numpy as np
from onemax import model
for widths, p, t in (((1, 3, 5, 7, 9), 16, 87), ((25,), 100, 141)):
    params = model.init_params(5, 52, widths, p, seed=31)
    sif = np.random.default_rng(32).uniform(0, 2, size=(52, t))
    for mode in ("eval", "train"):
        trace = model.forward(params, sif, t, mode=mode, rng_seed=3)
        grads = model.backward(params, trace, sif, 1, 1e-4)
        arrays = trace.pre_relu + [trace.pooled, trace.y_hat] + grads.arrays()
        print(widths, mode, hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
"""


def test_forward_and_backward_bytes_do_not_depend_on_blas_threads():
    src = str(Path(model.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 4


def test_probabilities_sum_to_one():
    for seed in range(10):
        params = small_params(seed=seed)
        sif = np.random.default_rng(seed).uniform(0, 3, size=(8, 15))
        trace = forward(params, sif, 15)
        assert abs(trace.y_hat.sum() - 1.0) < 1e-9
        assert np.all(trace.y_hat >= 0.0) and np.all(trace.y_hat <= 1.0)


def test_softmax_invariant_under_dyadic_logit_shift():
    """With zero softmax weights the logits equal the biases exactly, so a
    power-of-two shift changes every logit by exactly the same float."""
    def with_biases(b):
        return ModelParams(
            bank=FilterBank(widths=(1,), filters_per_width=2,
                            weights=[np.zeros((2, 3, 1))], biases=[np.zeros(2)]),
            softmax=SoftmaxParams(weights=np.zeros((3, 2)), biases=np.array(b)),
            n_classes=3,
        )
    sif = np.ones((3, 4))
    base = forward(with_biases([0.5, -1.25, 2.0]), sif, 4)
    shifted = forward(with_biases([0.5 + 8.0, -1.25 + 8.0, 2.0 + 8.0]), sif, 4)
    np.testing.assert_array_equal(base.y_hat, shifted.y_hat)


def test_shift_invariance_interior_offsets():
    """A patch translated through the interior never changes the pooled vector."""
    params = small_params(seed=6, rows=8, widths=(1, 3), p=3)
    rng = np.random.default_rng(7)
    patch = rng.uniform(0.5, 2.0, size=(8, 5))
    t, k, w_max = 40, 5, 3
    reference = None
    for offset in range(w_max - 1, t - k - w_max + 2):
        sif = np.zeros((8, t))
        sif[:, offset : offset + k] = patch
        pooled = forward(params, sif, t).pooled
        if reference is None:
            reference = pooled
        else:
            np.testing.assert_array_equal(pooled, reference)


def test_shift_invariance_all_offsets_width_one():
    """Width-1 filters see no boundary effects: every offset is equivalent."""
    params = small_params(seed=8, rows=6, widths=(1,), p=4)
    rng = np.random.default_rng(9)
    patch = rng.uniform(-1.0, 2.0, size=(6, 5))
    t = 30
    reference = None
    for offset in range(0, t - 5 + 1):
        sif = np.zeros((6, t))
        sif[:, offset : offset + 5] = patch
        pooled = forward(params, sif, t).pooled
        if reference is None:
            reference = pooled
        else:
            np.testing.assert_array_equal(pooled, reference)


def test_train_mode_dropout_reproducible_and_scaled():
    params = small_params(seed=10)
    sif = np.random.default_rng(11).uniform(0, 2, size=(8, 12))
    a = forward(params, sif, 12, mode="train", dropout_rate=0.5, rng_seed=99)
    b = forward(params, sif, 12, mode="train", dropout_rate=0.5, rng_seed=99)
    np.testing.assert_array_equal(a.softmax_input, b.softmax_input)
    np.testing.assert_array_equal(a.dropout_mask, b.dropout_mask)
    assert set(np.unique(a.dropout_mask)) <= {0.0, 1.0}
    np.testing.assert_array_equal(a.softmax_input, a.pooled * a.dropout_mask / 0.5)


def test_dropout_masks_vary_across_seeds():
    params = small_params(seed=12, p=5, widths=(1, 3, 5))
    sif = np.random.default_rng(13).uniform(0, 2, size=(8, 12))
    masks = {
        forward(params, sif, 12, mode="train", rng_seed=s).dropout_mask.tobytes()
        for s in range(8)
    }
    assert len(masks) > 1


def test_zero_dropout_train_equals_eval():
    params = small_params(seed=14)
    sif = np.random.default_rng(15).uniform(0, 2, size=(8, 12))
    a = forward(params, sif, 12, mode="train", dropout_rate=0.0, rng_seed=1)
    b = forward(params, sif, 12, mode="eval")
    np.testing.assert_array_equal(a.y_hat, b.y_hat)
    assert a.dropout_mask is None


def test_short_input_pools_single_position():
    """true_len below a filter's width still yields one valid position."""
    params = small_params(seed=16, widths=(1, 3), rows=8)
    sif, true_len = pad_to_min(np.random.default_rng(17).uniform(0, 1, size=(8, 2)), 3)
    trace = forward(params, sif, true_len)
    assert len(trace.pooled) == params.bank.pooled_dim
    assert np.all(trace.argmax[1] == 0)


def test_forward_validation_errors():
    params = small_params()
    sif = np.ones((8, 10))
    with pytest.raises(ValueError):
        forward(params, np.ones((7, 10)), 10)
    with pytest.raises(ValueError):
        forward(params, sif, 0)
    with pytest.raises(ValueError):
        forward(params, sif, 11)
    with pytest.raises(ValueError):
        forward(params, sif, 10, mode="predict")
    with pytest.raises(ValueError):
        forward(params, sif, 10, dropout_rate=1.0)


# --- loss ---------------------------------------------------------------------------------

def test_loss_perfect_prediction_is_zero():
    params = small_params(seed=20, n_classes=3)
    trace = forward(params, np.ones((8, 5)), 5)
    trace.logits = np.array([1000.0, 0.0, 0.0])
    trace.y_hat = np.array([1.0, 0.0, 0.0])
    assert loss(trace, 0, params, 0.0) == 0.0


def test_loss_uniform_is_log_n():
    params = ModelParams(
        bank=FilterBank(widths=(1,), filters_per_width=1,
                        weights=[np.zeros((1, 2, 1))], biases=[np.zeros(1)]),
        softmax=SoftmaxParams(weights=np.zeros((4, 1)), biases=np.zeros(4)),
        n_classes=4,
    )
    trace = forward(params, np.ones((2, 3)), 3)
    assert loss(trace, 2, params, 0.0) == pytest.approx(np.log(4.0), abs=1e-12)


def test_loss_zero_params_regularizer_is_zero():
    params = ModelParams(
        bank=FilterBank(widths=(1,), filters_per_width=1,
                        weights=[np.zeros((1, 2, 1))], biases=[np.zeros(1)]),
        softmax=SoftmaxParams(weights=np.zeros((4, 1)), biases=np.zeros(4)),
        n_classes=4,
    )
    trace = forward(params, np.ones((2, 3)), 3)
    assert loss(trace, 0, params, 1e-4) == pytest.approx(np.log(4.0), abs=1e-12)


def test_loss_underflowed_probability_clamped_and_flagged():
    params = small_params(seed=21, n_classes=3)
    trace = forward(params, np.ones((8, 5)), 5)
    trace.logits = np.array([0.0, 2000.0, 0.0])
    trace.y_hat = np.array([0.0, 1.0, 0.0])
    with pytest.warns(RuntimeWarning, match="underflow"):
        value = loss(trace, 0, params, 0.0)
    assert value == pytest.approx(-np.log(1e-300))


def test_loss_excludes_biases_by_default():
    params = small_params(seed=22)
    params.softmax.biases[:] = 100.0
    trace = forward(params, np.ones((8, 5)), 5)
    lam = 1e-2
    without = loss(trace, 0, params, lam)
    with_biases = loss(trace, 0, params, lam, regularize_biases=True)
    expected_extra = 0.5 * lam * np.sum(params.softmax.biases**2)
    assert with_biases - without == pytest.approx(expected_extra, rel=1e-12)


def test_loss_bad_target_rejected():
    params = small_params(seed=23)
    trace = forward(params, np.ones((8, 5)), 5)
    with pytest.raises(ValueError):
        loss(trace, 7, params, 0.0)


# --- backward ------------------------------------------------------------------------------

def test_backward_exact_prediction_gives_zero_softmax_grads():
    params = small_params(seed=24, n_classes=3)
    sif = np.ones((8, 5))
    trace = forward(params, sif, 5)
    trace.y_hat = np.array([0.0, 1.0, 0.0])
    grads = backward(params, trace, sif, 1, 0.0)
    assert np.all(grads.softmax.weights == 0.0)
    assert np.all(grads.softmax.biases == 0.0)
    for g in grads.bank.weights:
        assert np.all(g == 0.0)


def test_backward_relu_clipped_filter_gets_zero_gradient():
    params = small_params(seed=25, widths=(3,), p=2, rows=4, n_classes=2)
    params.bank.biases[0][:] = -1e6  # force every activation to clip
    sif = np.random.default_rng(26).uniform(0, 1, size=(4, 10))
    trace = forward(params, sif, 10)
    assert np.all(trace.pooled == 0.0)
    grads = backward(params, trace, sif, 0, 0.0)
    assert np.all(grads.bank.weights[0] == 0.0)
    assert np.all(grads.bank.biases[0] == 0.0)
    assert not np.all(grads.softmax.biases == 0.0)


def _pass_bytes(params, sif, true_len, target=1, lam=1e-2):
    """Pooled vector, y_hat and every gradient block of one train-mode pass, as bytes."""
    trace = forward(params, sif, true_len, mode="train", rng_seed=7)
    grads = backward(params, trace, sif, target, lam, regularize_biases=True)
    return [trace.pooled.tobytes(), trace.y_hat.tobytes()] + [g.tobytes() for g in grads.arrays()]


def test_columns_past_true_len_are_never_read():
    params = small_params(seed=27, widths=(1, 5))
    rng = np.random.default_rng(28)
    for true_len in (1, 3, 4):
        random_tail = rng.uniform(0, 2, size=(8, 9))
        zero_tail = random_tail.copy()
        zero_tail[:, true_len:] = 0.0
        assert _pass_bytes(params, random_tail, true_len) == _pass_bytes(
            params, zero_tail, true_len
        )


def test_narrow_clip_equals_its_padded_copy():
    params = small_params(seed=29, widths=(1, 3, 5))
    sif = np.random.default_rng(30).uniform(0, 2, size=(8, 2))
    padded, true_len = pad_to_min(sif, 5)
    assert _pass_bytes(params, sif, 2) == _pass_bytes(params, padded, true_len)


def test_gradient_tree_mirrors_params():
    params = small_params(seed=31)
    sif = np.random.default_rng(32).uniform(0, 2, size=(8, 6))
    grads = backward(params, forward(params, sif, 6), sif, 0, 1e-4)
    assert [(n, a.shape) for n, a in grads.blocks()] == [
        (n, a.shape) for n, a in params.blocks()
    ]


def test_gradients_match_finite_differences_eval_mode():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = small_params(seed=seed + 100)
        sif = rng.uniform(0, 3, size=(8, 20))
        true_len = int(rng.integers(1, 21))
        target = int(rng.integers(4))
        lam = (0.0, 1e-4, 1e-2)[seed % 3]
        trace = forward(params, sif, true_len)
        analytic = backward(params, trace, sif, target, lam)
        fd = finite_difference_gradients(params, sif, true_len, target, lam)
        assert max_rel_error(analytic.arrays(), fd) < 1e-6


def test_gradients_match_finite_differences_train_mode():
    """Dropout mask held fixed by its seed, so finite differences still apply."""
    params = small_params(seed=200)
    rng = np.random.default_rng(201)
    sif = rng.uniform(0, 3, size=(8, 15))
    trace = forward(params, sif, 15, mode="train", dropout_rate=0.5, rng_seed=77)
    analytic = backward(params, trace, sif, 2, 1e-4)
    fd = finite_difference_gradients(
        params, sif, 15, 2, 1e-4, mode="train", dropout_rate=0.5, rng_seed=77
    )
    assert max_rel_error(analytic.arrays(), fd) < 1e-6


def test_gradients_match_finite_differences_regularized_biases():
    params = small_params(seed=202)
    sif = np.random.default_rng(203).uniform(0, 2, size=(8, 12))
    trace = forward(params, sif, 12)
    analytic = backward(params, trace, sif, 1, 1e-2, regularize_biases=True)
    fd = finite_difference_gradients(
        params, sif, 12, 1, 1e-2, regularize_biases=True
    )
    assert max_rel_error(analytic.arrays(), fd) < 1e-6


# --- init_params ------------------------------------------------------------------------------

def test_init_deterministic_and_bounded():
    a = init_params(4, 8, (1, 3), 3, seed=5)
    b = init_params(4, 8, (1, 3), 3, seed=5)
    for (name_a, arr_a), (_, arr_b) in zip(a.blocks(), b.blocks()):
        assert arr_a.tobytes() == arr_b.tobytes()
    for q, w in enumerate(a.bank.widths):
        bound = np.sqrt(6.0 / (8 * w + 3))
        assert np.all(np.abs(a.bank.weights[q]) <= bound)
        assert np.all(a.bank.biases[q] == 0.0)
    assert np.all(a.softmax.biases == 0.0)


def test_init_different_seeds_differ():
    a = init_params(4, 8, (1, 3), 3, seed=5)
    b = init_params(4, 8, (1, 3), 3, seed=6)
    assert a.bank.weights[0].tobytes() != b.bank.weights[0].tobytes()


def test_init_sorts_widths():
    params = init_params(3, 4, (5, 1, 3), 2, seed=0)
    assert params.bank.widths == (1, 3, 5)


def test_filter_bank_validation():
    with pytest.raises(ValueError, match="increasing"):
        FilterBank(widths=(3, 3), filters_per_width=1,
                   weights=[np.zeros((1, 2, 3)), np.zeros((1, 2, 3))],
                   biases=[np.zeros(1), np.zeros(1)])
    with pytest.raises(ValueError):
        init_params(1, 4, (1,), 2, seed=0)  # fewer than two classes


# --- checkpoint format -------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_params(5, 53, (1, 3, 5), 4, seed=9)
    path = tmp_path / "m.1max"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.n_classes == 5
    assert loaded.bank.widths == (1, 3, 5)
    for (name_a, arr_a), (_, arr_b) in zip(params.blocks(), loaded.blocks()):
        assert arr_a.tobytes() == arr_b.tobytes(), name_a


def test_checkpoint_save_is_deterministic(tmp_path):
    params = init_params(3, 10, (1, 5), 2, seed=1)
    save_checkpoint(params, tmp_path / "a.1max")
    save_checkpoint(params, tmp_path / "b.1max")
    assert (tmp_path / "a.1max").read_bytes() == (tmp_path / "b.1max").read_bytes()


def test_checkpoint_flipped_bit_rejected(tmp_path):
    params = init_params(3, 10, (1,), 2, seed=2)
    path = tmp_path / "m.1max"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    raw[30] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.1max"
    path.write_bytes(b"WHAT" + b"\x00" * 40)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_unsupported_version_rejected(tmp_path):
    params = init_params(3, 10, (1,), 2, seed=3)
    path = tmp_path / "m.1max"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes()[:-8])
    raw[4:8] = struct.pack("<I", 99)
    payload = bytes(raw)
    path.write_bytes(payload + struct.pack("<Q", fnv1a(payload)))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    params = init_params(3, 10, (1,), 2, seed=4)
    path = tmp_path / "m.1max"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes()[:25])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)
