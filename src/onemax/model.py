"""Three-layer 1-max pooling convolutional network with analytic gradients.

Architecture: Q groups of P time-convolution filters (each filter spans
all input rows and w columns), ReLU, per-filter 1-max pooling over the
valid (un-padded) time range, dropout on the pooled vector, softmax.
The gradients are hand-derived for exactly this shape — the 1-max pool makes
them cheap, since each filter's gradient flows through a single column
window of the input.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .container import Reader, f64_buffer, fnv1a, write_sealed

CHECKPOINT_MAGIC = b"1MAX"
CHECKPOINT_VERSION = 1

# forward() pads each group's positions to a multiple of this; see its docstring
POSITION_BLOCK = 16


class CheckpointFormatError(ValueError):
    """Raised when a model checkpoint file is malformed or corrupt."""


@dataclass
class FilterBank:
    """Q width-groups of P filters each; weights[q] has shape [P, input_rows, widths[q]]."""

    widths: tuple[int, ...]
    filters_per_width: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if not self.widths:
            raise ValueError("need at least one filter width")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be >= 1, got {self.widths}")
        if any(a >= b for a, b in zip(self.widths, self.widths[1:])):
            raise ValueError(f"widths must be strictly increasing, got {self.widths}")
        if not (len(self.weights) == len(self.biases) == len(self.widths)):
            raise ValueError("widths, weights, biases must have one entry per group")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        rows = self.weights[0].shape[1] if self.weights[0].ndim == 3 else -1
        p = self.filters_per_width
        for q, (w, wt, b) in enumerate(zip(self.widths, self.weights, self.biases)):
            if wt.shape != (p, rows, w):
                raise ValueError(
                    f"group {q}: weight shape {wt.shape}, expected {(p, rows, w)}"
                )
            if b.shape != (p,):
                raise ValueError(f"group {q}: bias shape {b.shape}, expected ({p},)")

    @property
    def n_groups(self) -> int:
        return len(self.widths)

    @property
    def input_rows(self) -> int:
        return self.weights[0].shape[1]

    @property
    def pooled_dim(self) -> int:
        return self.filters_per_width * self.n_groups


@dataclass
class SoftmaxParams:
    """Output layer: weight matrix [n_classes, pooled_dim] and bias vector [n_classes]."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"softmax weights must be 2-d, got shape {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValueError(
                f"softmax bias shape {self.biases.shape} does not match "
                f"{self.weights.shape[0]} classes"
            )


@dataclass
class ModelParams:
    """Complete parameter set of the network."""

    bank: FilterBank
    softmax: SoftmaxParams
    n_classes: int

    def __post_init__(self):
        if self.softmax.weights.shape != (self.n_classes, self.bank.pooled_dim):
            raise ValueError(
                f"softmax weights {self.softmax.weights.shape} inconsistent with "
                f"{self.n_classes} classes x pooled dim {self.bank.pooled_dim}"
            )

    @property
    def input_rows(self) -> int:
        return self.bank.input_rows

    def blocks(self) -> list[tuple[str, np.ndarray]]:
        """Ordered (name, array) parameter blocks; arrays are live references."""
        out = []
        for q in range(self.bank.n_groups):
            out.append((f"conv{q}.weights", self.bank.weights[q]))
            out.append((f"conv{q}.biases", self.bank.biases[q]))
        out.append(("softmax.weights", self.softmax.weights))
        out.append(("softmax.biases", self.softmax.biases))
        return out

    def map(self, fn) -> "ModelParams":
        """The same tree with fn applied to every block."""
        bank = self.bank
        return ModelParams(
            bank=FilterBank(
                widths=bank.widths,
                filters_per_width=bank.filters_per_width,
                weights=[fn(w) for w in bank.weights],
                biases=[fn(b) for b in bank.biases],
            ),
            softmax=SoftmaxParams(weights=fn(self.softmax.weights), biases=fn(self.softmax.biases)),
            n_classes=self.n_classes,
        )

    def regularized(self) -> list[np.ndarray]:
        """The arrays the L2 penalty covers: each group's conv weights, then the
        softmax weights. No bias is ever regularized."""
        return [*self.bank.weights, self.softmax.weights]

    def copy(self) -> "ModelParams":
        return self.map(np.copy)

    def arrays(self) -> list[np.ndarray]:
        """The blocks' arrays in blocks() order."""
        return [arr for _, arr in self.blocks()]

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(arr)) for _, arr in self.blocks())


@dataclass
class ForwardTrace:
    """Intermediate values of one forward pass, kept for the backward pass."""

    true_len: int                                    # input columns the pass read
    pre_relu: list[np.ndarray] = field(repr=False)   # per group [P, L_q]
    argmax: list[np.ndarray]                         # per group [P] positions
    pooled: np.ndarray                               # [P*Q], post-ReLU maxima
    dropout_mask: np.ndarray | None                  # [P*Q] of {0,1}, train mode only
    keep_prob: float
    softmax_input: np.ndarray                        # pooled vector entering softmax
    logits: np.ndarray
    y_hat: np.ndarray


def init_params(
    n_classes: int,
    input_rows: int,
    widths: tuple[int, ...],
    filters_per_width: int,
    seed: int,
) -> ModelParams:
    """Seeded initialization: weights uniform in [-s, s] with
    s = sqrt(6 / (fan_in + fan_out)), biases zero.

    For a filter group fan_in = input_rows * width and fan_out is the
    filter count; for the softmax layer fan_in is the pooled dimension
    and fan_out the class count.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    rng = np.random.default_rng(seed)
    widths = tuple(sorted(int(w) for w in widths))
    p = filters_per_width
    weights, biases = [], []
    for w in widths:
        s = np.sqrt(6.0 / (input_rows * w + p))
        weights.append(rng.uniform(-s, s, size=(p, input_rows, w)))
        biases.append(np.zeros(p))
    pooled_dim = p * len(widths)
    s = np.sqrt(6.0 / (pooled_dim + n_classes))
    softmax = SoftmaxParams(
        weights=rng.uniform(-s, s, size=(n_classes, pooled_dim)),
        biases=np.zeros(n_classes),
    )
    return ModelParams(
        bank=FilterBank(widths=widths, filters_per_width=p, weights=weights, biases=biases),
        softmax=softmax,
        n_classes=n_classes,
    )


def pad_to_min(sif: np.ndarray, min_cols: int) -> tuple[np.ndarray, int]:
    """Right-pad with zero columns up to min_cols; true_len records the original width."""
    sif = np.asarray(sif, dtype=np.float64)
    if min_cols < 1:
        raise ValueError(f"min_cols must be >= 1, got {min_cols}")
    true_len = sif.shape[1]
    if true_len >= min_cols:
        return sif, true_len
    padded = np.zeros((sif.shape[0], min_cols))
    padded[:, :true_len] = sif
    return padded, true_len


def forward(
    params: ModelParams,
    sif: np.ndarray,
    true_len: int,
    mode: str = "eval",
    dropout_rate: float = 0.5,
    rng_seed: int = 0,
) -> ForwardTrace:
    """One forward pass.

    The clip may have any number of columns; only its first true_len are
    read. Each width-w group pools over valid_len = max(1, true_len - w + 1)
    positions. Its [P, valid_len] pre-activation is a sum of w BLAS
    products, one per filter offset j, added in the fixed order
    j = 0 .. w-1: the [positions, rows] slice of the input that offset j
    reads, times that offset's [rows, P] filter column. The slices come
    from a zero buffer that holds the clip's first true_len columns, and
    whose shape depends on nothing else, so a clip narrower than w is
    zero-padded here and nothing past true_len can change a bit.

    Positions are padded to a multiple of POSITION_BLOCK. A BLAS library
    may send a product's rows through different kernels, which round
    differently, by how many rows the product has and where a row falls:
    a lone row, or rows left over after the full blocks. With the padding
    every product has whole blocks of rows, so a position's value does
    not depend on the clip's length, on where the position lies in the
    clip or on the BLAS thread count: the result is shift-invariant and
    reproducible bit for bit.

    Train mode applies inverted dropout to the pooled vector: units are
    kept with probability 1 - dropout_rate and scaled by
    1/(1 - dropout_rate), so eval mode needs no rescaling.
    """
    sif = np.asarray(sif, dtype=np.float64)
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    if sif.shape[0] != params.input_rows:
        raise ValueError(
            f"input has {sif.shape[0]} rows, model expects {params.input_rows}"
        )
    t = sif.shape[1]
    if not 1 <= true_len <= t:
        raise ValueError(f"true_len must be in [1, {t}], got {true_len}")

    pre_list, argmax_list, pooled_parts = [], [], []
    for q, w in enumerate(params.bank.widths):
        valid_len = max(true_len - w + 1, 1)
        positions = -(-valid_len // POSITION_BLOCK) * POSITION_BLOCK
        buf = np.zeros((sif.shape[0], positions + w - 1))
        buf[:, :true_len] = sif[:, :true_len]
        taps = np.ascontiguousarray(params.bank.weights[q].transpose(2, 1, 0))  # [w, rows, P]
        acc = buf[:, :positions].T @ taps[0]
        for j in range(1, w):
            acc += buf[:, j : j + positions].T @ taps[j]
        pre = acc[:valid_len].T + params.bank.biases[q][:, None]
        post = np.maximum(pre, 0.0)
        idx = post.argmax(axis=1)
        pooled_parts.append(post[np.arange(post.shape[0]), idx])
        pre_list.append(pre)
        argmax_list.append(idx)

    pooled = np.concatenate(pooled_parts)
    if mode == "train" and dropout_rate > 0.0:
        keep_prob = 1.0 - dropout_rate
        rng = np.random.default_rng(rng_seed)
        mask = (rng.random(pooled.shape[0]) >= dropout_rate).astype(np.float64)
        softmax_input = pooled * mask / keep_prob
    else:
        keep_prob = 1.0
        mask = None
        softmax_input = pooled

    logits = params.softmax.weights @ softmax_input + params.softmax.biases
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    y_hat = exp / exp.sum()

    return ForwardTrace(
        true_len=true_len,
        pre_relu=pre_list,
        argmax=argmax_list,
        pooled=pooled,
        dropout_mask=mask,
        keep_prob=keep_prob,
        softmax_input=softmax_input,
        logits=logits,
        y_hat=y_hat,
    )


def regularizer(params: ModelParams, l2_lambda: float) -> float:
    """(lambda/2) * sum of squares over params.regularized()."""
    if l2_lambda == 0.0:
        return 0.0
    return 0.5 * l2_lambda * sum(float(np.sum(w * w)) for w in params.regularized())


def loss(
    trace: ForwardTrace,
    target_class: int,
    params: ModelParams,
    l2_lambda: float,
) -> float:
    """Cross-entropy -log(y_hat[target]) plus the L2 penalty.

    Computed via the log-softmax identity on the logits, which stays
    finite, and exact, even when the reported probability underflows to 0.
    """
    if not 0 <= target_class < len(trace.y_hat):
        raise ValueError(
            f"target_class {target_class} out of range for {len(trace.y_hat)} classes"
        )
    shifted = trace.logits - trace.logits.max()
    ce = float(np.log(np.sum(np.exp(shifted))) - shifted[target_class])
    return ce + regularizer(params, l2_lambda)


def backward(
    params: ModelParams,
    trace: ForwardTrace,
    sif: np.ndarray,
    target_class: int,
    l2_lambda: float,
) -> ModelParams:
    """Exact gradients of loss() for one sample, as a tree shaped like params.

    The softmax layer sees (y_hat - onehot) x softmax_input; the dropout
    mask and 1/keep scale apply on the way back exactly as they did
    forward. Each conv filter's gradient flows only through the column
    window that won its 1-max pool, and is zero when that window's
    pre-activation was clipped by the ReLU. Windows are read from the
    same first trace.true_len columns forward read. The L2 term adds
    lambda * theta to each array of params.regularized().
    """
    sif = np.asarray(sif, dtype=np.float64)
    if sif.shape[0] != params.input_rows:
        raise ValueError(
            f"input has {sif.shape[0]} rows, model expects {params.input_rows}"
        )
    if len(trace.pooled) != params.bank.pooled_dim:
        raise ValueError(
            f"trace pooled dim {len(trace.pooled)} does not match model "
            f"{params.bank.pooled_dim}"
        )
    if sif.shape[1] < trace.true_len:
        raise ValueError(
            f"input has {sif.shape[1]} columns, forward read {trace.true_len}"
        )
    grads = params.map(np.zeros_like)

    dlogits = trace.y_hat.copy()
    dlogits[target_class] -= 1.0
    grads.softmax.weights[:] = np.outer(dlogits, trace.softmax_input)
    grads.softmax.biases[:] = dlogits
    dpooled = params.softmax.weights.T @ dlogits
    if trace.dropout_mask is not None:
        dpooled = dpooled * trace.dropout_mask / trace.keep_prob

    # pooled = max(relu(pre)), so a filter is live exactly when it is positive
    live_all = trace.pooled > 0.0
    clip, _ = pad_to_min(sif[:, : trace.true_len], max(params.bank.widths))
    p = params.bank.filters_per_width
    for q, w in enumerate(params.bank.widths):
        idx = trace.argmax[q]
        live = live_all[q * p : (q + 1) * p]
        d = dpooled[q * p : (q + 1) * p][live]
        windows = np.lib.stride_tricks.sliding_window_view(clip, (clip.shape[0], w))[0]
        grads.bank.weights[q][live] = d[:, None, None] * windows[idx[live]]
        grads.bank.biases[q][live] = d

    if l2_lambda != 0.0:
        for g, theta in zip(grads.regularized(), params.regularized()):
            g += l2_lambda * theta
    return grads


def finite_difference_gradients(
    params: ModelParams,
    sif: np.ndarray,
    true_len: int,
    target_class: int,
    l2_lambda: float,
    h: float = 1e-5,
    mode: str = "eval",
    dropout_rate: float = 0.5,
    rng_seed: int = 0,
) -> list[np.ndarray]:
    """Central finite differences of loss() over every parameter.

    Independent of backward(); only forward() and loss() are exercised.
    Returns one array per parameter block, in blocks() order. In train
    mode the same rng_seed is used for every evaluation so the dropout
    mask is held fixed.
    """
    work = params.copy()

    def eval_loss() -> float:
        trace = forward(
            work, sif, true_len, mode=mode, dropout_rate=dropout_rate, rng_seed=rng_seed
        )
        return loss(trace, target_class, work, l2_lambda)

    out = []
    for _, arr in work.blocks():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = eval_loss()
            flat[i] = orig - h
            down = eval_loss()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        out.append(g)
    return out


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a model checkpoint; round-trips bit-exactly via load_checkpoint."""
    bank = params.bank
    parts = [CHECKPOINT_MAGIC, struct.pack(
        "<IIII", CHECKPOINT_VERSION, params.n_classes, params.input_rows, bank.n_groups
    )]
    for w, weights, biases in zip(bank.widths, bank.weights, bank.biases):
        parts += [struct.pack("<II", w, bank.filters_per_width),
                  f64_buffer(weights), f64_buffer(biases)]
    parts += [f64_buffer(params.softmax.weights), f64_buffer(params.softmax.biases)]
    write_sealed(path, parts, fnv1a)


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by save_checkpoint, verifying the checksum."""
    r = Reader(path, CHECKPOINT_MAGIC, CheckpointFormatError, checksum=fnv1a)
    version, n_classes, input_rows, n_groups = r.unpack("<IIII")
    if version != CHECKPOINT_VERSION:
        raise r.error(f"unsupported version {version}")
    if n_groups == 0 or n_classes < 2 or input_rows == 0:
        raise r.error(
            f"implausible header (classes={n_classes}, rows={input_rows}, groups={n_groups})"
        )
    widths, weights, biases = [], [], []
    for _ in range(n_groups):
        # a filter count that varies across groups fails FilterBank's shape check
        w, p = r.unpack("<II")
        widths.append(w)
        weights.append(r.f64s((p, input_rows, w)))
        biases.append(r.f64s((p,)))
    sw = r.f64s((n_classes, p * n_groups))
    sb = r.f64s((n_classes,))
    r.done()
    try:
        params = ModelParams(
            bank=FilterBank(
                widths=tuple(widths), filters_per_width=p,
                weights=weights, biases=biases,
            ),
            softmax=SoftmaxParams(weights=sw, biases=sb),
            n_classes=n_classes,
        )
    except ValueError as exc:
        raise r.error(f"inconsistent contents: {exc}") from exc
    if not params.all_finite():
        raise r.error("non-finite parameter values")
    return params
