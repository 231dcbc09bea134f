"""Heteroscedastic MLP regressors with two uncertainty baselines.

One architecture serves everything: input -> 128 -> 128 -> (mu, raw scale),
ReLU activations, sigma = softplus(raw) + 1e-6. On top of it:

* Monte-Carlo dropout: train with dropout after each hidden layer, predict
  by aggregating several stochastic forward passes.
* Deep ensembles: several members from different seeds, each trained on its
  batch plus a fast-gradient-sign perturbed copy, no dropout.

Training minimizes mean NLL plus an optional uniformity penalty on the
batch PIT values (see ckl.total_loss), optimized with Adam.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import ndgrad as nd
from .ckl import total_loss
from .gaussian import GaussianPrediction, aggregate_ensemble, aggregate_mc, gaussian_nll
from .ndgrad import Node
from .softsort import SoftSortConfig

HIDDEN_WIDTH = 128
_PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

_MAGIC = b"QCMP"
_FORMAT_VERSION = 1


@dataclass
class TrainConfig:
    """Optimization settings. `lam` (penalty weight) has no default on
    purpose: every caller should state whether it trains a plain or a
    penalized model."""

    lam: float
    learning_rate: float = 1e-2
    batch_size: int = 512
    epochs: int = 100
    dropout_rate: float = 0.25
    tau: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"TrainConfig: lam must be nonnegative, got {self.lam}")
        if self.batch_size < 2:
            raise ValueError(
                f"TrainConfig: batch_size must be at least 2, got {self.batch_size}"
            )
        if self.epochs < 1:
            raise ValueError(f"TrainConfig: epochs must be positive, got {self.epochs}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(
                f"TrainConfig: dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )


@dataclass
class EnsembleConfig:
    size: int = 5
    # FGSM step per feature: adv_eps_scale * (column max - column min)
    adv_eps_scale: float = 0.01

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"EnsembleConfig: size must be positive, got {self.size}")
        if self.adv_eps_scale < 0:
            raise ValueError("EnsembleConfig: adv_eps_scale must be nonnegative")


@dataclass
class MlpParams:
    w1: Node
    b1: Node
    w2: Node
    b2: Node
    w3: Node
    b3: Node

    def nodes(self):
        return [getattr(self, name) for name in _PARAM_NAMES]

    def arrays(self):
        return [node.value for node in self.nodes()]

    @property
    def n_features(self):
        return self.w1.value.shape[0]


def init_mlp(n_features, rng):
    """Kaiming-uniform hidden weights (bound sqrt(6 / fan_in)), zero biases,
    zero output layer.

    Zeroing the head makes the initial prediction mu = 0,
    sigma = softplus(0) + 1e-6 for every input. A randomly initialized head
    can start some points at softplus(-10) ~ 1e-4, and the resulting 1/sigma^2
    spikes reliably blow up the first NLL epochs.
    """
    if n_features < 1:
        raise ValueError(f"init_mlp: need at least one feature, got {n_features}")

    def layer(fan_in, fan_out):
        bound = np.sqrt(6.0 / fan_in)
        w = nd.param(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        b = nd.param(np.zeros(fan_out))
        return w, b

    w1, b1 = layer(n_features, HIDDEN_WIDTH)
    w2, b2 = layer(HIDDEN_WIDTH, HIDDEN_WIDTH)
    w3 = nd.param(np.zeros((HIDDEN_WIDTH, 2)))
    b3 = nd.param(np.zeros(2))
    return MlpParams(w1, b1, w2, b2, w3, b3)


def mlp_forward(params, x, dropout_masks=None, dropout_rate=0.0):
    """Forward pass. Returns (mu, sigma) nodes, each shaped (n,).

    `dropout_masks` is an optional pair of 0/1 arrays shaped (n, 128),
    sampled by the caller so that passes can be replayed exactly.
    """
    x = nd.constant(x)
    if x.value.ndim != 2:
        raise ValueError(f"mlp_forward: expected (n, d) input, got shape {x.shape}")
    h = nd.relu(x @ params.w1 + params.b1)
    if dropout_masks is not None:
        h = nd.dropout(h, dropout_masks[0], dropout_rate)
    h = nd.relu(h @ params.w2 + params.b2)
    if dropout_masks is not None:
        h = nd.dropout(h, dropout_masks[1], dropout_rate)
    out = h @ params.w3 + params.b3
    mu = out[:, 0]
    sigma = nd.softplus(out[:, 1]) + 1e-6
    return mu, sigma


def _frozen(params):
    """The same weights as constant leaves: a forward pass on them keeps no
    tape graph, so each intermediate is freed as soon as it is used."""
    return MlpParams(*map(nd.constant, params.arrays()))


def predict(params, x):
    """Deterministic single forward pass (no dropout)."""
    mu, sigma = mlp_forward(_frozen(params), np.asarray(x, dtype=np.float64))
    return GaussianPrediction(mu.value, sigma.value)


@dataclass
class AdamState:
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(
            m=[np.zeros_like(a) for a in params.arrays()],
            v=[np.zeros_like(a) for a in params.arrays()],
        )


def adam_step(params, grads, state, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update, in place on the parameter nodes."""
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for name, node, g, m, v in zip(
        _PARAM_NAMES, params.nodes(), grads, state.m, state.v
    ):
        if not np.all(np.isfinite(g)):
            raise ValueError(f"adam_step: non-finite gradient for {name}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        node.value -= learning_rate * (m / c1) / (np.sqrt(v / c2) + eps)
        if not np.all(np.isfinite(node.value)):
            raise ValueError(f"adam_step: non-finite values in {name} after update")


def _batch_indices(order, batch_size):
    """Contiguous chunks of a permutation; a trailing singleton is merged
    into the previous batch because the penalty needs two points or more."""
    chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if len(chunks) > 1 and len(chunks[-1]) < 2:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _sample_masks(rng, n, dropout_rate):
    keep = 1.0 - dropout_rate
    return (
        (rng.random((n, HIDDEN_WIDTH)) < keep).astype(np.float64),
        (rng.random((n, HIDDEN_WIDTH)) < keep).astype(np.float64),
    )


def fgsm_perturb(params, x, y, eps):
    """Fast-gradient-sign copy of a batch: x + eps * sign(d NLL / d x).

    `eps` broadcasts against columns, so a per-feature vector keeps the step
    proportional to each feature's scale. eps = 0 returns x unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    leaf = Node(x.copy(), requires_grad=True)
    mu, sigma = mlp_forward(params, leaf)
    (gx,) = nd.gradients(gaussian_nll(mu, sigma, y), [leaf])
    return x + np.asarray(eps, dtype=np.float64) * np.sign(gx)


def _batch_loss(params, xb, yb, masks, cfg, sort_cfg, adv_eps):
    mu, sigma = mlp_forward(params, xb, masks, cfg.dropout_rate)
    loss = total_loss(yb, mu, sigma, cfg.lam, sort_cfg)
    if adv_eps is None:
        return loss
    x_adv = fgsm_perturb(params, xb, yb, adv_eps)
    mu_a, sigma_a = mlp_forward(params, x_adv, masks, cfg.dropout_rate)
    return (loss + total_loss(yb, mu_a, sigma_a, cfg.lam, sort_cfg)) * 0.5


def train(dataset, cfg, adv_eps=None, loss_history=None):
    """Train one MLP on `dataset` (features/targets arrays) with full-pass
    shuffled minibatches. Identical seeds give identical parameters.

    adv_eps: optional per-feature FGSM step; when set, each batch loss is
    averaged with the loss on its perturbed copy.
    loss_history: optional list; receives the mean training loss per epoch.
    Raises RuntimeError (with epoch/batch position) if the loss diverges.
    """
    x = np.asarray(dataset.features, dtype=np.float64)
    y = np.asarray(dataset.targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError(
            f"train: expected (n, d) features and (n,) targets, got {x.shape} "
            f"and {y.shape}"
        )
    if x.shape[0] < 2:
        raise ValueError("train: need at least 2 rows")
    rng = np.random.default_rng(cfg.seed)
    params = init_mlp(x.shape[1], rng)
    state = AdamState.for_params(params)
    sort_cfg = SoftSortConfig(tau=cfg.tau)
    use_dropout = cfg.dropout_rate > 0.0
    for epoch in range(cfg.epochs):
        order = rng.permutation(x.shape[0])
        total = 0.0
        for bi, idx in enumerate(_batch_indices(order, cfg.batch_size)):
            xb, yb = x[idx], y[idx]
            masks = _sample_masks(rng, len(idx), cfg.dropout_rate) if use_dropout else None
            try:
                loss = _batch_loss(params, xb, yb, masks, cfg, sort_cfg, adv_eps)
                grads = nd.gradients(loss, params.nodes())
                adam_step(params, grads, state, cfg.learning_rate)
            except ValueError as exc:
                raise RuntimeError(
                    f"train: diverged at epoch {epoch}, batch {bi}: {exc}"
                ) from exc
            total += float(loss.value) * len(idx)
        if loss_history is not None:
            loss_history.append(total / x.shape[0])
    return params


def mc_dropout_predict(params, x, passes=10, dropout_rate=0.25, seed=0):
    """Aggregate `passes` stochastic forward passes into one Gaussian."""
    if passes < 1:
        raise ValueError(f"mc_dropout_predict: passes must be positive, got {passes}")
    if not 0.0 < dropout_rate < 1.0:
        raise ValueError(
            f"mc_dropout_predict: dropout_rate must be in (0, 1), got {dropout_rate}"
        )
    x = np.asarray(x, dtype=np.float64)
    frozen = _frozen(params)
    rng = np.random.default_rng(seed)
    preds = []
    for _ in range(passes):
        masks = _sample_masks(rng, x.shape[0], dropout_rate)
        mu, sigma = mlp_forward(frozen, x, masks, dropout_rate)
        preds.append(GaussianPrediction(mu.value, sigma.value))
    return aggregate_mc(preds)


def ensemble_train(dataset, cfg, ens_cfg=EnsembleConfig()):
    """Train `ens_cfg.size` members; member m sees the same data with seed
    `cfg.seed + m`, trains without dropout, and adds an FGSM-perturbed loss
    term."""
    x = np.asarray(dataset.features, dtype=np.float64)
    adv_eps = None
    if ens_cfg.adv_eps_scale > 0.0:
        adv_eps = ens_cfg.adv_eps_scale * (x.max(axis=0) - x.min(axis=0))
    member_cfg = replace(cfg, dropout_rate=0.0)
    return [
        train(dataset, replace(member_cfg, seed=cfg.seed + m), adv_eps=adv_eps)
        for m in range(ens_cfg.size)
    ]


def ensemble_predict(members, x):
    """Moment-matched Gaussian over deterministic member predictions."""
    if not members:
        raise ValueError("ensemble_predict: empty member list")
    return aggregate_ensemble([predict(m, x) for m in members])


def save_params(params, path):
    """Little-endian binary dump: magic, version, shapes, float64 data."""
    arrays = params.arrays()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, len(arrays)))
        for a in arrays:
            fh.write(struct.pack("<I", a.ndim))
            fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
        for a in arrays:
            fh.write(a.astype("<f8").tobytes(order="C"))


def load_params(path):
    """Read a file written by `save_params`. A malformed file (wrong magic
    or version, truncated, trailing bytes, or shapes that do not chain into
    the d -> 128 -> 128 -> 2 network) raises a ValueError naming `path`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"load_params: {path} is not a model file")
    offset = 4

    def read(fmt):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(blob):
            raise ValueError(f"load_params: {path} is truncated")
        values = struct.unpack_from(fmt, blob, offset)
        offset += size
        return values

    version, count = read("<II")
    if version != _FORMAT_VERSION:
        raise ValueError(f"load_params: {path} has unsupported format version {version}")
    if count != len(_PARAM_NAMES):
        raise ValueError(
            f"load_params: {path} holds {count} arrays, expected {len(_PARAM_NAMES)}"
        )
    shapes = []
    for _ in range(count):
        (ndim,) = read("<I")
        shapes.append(read(f"<{ndim}I"))
    d = shapes[0][0] if shapes[0] else 0
    h = HIDDEN_WIDTH
    expected = [(d, h), (h,), (h, h), (h,), (h, 2), (2,)]
    if d < 1 or shapes != expected:
        raise ValueError(f"load_params: {path} has shapes {shapes}, expected {expected}")
    sizes = [math.prod(shape) for shape in shapes]
    extra = len(blob) - offset - 8 * sum(sizes)
    if extra < 0:
        raise ValueError(f"load_params: {path} is truncated")
    if extra > 0:
        raise ValueError(f"load_params: trailing bytes in {path}")
    arrays = []
    for shape, n in zip(shapes, sizes):
        arrays.append(nd.param(np.frombuffer(blob, "<f8", n, offset).reshape(shape)))
        offset += 8 * n
    return MlpParams(*arrays)
