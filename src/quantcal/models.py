"""Heteroscedastic MLP regressors with two uncertainty baselines.

One architecture serves everything: input -> 128 -> 128 -> (mu, raw scale),
ReLU activations, sigma = softplus(raw) + SIGMA_FLOOR. On top of it:

* Monte-Carlo dropout: train with dropout after each hidden layer, predict
  by aggregating several stochastic forward passes.
* Deep ensembles: several members from different seeds, each trained on its
  batch plus an FGSM copy along the batch's own input gradient, no dropout.

Training minimizes mean NLL plus an optional uniformity penalty on the
batch PIT values (`ckl.total_loss`), optimized with Adam. On the tape the
network is one fused op plus one node per head column (`mlp_forward`).
Inference (`predict`, `mc_dropout_predict`, `ensemble_predict`) is one
numpy loop off the tape, `_blockwise`, mixing passes of groups of
networks: one pass of one, masked passes of one, one of each ensemble
member, or masked passes of each of several networks kept apart, which
share every mask, so MC dropout draws it once for all of them. It
walks the fewest row blocks of at most 512 rows, split as evenly as
possible (`_row_blocks`), so its scratch is a few (512, 128) arrays at
any n, pass count and ensemble size (and one h1 per network), and every
row gets the bits of an all-rows pass. The (rows, 128) @ (128, 2) head
is numpy's einsum loop, not BLAS, in training and inference alike
(`_head_out`): each of a row's two dot products adds in one fixed
order, so its bits depend on neither n, the block layout nor OpenBLAS's
gemm paths, and there is no row grid to keep. Layers 1 and 2 use BLAS
and gave the all-rows bits on these blocks on the OpenBLAS build
measured, layer 1 even where a block takes the small-matrix path and all
rows do not (d <= 15 at 512 rows), which the tests check for d 1-19; a
one-row block would go to gemv, so none has one row. One `aggregate_mc` call mixes each block's passes of all
groups; its axis-0 means add pass by pass per column, as one all-rows
call over one group's stacked passes does, and the mixture of one pass
is that pass. A one-row block (n = 1) mixes each group alone: numpy adds
a (passes, 1) axis pairwise, not pass by pass.

Training and inference read their input by row indexing, one batch or
block at a time, so the input may be an array or a standardized row view
(`datasets.StandardizedRows`). A view's batch comes out F-ordered, as
`Standardization.apply` leaves it, where a batch gathered from a
standardized copy was C-ordered; layers 1 and 2 and their gradients gave
the same bits on either layout on the OpenBLAS build measured, which the
tests check by training and predicting on both.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from . import ndgrad as nd
from .ckl import total_loss
from .datasets import as_feature_rows
from .gaussian import SIGMA_FLOOR, GaussianPrediction, aggregate_mc, gaussian_nll, libm_exp
from .ndgrad import Node
from .softsort import SoftSortConfig

HIDDEN_WIDTH = 128
# the most rows in one block of inference: 512 KiB per (rows, 128) array
_BLOCK_ROWS = 512
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
    tau: float = SoftSortConfig.tau
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"TrainConfig: lam must be nonnegative, got {self.lam}")
        if not self.learning_rate > 0:  # NaN too; a rate <= 0 never descends
            raise ValueError(f"TrainConfig: learning_rate must be positive, got {self.learning_rate}")
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
    sigma = softplus(0) + SIGMA_FLOOR for every input. A randomly initialized
    head can start some points at softplus(-10) ~ 1e-4, and the resulting
    1/sigma^2 spikes reliably blow up the first NLL epochs.
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


def _check_input(x, w1):
    """`x` as rows to read (`as_feature_rows`: a float64 array, or a
    standardized row view as it is), which must be (n, d) for w1 of shape
    (d, 128)."""
    x = as_feature_rows(x)
    if x.ndim != 2 or x.shape[1] != w1.shape[0]:
        raise ValueError(f"mlp: expected (n, d) input for w1 of shape {w1.shape}, got {x.shape}")
    return x


def _biased(a, b):
    """a + b, in place in the product `a`; a non-finite entry raises, as it
    did on the tape, so `train` reports a diverged step."""
    a += b
    if not np.all(np.isfinite(a)):
        raise ValueError("mlp: non-finite values in a pre-activation")
    return a


def _head_out(h2, w3, b3, out=None):
    """The (rows, 2) head output h2 @ w3 + b3 into `out` if given, in numpy's
    einsum loop, not BLAS: each entry is a dot product of h2's row and a
    contiguous copy of a w3 column, added in a fixed order, so a row has the
    same bits in any block. On the strided w3.T view einsum is ~8x slower."""
    return _biased(np.einsum("ij,kj->ik", h2, np.ascontiguousarray(w3.T), out=out), b3)


def _hidden(h, w, b, mask=None, out=None):
    """relu(h @ w + b) into `out` if given, times a keep-scaled dropout mask if given."""
    h = _biased(np.matmul(h, w, out=out), b)
    np.maximum(h, 0.0, out=h)
    if mask is not None:
        h *= mask
    return h


def _mlp(x, params, masks):
    """The network up to its (n, 2) head output, one tape op over `x` and the
    six weight blocks that forms gradients only for parents that require one.
    Its expressions, matmul shapes and order are those of the generic tape
    chain it replaced, because their rounding reaches every trained model; a
    test holds it to that chain bit for bit."""
    parents = (x, *params.nodes())
    w1, b1, w2, b2, w3, b3 = params.arrays()
    m1, m2 = masks if masks is not None else (None, None)
    h1 = _hidden(x.value, w1, b1, m1)
    h2 = _hidden(h1, w2, b2, m2)
    inputs, layer_masks = (x.value, h1, h2), (None, m1, m2)

    def backward(g):
        grads = [None] * len(parents)
        for k in (2, 1, 0):
            w, b = parents[2 * k + 1], parents[2 * k + 2]
            if w.requires_grad:
                grads[2 * k + 1] = inputs[k].T @ g
            if b.requires_grad:
                grads[2 * k + 2] = nd._unbroadcast(g, b.shape)
            if not any(p.requires_grad for p in parents[: 2 * k + 1]):
                break
            # a fresh array, so the mask and the gate multiply into it
            g = g @ w.value.T
            if k > 0:
                if layer_masks[k] is not None:
                    np.multiply(g, layer_masks[k], out=g)
                # the relu gate: where the mask is 0, g is already +-0 and
                # (h > 0) gives the same bits as (pre-activation > 0)
                np.multiply(g, inputs[k] > 0.0, out=g)
        else:
            grads[0] = g
        return grads

    return nd._result("mlp", _head_out(h2, w3, b3), parents, backward)


def _sigma(raw):
    """The scale head: softplus(raw) + SIGMA_FLOOR."""
    return np.logaddexp(0.0, raw) + SIGMA_FLOOR


def expit(x):
    """The logistic 1 / (1 + exp(-x)) of each entry of the 1-d array x,
    softplus's derivative, with the C library's exp, as scipy.special.expit
    computes it, bit for bit."""
    return 1.0 / (1.0 + libm_exp(-x))


def mlp_forward(params, x, dropout_masks=None):
    """Forward pass on the tape: three nodes, the network (`_mlp`) and the
    (mu, sigma) head columns, each shaped (n,). `x` is an array or a node;
    `dropout_masks` is an optional pair of keep-scaled masks shaped (n, 128),
    drawn by `_dropout_masks` so that passes replay exactly."""
    x = nd.constant(x)
    _check_input(x.value, params.w1.value)
    n = x.shape[0]
    if dropout_masks is not None and any(m.shape != (n, HIDDEN_WIDTH) for m in dropout_masks):
        raise ValueError(
            f"mlp_forward: mask shapes {[m.shape for m in dropout_masks]} do not match "
            f"the hidden layers {(n, HIDDEN_WIDTH)}"
        )
    out = _mlp(x, params, dropout_masks)
    raw = out.value[:, 1]
    zeros = np.zeros(n)
    mu = nd._result("mu", out.value[:, 0], (out,), lambda g: (np.column_stack([g, zeros]),))
    sigma = nd._result("sigma", _sigma(raw), (out,),
                       lambda g: (np.column_stack([zeros, g * expit(raw)]),))
    return mu, sigma


def _head(h2, net, out=None):
    """The (mu, sigma) head of `net` on a layer-2 activation, off the tape,
    its (rows, 2) output (`_head_out`) written into `out` if one is given."""
    out = _head_out(h2, net.w3.value, net.b3.value, out)
    return out[:, 0], _sigma(out[:, 1])


def predict(params, x):
    """Deterministic single forward pass (no dropout), off the tape."""
    return _blockwise([[params]], x)[0]


def _row_blocks(n):
    """The fewest blocks of at most `_BLOCK_ROWS` rows that cover n rows,
    split as evenly as possible, so no block of n >= 2 rows is one row,
    which numpy would send to gemv."""
    k = max(1, -(-n // _BLOCK_ROWS))
    edges = [n * i // k for i in range(k)] + [n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _blockwise(groups, x, passes=1, mask=None):
    """One equally weighted mixture per group of `groups`, of `passes` passes
    of each of its networks, over the rows of `x`, an array or a row view,
    one row block at a time (`_row_blocks`); every group holds as many
    networks. A block is read once for all networks, so a view standardizes
    each row once. Per block, each network's layer 1 runs once; then per
    pass and network, layer 2, its input and output times `mask(p, layer,
    rows)` if a mask is given, and the head (`_head`). A pass's two masks
    are taken at its first network and serve them all; the last multiplies
    its layer-2 input into the first mask in place, as `mask` draws it anew
    for the next pass. One `aggregate_mc` call mixes the block's contiguous
    (networks per group * passes, groups * block rows) means and sigmas,
    the groups' block rows side by side, or one call per group if the block
    is one row. Block-sized h1s (one per network when it makes several
    passes), masked layer-2 input, h2 and head output are all the scratch;
    only the (n,) outputs span all rows."""
    nets = [net for group in groups for net in group]
    for net in nets:
        x = _check_input(x, net.w1.value)
    n, size = len(x), len(groups[0])
    # filled in place from each block's checked and floored mixture, so no
    # (n,) copy is made for a final check and floor
    preds = [GaussianPrediction(np.zeros(n), np.ones(n)) for _ in groups]
    width, k = min(n, _BLOCK_ROWS), size * passes
    # a network keeps its h1 through its passes; one pass uses it at once
    *h1_rows, h2_rows = np.empty(((len(nets) if passes > 1 else 1) + 1, width, HIDDEN_WIDTH))
    # a shared mask is not multiplied in place but by the pass's last network
    a_rows = np.empty((width, HIDDEN_WIDTH)) if mask is not None and len(nets) > 1 else None
    head_rows = np.empty((width, 2))
    mus_rows, sigmas_rows = np.empty((2, len(nets) * passes * width))
    for rows in _row_blocks(n):
        m = rows.stop - rows.start
        # contiguous (k, groups * m) views, so the mixture's axis-0 sums run
        # pass by pass in each column, as on all rows of one network
        cols = len(groups) * m
        mus, sigmas = mus_rows[: k * cols].reshape(k, cols), sigmas_rows[: k * cols].reshape(k, cols)
        block = x[rows]
        for p in range(passes):
            for j, net in enumerate(nets):
                h1 = h1_rows[j % len(h1_rows)][:m]
                if p == 0:
                    _hidden(block, net.w1.value, net.b1.value, out=h1)
                a = h1
                if mask is not None:
                    if j == 0:
                        m1 = mask(p, 0, rows)
                    a = np.multiply(h1, m1, out=m1 if j == len(nets) - 1 else a_rows[:m])
                h2 = _hidden(a, net.w2.value, net.b2.value, out=h2_rows[:m])
                if mask is not None:
                    if j == 0:
                        m2 = mask(p, 1, rows)
                    h2 *= m2
                group, i = divmod(j, size)
                at = (i * passes + p, slice(group * m, (group + 1) * m))
                mus[at], sigmas[at] = _head(h2, net, head_rows[:m])
        mix = aggregate_mc(mus, sigmas) if m > 1 else None
        for group, pred in enumerate(preds):
            at = slice(group * m, (group + 1) * m)
            if m == 1:
                # numpy adds a (k, 1) axis pairwise, as the group's own call
                # does at n = 1, and a wider one row by row: mix it alone
                mix, at = aggregate_mc(mus[:, at], sigmas[:, at]), slice(None)
            pred.mu[rows], pred.sigma[rows] = mix.mu[at], mix.sigma[at]
    return preds


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


def _keep_mask(rng, keep, out):
    """A dropout mask drawn into `out`: 1 / keep where a uniform draw is below
    keep, else 0. Bit for bit a 0/1 mask divided by keep, without the divide."""
    np.less(rng.random(out=out), keep, out=out)
    out *= 1.0 / keep
    return out


def _dropout_masks(rng, n, dropout_rate):
    """Keep-scaled dropout masks for the two (n, 128) hidden layers, drawn in
    order with keep = 1 - rate (`_keep_mask`)."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {dropout_rate}")
    return tuple(_keep_mask(rng, 1.0 - dropout_rate, np.empty((n, HIDDEN_WIDTH))) for _ in range(2))


def fgsm_perturb(x, grad, eps):
    """FGSM copy of a batch: x + eps * sign(grad), `grad` a positive multiple
    of d NLL / d x; `eps` may be per feature (it broadcasts on columns)."""
    return np.asarray(x, dtype=np.float64) + np.asarray(eps, dtype=np.float64) * np.sign(grad)


def _batch_grads(params, xb, yb, masks, cfg, sort_cfg, adv_eps):
    """Loss value and parameter gradients; with `adv_eps`, of the mean loss
    of the batch and its FGSM copy, one graph each. The copy steps along the
    batch's own input gradient: 0.5 d NLL / d x at lam = 0, where the loss is
    the NLL, else d NLL / d x from an NLL node on the clean graph's mu, sigma."""
    def loss_of(x):
        mu, sigma = mlp_forward(params, x, masks)
        return total_loss(yb, mu, sigma, cfg.lam, sort_cfg), mu, sigma

    if adv_eps is None:
        loss = loss_of(xb)[0]
        return loss.value, nd.gradients(loss, params.nodes())
    leaf = Node(xb, requires_grad=True)
    loss, mu, sigma = loss_of(leaf)
    *grads, gx = nd.gradients(loss * 0.5, [*params.nodes(), leaf])
    if cfg.lam:
        (gx,) = nd.gradients(gaussian_nll(mu, sigma, yb), [leaf])
    value = loss.value
    # the clean graph's activations are freed before the copy's pass
    del loss, mu, sigma, leaf
    loss_a = loss_of(fgsm_perturb(xb, gx, adv_eps))[0]
    grads_a = nd.gradients(loss_a * 0.5, params.nodes())
    return (value + loss_a.value) * 0.5, [a + b for a, b in zip(grads, grads_a)]


def train(dataset, cfg, adv_eps=None, loss_history=None):
    """Train one MLP on `dataset` (its features an array or a row view,
    read a batch at a time) with full-pass shuffled minibatches. Identical
    seeds give identical parameters.

    adv_eps: optional per-feature FGSM step; when set, each batch loss is
    averaged with the loss on its copy stepped by sign(d NLL / d x).
    loss_history: optional list; receives the mean training loss per epoch.
    Raises RuntimeError (with epoch/batch position) if the loss diverges.
    """
    x, y = dataset.features, dataset.targets
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
            masks = _dropout_masks(rng, len(idx), cfg.dropout_rate) if use_dropout else None
            try:
                loss, grads = _batch_grads(params, xb, yb, masks, cfg, sort_cfg, adv_eps)
                adam_step(params, grads, state, cfg.learning_rate)
            except ValueError as exc:
                raise RuntimeError(
                    f"train: diverged at epoch {epoch}, batch {bi}: {exc}"
                ) from exc
            total += float(loss) * len(idx)
        if loss_history is not None:
            loss_history.append(total / x.shape[0])
    return params


def mc_dropout_predict(params, x, passes=10, dropout_rate=0.25, seed=0):
    """Aggregate `passes` stochastic forward passes into one Gaussian, off
    the tape, one row block at a time (`_blockwise`), each block's passes
    mixed by `aggregate_mc`. The masks are those of passes drawn in the order
    `_dropout_masks` draws them: pass by pass, layer 1's keep decisions for
    all n rows, then layer 2's. `Generator.random` takes one PCG64 output per
    double, so a block's mask for layer L of pass p is drawn from the seed's
    state advanced by ((2p + L) n + first row) * 128 outputs; each pass gives
    every row the bits of an all-rows pass.

    `params` is one network, or a list of networks over the same rows under
    the same seed, which gives a list of predictions: each mask is drawn
    once and serves every network, and each prediction has the bits of its
    network's call alone."""
    if isinstance(passes, bool) or not isinstance(passes, Integral) or passes < 1:
        raise ValueError(f"mc_dropout_predict: passes must be a positive integer, got {passes!r}")
    if not 0.0 < dropout_rate < 1.0:
        raise ValueError(
            f"mc_dropout_predict: dropout_rate must be in (0, 1), got {dropout_rate}"
        )
    nets = [params] if isinstance(params, MlpParams) else list(params)
    if not nets:
        raise ValueError("mc_dropout_predict: empty network list")
    x = _check_input(x, nets[0].w1.value)
    n = len(x)
    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state
    keep = 1.0 - dropout_rate
    # one network takes a block's layer-2 input mask and then its layer-2
    # output's in one buffer; several networks share both masks of a pass
    scratch = np.empty((min(len(nets), 2), min(n, _BLOCK_ROWS), HIDDEN_WIDTH))

    def mask(p, layer, rows):
        """The keep-scaled mask of `layer` in pass p for the rows `rows`."""
        rng.bit_generator.state = start
        rng.bit_generator.advance(((2 * p + layer) * n + rows.start) * HIDDEN_WIDTH)
        return _keep_mask(rng, keep, scratch[layer % len(scratch), : rows.stop - rows.start])

    preds = _blockwise([[net] for net in nets], x, passes, mask)
    return preds[0] if isinstance(params, MlpParams) else preds


def _column_range(x):
    """Each column's max - min over the rows of `x`, an array or a row view,
    read a row block at a time (`_row_blocks`), so a view is never read
    whole. Max and min are exact, so the blocks give the bits of one
    all-rows reduction."""
    lo = hi = None
    for rows in _row_blocks(len(x)):
        block = x[rows]
        lo = block.min(axis=0) if lo is None else np.minimum(lo, block.min(axis=0))
        hi = block.max(axis=0) if hi is None else np.maximum(hi, block.max(axis=0))
    return hi - lo


def ensemble_train(dataset, cfg, ens_cfg=EnsembleConfig()):
    """Train `ens_cfg.size` members; member m sees the same data with seed
    `cfg.seed + m`, trains without dropout, and adds the loss on each batch's
    FGSM copy, stepped by `adv_eps_scale` times each feature's range."""
    adv_eps = None
    if ens_cfg.adv_eps_scale > 0.0:
        adv_eps = ens_cfg.adv_eps_scale * _column_range(dataset.features)
    member_cfg = replace(cfg, dropout_rate=0.0)
    return [
        train(dataset, replace(member_cfg, seed=cfg.seed + m), adv_eps=adv_eps)
        for m in range(ens_cfg.size)
    ]


def ensemble_predict(members, x):
    """Moment-matched Gaussian over one pass of each member (`_blockwise`)."""
    if not members:
        raise ValueError("ensemble_predict: empty member list")
    return _blockwise([members], x)[0]


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
    or version, truncated, trailing bytes, shapes that do not chain into the
    d -> 128 -> 128 -> 2 network, or non-finite weights) raises a ValueError
    naming `path`."""
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
    values = np.frombuffer(blob, "<f8", sum(sizes), offset)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"load_params: {path} holds non-finite weights")
    blocks = np.split(values, np.cumsum(sizes)[:-1])
    return MlpParams(*(nd.param(b.reshape(shape)) for b, shape in zip(blocks, shapes)))
