import contextlib
import json
import struct
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import expit as scipy_expit

from oracles import SPECIAL_FLOATS, assert_same_bits, chain_mlp_forward, float64_arrays
from quantcal import cli, models
from quantcal import ndgrad as nd
from quantcal.ckl import total_loss
from quantcal.datasets import Dataset, synth_hetero
from quantcal.gaussian import GaussianPrediction, aggregate_ensemble, gaussian_nll
from quantcal.models import (
    HIDDEN_WIDTH,
    AdamState,
    EnsembleConfig,
    MlpParams,
    TrainConfig,
    _batch_grads,
    _batch_indices,
    _dropout_masks,
    adam_step,
    ensemble_predict,
    ensemble_train,
    expit,
    fgsm_perturb,
    init_mlp,
    load_params,
    mc_dropout_predict,
    mlp_forward,
    predict,
    save_params,
    train,
)
from quantcal.softsort import SoftSortConfig

SOFTPLUS_0 = float(np.log(2.0))


def small_dataset(n=64, d=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = x @ np.array([1.0, -0.5][:d]) + 0.1 * rng.standard_normal(n)
    return Dataset(x, y)


def test_init_shapes():
    params = init_mlp(3, np.random.default_rng(0))
    shapes = [a.shape for a in params.arrays()]
    assert shapes == [
        (3, HIDDEN_WIDTH),
        (HIDDEN_WIDTH,),
        (HIDDEN_WIDTH, HIDDEN_WIDTH),
        (HIDDEN_WIDTH,),
        (HIDDEN_WIDTH, 2),
        (2,),
    ]
    assert all(node.requires_grad for node in params.nodes())


def test_init_hidden_weights_within_kaiming_bound():
    params = init_mlp(4, np.random.default_rng(1))
    assert np.abs(params.w1.value).max() <= np.sqrt(6.0 / 4)
    assert np.abs(params.w2.value).max() <= np.sqrt(6.0 / HIDDEN_WIDTH)
    assert np.all(params.b1.value == 0.0)


def test_zero_head_gives_flat_start():
    """Fresh nets predict mu = 0, sigma = softplus(0) + 1e-6 everywhere."""
    params = init_mlp(2, np.random.default_rng(2))
    pred = predict(params, np.random.default_rng(3).normal(size=(5, 2)))
    assert np.all(pred.mu == 0.0)
    assert np.allclose(pred.sigma, SOFTPLUS_0 + 1e-6, atol=1e-12)


def test_init_validates():
    with pytest.raises(ValueError, match="at least one feature"):
        init_mlp(0, np.random.default_rng(0))


def test_forward_matches_manual_numpy():
    rng = np.random.default_rng(4)
    params = init_mlp(3, rng)
    for node in params.nodes():  # randomize the head too
        node.value += rng.normal(size=node.shape) * 0.1
    x = rng.normal(size=(7, 3))
    mu, sigma = mlp_forward(params, x)
    h = np.maximum(x @ params.w1.value + params.b1.value, 0.0)
    h = np.maximum(h @ params.w2.value + params.b2.value, 0.0)
    out = h @ params.w3.value + params.b3.value
    assert np.allclose(mu.value, out[:, 0], atol=1e-12)
    assert np.allclose(sigma.value, np.logaddexp(0, out[:, 1]) + 1e-6, atol=1e-12)


def test_forward_rejects_1d_input():
    params = init_mlp(3, np.random.default_rng(5))
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        mlp_forward(params, np.ones(3))
    # a 1-d input or a wrong feature count names both shapes, on and off the tape
    for x in (np.ones(3), np.ones((4, 2))):
        for forward in (mlp_forward, predict, mc_dropout_predict):
            with pytest.raises(ValueError) as info:
                forward(params, x)
            assert str(x.shape) in str(info.value) and "(3, 128)" in str(info.value)


def test_nonfinite_pre_activation_raises():
    rng = np.random.default_rng(5)
    params = init_mlp(3, rng)
    # every first-layer unit outputs 1, so each second-layer sum overflows
    params.w1.value.fill(0.0)
    params.b1.value.fill(1.0)
    params.w2.value.fill(1e308)
    x = rng.normal(size=(4, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for forward in (mlp_forward, predict, mc_dropout_predict):
            with pytest.raises(ValueError, match="non-finite"):
                forward(params, x)


def random_params(rng, d):
    """A fresh network with every block perturbed, the zero head included."""
    params = init_mlp(d, rng)
    for node in params.nodes():
        node.value += rng.normal(size=node.shape) * 0.3
    return params


def zero_one_masks(rng, n, rate):
    """The 0/1 masks the tape chain took, drawn as `_dropout_masks` draws."""
    keep = 1.0 - rate
    return tuple((rng.random((n, HIDDEN_WIDTH)) < keep).astype(np.float64) for _ in range(2))


def chain_fgsm(params, x, y, eps, masks=None, rate=0.0):
    """x + eps * sign(d NLL / d x) on its own graph, through the network
    with the batch's dropout masks."""
    leaf = nd.Node(x.copy(), requires_grad=True)
    mu, sigma = chain_mlp_forward(params, leaf, masks, rate)
    (gx,) = nd.gradients(gaussian_nll(mu, sigma, y), [leaf])
    return x + eps * np.sign(gx)


def chain_batch_loss(params, x, y, masks, rate, lam, eps):
    """The ensembles' loss as one joint graph: the mean of the batch's loss
    and its FGSM copy's."""
    mu, sigma = chain_mlp_forward(params, x, masks, rate)
    loss = total_loss(y, mu, sigma, lam)
    x_adv = chain_fgsm(params, x, y, eps, masks, rate)
    mu_a, sigma_a = chain_mlp_forward(params, x_adv, masks, rate)
    return (loss + total_loss(y, mu_a, sigma_a, lam)) * 0.5


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=12),
    st.one_of(st.none(), st.floats(min_value=0.1, max_value=0.5)),
    st.lists(st.booleans(), min_size=7, max_size=7).filter(any),
)
def test_mlp_op_equals_tape_chain_bitwise(seed, n, d, rate, trainable):
    rng = np.random.default_rng(seed)
    params = random_params(rng, d)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    eps = rng.uniform(0.0, 0.05, size=d)
    masks = chain_masks = None
    if rate is not None:
        masks = _dropout_masks(np.random.default_rng(seed), n, rate)
        chain_masks = zero_one_masks(np.random.default_rng(seed), n, rate)
    # trainable picks which of x and the six blocks are leaves
    arrays = [x, *params.arrays()]
    for lam in (0.0, 20.0) if n >= 2 else (0.0,):
        results = []
        for fused in (True, False):
            leaves = [nd.param(a) if t else nd.constant(a) for a, t in zip(arrays, trainable)]
            blocks = MlpParams(*leaves[1:])
            if fused:
                mu, sigma = mlp_forward(blocks, leaves[0], masks)
            else:
                mu, sigma = chain_mlp_forward(blocks, leaves[0], chain_masks, rate or 0.0)
            loss = total_loss(y, mu, sigma, lam)
            wrt = [leaf for leaf in leaves if leaf.requires_grad]
            results.append([mu.value, sigma.value, loss.value, *nd.gradients(loss, wrt)])
        assert_same_bytes(*results)
        # the ensembles' loss, clean batch plus its FGSM copy: two graphs
        # against the chain's one, and the plain loss without the copy
        cfg = TrainConfig(lam=lam, dropout_rate=rate or 0.0)
        for adv_eps in (eps, None):
            blocks = MlpParams(*map(nd.param, params.arrays()))
            value, grads = _batch_grads(blocks, x, y, masks, cfg, SoftSortConfig(), adv_eps)
            if adv_eps is None:
                mu, sigma = chain_mlp_forward(blocks, x, chain_masks, rate or 0.0)
                loss = total_loss(y, mu, sigma, lam)
            else:
                loss = chain_batch_loss(blocks, x, y, chain_masks, rate or 0.0, lam, eps)
            assert_same_bytes([value, *grads], [loss.value, *nd.gradients(loss, blocks.nodes())])


def count_calls(monkeypatch, owner, names):
    """Replace each named function of `owner` by a wrapper that counts its
    calls and keeps the arguments of the latest one."""
    calls = {name: 0 for name in names}
    latest = {}

    def wrap(name, fn):
        def counted(*args):
            calls[name] += 1
            latest[name] = args
            return fn(*args)

        return counted

    for name in names:
        monkeypatch.setattr(owner, name, wrap(name, getattr(owner, name)))
    return calls, latest


def fgsm_eps(ds):
    return 0.01 * (ds.features.max(axis=0) - ds.features.min(axis=0))


@pytest.mark.parametrize("lam", [0.0, 20.0])
def test_train_fgsm_steps_equal_tape_chain_bitwise(monkeypatch, lam):
    # at lam 0 the step's gradient is half the chain's; its signs must not move
    calls, latest = count_calls(monkeypatch, models, ["mlp_forward", "total_loss"])
    steps = []

    def spy(x, grad, eps):
        # the latest forward and loss are the clean batch's; Adam has not stepped yet
        params, y = latest["mlp_forward"][0], latest["total_loss"][0]
        x_adv = fgsm_perturb(x, grad, eps)
        steps.append((x_adv, chain_fgsm(params, x, y, eps)))
        return x_adv

    monkeypatch.setattr(models, "fgsm_perturb", spy)
    ds = small_dataset(n=96, d=2, seed=int(lam))
    cfg = TrainConfig(lam=lam, epochs=3, batch_size=32, dropout_rate=0.0, seed=4)
    train(ds, cfg, adv_eps=fgsm_eps(ds))
    assert len(steps) == 3 * 3 and calls["mlp_forward"] == 2 * len(steps)
    for got, want in steps:
        assert_same_bytes([got], [want])


@pytest.mark.parametrize("lam, backwards", [(0.0, 2), (20.0, 3)])
def test_fgsm_step_runs_the_network_twice(monkeypatch, lam, backwards):
    calls, _ = count_calls(monkeypatch, models, ["mlp_forward", "fgsm_perturb"])
    grad_calls, _ = count_calls(monkeypatch, nd, ["gradients"])
    ds = small_dataset(n=32)
    cfg = TrainConfig(lam=lam, epochs=1, batch_size=32, dropout_rate=0.0, seed=5)
    train(ds, cfg, adv_eps=fgsm_eps(ds))
    assert calls == {"mlp_forward": 2, "fgsm_perturb": 1}
    # one backward per half, plus the NLL's own input gradient under a penalty
    assert grad_calls["gradients"] == backwards


def test_mlp_forward_builds_three_nodes():
    rng = np.random.default_rng(5)
    params = init_mlp(3, rng)
    mu, sigma = mlp_forward(params, rng.normal(size=(4, 3)))
    seen, stack = set(), [mu, sigma]
    while stack:
        node = stack.pop()
        if node.parents and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    assert len(seen) == 3
    (out,) = mu.parents
    assert sigma.parents == (out,) and out.parents[1:] == tuple(params.nodes())


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.05, max_value=0.6),
)
def test_inference_equals_tape_chain_bitwise(seed, n, d, passes, rate):
    rng = np.random.default_rng(seed)
    params = random_params(rng, d)
    x = rng.normal(size=(n, d))
    frozen = MlpParams(*map(nd.constant, params.arrays()))
    mu, sigma = chain_mlp_forward(frozen, x)
    want = GaussianPrediction(mu.value, sigma.value)
    got = predict(params, x)
    assert_same_bytes([got.mu, got.sigma], [want.mu, want.sigma])
    mask_rng = np.random.default_rng(seed)
    preds = []
    for _ in range(passes):
        mu, sigma = chain_mlp_forward(frozen, x, zero_one_masks(mask_rng, n, rate), rate)
        preds.append(GaussianPrediction(mu.value, sigma.value))
    want = aggregate_ensemble(preds)
    got = mc_dropout_predict(params, x, passes=passes, dropout_rate=rate, seed=seed)
    assert_same_bytes([got.mu, got.sigma], [want.mu, want.sigma])


def test_full_loss_gradients():
    """End-to-end tape check: d total_loss / d params on a tiny instance."""
    rng = np.random.default_rng(6)
    params = init_mlp(4, rng)
    for node in params.nodes():
        node.value += rng.normal(size=node.shape) * 0.05
    x = rng.normal(size=(16, 4))
    y = rng.normal(size=16)
    from quantcal.ckl import total_loss
    from quantcal.models import _PARAM_NAMES

    def loss_with_block(name):
        def f(leaf):
            blocks = {n: getattr(params, n) for n in _PARAM_NAMES}
            blocks[name] = leaf
            mu, sigma = mlp_forward(MlpParams(**blocks), x)
            return total_loss(y, mu, sigma, 20.0)

        return f

    for name in ("w3", "b3", "b1"):
        start = getattr(params, name).value.copy()
        assert nd.finite_diff_check(loss_with_block(name), start) < 1e-3


def test_train_config_validation():
    with pytest.raises(TypeError):
        TrainConfig()  # lam is deliberately required
    with pytest.raises(ValueError, match="lam"):
        TrainConfig(lam=-1.0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(lam=0.0, batch_size=1)
    with pytest.raises(ValueError, match="dropout_rate"):
        TrainConfig(lam=0.0, dropout_rate=1.0)


def test_adam_matches_hand_computation():
    params = init_mlp(1, np.random.default_rng(7))
    state = AdamState.for_params(params)
    w_before = params.w1.value.copy()
    g = np.full_like(w_before, 0.5)
    grads = [np.zeros_like(a) for a in params.arrays()]
    grads[0] = g
    adam_step(params, grads, state, learning_rate=0.1)
    m = 0.1 * g
    v = 0.001 * g * g
    want = w_before - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert np.allclose(params.w1.value, want, atol=1e-12)
    assert state.t == 1
    # untouched blocks only move through bias correction of zero moments
    assert np.allclose(params.w2.value, init_mlp(1, np.random.default_rng(7)).w2.value)


def test_adam_rejects_nonfinite_gradient():
    params = init_mlp(1, np.random.default_rng(8))
    grads = [np.zeros_like(a) for a in params.arrays()]
    grads[2] = np.full_like(grads[2], np.nan)
    with pytest.raises(ValueError, match="non-finite gradient for w2"):
        adam_step(params, grads, AdamState.for_params(params), 0.01)


def test_batch_indices_cover_and_merge_singleton():
    order = np.arange(9)
    chunks = _batch_indices(order, 4)
    assert [len(c) for c in chunks] == [4, 5]
    assert np.array_equal(np.sort(np.concatenate(chunks)), order)
    assert [len(c) for c in _batch_indices(np.arange(8), 4)] == [4, 4]
    assert [len(c) for c in _batch_indices(np.arange(1), 4)] == [1]


def test_train_is_deterministic():
    ds = small_dataset()
    cfg = TrainConfig(lam=0.0, epochs=2, batch_size=32, seed=11)
    a = train(ds, cfg)
    b = train(ds, cfg)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


def test_train_seed_changes_result():
    ds = small_dataset()
    a = train(ds, TrainConfig(lam=0.0, epochs=2, batch_size=32, seed=1))
    b = train(ds, TrainConfig(lam=0.0, epochs=2, batch_size=32, seed=2))
    assert not np.array_equal(a.w1.value, b.w1.value)


def test_train_fits_linear_data():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, size=(2000, 1))
    y = 2.0 * x[:, 0] + 0.1 * rng.standard_normal(2000)
    ds = Dataset(x, y)
    params = train(ds, TrainConfig(lam=0.0, epochs=30, dropout_rate=0.0, seed=3))
    pred = predict(params, x)
    resid = np.sqrt(np.mean((pred.mu - y) ** 2))
    assert resid < 0.15


def test_train_records_loss_history_and_improves():
    ds = small_dataset(n=128)
    history = []
    train(ds, TrainConfig(lam=0.0, epochs=12, batch_size=64, dropout_rate=0.0, seed=4),
          loss_history=history)
    assert len(history) == 12
    assert history[-1] < history[0]


def test_train_surfaces_divergence():
    # targets this large overflow the squared residual on the first batch
    ds = Dataset(np.ones((8, 1)), np.full(8, 1e200))
    cfg = TrainConfig(lam=0.0, epochs=1, batch_size=8, dropout_rate=0.0, seed=5)
    with pytest.raises(RuntimeError, match="diverged at epoch 0"):
        with np.errstate(over="ignore", invalid="ignore"):
            train(ds, cfg)


def test_train_validates_inputs():
    with pytest.raises(ValueError, match="at least 2 rows"):
        train(Dataset(np.ones((1, 2)), np.ones(1)), TrainConfig(lam=0.0))


def test_mc_dropout_predict_deterministic_and_seeded():
    ds = small_dataset()
    params = train(ds, TrainConfig(lam=0.0, epochs=3, batch_size=32, seed=6))
    x = ds.features[:10]
    a = mc_dropout_predict(params, x, passes=5, dropout_rate=0.25, seed=9)
    b = mc_dropout_predict(params, x, passes=5, dropout_rate=0.25, seed=9)
    c = mc_dropout_predict(params, x, passes=5, dropout_rate=0.25, seed=10)
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)
    assert not np.array_equal(a.mu, c.mu)


def test_mc_dropout_widens_uncertainty():
    ds = small_dataset()
    params = train(ds, TrainConfig(lam=0.0, epochs=3, batch_size=32, seed=7))
    x = ds.features[:20]
    plain = predict(params, x)
    mc = mc_dropout_predict(params, x, passes=20, dropout_rate=0.5, seed=0)
    assert mc.sigma.mean() > plain.sigma.mean()


def test_mc_dropout_validation():
    params = init_mlp(2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="passes"):
        mc_dropout_predict(params, np.ones((2, 2)), passes=0)
    with pytest.raises(ValueError, match="dropout_rate"):
        mc_dropout_predict(params, np.ones((2, 2)), dropout_rate=0.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="rate"):
        _dropout_masks(rng, 2, 1.0)
    masks = (_dropout_masks(rng, 2, 0.25)[0], _dropout_masks(rng, 3, 0.25)[0])
    with pytest.raises(ValueError, match="mask shape"):
        mlp_forward(params, np.ones((2, 2)), masks)


def mc_dropout_peak(n):
    """Traced peak bytes of a 10-pass `mc_dropout_predict` on n rows."""
    rng = np.random.default_rng(0)
    params = init_mlp(3, rng)
    x = rng.normal(size=(n, 3))
    tracemalloc.start()
    try:
        mc_dropout_predict(params, x, passes=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def block_arrays(n, blocks, outputs):
    """The bytes of `blocks` (rows, 128) float64 arrays, rows the widest row
    block of n, plus `outputs` (10, rows) float64 arrays, a block's 10
    passes' means, plus three (n,) float64 arrays: the mean, the sigma and
    its floored copy."""
    rows = max(rows.stop - rows.start for rows in models._row_blocks(n))
    return 8 * (blocks * rows * HIDDEN_WIDTH + outputs * 10 * rows + 3 * n)


def test_mc_dropout_predict_keeps_no_graph():
    # one block: layer 1's and layer 2's outputs and a chunk's mask (here a
    # quarter block), beside the block's passes' means and sigmas and the
    # mixture's scratch copy of them
    assert mc_dropout_peak(2000) < block_arrays(2000, 2.5, 3.25)


def test_mc_dropout_predict_masks_stay_block_sized():
    # the same bound at 2 and 8 blocks: nothing but the (n,) outputs spans n
    # rows, so at 8 blocks the peak is below one (n, 128) array; three block
    # arrays and (passes, n) outputs, as once kept, break it
    for blocks in (2, 8):
        n = blocks * models._PREDICT_BLOCK_ROWS
        assert len(models._row_blocks(n)) == blocks
        peak = mc_dropout_peak(n)
        assert peak < block_arrays(n, 2.5, 3.25)
    assert peak < n * HIDDEN_WIDTH * 8


@pytest.mark.parametrize("n", [8193, 9146, 16385, 36584])
def test_head_gives_each_row_block_the_all_rows_bits(n):
    rng = np.random.default_rng(n)
    params = random_params(rng, 3)
    h2 = np.maximum(rng.normal(size=(n, HIDDEN_WIDTH)), 0.0)
    full_mu, full_sigma = models._head(h2, params)
    for rows in models._row_blocks(n):
        mu, sigma = models._head(h2[rows], params)
        assert mu.tobytes() == full_mu[rows].tobytes(), (
            f"the head rounds rows {rows.start}:{rows.stop} of {n} differently from the "
            "all-rows product; OpenBLAS takes its small-matrix gemm path when "
            "M*N*K <= 1e6 (below 3907 rows here), so row blocks must stay above that"
        )
        assert sigma.tobytes() == full_sigma[rows].tobytes()


def test_mc_dropout_predict_in_row_blocks_equals_tape_chain_bitwise():
    # 2 * block + 1 rows make three blocks of 5461 or 5462; block + 954 rows,
    # not a multiple of the block size, make two of 4573; the chain takes
    # all rows at once
    for n, d, passes, rate in [(2 * models._PREDICT_BLOCK_ROWS + 1, 3, 2, 0.25),
                               (models._PREDICT_BLOCK_ROWS + 954, 2, 3, 0.4)]:
        rng = np.random.default_rng(n)
        params = random_params(rng, d)
        x = rng.normal(size=(n, d))
        frozen = MlpParams(*map(nd.constant, params.arrays()))
        mu, sigma = chain_mlp_forward(frozen, x)
        got = predict(params, x)
        assert_same_bytes([got.mu, got.sigma], [mu.value, sigma.value])
        mask_rng = np.random.default_rng(5)
        preds = []
        for _ in range(passes):
            mu, sigma = chain_mlp_forward(frozen, x, zero_one_masks(mask_rng, n, rate), rate)
            preds.append(GaussianPrediction(mu.value, sigma.value))
        want = aggregate_ensemble(preds)
        got = mc_dropout_predict(params, x, passes=passes, dropout_rate=rate, seed=5)
        assert_same_bytes([got.mu, got.sigma], [want.mu, want.sigma])


@pytest.mark.parametrize("d", [1, 3, 10])
@pytest.mark.parametrize("n", [513, 1025, 4097, 8193, 9146])
def test_mc_dropout_predict_in_mask_chunks_equals_tape_chain_bitwise(n, d):
    # 513, 1025 and 4097 rows, and 8193's second block of 4097, would leave a
    # 1-row chunk if layer 2 were cut every 512 rows: numpy sends a 1-row
    # matmul to gemv, which rounds differently from the all-rows gemm; at
    # these seeds every such case then changes an output
    rng = np.random.default_rng(d)
    params = random_params(rng, d)
    x = rng.normal(size=(n, d))
    frozen = MlpParams(*map(nd.constant, params.arrays()))
    mask_rng = np.random.default_rng(d)
    preds = []
    for _ in range(2):
        mu, sigma = chain_mlp_forward(frozen, x, zero_one_masks(mask_rng, n, 0.25), 0.25)
        preds.append(GaussianPrediction(mu.value, sigma.value))
    want = aggregate_ensemble(preds)
    got = mc_dropout_predict(params, x, passes=2, dropout_rate=0.25, seed=d)
    assert_same_bytes([got.mu, got.sigma], [want.mu, want.sigma])


def test_row_blocks_are_even_and_never_one_row():
    for size in (models._PREDICT_BLOCK_ROWS, models._MASK_CHUNK_ROWS):
        for n in (0, 1, 2, size, size + 1, 3 * size, 3 * size + 1, 10 * size - 1, 4573, 8192):
            sizes = [rows.stop - rows.start for rows in models._row_blocks(n, size)]
            assert sum(sizes) == n and max(sizes) <= size
            assert max(sizes) - min(sizes) <= 1
            assert len(sizes) == max(1, -(-n // size))
            assert n < 2 or min(sizes) >= 2
            # a multi-block n keeps every block off the head's small-matrix
            # path, and every chunk of layer 2 off gemv
            assert len(sizes) == 1 or min(sizes) >= size // 2
    assert models._row_blocks(513, models._MASK_CHUNK_ROWS) == [slice(0, 256), slice(256, 513)]


def nll_input_grad(params, x, y):
    """d NLL / d x on the tape: the gradient an FGSM step follows."""
    leaf = nd.Node(x, requires_grad=True)
    mu, sigma = mlp_forward(params, leaf)
    (gx,) = nd.gradients(gaussian_nll(mu, sigma, y), [leaf])
    return gx


def test_fgsm_moves_inputs_by_eps_signs():
    ds = small_dataset(n=16)
    params = train(ds, TrainConfig(lam=0.0, epochs=2, batch_size=16, seed=8))
    x = ds.features[:8]
    y = ds.targets[:8]
    out = fgsm_perturb(x, nll_input_grad(params, x, y), 0.05)
    steps = out - x
    assert np.all(np.isin(np.round(np.abs(steps) / 0.05), [0.0, 1.0]))
    mu0, s0 = mlp_forward(params, x)
    mu1, s1 = mlp_forward(params, out)
    assert gaussian_nll(mu1, s1, y).item() >= gaussian_nll(mu0, s0, y).item() - 1e-9


def test_fgsm_per_feature_eps_and_zero():
    ds = small_dataset(n=16)
    params = train(ds, TrainConfig(lam=0.0, epochs=1, batch_size=16, seed=9))
    x, y = ds.features[:4], ds.targets[:4]
    grad = nll_input_grad(params, x, y)
    assert np.array_equal(fgsm_perturb(x, grad, 0.0), x)
    eps = np.array([0.1, 0.0])
    out = fgsm_perturb(x, grad, eps)
    assert np.array_equal(out[:, 1], x[:, 1])


def test_ensemble_members_differ_and_are_seeded():
    ds = small_dataset(n=48)
    cfg = TrainConfig(lam=0.0, epochs=2, batch_size=24, seed=20)
    members = ensemble_train(ds, cfg, EnsembleConfig(size=3))
    assert len(members) == 3
    assert not np.array_equal(members[0].w1.value, members[1].w1.value)
    again = ensemble_train(ds, cfg, EnsembleConfig(size=3))
    for a, b in zip(members, again):
        assert np.array_equal(a.w1.value, b.w1.value)
    # member m is a dropout-free FGSM run of `train` at seed cfg.seed + m
    adv_eps = 0.01 * (ds.features.max(axis=0) - ds.features.min(axis=0))
    for m, member in enumerate(members):
        alone = train(ds, replace(cfg, seed=20 + m, dropout_rate=0.0), adv_eps=adv_eps)
        for a, b in zip(member.arrays(), alone.arrays()):
            assert np.array_equal(a, b)


def test_ensemble_predict_aggregates_members():
    ds = small_dataset(n=48)
    members = ensemble_train(
        ds, TrainConfig(lam=0.0, epochs=2, batch_size=24, seed=21), EnsembleConfig(size=3)
    )
    x = ds.features[:6]
    want = aggregate_ensemble([predict(m, x) for m in members])
    got = ensemble_predict(members, x)
    assert np.array_equal(got.mu, want.mu)
    assert np.array_equal(got.sigma, want.sigma)
    with pytest.raises(ValueError, match="empty"):
        ensemble_predict([], x)


def test_save_load_roundtrip(tmp_path):
    params = init_mlp(3, np.random.default_rng(22))
    for node in params.nodes():
        node.value += np.random.default_rng(23).normal(size=node.shape)
    path = tmp_path / "model.bin"
    save_params(params, path)
    loaded = load_params(path)
    for a, b in zip(params.arrays(), loaded.arrays()):
        assert np.array_equal(a, b)
    assert loaded.n_features == 3
    assert all(node.requires_grad for node in loaded.nodes())


def test_load_rejects_corrupt_files(tmp_path, monkeypatch, capsys):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a model file"):
        load_params(path)
    params = init_mlp(2, np.random.default_rng(24))
    save_params(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_params(path)
    arrays = params.arrays()
    arrays[2] = np.zeros((HIDDEN_WIDTH, 64))
    save_params(MlpParams(*map(nd.param, arrays)), path)
    with pytest.raises(ValueError, match=r"shapes .*\(128, 64\)"):
        load_params(path)
    # the CLI turns a truncated model into exit 1 and one line naming it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth_n": 60, "epochs": 1, "n_splits": 2,
                                  "lambdas": [0.0], "mc_passes": 2}))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
    model = out / "models" / "mc_dropout_lam0_split0.bin"
    saved = model.read_bytes()
    # a NaN or an Inf weight is as corrupt as a short file
    for bad in (saved[:200], saved[:-8] + np.float64(np.nan).tobytes(),
                saved[:-8] + np.float64(-np.inf).tobytes()):
        model.write_bytes(bad)
        capsys.readouterr()
        assert cli.main(["recalibrate", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(model) in err
    with pytest.raises(ValueError, match="non-finite weights"):
        load_params(model)
    # every proper prefix, served from memory: writing ~130k files would
    # dominate the test
    view = memoryview(blob)
    prefix = 0
    fake = contextlib.nullcontext(types.SimpleNamespace(read=lambda: view[:prefix]))
    monkeypatch.setattr(models, "open", lambda p, mode: fake, raising=False)
    for prefix in range(len(blob)):
        try:
            load_params(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            pytest.fail(f"a {prefix}-byte prefix loaded")


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "saved.bin"
    save_params(init_mlp(2, np.random.default_rng(28)), path)
    return path.read_bytes()


def loads_or_names_the_file_once(path, blob):
    """Write `blob` to `path` and load it. Either the loaded params save back
    to the same bytes, or the ValueError names `path` exactly once."""
    path.write_bytes(blob)
    try:
        params = load_params(path)
    except ValueError as exc:
        assert str(exc).count(str(path)) == 1
        return False
    again = path.with_name("again.bin")
    save_params(params, again)
    assert again.read_bytes() == blob
    return True


HEADER = models._MAGIC + struct.pack("<II", models._FORMAT_VERSION, len(models._PARAM_NAMES))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(prefix=st.sampled_from([b"", models._MAGIC, HEADER]), body=st.binary(max_size=200))
def test_load_params_any_bytes_load_or_name_the_file_once(tmp_path, prefix, body):
    loads_or_names_the_file_once(tmp_path / "model.bin", prefix + body)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    keep=st.none() | st.integers(min_value=0),
    # an index below 64 lands in the header; any other one almost always in the weights
    flips=st.lists(st.tuples(st.integers(0, 63) | st.integers(min_value=0), st.integers(1, 255)),
                   max_size=3),
)
def test_load_params_truncated_or_flipped_file(tmp_path, saved_model, keep, flips):
    blob = bytearray(saved_model)
    for index, mask in flips:
        blob[index % len(blob)] ^= mask
    if keep is not None:
        blob = blob[: keep % len(blob)]
    loaded = loads_or_names_the_file_once(tmp_path / "model.bin", bytes(blob))
    if keep is not None:
        assert not loaded  # no proper prefix is a model
    if blob == saved_model:
        assert loaded


def test_loaded_params_are_trainable(tmp_path):
    ds = small_dataset(n=32)
    params = train(ds, TrainConfig(lam=0.0, epochs=1, batch_size=32, seed=25))
    path = tmp_path / "model.bin"
    save_params(params, path)
    loaded = load_params(path)
    resumed = train(ds, TrainConfig(lam=0.0, epochs=1, batch_size=32, seed=26))
    assert resumed is not loaded  # just exercising both paths
    mu, sigma = mlp_forward(loaded, ds.features[:8])
    loss = gaussian_nll(mu, sigma, ds.targets[:8])
    grads = nd.gradients(loss, loaded.nodes())
    assert any(np.any(g != 0) for g in grads)


def test_training_with_penalty_runs():
    ds = synth_hetero(96, seed=1)
    params = train(ds, TrainConfig(lam=20.0, epochs=2, batch_size=48, seed=27))
    pred = predict(params, ds.features)
    assert np.all(np.isfinite(pred.mu)) and np.all(pred.sigma > 0)


def test_expit_equals_scipy_on_special_values_and_a_dense_grid():
    rng = np.random.default_rng(0)
    for v in (SPECIAL_FLOATS, np.linspace(-60.0, 60.0, 400_001), rng.normal(size=200_000) * 5.0):
        assert_same_bits(expit(v), scipy_expit(v))


@settings(max_examples=200, deadline=None)
@given(float64_arrays)
def test_expit_equals_scipy_on_any_bits(v):
    with np.errstate(invalid="ignore"):  # signalling NaNs raise the invalid flag
        assert_same_bits(expit(v), scipy_expit(v))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.floats(709.0, 746.0),  # exp(-x) overflows for x below -709.78
    st.floats(709.78, 1e308),
    st.floats(),
), min_size=1, max_size=64))
def test_expit_equals_scipy_where_exp_overflows(values):
    v = np.array(values)
    v = np.concatenate([v, -v])
    assert_same_bits(expit(v), scipy_expit(v))
