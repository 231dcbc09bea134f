import contextlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit as scipy_expit

from oracles import SPECIAL_FLOATS, assert_same_bits, chain_mlp_forward, float64_arrays
from quantcal import cli, models
from quantcal import ndgrad as nd
from quantcal.ckl import total_loss
from quantcal.datasets import Dataset, fit_standardization, standardized_view, synth_hetero
from quantcal.gaussian import GaussianPrediction, aggregate_ensemble, aggregate_mc, gaussian_nll
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


def test_ensemble_predict_checks_every_member_against_the_input():
    rng = np.random.default_rng(5)
    for members in ([init_mlp(3, rng), init_mlp(2, rng)], [init_mlp(2, rng), init_mlp(3, rng)]):
        with pytest.raises(ValueError, match=r"mlp: expected \(n, d\)"):
            ensemble_predict(members, np.ones((4, 3)))


def test_sigma_whose_square_overflows_raises_on_every_inference_path():
    # the mixture squares sigma, so a single network's 1e200 raises as a
    # non-finite prediction, as ensembles and MC dropout always did
    params = init_mlp(3, np.random.default_rng(5))
    params.b3.value[1] = 1e200
    x = np.ones((4, 3))
    with np.errstate(over="ignore"):
        for forward in (predict, lambda p, x: ensemble_predict([p], x), mc_dropout_predict):
            with pytest.raises(ValueError, match="GaussianPrediction: non-finite"):
                forward(params, x)


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


def assert_predict_equals_chain(params, x):
    """`predict` gives the tape chain's all-rows bits; returns its
    prediction."""
    frozen = MlpParams(*map(nd.constant, params.arrays()))
    mu, sigma = chain_mlp_forward(frozen, x)
    got = predict(params, x)
    assert_same_bytes([got.mu, got.sigma], [mu.value, sigma.value])
    return got


def assert_inference_equals_chain(params, x, passes, rate, seed):
    """`predict` and `mc_dropout_predict` give the tape chain's all-rows
    bits."""
    n = len(x)
    assert_predict_equals_chain(params, x)
    frozen = MlpParams(*map(nd.constant, params.arrays()))
    mask_rng = np.random.default_rng(seed)
    preds = []
    for _ in range(passes):
        mu, sigma = chain_mlp_forward(frozen, x, zero_one_masks(mask_rng, n, rate), rate)
        preds.append(GaussianPrediction(mu.value, sigma.value))
    want = aggregate_ensemble(preds)
    got = mc_dropout_predict(params, x, passes=passes, dropout_rate=rate, seed=seed)
    assert_same_bytes([got.mu, got.sigma], [want.mu, want.sigma])


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


@pytest.mark.parametrize("lam, most_mib", [(0.0, 2.75), (20.0, 5.25)])
def test_fgsm_step_frees_the_clean_graph_before_the_copy(lam, most_mib):
    # one 512-row step traced 3.4 MiB at lam 0 and 7.5 MiB at lam 20 while
    # the clean graph's activations lived through the copy's pass
    rng = np.random.default_rng(0)
    params = init_mlp(1, rng)
    x, y = rng.normal(size=(512, 1)), rng.normal(size=512)
    cfg = TrainConfig(lam=lam, dropout_rate=0.0)
    tracemalloc.start()
    try:
        _batch_grads(params, x, y, None, cfg, SoftSortConfig(tau=cfg.tau), np.full(1, 0.01))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= most_mib * 2**20


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 19), st.sampled_from([0.0, 20.0]), st.integers(0, 2**16))
def test_training_and_inference_on_views_give_the_copies_bits(d, lam, seed):
    # a view's batches come out F-ordered where a standardized copy's were
    # C-ordered; the models and predictions must not move
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(900, d + 1)) * rng.uniform(0.5, 20.0, d + 1)
    ds = Dataset(table[:, :-1], table[:, -1])
    order = rng.permutation(900)
    fit, test = np.sort(order[:700]), np.sort(order[700:])
    tf = fit_standardization(ds, fit)
    cfg = TrainConfig(lam=lam, epochs=1, batch_size=512, seed=seed)
    runs = []
    for fit_set, test_set in ([standardized_view(ds, rows, tf) for rows in (fit, test)],
                              [Dataset(*tf.apply(ds.features[rows], ds.targets[rows]))
                               for rows in (fit, test)]):
        members = [train(fit_set, cfg), *ensemble_train(fit_set, cfg, EnsembleConfig(size=2))]
        mc = mc_dropout_predict(members[0], test_set.features, passes=3, seed=seed)
        ens = ensemble_predict(members[1:], test_set.features)
        runs.append([a for m in members for a in m.arrays()] + [mc.mu, mc.sigma, ens.mu, ens.sigma])
    assert_same_bytes(*runs)


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
    assert_inference_equals_chain(random_params(rng, d), rng.normal(size=(n, d)),
                                  passes, rate, seed)


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
    # a negative rate ascends the loss, and a zero rate returns the initial network
    for rate in (-0.01, 0.0, -0.0, float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            TrainConfig(lam=0.0, learning_rate=rate)
    assert TrainConfig(lam=0.0, learning_rate=5e-324).learning_rate == 5e-324


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


@pytest.mark.parametrize("passes", [2.5, 2.0, True, "3", None])
def test_mc_dropout_passes_must_be_an_integer(passes):
    params = init_mlp(2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="mc_dropout_predict: passes must be a positive integer"):
        mc_dropout_predict(params, np.ones((2, 2)), passes=passes)
    assert len(mc_dropout_predict(params, np.ones((2, 2)), passes=np.int64(3)).mu) == 2


def test_mc_dropout_rejects_an_empty_network_list():
    with pytest.raises(ValueError, match="mc_dropout_predict: empty network list"):
        mc_dropout_predict([], np.ones((2, 2)))
    params = init_mlp(2, np.random.default_rng(0))
    for members in ([], [[]], [[params], []], [[params], [params, params]]):
        with pytest.raises(ValueError, match="ensemble_predict: empty member list or lists of "
                                             "unequal size"):
            ensemble_predict(members, np.ones((2, 2)))


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=12),
    st.one_of(st.integers(min_value=1, max_value=1030),
              st.integers(min_value=3903, max_value=4200)),
    st.integers(min_value=1, max_value=10),
    st.sampled_from([0.05, 0.25, 0.5, 0.9]),
    st.booleans(),
    st.sampled_from(["mc_dropout", "ensemble"]),
)
# at one row numpy adds 8 or more passes or members pairwise, and several
# groups' side by side row by row
@example(seed=0, k=2, d=1, n=1, passes=8, rate=0.05, view=False, model="mc_dropout")
@example(seed=0, k=2, d=1, n=1, passes=8, rate=0.05, view=False, model="ensemble")
def test_mc_dropout_predict_of_a_list_is_each_network_alone_bitwise(seed, k, d, n, passes,
                                                                    rate, view, model):
    # one call predicts k MC-dropout networks, drawing each mask once for
    # all, or k ensembles of `passes` members each; each prediction must
    # have the bits of its network's or ensemble's call alone, on an array
    # or on a standardized row view, across the 512-row block edges
    rng = np.random.default_rng(seed)
    if model == "ensemble":
        groups = [[random_params(rng, d) for _ in range(passes)] for _ in range(k)]
        predict_all = ensemble_predict
    else:
        groups = [random_params(rng, d) for _ in range(k)]
        def predict_all(nets, x):
            return mc_dropout_predict(nets, x, passes=passes, dropout_rate=rate, seed=seed)
    x = rng.normal(size=(n + 3, d)) * rng.uniform(0.5, 20.0, d)
    if view:
        ds = Dataset(x, rng.normal(size=n + 3))
        tf = fit_standardization(ds, np.arange(n + 3))
        x = standardized_view(ds, np.sort(rng.permutation(n + 3)[:n]), tf).features
    else:
        x = x[:n]
    got = predict_all(groups, x)
    assert isinstance(got, list) and len(got) == k
    for group, pred in zip(groups, got):
        alone = predict_all(group, x)
        assert_same_bytes([pred.mu, pred.sigma], [alone.mu, alone.sigma])


def test_mc_dropout_predict_of_a_list_mixes_each_block_once(monkeypatch):
    # each network's means and sigmas of a block go to an aggregate_mc call
    # of their own, laid out as (passes, block rows)
    shapes = []

    def spy(mus, sigmas):
        shapes.append(mus.shape)
        return aggregate_mc(mus, sigmas)

    monkeypatch.setattr(models, "aggregate_mc", spy)
    rng = np.random.default_rng(0)
    nets = [random_params(rng, 3) for _ in range(3)]
    mc_dropout_predict(nets, rng.normal(size=(1025, 3)), passes=4)
    assert shapes == [(4, 341)] * 3 + [(4, 342)] * 6


def traced_peak(forward, n, **kwargs):
    """Traced peak bytes of `forward(params, x, **kwargs)` on n rows of 3
    features."""
    rng = np.random.default_rng(0)
    params = init_mlp(3, rng)
    x = rng.normal(size=(n, 3))
    tracemalloc.start()
    try:
        forward(params, x, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def block_scratch(n, passes, arrays):
    """The bytes of `arrays` (512, 128) float64 arrays, of four (passes, 512)
    ones (a block's passes' means and sigmas and the mixture's scratch copy,
    with room for its temporaries) and of the (n,) mean and sigma."""
    rows = models._BLOCK_ROWS
    return 8 * (arrays * rows * HIDDEN_WIDTH + 4 * passes * rows + 2 * n)


def test_mc_dropout_predict_keeps_no_graph():
    # layer 1's and layer 2's outputs of one block and its masks, and half
    # an array for the head's output and the finite checks' bool arrays,
    # beside the (n,) outputs
    for n in (1, 513, 2000, 3906):
        assert traced_peak(mc_dropout_predict, n, passes=10) < block_scratch(n, 10, 3.5)


def test_mc_dropout_predict_masks_stay_block_sized():
    # nothing but the (n,) outputs grows with n, and nothing but a block's
    # passes' means and sigmas with the passes; a stack of passes' layer-2
    # outputs of 3907 rows or more, as once kept, took 5.0 MiB at 9146 rows
    # and 10 passes
    for n in (3907, 9146, 36584):
        for passes in (1, 10, 30):
            peak = traced_peak(mc_dropout_predict, n, passes=passes)
            assert peak < block_scratch(n, passes, 3.5), (n, passes, peak)
            if passes == 10 and n > 3907:
                assert peak <= 2.5 * 2**20, (n, peak)


def test_mc_dropout_predict_of_a_list_stays_block_sized():
    # five networks under shared masks: their h1s, the pass's two masks, the
    # masked layer-2 input and h2 of a block, half an array for the head
    # output and the finite checks, each block's passes' means and sigmas
    # for all five, and the five (n,) predictions. A mask that serves five
    # networks is not multiplied in place, as one network's is
    k, n = 5, 9146
    rng = np.random.default_rng(0)
    nets = [init_mlp(3, rng) for _ in range(k)]
    x = rng.normal(size=(n, 3))
    for passes in (1, 10, 30):
        tracemalloc.start()
        try:
            mc_dropout_predict(nets, x, passes=passes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block_scratch(k * n, k * passes, k + 4.5), (passes, peak)


def test_predict_scratch_stays_block_sized():
    # one pass and no masks: h1 and h2 of a block, once whole blocks of
    # 3907 to 7813 rows (9.1 MiB traced at 36584 rows)
    for n in (1, 2000, 3907, 9146, 36584):
        peak = traced_peak(predict, n)
        assert peak < block_scratch(n, 1, 2.5), (n, peak)
    assert peak <= 2 * 2**20


def test_ensemble_predict_scratch_stays_block_sized():
    # five members' h1, h2 and head output of a block, once five (n,)
    # predictions and their (5, n) stacks (7.8 MiB traced at 36584 rows)
    for n in (9146, 36584):
        peak = traced_peak(lambda params, x: ensemble_predict([params] * 5, x), n)
        assert peak < block_scratch(n, 5, 2.5), (n, peak)
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("n", [3907, 7814, 8193, 9146, 11721, 16385, 36584])
def test_head_gives_each_row_block_the_all_rows_bits(n):
    # n's row blocks, and blocks of 1 to 512 rows at either end and near the
    # start; at these n an all-rows BLAS head would take OpenBLAS's blocked
    # gemm path and a block its small-matrix path, which rounds differently
    rng = np.random.default_rng(n)
    params = random_params(rng, 3)
    w3, b3 = params.w3.value, params.b3.value
    h2 = np.maximum(rng.normal(size=(n, HIDDEN_WIDTH)), 0.0)
    full = models._head_out(h2, w3, b3)
    single = [slice(start, start + m) for m in (1, 2, 3, 5, 64, 255, 509, 512)
              for start in (0, 1, 7, n - m)]
    for rows in models._row_blocks(n) + single:
        got = models._head_out(h2[rows], w3, b3)
        assert got.tobytes() == full[rows].tobytes(), f"rows {rows.start}:{rows.stop} of {n}"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=40000),
    st.integers(min_value=1, max_value=models._BLOCK_ROWS),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_head_gives_any_row_block_the_all_rows_bits(seed, n, m, where):
    # the head is numpy's einsum loop, not a gemm: no BLAS path and no row
    # grid decides a row's bits, so any block at any start, in place, copied
    # or written into a slice of scratch, gives the all-rows bits
    rng = np.random.default_rng(seed)
    w3, b3 = rng.normal(size=(HIDDEN_WIDTH, 2)), rng.normal(size=2)
    h2 = np.maximum(rng.normal(size=(n, HIDDEN_WIDTH)), 0.0)
    m = min(m, n)
    rows = slice(int(where * (n - m)), int(where * (n - m)) + m)
    full = models._head_out(h2, w3, b3)
    scratch = np.empty((models._BLOCK_ROWS + 1, 2))
    for got in (models._head_out(h2[rows], w3, b3),
                models._head_out(h2[rows].copy(), w3, b3, out=scratch[1 : m + 1])):
        assert got.tobytes() == full[rows].tobytes()
    # each entry lies within gamma_129 * sum |terms| of the exact 128-term
    # dot product plus the bias (Higham, Accuracy and Stability of Numerical
    # Algorithms, 3.1), widened by 2u for the rounded products and the final
    # rounding of the math.fsum reference
    products = h2[rows, :, None] * w3
    u = 2.0**-53
    gamma = (HIDDEN_WIDTH + 3) * u / (1 - (HIDDEN_WIDTH + 3) * u)
    bound = gamma * (np.abs(products).sum(axis=1) + np.abs(b3))
    want = [[math.fsum([*products[i, :, k], b3[k]]) for k in (0, 1)] for i in range(m)]
    assert np.all(np.abs(full[rows] - np.array(want)) <= bound)


@pytest.mark.parametrize("d", range(1, 20))
def test_layer1_gives_each_row_block_the_all_rows_bits(d):
    # blocks of 500 to 509 rows put layer 1's (rows, d) @ (d, 128) on
    # OpenBLAS's small-matrix path for every d <= 15, where all rows take
    # the blocked path; the standardized features `cli` passes are F-ordered
    rng = np.random.default_rng(d)
    params = random_params(rng, d)
    w1, b1 = params.w1.value, params.b1.value
    for x in (rng.normal(size=(n, d)) for n in (2001, 9146, 36584)):
        for layout in (x, np.asfortranarray(x)):
            full = models._hidden(layout, w1, b1)
            for rows in models._row_blocks(len(x)):
                assert models._hidden(layout[rows], w1, b1).tobytes() == full[rows].tobytes(), (
                    f"layer 1 rounds rows {rows.start}:{rows.stop} of {len(x)} at d = {d} "
                    "differently from the all-rows product; OpenBLAS takes its small-matrix "
                    "gemm path when M*N*K <= 1e6, so at this d a block must stay above "
                    f"{10**6 // (HIDDEN_WIDTH * d)} rows"
                )


def test_mc_dropout_predict_in_row_blocks_equals_tape_chain_bitwise():
    # the chain takes all rows at once. From 3907 rows on an all-rows BLAS
    # head would leave OpenBLAS's small-matrix path, on which a block's head
    # stays, and 3906 is the last below; at 7814 rows d = 2 puts all rows'
    # layer 1 just past the small-matrix path (3907 * 128 * 2 > 1e6); 16385
    # rows make 33 blocks of 496 or 497 rows; 4000 rows with 30 passes hold
    # 30 passes' means per block
    for n, d, passes, rate in [(7814, 2, 2, 0.25), (3907, 2, 2, 0.25), (3906, 3, 10, 0.25),
                               (16385, 3, 2, 0.25), (9146, 2, 3, 0.4), (4000, 5, 30, 0.25)]:
        rng = np.random.default_rng(n)
        assert_inference_equals_chain(random_params(rng, d), rng.normal(size=(n, d)),
                                      passes, rate, 5)


@pytest.mark.parametrize("d", [1, 3, 10])
@pytest.mark.parametrize("n", [513, 1025, 4097, 8193, 9146])
def test_mc_dropout_predict_in_mask_chunks_equals_tape_chain_bitwise(n, d):
    # 513, 1025, 4097 and 8193 rows are one past a multiple of 512: a cut
    # every 512 rows would leave a 1-row block, which numpy sends to gemv,
    # rounding differently from the all-rows gemm; 513 rows make blocks of
    # 256 and 257 rows
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


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.one_of(st.integers(min_value=509, max_value=1030),
              st.integers(min_value=3903, max_value=4200)),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.05, max_value=0.6),
)
def test_inference_across_block_edges_equals_tape_chain_bitwise(seed, n, d, passes, rate):
    # n across the 512-row edge, where one block becomes two, and across
    # 3906/3907 rows, where an all-rows BLAS head would leave OpenBLAS's
    # small-matrix path
    rng = np.random.default_rng(seed)
    assert_inference_equals_chain(random_params(rng, d), rng.normal(size=(n, d)),
                                  passes, rate, seed)


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.one_of(st.integers(min_value=509, max_value=1030),
              st.integers(min_value=3903, max_value=4200)),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=5),
)
def test_ensemble_predict_across_block_edges_equals_its_members_bitwise(seed, n, d, size):
    # members mix per row block; their stacked all-rows predictions, mixed
    # once, are the reference
    rng = np.random.default_rng(seed)
    members = [random_params(rng, d) for _ in range(size)]
    x = rng.normal(size=(n, d))
    want = aggregate_ensemble([assert_predict_equals_chain(m, x) for m in members])
    got = ensemble_predict(members, x)
    assert_same_bytes([got.mu, got.sigma], [want.mu, want.sigma])


BLAS_THREADS_SCRIPT = """
import hashlib
import numpy as np
from quantcal.models import ensemble_predict, init_mlp, mc_dropout_predict

rng = np.random.default_rng(0)
members = [init_mlp(10, rng) for _ in range(5)]
for net in members:
    for node in net.nodes():
        node.value += rng.normal(size=node.shape) * 0.3
x = rng.normal(size=(9146, 10))
for pred in (mc_dropout_predict(members[0], x, passes=10), ensemble_predict(members, x)):
    print(hashlib.sha256(pred.mu.tobytes() + pred.sigma.tobytes()).hexdigest())
"""


def test_inference_is_byte_identical_at_1_and_2_blas_threads():
    # layers 1 and 2 are BLAS gemms, which OpenBLAS may split across threads;
    # the head is numpy's own loop. Each thread count runs in a fresh process,
    # since OpenBLAS reads it once at load
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr[-2000:]
        digests.append(run.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def test_row_blocks_are_even_and_never_one_row():
    most = models._BLOCK_ROWS
    sizes = [0, 1, 2, 3, 4, 5, most - 1, most, most + 1, most + 2, most + 3, 2 * most,
             2 * most + 1, 3906, 3907, 4097, 8193, 9146, 36584]
    sizes += [int(n) for n in np.random.default_rng(0).integers(2, 200_000, 300)]
    for n in sizes:
        blocks = models._row_blocks(n)
        rows = [block.stop - block.start for block in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert [block.start for block in blocks[1:]] == [block.stop for block in blocks[:-1]]
        # the fewest blocks of at most 512 rows, as even as can be, and so
        # never one row
        assert max(rows) <= most and len(blocks) == max(1, -(-n // most))
        assert max(rows) - min(rows) <= 1
        assert n < 2 or min(rows) >= 2
        if n <= most:
            assert blocks == [slice(0, n)]
    assert models._row_blocks(513) == [slice(0, 256), slice(256, 513)]
    assert models._row_blocks(9146)[-2:] == [slice(8129, 8637), slice(8637, 9146)]


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
