import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# the MLP's generic ops live on as the reference chain in oracles; the tests
# below hold that reference to finite differences
from oracles import dropout, matmul, relu, softplus, take
from quantcal import ndgrad as nd


def grad_of(f, x):
    """Tape gradient of a scalar-valued function of one array leaf."""
    leaf = nd.param(x)
    (g,) = nd.gradients(f(leaf), [leaf])
    return g


def test_node_wraps_float64():
    node = nd.constant([1, 2, 3])
    assert node.value.dtype == np.float64
    assert node.shape == (3,)
    assert node.size == 3
    assert not node.requires_grad


def test_param_requires_grad_and_copies():
    x = np.ones(3)
    p = nd.param(x)
    p.value[0] = 5.0
    assert x[0] == 1.0
    assert p.requires_grad


def test_requires_grad_propagates():
    a = nd.param([1.0])
    b = nd.constant([2.0])
    assert (a + b).requires_grad
    assert not (b + b).requires_grad


def test_constant_results_keep_no_graph():
    b = nd.constant([2.0])
    out = (b * b + 1.0).sum()
    assert out.parents == () and out._backward is None
    a = nd.param([1.0])
    assert len((a * b).parents) == 2


def test_item_on_scalar():
    assert nd.constant(3.5).item() == 3.5


@pytest.mark.parametrize(
    "op,ref",
    [
        (nd.add, np.add),
        (nd.multiply, np.multiply),
    ],
)
def test_binary_values_match_numpy(op, ref):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    assert np.array_equal(op(a, b).value, ref(a, b))


@pytest.mark.parametrize(
    "f",
    [
        lambda x: (x * x + 2.0 * x).sum(),
        lambda x: (x * softplus(x)).sum(),
        lambda x: (softplus(x * x + 1.0) * x).sum(),
        lambda x: relu(x).sum(),
        lambda x: softplus(x).sum(),
        lambda x: (dropout(x, np.arange(8) % 3 > 0, 0.25) * x).sum(),
        lambda x: (x * -1.0).sum(),
        lambda x: (softplus(x) * softplus(x).sum() * x).sum(),
        lambda x: matmul(
            take(x, np.array([[0, 1], [2, 3]])), take(x, np.array([[4, 5], [6, 7]]))
        ).sum(),
        lambda x: (
            (take(x, (slice(None), None)) + take(x, (None, slice(None))) * -1.0)
            * (take(x, (slice(None), None)) + take(x, (None, slice(None))) * -1.0)
        ).sum(),
        lambda x: (take(x, slice(1, None)) + take(x, slice(None, -1)) * -1.0).sum()
        + take(x, np.array([0, 0, 3])).sum(),
    ],
)
def test_gradients_match_finite_differences(f):
    rng = np.random.default_rng(7)
    # offsets keep relu kinks off the sample points
    x = rng.normal(size=8) + 0.05
    assert nd.finite_diff_check(f, x) < 1e-6


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    assert nd.finite_diff_check(lambda x: (matmul(x, b)).sum(), a) < 1e-7
    assert nd.finite_diff_check(lambda x: (matmul(a, x)).sum(), b) < 1e-7


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ValueError, match="matmul: incompatible shapes"):
        matmul(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="matmul"):
        matmul(np.ones(3), np.ones((3, 1)))


def test_broadcasting_gradients_unbroadcast():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 4))
    row = rng.normal(size=(1, 4))
    assert nd.finite_diff_check(lambda x: (nd.constant(a) * x).sum(), row) < 1e-7
    scalar = np.array(1.5)
    assert nd.finite_diff_check(lambda x: (nd.constant(a) + x).sum(), scalar) < 1e-7


def test_fanout_accumulates():
    g = grad_of(lambda x: (x * x + x).sum(), np.array([1.0, -2.0, 3.0]))
    assert np.allclose(g, np.array([3.0, -3.0, 7.0]))


def test_unused_leaf_gets_zero_gradient():
    a = nd.param([1.0, 2.0])
    b = nd.param([3.0])
    ga, gb = nd.gradients((a * a).sum(), [a, b])
    assert np.array_equal(gb, np.zeros(1))
    assert np.allclose(ga, [2.0, 4.0])


def test_gradients_requires_scalar_output():
    a = nd.param([1.0, 2.0])
    with pytest.raises(ValueError, match="must be scalar"):
        nd.gradients(a * 2.0, [a])


def test_gradients_rejects_constant_wrt():
    a = nd.param([1.0])
    c = nd.constant([1.0])
    with pytest.raises(ValueError, match="requires_grad"):
        nd.gradients((a + c).sum(), [c])


def test_deep_chain_no_recursion_limit():
    x = nd.param(np.array([1.0]))
    y = x
    for _ in range(5000):
        y = y + 0.001
    (g,) = nd.gradients(y.sum(), [x])
    assert g[0] == 1.0


def test_nonfinite_result_raises():
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            nd.multiply(np.array([1e200]), np.array([1e200]))


def test_take_with_duplicate_indices_accumulates():
    idx = np.array([0, 0, 2])
    g = grad_of(lambda x: take(x, idx).sum(), np.arange(4.0))
    assert np.array_equal(g, [2.0, 0.0, 1.0, 0.0])


def test_take_with_2d_slice():
    x = np.arange(12.0).reshape(3, 4)
    g = grad_of(lambda n: take(n, (slice(None), 1)).sum(), x)
    expected = np.zeros((3, 4))
    expected[:, 1] = 1.0
    assert np.array_equal(g, expected)


def test_dropout_scales_and_masks():
    x = np.ones((2, 3))
    mask = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    out = dropout(nd.constant(x), mask, 0.25)
    assert np.allclose(out.value, mask / 0.75)
    with pytest.raises(ValueError, match="mask shape"):
        dropout(nd.constant(x), np.ones(3), 0.25)
    with pytest.raises(ValueError, match="rate"):
        dropout(nd.constant(x), np.ones((2, 3)), 1.0)


def test_finite_diff_check_validates():
    with pytest.raises(ValueError, match="h must be positive"):
        nd.finite_diff_check(lambda x: x.sum(), np.ones(2), h=0.0)
    with pytest.raises(ValueError, match="scalar"):
        nd.finite_diff_check(lambda x: x * 1.0, np.ones(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_composite_gradient_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 3))
    w = nd.constant(rng.normal(size=(3, 2)))

    def f(leaf):
        h = softplus(matmul(leaf, w))
        return (h * softplus(h)).sum()

    assert nd.finite_diff_check(f, x) < 1e-5
