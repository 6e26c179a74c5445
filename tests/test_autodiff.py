"""Forward values, adjoints, and the finite-difference oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wsdmil.autodiff import (
    GradCheckError,
    ShapeError,
    Tensor,
    add,
    cross_entropy,
    grad_check,
    linear,
    matmul,
    max_rows,
    mean_rows,
    mul,
    relu,
    scale,
    sigmoid,
    softmax_rows,
    squared_error,
    take_rows,
    tanh,
    transpose,
)


def _sum(x: Tensor) -> Tensor:
    """The sum of every entry as a 1x1 node.  Each entry's share of the
    adjoint is exactly the adjoint, so exact-count tests stay exact."""
    r, c = x.shape
    return matmul(matmul(np.ones((1, r)), x), np.ones((c, 1)))


def test_repr_names_the_tensor_and_its_shape():
    assert repr(Tensor(np.zeros((1, 2)), name="w")) == "Tensor(w, shape=(1, 2))"


def test_matmul_of_ones():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 1)))
    assert_allclose((a @ b).data, np.full((2, 1), 3.0))


def test_softmax_of_zeros_is_uniform():
    s = softmax_rows(Tensor(np.zeros((1, 3))))
    assert_allclose(s.data, np.full((1, 3), 1.0 / 3.0))


def test_tanh_of_zero_is_zero():
    assert_allclose(tanh(Tensor(np.zeros((2, 2)))).data, np.zeros((2, 2)))


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-6, 6, size=(7, 5)))
    s = softmax_rows(x)
    assert np.abs(s.data.sum(axis=1) - 1.0).max() < 1e-12
    assert (s.data > 0).all()


def test_sum_backward_is_ones():
    x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
    _sum(x).backward()
    assert_allclose(x.grad, np.ones((3, 4)))


def test_dot_with_self_gradient_is_2x():
    x = Tensor([[1.0, 2.0]])
    _sum(x * x).backward()
    assert_allclose(x.grad, [[2.0, 4.0]])


def test_cross_entropy_gradient_of_uniform_logits():
    logits = Tensor(np.zeros((1, 4)))
    cross_entropy(logits, 2).backward()
    assert_allclose(logits.grad, [[0.25, 0.25, -0.75, 0.25]], atol=1e-15)


def test_cross_entropy_value_matches_logsumexp():
    rng = np.random.default_rng(2)
    row = rng.uniform(-3, 3, size=4)
    loss = cross_entropy(Tensor(row[None]), 1)
    expected = np.log(np.exp(row).sum()) - row[1]
    assert_allclose(loss.data[0, 0], expected, rtol=1e-12)


def test_max_rows_ties_route_gradient_to_first_row():
    x = Tensor(np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 3.0]]))
    _sum(max_rows(x)).backward()
    assert_allclose(x.grad, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_forward_is_deterministic():
    x = np.random.default_rng(3).normal(size=(4, 4))
    a = softmax_rows(tanh(Tensor(x)) @ Tensor(x))
    b = softmax_rows(tanh(Tensor(x)) @ Tensor(x))
    assert a.data.tobytes() == b.data.tobytes()


def test_scalar_mul_and_broadcast_add():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    eye = Tensor(np.eye(3))
    row = Tensor([[1.0, 2.0, 3.0]])
    out = scale(linear(x, eye, row), 2.0)
    assert_allclose(out.data, (np.arange(6.0).reshape(2, 3) + [1, 2, 3]) * 2)
    _sum(out).backward()
    assert_allclose(x.grad, np.full((2, 3), 2.0))
    assert_allclose(row.grad, [[4.0, 4.0, 4.0]])
    assert_allclose(eye.grad, np.repeat([[6.0], [10.0], [14.0]], 3, axis=1))


def test_shape_errors_name_the_primitive():
    with pytest.raises(ShapeError, match="matmul"):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="add"):
        Tensor(np.ones((2, 3))) + Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="add"):
        Tensor(np.ones((2, 3))) + Tensor(np.ones((1, 3)))
    with pytest.raises(ShapeError, match="linear"):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), np.ones((2, 4)))
    with pytest.raises(ShapeError, match="linear"):
        linear(np.ones((2, 3)), np.ones((2, 4)), np.ones((1, 4)))
    with pytest.raises(ShapeError, match="backward"):
        Tensor(np.ones((2, 2))).backward()
    for data in (np.float64(1.0), np.ones(2), np.ones((2, 2, 2))):
        with pytest.raises(ShapeError, match="tensor"):
            Tensor(data)
    with pytest.raises(ShapeError, match="take_rows"):
        take_rows(Tensor(np.ones((2, 2))), [0, 5])
    with pytest.raises(ShapeError, match="mul"):
        Tensor(np.ones((2, 3))) * Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="squared_error"):
        squared_error(Tensor(np.ones((1, 2))), 0.5)


def _contract(out: Tensor, seed: int) -> Tensor:
    """Reduce any output to a scalar with a fixed random weighting."""
    c = Tensor(np.random.default_rng(seed).uniform(0.5, 1.5, size=out.shape))
    return _sum(out * c)


# Closures exercising every primitive; inputs stay in [-2, 2] and clear of
# relu kinks and max ties so central differences are valid.
def _primitive_cases():
    rng = np.random.default_rng(42)

    def mk(shape, lo=-2.0, hi=2.0):
        return Tensor(rng.uniform(lo, hi, size=shape))

    a, b = mk((3, 4)), mk((3, 4))
    m1, m2 = mk((3, 4)), mk((4, 2))
    row = mk((1, 2))
    safe = Tensor(np.sign(rng.normal(size=(3, 4))) * rng.uniform(0.25, 2.0, (3, 4)))
    margins = mk((5, 3))
    margins.data[np.argmax(margins.data, axis=0), np.arange(3)] += 0.5
    logits = mk((1, 5))
    pred = mk((1, 1))
    gather = mk((4, 3))

    return [
        ("matmul", [m1, m2], lambda: _contract(m1 @ m2, 1)),
        ("add", [a, b], lambda: _contract(a + b, 2)),
        ("linear", [m1, m2, row], lambda: _contract(linear(m1, m2, row), 3)),
        ("mul", [a, b], lambda: _contract(a * b, 5)),
        ("scale", [a], lambda: _contract(scale(a, -1.7), 6)),
        ("tanh", [a], lambda: _contract(tanh(a), 7)),
        ("sigmoid", [a], lambda: _contract(sigmoid(a), 8)),
        ("relu", [safe], lambda: _contract(relu(safe), 9)),
        ("softmax_rows", [a], lambda: _contract(softmax_rows(a), 11)),
        ("max_rows", [margins], lambda: _contract(max_rows(margins), 12)),
        ("mean_rows", [a], lambda: _contract(mean_rows(a), 13)),
        ("transpose", [a], lambda: _contract(transpose(a), 14)),
        ("take_rows", [gather],
         lambda: _contract(take_rows(gather, [2, 0, 2, 3]), 16)),
        ("cross_entropy", [logits], lambda: cross_entropy(logits, 3)),
        ("squared_error", [pred], lambda: squared_error(pred, 0.3)),
    ]


@pytest.mark.parametrize("name,params,loss_fn", _primitive_cases(),
                         ids=[c[0] for c in _primitive_cases()])
def test_primitive_gradients_match_central_differences(name, params, loss_fn):
    worst = grad_check(loss_fn, params, epsilon=1e-5)
    assert worst < 1e-6, f"{name}: max rel error {worst:.3e}"


def test_grad_check_linear_mse_model():
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(1, 6)), name="w")
    x = Tensor(rng.normal(size=(1, 6)))

    assert grad_check(lambda: squared_error(_sum(w * x), 1.25), [w],
                      epsilon=1e-5) < 1e-7


def test_grad_check_constant_loss():
    p = Tensor(np.ones((2, 2)), name="p")
    assert grad_check(lambda: Tensor([[3.0]]), [p]) == 0.0


def test_grad_check_rejects_non_finite_loss():
    p = Tensor(np.ones((1, 1)), name="p")
    with pytest.raises(GradCheckError):
        grad_check(lambda: Tensor([[np.nan]]), [p])
    # finite at the point itself, not at the probes either side of it
    with pytest.raises(GradCheckError, match="probing parameter p at"):
        grad_check(lambda: Tensor([[1.0 if p.data[0, 0] == 1.0 else np.inf]]), [p])


@pytest.mark.parametrize("epsilon", [0.0, -1e-5])
def test_grad_check_rejects_non_positive_epsilon(epsilon):
    p = Tensor(np.ones((1, 1)), name="p")
    with pytest.raises(ValueError, match="epsilon must be positive"):
        grad_check(lambda: Tensor([[3.0]]), [p], epsilon=epsilon)


def test_gradients_accumulate_across_backward_calls():
    x = Tensor([[1.0, 2.0]])
    _sum(x).backward()
    _sum(x).backward()
    assert_allclose(x.grad, [[2.0, 2.0]])


@pytest.mark.parametrize("op", [lambda x: x + x], ids=["add"])
def test_operand_used_twice_receives_both_shares(op):
    x = Tensor([[1.0, -2.0, 0.5]])
    _sum(op(x)).backward()
    assert x.grad.tolist() == [[2.0, 2.0, 2.0]]


def test_take_rows_repeated_indices_scatter_exact_counts():
    x = Tensor(np.zeros((4, 3)))
    _sum(take_rows(x, [2, 0, 2, 3, 2])).backward()
    assert x.grad.tolist() == [[1.0] * 3, [0.0] * 3, [3.0] * 3, [1.0] * 3]


def test_cross_entropy_rejects_bad_label_and_shape():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((1, 4))), 4)
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros((2, 4))), 1)


# ---- leaves and plain operands ----------------------------------------------------


def test_gradient_free_view_shares_the_array():
    # init_adam and grad_check write into parameter arrays in place
    data = np.ones((2, 3))
    assert Tensor(data).data is data


# (name, op over the operands, operand shapes); every primitive appears
_OPS = [
    ("matmul", matmul, [(3, 4), (4, 2)]),
    ("add", add, [(3, 4), (3, 4)]),
    ("linear", linear, [(3, 4), (4, 2), (1, 2)]),
    ("linear_one_row", linear, [(1, 4), (4, 2), (1, 2)]),
    ("mul", mul, [(3, 4), (3, 4)]),
    ("mul_self", lambda a: mul(a, a), [(3, 4)]),
    ("scale", lambda a: scale(a, -1.7), [(3, 4)]),
    ("tanh", tanh, [(3, 4)]),
    ("sigmoid", sigmoid, [(3, 4)]),
    ("relu", relu, [(3, 4)]),
    ("softmax_rows", softmax_rows, [(3, 4)]),
    ("max_rows", max_rows, [(5, 3)]),
    ("mean_rows", mean_rows, [(3, 4)]),
    ("transpose", transpose, [(3, 4)]),
    ("take_rows", lambda a: take_rows(a, [2, 0, 2, 3]), [(4, 3)]),
    ("cross_entropy", lambda a: cross_entropy(a, 3), [(1, 5)]),
    ("squared_error", lambda a: squared_error(a, 0.3), [(1, 1)]),
]


def _grads(op, arrays, weight, free):
    """Grads of the parameters of _sum(op(operands) * weight), where
    operand i is a plain array when free[i] and weight is a parameter."""
    operands = [a if f else Tensor(a) for a, f in zip(arrays, free)]
    w = Tensor(weight)
    _sum(mul(op(*operands), w)).backward()
    return [None if f else t.grad.copy() for t, f in zip(operands, free)], w.grad


@pytest.mark.parametrize("name,op,shapes", _OPS, ids=[c[0] for c in _OPS])
def test_gradient_free_operands_leave_parameter_grads_bit_identical(name, op, shapes):
    rng = np.random.default_rng(len(name))
    arrays = [rng.uniform(-2.0, 2.0, size=s) for s in shapes]
    weight = rng.uniform(0.5, 1.5, size=op(*map(Tensor, arrays)).shape)
    ref_grads, ref_w = _grads(op, arrays, weight, [False] * len(arrays))
    # the losses take a Tensor only, so they skip the all-plain mask
    last = 2 ** len(arrays) - (name in ("cross_entropy", "squared_error"))
    for mask in range(1, last):
        free = [bool(mask >> i & 1) for i in range(len(arrays))]
        grads, w_grad = _grads(op, arrays, weight, free)
        assert w_grad.tobytes() == ref_w.tobytes()
        for g, ref, f in zip(grads, ref_grads, free):
            if not f:
                assert g.tobytes() == ref.tobytes()


# (name, op, operand shapes); each case is run with one operand a plain array
_MIXED = [
    ("matmul", matmul, [(3, 4), (4, 2)]),
    ("add", add, [(3, 4), (3, 4)]),
    ("mul", mul, [(3, 4), (3, 4)]),
    ("linear", linear, [(3, 4), (4, 2), (1, 2)]),
]


@pytest.mark.parametrize("name,op,shapes", _MIXED, ids=[c[0] for c in _MIXED])
def test_plain_operand_is_a_constant_with_the_bits_of_a_gradient_free_leaf(
        name, op, shapes):
    """A plain operand builds no parent, and the value is bit-identical to
    the all-Tensor graph's; the test above checks the grads."""
    rng = np.random.default_rng(len(name) + 100)
    arrays = [rng.uniform(-2.0, 2.0, size=s) for s in shapes]
    ref = op(*map(Tensor, arrays))
    for plain in range(len(arrays)):
        mixed = [a if i == plain else Tensor(a) for i, a in enumerate(arrays)]
        node = op(*mixed)
        assert [p for p, _ in node._parents] == [t for i, t in enumerate(mixed)
                                                 if i != plain]
        assert node.data.tobytes() == ref.data.tobytes()


# ---- lazy interior gradients -----------------------------------------------------


def test_interior_grads_are_made_by_backward_with_the_node_shape():
    w = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
    h = tanh(w)
    total = _sum(h)
    assert h.grad is None and total.grad is None
    total.backward()
    assert h.grad.shape == (3, 4) and h.grad.tolist() == [[1.0] * 4] * 3
    # cross entropy's share is a (k,) row: the grad still takes the node's shape
    row = tanh(Tensor(np.zeros((1, 4))))
    cross_entropy(row, 1).backward()
    assert row.grad.shape == (1, 4)
    assert_allclose(row.grad, [[0.25, -0.75, 0.25, 0.25]], atol=1e-15)


def test_first_share_is_copied_and_negative_zero_becomes_positive():
    w = Tensor(np.ones((2, 2)))
    a, b = tanh(w), relu(w)
    out = add(a, b)
    # identity shares: neither operand may alias the sum's grad or the other's
    _sum(out).backward()
    for x, y in ((a, out), (b, out), (a, b)):
        assert not np.shares_memory(x.grad, y.grad)
    h = tanh(w)
    _sum(mul(h, np.full((2, 2), -0.0))).backward()
    assert not np.signbit(h.grad).any()
