"""Forward values, adjoints, and the finite-difference oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wsdmil.autodiff import (
    GradCheckError,
    ShapeError,
    Tensor,
    concat_rows,
    cross_entropy,
    grad_check,
    squared_error,
    take_rows,
)


def test_matmul_of_ones():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 1)))
    assert_allclose((a @ b).data, np.full((2, 1), 3.0))


def test_softmax_of_zeros_is_uniform():
    s = Tensor(np.zeros((1, 3))).softmax_rows()
    assert_allclose(s.data, np.full((1, 3), 1.0 / 3.0))


def test_tanh_of_zero_is_zero():
    assert_allclose(Tensor(np.zeros((2, 2))).tanh().data, np.zeros((2, 2)))


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-6, 6, size=(7, 5)))
    s = x.softmax_rows()
    assert np.abs(s.data.sum(axis=1) - 1.0).max() < 1e-12
    assert (s.data > 0).all()


def test_sum_backward_is_ones():
    x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
    x.sum().backward()
    assert_allclose(x.grad, np.ones((3, 4)))


def test_dot_with_self_gradient_is_2x():
    x = Tensor([[1.0, 2.0]])
    (x * x).sum().backward()
    assert_allclose(x.grad, [[2.0, 4.0]])


def test_cross_entropy_gradient_of_uniform_logits():
    logits = Tensor(np.zeros((1, 4)))
    cross_entropy(logits, 2).backward()
    assert_allclose(logits.grad, [[0.25, 0.25, -0.75, 0.25]], atol=1e-15)


def test_cross_entropy_value_matches_logsumexp():
    rng = np.random.default_rng(2)
    row = rng.uniform(-3, 3, size=4)
    loss = cross_entropy(Tensor(row), 1)
    expected = np.log(np.exp(row).sum()) - row[1]
    assert_allclose(loss.data[0, 0], expected, rtol=1e-12)


def test_max_rows_ties_route_gradient_to_first_row():
    x = Tensor(np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 3.0]]))
    x.max_rows().sum().backward()
    assert_allclose(x.grad, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_forward_is_deterministic():
    x = np.random.default_rng(3).normal(size=(4, 4))
    a = (Tensor(x).tanh() @ Tensor(x)).softmax_rows()
    b = (Tensor(x).tanh() @ Tensor(x)).softmax_rows()
    assert a.data.tobytes() == b.data.tobytes()


def test_scalar_mul_and_broadcast_add():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    row = Tensor([[1.0, 2.0, 3.0]])
    out = (x + row).scale(2.0)
    assert_allclose(out.data, (np.arange(6.0).reshape(2, 3) + [1, 2, 3]) * 2)
    out.sum().backward()
    assert_allclose(x.grad, np.full((2, 3), 2.0))
    assert_allclose(row.grad, [[4.0, 4.0, 4.0]])


def test_shape_errors_name_the_primitive():
    with pytest.raises(ShapeError, match="matmul"):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="add"):
        Tensor(np.ones((2, 3))) + Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="backward"):
        Tensor(np.ones((2, 2))).backward()
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2, 2)))
    with pytest.raises(ShapeError, match="concat_rows"):
        concat_rows([Tensor(np.ones((1, 2))), Tensor(np.ones((1, 3)))])
    with pytest.raises(ShapeError, match="take_rows"):
        take_rows(Tensor(np.ones((2, 2))), [0, 5])


def _contract(out: Tensor, seed: int) -> Tensor:
    """Reduce any output to a scalar with a fixed random weighting."""
    c = Tensor(np.random.default_rng(seed).uniform(0.5, 1.5, size=out.shape))
    return (out * c).sum()


# Closures exercising every primitive; inputs stay in [-2, 2] and clear of
# relu kinks and max ties so central differences are valid.
def _primitive_cases():
    rng = np.random.default_rng(42)

    def mk(shape, lo=-2.0, hi=2.0):
        return Tensor(rng.uniform(lo, hi, size=shape))

    a, b = mk((3, 4)), mk((3, 4))
    m1, m2 = mk((3, 4)), mk((4, 2))
    row = mk((1, 4))
    safe = Tensor(np.sign(rng.normal(size=(3, 4))) * rng.uniform(0.25, 2.0, (3, 4)))
    margins = mk((5, 3))
    margins.data[np.argmax(margins.data, axis=0), np.arange(3)] += 0.5
    logits = mk((1, 5))
    pred = mk((1, 1))
    c1, c2, c3 = mk((2, 3)), mk((1, 3)), mk((3, 3))
    gather = mk((4, 3))

    return [
        ("matmul", [m1, m2], lambda: _contract(m1 @ m2, 1)),
        ("add", [a, b], lambda: _contract(a + b, 2)),
        ("add_row_broadcast", [a, row], lambda: _contract(a + row, 3)),
        ("mul", [a, b], lambda: _contract(a * b, 5)),
        ("scale", [a], lambda: _contract(a.scale(-1.7), 6)),
        ("tanh", [a], lambda: _contract(a.tanh(), 7)),
        ("sigmoid", [a], lambda: _contract(a.sigmoid(), 8)),
        ("relu", [safe], lambda: _contract(safe.relu(), 9)),
        ("softmax_rows", [a], lambda: _contract(a.softmax_rows(), 11)),
        ("max_rows", [margins], lambda: _contract(margins.max_rows(), 12)),
        ("mean_rows", [a], lambda: _contract(a.mean_rows(), 13)),
        ("sum", [a], lambda: a.sum()),
        ("transpose", [a], lambda: _contract(a.transpose(), 14)),
        ("concat_rows", [c1, c2, c3],
         lambda: _contract(concat_rows([c1, c2, c3]), 15)),
        ("take_rows", [gather],
         lambda: _contract(take_rows(gather, [2, 0, 2, 3]), 16)),
        ("cross_entropy", [logits], lambda: cross_entropy(logits, 3)),
        ("squared_error", [pred], lambda: squared_error(pred, 0.3)),
    ]


@pytest.mark.parametrize("name,params,loss_fn", _primitive_cases(),
                         ids=[c[0] for c in _primitive_cases()])
def test_primitive_gradients_match_central_differences(name, params, loss_fn):
    report = grad_check(loss_fn, params, epsilon=1e-5, tolerance=1e-6)
    assert report.passed, f"{name}: max rel error {report.max_rel_error:.3e}"


def test_grad_check_linear_mse_model():
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(1, 6)), name="w")
    x = Tensor(rng.normal(size=(1, 6)))

    report = grad_check(lambda: squared_error((w * x).sum(), 1.25), [w], epsilon=1e-5)
    assert report.max_rel_error < 1e-7


def test_grad_check_constant_loss():
    p = Tensor(np.ones((2, 2)), name="p")
    report = grad_check(lambda: Tensor([[3.0]]), [p])
    assert report.max_rel_error == 0.0


def test_grad_check_rejects_non_finite_loss():
    p = Tensor(np.ones((1, 1)), name="p")
    with pytest.raises(GradCheckError):
        grad_check(lambda: Tensor([[np.nan]]), [p])


def test_gradients_accumulate_across_backward_calls():
    x = Tensor([[1.0, 2.0]])
    x.sum().backward()
    x.sum().backward()
    assert_allclose(x.grad, [[2.0, 2.0]])


def test_cross_entropy_rejects_bad_label_and_shape():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((1, 4))), 4)
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros((2, 4))), 1)
