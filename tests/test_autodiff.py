"""Tape engine: per-op gradients against central differences, shape
contracts, and the grad_check harness itself.

The numeric side here is written out longhand (no calls into grad_check) so
the harness and the primitives are verified against each other on two
independent routes.
"""

import numpy as np
import pytest

import flan.autodiff as ad
from flan.autodiff import ShapeError, Tape, Tensor
from flan.rng import Rng


# -- helpers -----------------------------------------------------------------

def randt(rng, shape, scale=1.0, grad=True, away_from=None, margin=0.1):
    """Random tensor; optionally resampled so no entry is near a kink."""
    size = int(np.prod(shape)) if shape else 1
    vals = np.empty(size, dtype=np.float64)
    for i in range(size):
        v = rng.normal(0.0, scale)
        if away_from is not None:
            while abs(v - away_from) < margin:
                v = rng.normal(0.0, scale)
        vals[i] = v
    return Tensor(vals.reshape(shape), requires_grad=grad)


def analytic(loss_fn, params):
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        tape.backward(loss_fn())
    return {
        k: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for k, p in params.items()
    }


def numeric(loss_fn, params, h=1e-4):
    out = {}
    for name, p in params.items():
        grad = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = loss_fn().item()
            flat[i] = keep - h
            lo = loss_fn().item()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * h)
        out[name] = grad
    return out


def check_grads(loss_fn, params, rtol=1e-5, atol=1e-8):
    got = analytic(loss_fn, params)
    want = numeric(loss_fn, params)
    for name in params:
        np.testing.assert_allclose(
            got[name], want[name], rtol=rtol, atol=atol, err_msg=name
        )


def weighted_sum(t, weights):
    return ad.sum_(ad.mul(t, weights))


# -- analytic examples ---------------------------------------------------------

def test_sigmoid_at_zero():
    assert ad.logistic(np.array([0.0]))[0] == 0.5


def test_sigmoid_extremes_are_stable():
    out = ad.logistic(np.array([-800.0, 800.0]))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(1.0, abs=1e-12)
    # bit for bit the two-branch form, special values included
    d = np.array([-800.0, 800.0, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                  1e-320, -1e-320, -3.5, 2.25, 1e-3, -40.0])
    two_branch = np.empty_like(d)
    pos = d >= 0
    two_branch[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    two_branch[~pos] = ex / (1.0 + ex)
    assert ad.logistic(d).tobytes() == two_branch.tobytes()


def test_grad_of_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


# -- tensor semantics ------------------------------------------------------------

def test_tensor_copies_input_by_default():
    src = np.ones(3)
    t = Tensor(src)
    src[0] = 99.0
    assert t.data[0] == 1.0


def test_tensor_item_and_shapes():
    t = Tensor([[1.0, 2.0]])
    assert t.shape == (1, 2) and t.ndim == 2
    assert Tensor(5.0).item() == 5.0
    with pytest.raises(ValueError):
        t.item()


def test_ops_outside_tape_do_not_track():
    x = Tensor([1.0], requires_grad=True)
    y = ad.mul(x, x)
    assert not y.requires_grad and y.grad is None


def test_ops_on_non_grad_inputs_record_nothing():
    with Tape() as tape:
        ad.add(Tensor([1.0]), Tensor([2.0]))
        assert len(tape) == 0


def test_grad_flows_only_to_requires_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0])
    with Tape() as tape:
        tape.backward(ad.sum_(ad.mul(x, y)))
    np.testing.assert_allclose(x.grad, [3.0, 4.0])
    assert y.grad is None


def test_backward_writes_grad_only_on_leaves():
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, -1.0], requires_grad=True)
    with Tape() as tape:
        h = ad.mul(x, w)
        y = ad.add(h, x)
        loss = ad.sum_(ad.mul(y, y))
        tape.backward(loss)
    assert h.grad is None and y.grad is None and loss.grad is None
    # loss = sum((x w + x)^2): dx = 2 y (w + 1), dw = 2 y x
    y_val = np.array([4.0, 0.0])
    np.testing.assert_array_equal(x.grad, 2.0 * y_val * np.array([4.0, 0.0]))
    np.testing.assert_array_equal(w.grad, 2.0 * y_val * np.array([1.0, 2.0]))


def test_reused_tensor_accumulates():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_(ad.add(x, x)))
    np.testing.assert_allclose(x.grad, [2.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_nested_tapes_are_isolated():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as outer:
        ad.mul(x, x)
        with Tape() as inner:
            inner.backward(ad.sum_(ad.mul(x, x)))
        inner_grad = x.grad.copy()
        assert len(outer) == 1
    np.testing.assert_allclose(inner_grad, [6.0])


def test_backward_is_bit_deterministic():
    rng = Rng(77)
    x = randt(rng, (4, 3))
    w = randt(rng, (3, 3))

    def run():
        x.grad = None
        w.grad = None
        with Tape() as tape:
            h = ad.relu(ad.matmul(x, w))
            centred = ad.sub(h, ad.broadcast(ad.mean(h, axis=-1, keepdims=True), h.shape))
            tape.backward(ad.sum_(ad.mul(centred, h)))
        return x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


# -- shape contract errors ----------------------------------------------------------

def test_elementwise_shape_errors():
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        # size-1 stretching must go through broadcast()
        ad.mul(Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 3))))
    ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))  # suffix ok


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 2))))


def test_misc_shape_errors():
    with pytest.raises(ShapeError):
        ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)
    with pytest.raises(ShapeError):
        ad.concat([], axis=0)
    with pytest.raises(ShapeError):
        ad.take(Tensor(np.zeros((4, 2))), [[0, 1]])
    with pytest.raises(ShapeError):
        ad.take(Tensor(np.zeros((4, 2))), [0, 4])
    with pytest.raises(ShapeError):
        ad.broadcast(Tensor(np.zeros((2, 3))), (3,))
    with pytest.raises(ShapeError):
        ad.broadcast(Tensor(np.zeros((2, 3))), (2, 4))


# -- per-op finite differences --------------------------------------------------------

def test_grad_add_sub_equal_shapes():
    rng = Rng(1)
    a, b = randt(rng, (3, 4)), randt(rng, (3, 4))
    w = randt(rng, (3, 4), grad=False)
    check_grads(lambda: weighted_sum(ad.add(a, b), w), {"a": a, "b": b})
    check_grads(lambda: weighted_sum(ad.sub(a, b), w), {"a": a, "b": b})


def test_grad_add_mul_suffix_bias():
    rng = Rng(2)
    x = randt(rng, (4, 3))
    bias = randt(rng, (3,))
    w = randt(rng, (4, 3), grad=False)
    check_grads(lambda: weighted_sum(ad.add(x, bias), w), {"x": x, "b": bias})
    check_grads(lambda: weighted_sum(ad.mul(x, bias), w), {"x": x, "b": bias})


def test_grad_scale_shift():
    rng = Rng(3)
    x = randt(rng, (5,))
    w = randt(rng, (5,), grad=False)
    check_grads(lambda: weighted_sum(ad.shift(ad.scale(x, -2.5), 0.7), w), {"x": x})


def test_grad_matmul_2d():
    rng = Rng(4)
    a, b = randt(rng, (3, 4)), randt(rng, (4, 2))
    w = randt(rng, (3, 2), grad=False)
    check_grads(lambda: weighted_sum(ad.matmul(a, b), w), {"a": a, "b": b})


def test_grad_matmul_batched():
    rng = Rng(5)
    a, b = randt(rng, (2, 3, 4)), randt(rng, (2, 4, 2))
    w = randt(rng, (2, 3, 2), grad=False)
    check_grads(lambda: weighted_sum(ad.matmul(a, b), w), {"a": a, "b": b})


def test_grad_matmul_batched_times_shared():
    rng = Rng(6)
    a, b = randt(rng, (2, 3, 4)), randt(rng, (4, 5))
    w = randt(rng, (2, 3, 5), grad=False)
    check_grads(lambda: weighted_sum(ad.matmul(a, b), w), {"a": a, "b": b})
    c = randt(rng, (3, 2))
    d = randt(rng, (4, 2, 5))
    w2 = randt(rng, (4, 3, 5), grad=False)
    check_grads(lambda: weighted_sum(ad.matmul(c, d), w2), {"c": c, "d": d})


def test_grad_reshape():
    rng = Rng(7)
    x = randt(rng, (2, 3, 4))
    w = randt(rng, (6, 4), grad=False)
    check_grads(lambda: weighted_sum(ad.reshape(x, (6, 4)), w), {"x": x})


def test_grad_concat_and_slice():
    rng = Rng(8)
    parts = [randt(rng, (2, d)) for d in (1, 3, 2)]
    w = randt(rng, (2, 6), grad=False)
    check_grads(
        lambda: weighted_sum(ad.concat(parts, axis=-1), w),
        {f"p{i}": p for i, p in enumerate(parts)},
    )
    rows = [randt(rng, (2, 3)), randt(rng, (1, 3))]
    w3 = randt(rng, (3, 3), grad=False)
    check_grads(
        lambda: weighted_sum(ad.concat(rows, axis=0), w3),
        {"r0": rows[0], "r1": rows[1]},
    )
    # the backward slices the output gradient back into the parts
    with Tape() as tape:
        tape.backward(weighted_sum(ad.concat(rows, axis=0), w3))
    np.testing.assert_array_equal(rows[0].grad, w3.data[:2])
    np.testing.assert_array_equal(rows[1].grad, w3.data[2:])


def test_grad_take_with_duplicate_rows():
    rng = Rng(9)
    table = randt(rng, (5, 3))
    idx = [0, 2, 2, 4, 0]
    w = randt(rng, (5, 3), grad=False)
    check_grads(lambda: weighted_sum(ad.take(table, idx), w), {"t": table})


def test_grad_broadcast_variants():
    rng = Rng(10)
    v = randt(rng, (3,))
    w = randt(rng, (4, 3), grad=False)
    check_grads(lambda: weighted_sum(ad.broadcast(v, (4, 3)), w), {"v": v})
    col = randt(rng, (4, 1))
    check_grads(lambda: weighted_sum(ad.broadcast(col, (4, 3)), w), {"c": col})
    both = randt(rng, (1, 3))
    w2 = randt(rng, (2, 5, 3), grad=False)
    check_grads(lambda: weighted_sum(ad.broadcast(both, (2, 5, 3)), w2), {"b": both})


def test_grad_reductions():
    rng = Rng(11)
    x = randt(rng, (3, 4))
    check_grads(lambda: ad.sum_(x), {"x": x})
    check_grads(lambda: ad.mean(x), {"x": x})
    w = randt(rng, (4,), grad=False)
    check_grads(lambda: weighted_sum(ad.sum_(x, axis=0), w), {"x": x})
    w2 = randt(rng, (3,), grad=False)
    check_grads(lambda: weighted_sum(ad.mean(x, axis=1), w2), {"x": x})
    w3 = randt(rng, (3, 1), grad=False)
    check_grads(
        lambda: weighted_sum(ad.sum_(x, axis=1, keepdims=True), w3), {"x": x}
    )


def test_grad_activations():
    rng = Rng(12)
    x = randt(rng, (3, 4), away_from=0.0)
    w = randt(rng, (3, 4), grad=False)
    check_grads(lambda: weighted_sum(ad.relu(x), w), {"x": x})
    np.testing.assert_array_equal(ad.relu(Tensor([-2.0, 3.0])).data, [0.0, 3.0])


def test_grad_composite_chain():
    # one deep chain mixing most primitives, as the predictor does
    rng = Rng(16)
    x = randt(rng, (4, 3))
    w1 = randt(rng, (3, 6))
    b1 = randt(rng, (6,))
    gamma = randt(rng, (6,))
    beta = randt(rng, (6,))
    table = randt(rng, (5, 6))

    def loss():
        h = ad.add(ad.matmul(x, w1), b1)
        h = ad.relu(ad.shift(h, 0.1))
        h = ad.add(ad.mul(h, gamma), beta)
        e = ad.take(table, [1, 1, 0, 3])
        h = ad.sub(ad.mul(h, e), ad.scale(h, 0.5))
        h = ad.concat([h, ad.reshape(e, (4, 6))], axis=-1)
        return ad.mean(ad.mul(h, h))

    check_grads(
        loss,
        {"x": x, "w1": w1, "b1": b1, "gamma": gamma, "beta": beta, "table": table},
    )


# -- grad_check harness -----------------------------------------------------------------

def test_grad_check_quadratic_is_tight():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    report = ad.grad_check(lambda: ad.sum_(ad.mul(x, x)), {"x": x})
    assert report.max_rel_err < 1e-6
    assert report.ok(rel_tol=1e-6)


def test_grad_check_flags_saturation_as_near_zero():
    x = Tensor([-20.0, -3.0], requires_grad=True)
    report = ad.grad_check(lambda: ad.sum_(ad.relu(x)), {"x": x})
    (block,) = report.blocks
    assert block.near_zero_entries == 2
    assert block.checked_entries == 0
    assert report.ok(rel_tol=1e-5)


def test_grad_check_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        ad.grad_check(lambda: ad.mul(x, x), {"x": x})


def test_grad_check_entry_subsampling():
    x = Tensor(np.arange(1.0, 21.0), requires_grad=True)
    report = ad.grad_check(
        lambda: ad.sum_(ad.mul(x, x)), {"x": x}, max_entries_per_block=5, seed=3
    )
    (block,) = report.blocks
    assert block.checked_entries + block.near_zero_entries == 5


def test_grad_check_catches_wrong_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)

    def bad():
        # forward 3x, but a backward claiming 2 (scale's true grad is exact,
        # so fake it through a hand-rolled emit)
        def backward(g):
            return (np.full_like(x.data, 2.0) * g,)

        arr = 3.0 * x.data
        out = Tensor(arr, requires_grad=True, copy=False)
        tape = ad.active_tape()
        if tape is not None:  # finite-difference evaluations run tapeless
            tape.record(out, (x,), backward)
        return ad.sum_(out)

    report = ad.grad_check(bad, {"x": x})
    assert report.max_rel_err > 0.3
    assert not report.ok(rel_tol=1e-4)


# -- checked mode ----------------------------------------------------------------------

def test_checked_mode_traps_nonfinite():
    with np.errstate(over="ignore"):
        ad.set_checked(True)
        try:
            big = Tensor([1e308])
            with pytest.raises(FloatingPointError):
                ad.mul(big, big)
        finally:
            ad.set_checked(False)
        out = ad.mul(Tensor([1e308]), Tensor([1e308]))
    assert np.isinf(out.data[0])


def test_checked_mode_flag_roundtrip():
    before = ad.checked_mode()
    ad.set_checked(not before)
    assert ad.checked_mode() == (not before)
    ad.set_checked(before)
