"""Tape engine: tape mechanics, the generic ops and the shared backward
helpers against central differences, shape contracts, and the grad_check
harness itself (tests/gradcheck.py).

The predictor's stages record themselves through ``emit``, so the tape is
exercised here through a few test-local ops built the same way.  The
numeric side is written out longhand (no calls into grad_check) so the
harness and the primitives are verified against each other on two
independent routes.
"""

import weakref

import numpy as np
import pytest

import flan.autodiff as ad
from flan.autodiff import ShapeError, Tape, Tensor
from flan.rng import Rng

from conftest import weighted_sum
from gradcheck import grad_check


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


def op(arr, inputs, backward):
    """A test-local tape op: arr, recorded with a written-out backward."""
    return ad.emit("test_op", arr, inputs, backward)


def mul(a, b):
    """Elementwise product of two equal shapes."""
    return op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(x, factor):
    """x * factor, recorded under the name "scale"."""
    return ad.emit("scale", x.data * factor, (x,), lambda g: (g * factor,))


def total(x):
    return op(np.asarray(np.sum(x.data)), (x,),
              lambda g: (np.full(x.shape, float(g)),))


def matmul(a, b):
    """a @ b through the shared matmul_grads backward."""
    return op(np.matmul(a.data, b.data), (a, b),
              lambda g: ad.matmul_grads(a.data, b.data, g))


def add_bias(x, b):
    """x + b for a trailing-suffix b, through the shared suffix_reduce."""
    return op(x.data + b.data, (x, b), lambda g: (g, ad.suffix_reduce(g, b.shape)))


def mul_gain(x, b):
    """x * b for a trailing-suffix b, as a layer-norm gain is applied."""
    return op(x.data * b.data, (x, b),
              lambda g: (g * b.data, ad.suffix_reduce(g * x.data, b.shape)))


# -- analytic examples ---------------------------------------------------------

def test_sigmoid_at_zero():
    assert ad.logistic(np.array([0.0]))[0] == 0.5


def test_sigmoid_extremes_are_stable():
    out = ad.logistic(np.array([-800.0, 800.0]))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(1.0, abs=1e-12)
    # bit for bit the two-branch form, on special values and on a seeded
    # random array whose magnitudes span from subnormal to past exp's range
    special = np.array([-800.0, 800.0, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        1e-320, -1e-320, -3.5, 2.25, 1e-3, -40.0])
    rng = np.random.default_rng(11)
    noise = rng.standard_normal((64, 7, 16)) * np.exp2(rng.uniform(-1070, 11, (64, 7, 16)))
    for d in (special, noise):
        two_branch = np.empty_like(d)
        pos = d >= 0
        two_branch[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
        ex = np.exp(d[~pos])
        two_branch[~pos] = ex / (1.0 + ex)
        assert ad.logistic(d).tobytes() == two_branch.tobytes()


@pytest.mark.parametrize("batch", [1, 2, 16, 64])
def test_fold_matmul_gives_the_bytes_of_batched_matmul(batch):
    # one GEMM over the folded rows sums each entry as the per-batch GEMMs
    # do; a one-column product stays per batch, since folded GEMV sums differ
    rng = np.random.default_rng(batch)
    for n in (3, 7):
        for k in (8, 48, 128):
            x = rng.standard_normal((batch, n, k))
            for m in (1, 4, 16, 128):
                w = rng.standard_normal((k, m))
                assert ad.fold_matmul(x, w).tobytes() == np.matmul(x, w).tobytes()
            assert ad.fold_matmul(x[0], w).tobytes() == np.matmul(x[0], w).tobytes()


@pytest.mark.parametrize("batch", [1, 2, 16, 64])
def test_matmul_grads_folds_a_2d_weight_into_one_gemm(batch):
    # the folded GEMMs sum in another order than per-batch products plus a
    # batch-axis sum, so they agree to rounding, not to the byte; the bound
    # is relative to the sum of the terms' magnitudes, since an entry whose
    # terms cancel carries the rounding of the large terms
    def close(got, x, y, batch_sum):
        want, bound = np.matmul(x, y), np.matmul(np.abs(x), np.abs(y))
        if batch_sum:
            want, bound = want.sum(axis=0), bound.sum(axis=0)
        return np.all(np.abs(got - want) <= 1e-12 * bound)

    rng = np.random.default_rng(100 + batch)
    for n in (3, 7):
        for k in (8, 48, 128):
            a = rng.standard_normal((batch, n, k))
            for m in (1, 4, 128):
                b = rng.standard_normal((k, m))
                g = rng.standard_normal((batch, n, m))
                ga, gb = ad.matmul_grads(a, b, g)
                assert ga.shape == a.shape and gb.shape == b.shape
                assert close(ga, g, b.T, batch_sum=False)
                assert close(gb, np.swapaxes(a, -1, -2), g, batch_sum=True)


def test_matmul_grads_one_column_weight_gives_the_gemm_bytes():
    # a one-column weight's input gradient is an outer product, computed as a
    # broadcast multiply; the GEMM it replaces gives +0.0 where the product
    # is -0.0, so signed zeros in either factor must come out as the GEMM's
    rng = np.random.default_rng(21)
    for lead in ((5,), (2, 7), (16, 7), (64, 7)):
        for k in (1, 8, 128):
            a = rng.standard_normal(lead + (k,))
            b = rng.standard_normal((k, 1))
            g = rng.standard_normal(lead + (1,))
            b[::3] = -0.0
            b[1::5] = 0.0
            g.reshape(-1)[::4] = -0.0
            g.reshape(-1)[1::6] = 0.0
            ga, gb = ad.matmul_grads(a, b, g)
            want = (g.reshape(-1, 1) @ b.T).reshape(a.shape)
            assert ga.tobytes() == want.tobytes()
            assert gb.tobytes() == (a.reshape(-1, k).T @ g.reshape(-1, 1)).tobytes()


def test_grad_of_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(total(mul(x, x)))
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
    y = ad.add(x, x)
    assert not y.requires_grad and y.grad is None


def test_ops_on_non_grad_inputs_record_nothing():
    with Tape() as tape:
        ad.add(Tensor([1.0]), Tensor([2.0]))
        assert len(tape) == 0


def test_grad_flows_only_to_requires_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0])
    with Tape() as tape:
        tape.backward(total(mul(x, y)))
    np.testing.assert_allclose(x.grad, [3.0, 4.0])
    assert y.grad is None


def test_backward_writes_grad_only_on_leaves():
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, -1.0], requires_grad=True)
    with Tape() as tape:
        h = mul(x, w)
        y = ad.add(h, x)
        loss = total(mul(y, y))
        tape.backward(loss)
    assert h.grad is None and y.grad is None and loss.grad is None
    # loss = sum((x w + x)^2): dx = 2 y (w + 1), dw = 2 y x
    y_val = np.array([4.0, 0.0])
    np.testing.assert_array_equal(x.grad, 2.0 * y_val * np.array([4.0, 0.0]))
    np.testing.assert_array_equal(w.grad, 2.0 * y_val * np.array([1.0, 2.0]))


def test_backward_into_writes_leaf_gradients_in_place():
    # a leaf handed a preallocated array gets its gradient written there, with
    # the bytes of the fresh .grad a plain backward gives; other leaves and
    # the non-leaves keep the plain behaviour
    rng = Rng(78)
    x, w, b = randt(rng, (4, 3)), randt(rng, (3, 3)), randt(rng, (4, 3))

    def run(into=None):
        for t in (x, w, b):
            t.grad = None
        with Tape() as tape:
            h = matmul(x, w)
            y = ad.add(ad.add(h, x), scale(ad.take(x, [1, 0, 3, 2]), -1.0))
            tape.backward(total(mul(mul(y, b), h)), into=into)
        assert h.grad is None and y.grad is None
        return x.grad, w.grad, b.grad

    want = [g.tobytes() for g in run()]
    flat = np.full(21, np.nan)
    into = {x: flat[:12].reshape(4, 3), w: flat[12:].reshape(3, 3)}
    got = run(into)
    assert got[0] is into[x] and got[1] is into[w]
    assert [g.tobytes() for g in got] == want


def test_backward_drops_an_intermediate_gradient_once_its_record_has_used_it():
    x = Tensor([1.0, 2.0], requires_grad=True)
    refs, dead = [], []

    def first(g):
        refs.append(weakref.ref(g))
        return (g * 2.0,)

    def second(g):
        # the record above replayed before this one: nothing holds its gradient
        dead.append(refs[0]() is None)
        return (g * 3.0,)

    with Tape() as tape:
        h = op(x.data * 3.0, (x,), second)
        y = op(h.data * 2.0, (h,), first)
        tape.backward(total(y))
    assert dead == [True]
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])


def test_reused_tensor_accumulates():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(total(ad.add(x, x)))
    np.testing.assert_allclose(x.grad, [2.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.add(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_nested_tapes_are_isolated():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as outer:
        mul(x, x)
        with Tape() as inner:
            inner.backward(total(mul(x, x)))
        inner_grad = x.grad.copy()
        assert len(outer) == 1
    np.testing.assert_allclose(inner_grad, [6.0])


def test_no_tape_suspends_the_active_tape():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as outer:
        with ad.no_tape():
            assert ad.active_tape() is None
            assert not mul(x, x).requires_grad
            with Tape() as inner:
                mul(x, x)
            assert ad.active_tape() is None
        assert ad.active_tape() is outer
        assert len(outer) == 0 and len(inner) == 1


def test_backward_is_bit_deterministic():
    rng = Rng(77)
    x = randt(rng, (4, 3))
    w = randt(rng, (3, 3))

    def run():
        x.grad = None
        w.grad = None
        with Tape() as tape:
            h = matmul(x, w)
            centred = ad.add(h, scale(ad.take(h, [1, 0, 3, 2]), -1.0))
            tape.backward(total(mul(centred, h)))
        return x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


# -- shape contract errors ----------------------------------------------------------

def test_elementwise_shape_errors():
    # add joins equal shapes only: no suffix alignment, no size-1 stretching
    for other in ((3, 2), (3,), (2, 1), (1, 2, 3)):
        with pytest.raises(ShapeError, match="differ"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(other)))
    assert ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))).data.sum() == 12.0


def test_misc_shape_errors():
    with pytest.raises(ShapeError):
        ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)
    with pytest.raises(ShapeError):
        ad.concat([], axis=0)
    with pytest.raises(ShapeError):
        ad.take(Tensor(np.zeros((4, 2))), [[0, 1]])
    with pytest.raises(ShapeError):
        ad.take(Tensor(np.zeros((4, 2))), [0, 4])


# -- per-op finite differences --------------------------------------------------------

def test_grad_add_sub_equal_shapes():
    rng = Rng(1)
    a, b = randt(rng, (3, 4)), randt(rng, (3, 4))
    w = randt(rng, (3, 4), grad=False)
    check_grads(lambda: weighted_sum(ad.add(a, b), w), {"a": a, "b": b})
    check_grads(lambda: weighted_sum(ad.add(a, scale(b, -1.0)), w), {"a": a, "b": b})


def test_grad_add_mul_suffix_bias():
    # suffix_reduce sums a bias or gain gradient over one or two leading axes
    rng = Rng(2)
    bias = randt(rng, (3,))
    for lead in ((4,), (2, 4)):
        x = randt(rng, lead + (3,))
        w = randt(rng, lead + (3,), grad=False)
        check_grads(lambda: weighted_sum(add_bias(x, bias), w), {"x": x, "b": bias})
        check_grads(lambda: weighted_sum(mul_gain(x, bias), w), {"x": x, "b": bias})


def test_grad_scale_shift():
    rng = Rng(3)
    x = randt(rng, (5,))
    w = randt(rng, (5,), grad=False)
    offset = Tensor(np.full(5, 0.7))
    check_grads(lambda: weighted_sum(ad.add(scale(x, -2.5), offset), w), {"x": x})


def test_grad_matmul_2d():
    rng = Rng(4)
    a, b = randt(rng, (3, 4)), randt(rng, (4, 2))
    w = randt(rng, (3, 2), grad=False)
    check_grads(lambda: weighted_sum(matmul(a, b), w), {"a": a, "b": b})


def test_grad_matmul_batched():
    rng = Rng(5)
    a, b = randt(rng, (2, 3, 4)), randt(rng, (2, 4, 2))
    w = randt(rng, (2, 3, 2), grad=False)
    check_grads(lambda: weighted_sum(matmul(a, b), w), {"a": a, "b": b})


def test_grad_matmul_batched_times_shared():
    rng = Rng(6)
    a, b = randt(rng, (2, 3, 4)), randt(rng, (4, 5))
    w = randt(rng, (2, 3, 5), grad=False)
    check_grads(lambda: weighted_sum(matmul(a, b), w), {"a": a, "b": b})
    c = randt(rng, (3, 2))
    d = randt(rng, (4, 2, 5))
    w2 = randt(rng, (4, 3, 5), grad=False)
    check_grads(lambda: weighted_sum(matmul(c, d), w2), {"c": c, "d": d})


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


def test_grad_composite_chain():
    # one deep chain mixing every generic op with local stage-style ops
    rng = Rng(16)
    x = randt(rng, (4, 3))
    w1 = randt(rng, (3, 6))
    b1 = randt(rng, (6,))
    gamma = randt(rng, (6,))
    beta = randt(rng, (6,))
    table = randt(rng, (5, 6))

    def loss():
        h = add_bias(matmul(x, w1), b1)
        h = add_bias(mul_gain(h, gamma), beta)
        e = ad.take(table, [1, 1, 0, 3])
        h = ad.add(mul(h, e), scale(h, -0.5))
        h = ad.concat([h, ad.reshape(e, (4, 6))], axis=-1)
        return total(mul(h, h))

    check_grads(
        loss,
        {"x": x, "w1": w1, "b1": b1, "gamma": gamma, "beta": beta, "table": table},
    )


# -- grad_check harness -----------------------------------------------------------------

def test_grad_check_quadratic_is_tight():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    report = grad_check(lambda: total(mul(x, x)), {"x": x})
    assert report.max_rel_err < 1e-6
    assert report.ok(rel_tol=1e-6)


def test_grad_check_flags_saturation_as_near_zero():
    x = Tensor([-20.0, -30.0], requires_grad=True)

    def squashed():
        s = ad.logistic(x.data)
        return total(op(s, (x,), lambda g: (g * s * (1.0 - s),)))

    report = grad_check(squashed, {"x": x})
    (block,) = report.blocks
    assert block.near_zero_entries == 2
    assert block.checked_entries == 0
    assert report.ok(rel_tol=1e-5)


def test_grad_check_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        grad_check(lambda: ad.add(x, x), {"x": x})


def test_grad_check_entry_subsampling():
    x = Tensor(np.arange(1.0, 21.0), requires_grad=True)
    report = grad_check(
        lambda: total(mul(x, x)), {"x": x}, max_entries_per_block=5, seed=3
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

        return total(ad.emit("bad", 3.0 * x.data, (x,), backward))

    report = grad_check(bad, {"x": x})
    assert report.max_rel_err > 0.3
    assert not report.ok(rel_tol=1e-4)


# -- locating a non-finite value --------------------------------------------------------

def test_first_nonfinite_names_the_earliest_overflowing_record():
    x = Tensor([1e308, 1.0], requires_grad=True)
    with Tape() as tape:
        assert tape.first_nonfinite() is None
        y = scale(x, 0.5)
        assert tape.first_nonfinite() is None
        with np.errstate(over="ignore"):
            z = ad.add(scale(y, 4.0), y)
        ad.reshape(z, (2, 1))
        assert np.isinf(z.data[0])
        assert tape.first_nonfinite() == "scale"
