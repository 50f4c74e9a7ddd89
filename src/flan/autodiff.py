"""Minimal reverse-mode differentiation over dense float64 arrays.

Scope is exactly what the predictor needs: matmul (2-d and batched 3-d),
elementwise add/multiply with suffix-aligned shapes, an explicit broadcast
primitive, activations, softmax, layer norm, transpose/reshape/concat/slice,
gather (take), and sum/mean reductions.  Everything is float64; there is no
implicit dtype promotion and no implicit size-1 stretching: two shapes
combine only when equal or when one is a trailing suffix of the other, and
anything else must go through ``broadcast`` so shape bugs fail loudly.

Recording: ops push onto the innermost active ``Tape`` (a thread-local
stack) whenever some input requires grad.  Without an active tape the same
functions run as plain numpy, which is the scoring fast path.  Backward
replays records in reverse creation order with no other ordering rule, so
gradient accumulation is deterministic; only leaves (tensors no record
produced) get ``.grad``.

Set ``FLAN_CHECKED=1`` (or call ``set_checked``) to assert every op output
is finite; useful when chasing a diverging run, off by default.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng


class ShapeError(ValueError):
    """Operands do not satisfy an op's shape contract."""


_STATE = threading.local()

_checked = os.environ.get("FLAN_CHECKED", "").strip().lower() in ("1", "true", "yes", "on")


def set_checked(flag: bool) -> None:
    global _checked
    _checked = bool(flag)


def checked_mode() -> bool:
    return _checked


def _tape_stack() -> list:
    stack = getattr(_STATE, "tapes", None)
    if stack is None:
        stack = []
        _STATE.tapes = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A float64 array plus grad bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, copy: bool = True):
        arr = np.array(data, dtype=np.float64, copy=copy)
        if not copy and arr.base is not None and not arr.flags.writeable:
            arr = arr.copy()
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(arr: np.ndarray) -> Tensor:
    return Tensor(arr, requires_grad=False, copy=False)


class Tape:
    """Wengert list; use as a context manager around the forward pass."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        top = _tape_stack().pop()
        if top is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("tape context exited out of order")

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward) -> None:
        self._records.append((out, inputs, backward))

    def backward(self, loss: Tensor) -> None:
        """Write gradients of loss into .grad of the leaves.

        loss must be scalar-sized.  A leaf is a tensor that no record on this
        tape produced; every leaf with requires_grad on a path to the loss
        gets its gradient, and every other tensor keeps grad None.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        alive: dict[int, Tensor] = {id(loss): loss}
        for out, inputs, backward_fn in reversed(self._records):
            if id(out) not in grads:  # off the path to the loss
                continue
            contribs = backward_fn(grads[id(out)])
            for t, c in zip(inputs, contribs):
                if c is None or not t.requires_grad:
                    continue
                if c.shape != t.data.shape:  # pragma: no cover - op bug guard
                    raise ShapeError(
                        f"backward produced shape {c.shape} for tensor {t.data.shape}"
                    )
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + c
                else:
                    grads[key] = c
                    alive[key] = t
        produced = {id(out) for out, _, _ in self._records}
        for key, t in alive.items():
            if t.requires_grad and key not in produced:
                t.grad = np.array(grads[key], dtype=np.float64, copy=True)


def _finite_check(op: str, arr: np.ndarray) -> None:
    if _checked and not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"{op} produced non-finite values")


def _emit(op: str, arr: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    _finite_check(op, arr)
    out = _wrap(arr)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backward)
    return out


def _is_suffix(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    return len(small) <= len(big) and (len(small) == 0 or big[-len(small):] == small)


def _suffix_reduce(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape:
        return
    if _is_suffix(b.shape, a.shape) or _is_suffix(a.shape, b.shape):
        return
    raise ShapeError(
        f"{op}: shapes {a.shape} and {b.shape} are neither equal nor "
        "suffix-aligned; use broadcast() for size-1 stretching"
    )


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("add", a, b)

    def backward(g):
        return _suffix_reduce(g, a.shape), _suffix_reduce(g, b.shape)

    return _emit("add", a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("sub", a, b)

    def backward(g):
        return _suffix_reduce(g, a.shape), _suffix_reduce(-g, b.shape)

    return _emit("sub", a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("mul", a, b)

    def backward(g):
        return (
            _suffix_reduce(g * b.data, a.shape),
            _suffix_reduce(g * a.data, b.shape),
        )

    return _emit("mul", a.data * b.data, (a, b), backward)


def scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)

    def backward(g):
        return (g * factor,)

    return _emit("scale", x.data * factor, (x,), backward)


def shift(x: Tensor, offset: float) -> Tensor:
    offset = float(offset)

    def backward(g):
        return (g,)

    return _emit("shift", x.data + offset, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ShapeError(f"matmul needs 2-d or 3-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul batch dims differ: {a.shape} @ {b.shape}")

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if ga.ndim > a.ndim:
            ga = ga.sum(axis=0)
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        if gb.ndim > b.ndim:
            gb = gb.sum(axis=0)
        return ga, gb

    return _emit("matmul", np.matmul(a.data, b.data), (a, b), backward)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ShapeError(f"transpose needs ndim >= 2, got {x.shape}")

    def backward(g):
        return (np.swapaxes(g, -1, -2),)

    return _emit("transpose", np.swapaxes(x.data, -1, -2).copy(), (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    original = x.shape
    arr = np.reshape(x.data, shape)

    def backward(g):
        return (np.reshape(g, original),)

    return _emit("reshape", arr.copy(), (x,), backward)


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    ndim = parts[0].ndim
    axis = axis % ndim
    for p in parts[1:]:
        if p.ndim != ndim:
            raise ShapeError("concat ranks differ")
        for d in range(ndim):
            if d != axis and p.shape[d] != parts[0].shape[d]:
                raise ShapeError(
                    f"concat shapes {parts[0].shape} and {p.shape} differ off-axis"
                )
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer: list = [slice(None)] * ndim
        out = []
        for i in range(len(sizes)):
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            out.append(g[tuple(slicer)])
        return tuple(out)

    arr = np.concatenate([p.data for p in parts], axis=axis)
    return _emit("concat", arr, tuple(parts), backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % x.ndim
    dim = x.shape[axis]
    if not (0 <= start < stop <= dim):
        raise ShapeError(f"slice [{start}:{stop}] out of bounds for dim {dim}")
    slicer: list = [slice(None)] * x.ndim
    slicer[axis] = slice(start, stop)
    key = tuple(slicer)

    def backward(g):
        full = np.zeros_like(x.data)
        full[key] = g
        return (full,)

    return _emit("slice", x.data[key].copy(), (x,), backward)


def take(x: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; the embedding-lookup workhorse."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"take indices must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(
            f"take index out of range for {x.shape[0]} rows: "
            f"[{idx.min()}, {idx.max()}]"
        )

    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        return (full,)

    return _emit("take", x.data[idx].copy(), (x,), backward)


def broadcast(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Explicitly stretch to a larger shape (new leading axes, size-1 axes)."""
    shape = tuple(int(s) for s in shape)
    if len(shape) < x.ndim:
        raise ShapeError(f"broadcast cannot drop axes: {x.shape} -> {shape}")
    aligned = (1,) * (len(shape) - x.ndim) + x.shape
    for have, want in zip(aligned, shape):
        if have != want and have != 1:
            raise ShapeError(f"broadcast incompatible: {x.shape} -> {shape}")
    new_axes = tuple(range(len(shape) - x.ndim))
    stretched = tuple(
        i for i in range(len(shape)) if aligned[i] == 1 and shape[i] != 1
    )

    def backward(g):
        out = g
        if stretched:
            keep = tuple(ax for ax in stretched if ax not in new_axes)
            if keep:
                out = out.sum(axis=keep, keepdims=True)
        if new_axes:
            out = out.sum(axis=new_axes)
        return (np.reshape(out, x.shape),)

    arr = np.broadcast_to(x.data, shape).copy()
    return _emit("broadcast", arr, (x,), backward)


def sum_(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    arr = np.sum(x.data, axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.full(x.shape, float(g.reshape(())), dtype=np.float64),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _emit("sum", np.asarray(arr, dtype=np.float64), (x,), backward)


def mean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = x.data.size if axis is None else x.shape[axis]
    if count == 0:
        raise ShapeError("mean over an empty axis")
    arr = np.mean(x.data, axis=axis, keepdims=keepdims)

    def backward(g):
        inv = 1.0 / count
        if axis is None:
            return (np.full(x.shape, float(g.reshape(())) * inv, dtype=np.float64),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg * inv, x.shape).copy(),)

    return _emit("mean", np.asarray(arr, dtype=np.float64), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    pos = d >= 0
    e = np.exp(np.where(pos, -d, d))  # not -|d|: that flips the sign of a NaN
    out = np.where(pos, 1.0, e) / (1.0 + e)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _emit("sigmoid", out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0

    def backward(g):
        return (g * mask,)

    return _emit("relu", x.data * mask, (x,), backward)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    slope = float(slope)
    mask = x.data > 0.0
    arr = np.where(mask, x.data, slope * x.data)

    def backward(g):
        return (np.where(mask, g, slope * g),)

    return _emit("leaky_relu", arr, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def backward(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _emit("softmax", out, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply affine gamma/beta."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine params must have shape ({d},), "
            f"got {gamma.shape} and {beta.shape}"
        )
    mu = np.mean(x.data, axis=-1, keepdims=True)
    var = np.mean((x.data - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    arr = xhat * gamma.data + beta.data

    def backward(g):
        g_xhat = g * gamma.data
        m1 = np.mean(g_xhat, axis=-1, keepdims=True)
        m2 = np.mean(g_xhat * xhat, axis=-1, keepdims=True)
        gx = inv * (g_xhat - m1 - xhat * m2)
        g_gamma = _suffix_reduce(g * xhat, gamma.shape)
        g_beta = _suffix_reduce(g, beta.shape)
        return gx, g_gamma, g_beta

    return _emit("layer_norm", arr, (x, gamma, beta), backward)


@dataclass
class BlockCheck:
    """Finite-difference comparison summary for one parameter block."""

    name: str
    checked_entries: int
    near_zero_entries: int
    max_rel_err: float
    max_near_zero_abs_err: float
    worst_index: tuple[int, ...] | None


@dataclass
class GradCheckReport:
    blocks: list[BlockCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        errs = [b.max_rel_err for b in self.blocks if b.checked_entries]
        return max(errs) if errs else 0.0

    @property
    def max_near_zero_abs_err(self) -> float:
        errs = [b.max_near_zero_abs_err for b in self.blocks]
        return max(errs) if errs else 0.0

    def ok(self, rel_tol: float, near_zero_atol: float = 1e-7) -> bool:
        return (
            self.max_rel_err < rel_tol
            and self.max_near_zero_abs_err < near_zero_atol
        )


def grad_check(
    f,
    params: dict[str, Tensor],
    h: float = 1e-4,
    near_zero_atol: float = 1e-7,
    max_entries_per_block: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare tape gradients of the scalar f() against central differences.

    f must be deterministic and must read parameter values at call time (it
    is re-evaluated with perturbed entries).  Entries where both gradients
    sit below near_zero_atol are compared absolutely and reported separately,
    since the relative error of two near-zero numbers is noise.
    """
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        loss = f()
        if loss.data.size != 1:
            raise ShapeError("grad_check needs a scalar loss")
        tape.backward(loss)
    analytic = {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    rng = Rng(seed).child("grad-check")
    report = GradCheckReport()
    for name, p in params.items():
        flat = p.data.reshape(-1)
        total = flat.shape[0]
        if max_entries_per_block is None or total <= max_entries_per_block:
            chosen = list(range(total))
        else:
            chosen = sorted(rng.sample(list(range(total)), max_entries_per_block))
        a_flat = analytic[name].reshape(-1)
        block = BlockCheck(
            name=name,
            checked_entries=0,
            near_zero_entries=0,
            max_rel_err=0.0,
            max_near_zero_abs_err=0.0,
            worst_index=None,
        )
        for idx in chosen:
            orig = flat[idx]
            flat[idx] = orig + h
            hi = float(f().data.reshape(()))
            flat[idx] = orig - h
            lo = float(f().data.reshape(()))
            flat[idx] = orig
            numeric = (hi - lo) / (2.0 * h)
            a = float(a_flat[idx])
            scale_ = max(abs(a), abs(numeric))
            if scale_ < near_zero_atol:
                block.near_zero_entries += 1
                block.max_near_zero_abs_err = max(
                    block.max_near_zero_abs_err, abs(a - numeric)
                )
                continue
            rel = abs(a - numeric) / scale_
            block.checked_entries += 1
            if rel > block.max_rel_err:
                block.max_rel_err = rel
                block.worst_index = tuple(int(v) for v in np.unravel_index(idx, p.shape))
        report.blocks.append(block)
    return report
