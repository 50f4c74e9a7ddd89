"""Minimal reverse-mode differentiation over dense float32 or float64 arrays.

Each stage of the predictor (graph layer, dense layer, readout pool) and
the hinge loss records itself with ``emit``: a numpy forward plus a
written-out backward built from the shared ``matmul_grads``,
``suffix_reduce`` and ``logistic`` helpers.  The generic ops that join the
stages are few: add of two equal shapes, reshape, concat and gather
(take).  A tensor holds a float32 or a float64 array, and an op computes in
the dtype of its inputs: nothing here converts one to the other, and there
is no broadcasting between tape inputs, so shape bugs fail loudly.

Recording: ops push onto the innermost active ``Tape`` (a thread-local
stack) whenever some input requires grad.  Without an active tape the same
functions run as plain numpy, which is the scoring fast path; ``no_tape``
suspends a caller's tape for such a pass.  Backward replays records in
reverse creation order with no other ordering rule, so gradient
accumulation is deterministic; only leaves (tensors no record produced)
get ``.grad``.  Each tensor comes from one record, which replays
after every use of the tensor, so an intermediate gradient is complete
when its record runs and is dropped right after.  A caller may hand
``backward`` preallocated arrays for some leaves (training passes views of
one vector aligned with the model's parameters); their gradients then
accumulate in place there instead of in fresh arrays.

A pass runs in the one dtype of its tensors, and its leaves get their
gradients in that dtype.  To learn float64 parameters from float32 passes,
training runs on a float32 working copy and refreshes it after each update
(see ``training``); nothing on the tape links the two.

Each record keeps its op's name, so a caller whose loss came out
non-finite can ask the tape which op first produced a non-finite value;
nothing is checked until then.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np


class ShapeError(ValueError):
    """Operands do not satisfy an op's shape contract."""


_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "tapes", None)
    if stack is None:
        stack = []
        _STATE.tapes = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


@contextlib.contextmanager
def no_tape():
    """A context in which this thread has no active tape, even inside a
    caller's Tape: ops run as plain numpy and record nothing."""
    stack = _tape_stack()
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()


DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A float32 or float64 array plus grad bookkeeping.  The array keeps
    its dtype; one of any other dtype is refused."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, copy: bool = True):
        arr = np.array(data, copy=copy or None)
        if arr.dtype not in DTYPES:
            raise TypeError(f"a tensor holds float32 or float64, not {arr.dtype}")
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
    if (type(arr) is not np.ndarray or arr.dtype not in DTYPES
            or not arr.flags.writeable):
        return Tensor(arr, requires_grad=False, copy=False)
    # what Tensor(arr, copy=False) makes of such an array, without its checks
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad, out.grad = arr, False, None
    return out


class Tape:
    """Wengert list; use as a context manager around the forward pass."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object, str]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        top = _tape_stack().pop()
        if top is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("tape context exited out of order")

    def __len__(self) -> int:
        return len(self._records)

    def first_nonfinite(self) -> str | None:
        """The op name of the earliest record whose output holds an inf or
        a NaN, or None if every recorded output is finite."""
        for out, _, _, op in self._records:
            if not np.isfinite(out.data).all():
                return op
        return None

    def backward(self, loss: Tensor,
                 into: dict[Tensor, np.ndarray] | None = None) -> None:
        """Write gradients of loss into .grad of the leaves.

        loss must be scalar-sized.  A leaf is a tensor that no record on this
        tape produced; every leaf with requires_grad on a path to the loss
        gets its gradient, in its own dtype, and every other tensor keeps
        grad None.  into may map leaves to arrays of their shape: such a
        leaf's gradient is written in place into its array, which becomes
        its .grad.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        into = into or {}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        tensors: dict[int, Tensor] = {id(loss): loss}
        written: set[int] = set()
        for out, inputs, backward_fn, _ in reversed(self._records):
            # every use of out has replayed, so its gradient is complete;
            # popped here, it is freed once this record has used it
            g = grads.pop(id(out), None)
            if g is None:  # off the path to the loss
                continue
            for t, c in zip(inputs, backward_fn(g)):
                if c is None or not t.requires_grad:
                    continue
                if c.shape != t.data.shape:  # pragma: no cover - op bug guard
                    raise ShapeError(
                        f"backward produced shape {c.shape} for tensor {t.data.shape}"
                    )
                key = id(t)
                buf = into.get(t)
                if buf is not None:
                    if key in written:
                        buf += c
                    else:
                        buf[...] = c
                        t.grad = buf
                        written.add(key)
                elif key in grads:
                    grads[key] = grads[key] + c
                else:
                    grads[key] = c
                    tensors[key] = t
        # every record popped its output's gradient: what is left is leaves'
        for key, g in grads.items():
            t = tensors[key]
            if t.requires_grad:
                t.grad = np.array(g, dtype=t.data.dtype, copy=True)


def emit(op: str, arr: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """Wrap arr as op's output; record it when some input requires grad.
    backward(g) returns one gradient (or None) per entry of inputs; a tensor
    listed twice accumulates both, first entry first."""
    out = _wrap(arr)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._records.append((out, inputs, backward, op))
    return out


def suffix_reduce(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g's leading axes away, down to shape, a trailing suffix of
    g's shape: the gradient of a bias added to every row."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def backward(g):
        return g, g

    return emit("add", a.data + b.data, (a, b), backward)


def matmul_grads(a: np.ndarray, b: np.ndarray,
                 g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a @ b given the output gradient g.

    For a 2-d weight b, a's leading axes are folded into GEMM rows, so each
    gradient is one GEMM and the weight gradient sums over the batch inside
    it.  Otherwise b is a batch of matrices: the products run per batch
    entry, and a 2-d a shared by the batch gets the batch axis summed out.
    """
    if b.ndim == 2:
        k, m = b.shape
        g2 = g.reshape(-1, m)
        if m == 1:  # an outer product: a broadcast multiply, not a GEMM
            ga = g2 * b[:, 0]
            ga += 0.0  # the GEMM gives +0.0 where the product is -0.0
        else:
            ga = g2 @ b.T
        return ga.reshape(a.shape), a.reshape(-1, k).T @ g2
    ga = np.matmul(g, np.swapaxes(b, -1, -2))
    if ga.ndim > a.ndim:
        ga = ga.sum(axis=0)
    return ga, np.matmul(np.swapaxes(a, -1, -2), g)


# forward GEMMs run on weights zero-padded to a multiple of this many columns
GEMM_COLUMNS = 16


def fold_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for a 2-d w, with x's leading axes folded into the rows of one
    GEMM instead of one product per batch entry.

    Each row of the result has the same bytes whatever rows it is computed
    with, so it equals the per-batch product and a row's bytes do not depend
    on its batch.  To keep that, a w whose width is not a multiple of
    GEMM_COLUMNS runs zero-padded to one and the result is the leading
    columns of the padded product, and a single row runs as two copies of
    itself, so that no product runs as GEMV."""
    k, m = w.shape
    pad = -m % GEMM_COLUMNS
    if pad:
        w = np.concatenate([w, np.zeros((k, pad), dtype=w.dtype)], axis=1)
    rows = x.reshape(-1, k)
    n = len(rows)
    if n == 1:
        rows = np.concatenate([rows, rows])
    return np.matmul(rows, w)[:n, :m].reshape(x.shape[:-1] + (m,))


def logistic(d: np.ndarray) -> np.ndarray:
    """Overflow-free 1 / (1 + exp(-d)), bit for bit the two-branch form.
    The numerator max(e, d >= 0) is 1.0 where d >= 0, since e <= 1."""
    e = np.exp(np.minimum(d, -d))  # not -|d|: that flips the sign of a NaN
    den = e + 1.0
    np.maximum(e, d >= 0, out=e)
    e /= den
    return e


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    original = x.shape
    arr = np.reshape(x.data, shape)

    def backward(g):
        return (np.reshape(g, original),)

    return emit("reshape", arr.copy(), (x,), backward)


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
    return emit("concat", arr, tuple(parts), backward)


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

    return emit("take", x.data[idx].copy(), (x,), backward)
