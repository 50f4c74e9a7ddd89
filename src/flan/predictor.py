"""The accuracy predictor: gated graph flows over cell DAGs.

Node features start as operation embeddings and pass through a stack of
graph levels: a dense-flow layer (``_dgf``), an attention layer (``_gat``)
or, in ``ensemble`` mode, the mean of the two (``_ensemble``).  Both layers
gate their messages with a sigmoid transform of the operation embeddings,
and the dense-flow layer keeps a residual path:

    out = sigmoid(O W_o) * (M (X W_f)) + X W_f + b_f

Each graph stack level, each MLP layer and the readout pool is one tape op:
its forward is plain numpy, and it records itself through ``autodiff.emit``
with a written-out backward that the tests check against finite
differences.  A record holds only what its backward reads.

Both layer bodies take a message-routing matrix M with M[i, j] = 1 when
node i receives from node j.  Cells store adjacency[i][j] = 1 for the edge
i -> j, so per timestep the forward stack runs from the current op
embeddings over the transpose of the stored matrix, a backward stack runs
over the stored matrix itself (the reversed edges) from the final node
features, and a small MLP on [backward feature, current embedding] produces
an additive embedding update.  The update is local to one forward call; the
persistent table only changes by gradient descent.  With one timestep no
refinement runs, so its parameters are not built.  After the last timestep
node features are mean-pooled over non-none nodes, optionally concatenated
with an embedded supplemental vector, and fed to an MLP head (ReLU on the
hidden layers, linear output).
"""

from __future__ import annotations

import contextlib
import copy
import math
import numbers
import operator
import os
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cellgraph import OP_NONE, canonical_order, stack_cells
from .encodings import UnifiedVocabulary
from .rng import Rng, batch_u64

LEAKY_SLOPE = 0.2
LAYER_NORM_EPS = 1e-5
# each timestep is a full pass and no tensor's shape bounds their number, so
# without a cap a corrupted checkpoint could ask for 2**62 of them
MAX_TIMESTEPS = 64

FORWARD_MODES = ("dgf", "gat", "ensemble")
ATTENTION_VARIANTS = ("shared_sigmoid", "kqv_softmax")
# an attention layer's parameter names per variant, in creation order
GAT_PARAM_NAMES = {
    "shared_sigmoid": ("attn_a", "w_o", "ln_gamma", "ln_beta", "w_p"),
    "kqv_softmax": ("attn_a", "w_o", "ln_gamma", "ln_beta", "w_q", "w_k", "w_v"),
}


class PredictorError(ValueError):
    """Raised for configuration and input contract violations."""


def _check_fields(config, error: type[Exception]) -> None:
    """Normalise a config dataclass in place by its field annotations: int
    and tuple[int, ...] fields go through operator.index, and a float field
    must hold a real number.  No bool passes, and an `| None` field may be
    None.  The first field that fails raises error, naming it."""
    def integer(value):
        if isinstance(value, bool):  # True is not a count
            raise TypeError
        return operator.index(value)

    for f in fields(config):
        value = getattr(config, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        try:
            if kind == "int":
                value = integer(value)
            elif kind == "tuple[int, ...]":
                value = tuple(map(integer, value))
            elif kind == "float" and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real)):
                raise TypeError
        except TypeError:
            noun = "a real number" if kind == "float" else "integer-valued"
            raise error(f"{f.name} must be {noun}, got {value!r}") from None
        object.__setattr__(config, f.name, value)


@dataclass(frozen=True)
class PredictorConfig:
    op_embedding_dim: int = 48
    node_embedding_dim: int = 48
    hidden_dim: int = 96
    gcn_dims: tuple[int, ...] = (128, 128, 128, 128, 128)
    mlp_dims: tuple[int, ...] = (200, 200, 200)
    backward_gcn_dims: tuple[int, ...] = (128, 128, 128, 128, 128)
    op_update_mlp_dims: tuple[int, ...] = (128,)
    supp_embedder_dims: tuple[int, ...] = (128, 128)
    nn_emb_dim: int = 128
    timesteps: int = 2
    forward_mode: str = "ensemble"
    backward_mode: str = "ensemble"
    attention_variant: str = "shared_sigmoid"
    supplemental_dims: tuple[int, ...] = ()

    def __post_init__(self):
        _check_fields(self, PredictorError)
        dims = (
            (self.op_embedding_dim, self.node_embedding_dim, self.hidden_dim,
             self.nn_emb_dim)
            + self.gcn_dims + self.mlp_dims + self.backward_gcn_dims
            + self.op_update_mlp_dims + self.supp_embedder_dims
            + self.supplemental_dims
        )
        if any(d <= 0 for d in dims):
            raise PredictorError("all dimensions must be positive")
        if not 1 <= self.timesteps <= MAX_TIMESTEPS:
            raise PredictorError(f"timesteps must be between 1 and "
                                 f"{MAX_TIMESTEPS}, got {self.timesteps}")
        for name, allowed in (("forward_mode", FORWARD_MODES),
                              ("backward_mode", FORWARD_MODES),
                              ("attention_variant", ATTENTION_VARIANTS)):
            if getattr(self, name) not in allowed:
                raise PredictorError(f"{name} must be one of {allowed}")
        if self.op_embedding_dim != self.node_embedding_dim:
            # node features are initialized from op embeddings, so the dims
            # are tied; both fields exist to keep the config explicit
            raise PredictorError(
                "op_embedding_dim and node_embedding_dim must match"
            )
        if not self.gcn_dims or not self.backward_gcn_dims:
            raise PredictorError("gcn stacks need at least one layer")
        if self.nn_emb_dim != self.gcn_dims[-1]:
            raise PredictorError(
                f"nn_emb_dim ({self.nn_emb_dim}) must equal the last gcn dim "
                f"({self.gcn_dims[-1]}): it is the pooled node feature size"
            )
        if self.supplemental_dims and not self.supp_embedder_dims:
            raise PredictorError("supplemental input needs supp_embedder_dims")

    @property
    def supplemental_total(self) -> int:
        return sum(self.supplemental_dims)


def _gate_of(op_emb: Tensor, w_o: Tensor, rows):
    """A function giving sigmoid(op_emb W_o).  rows = (op_table, flat_ids)
    says op_emb is op_table[flat_ids]: the gate is then computed once per
    table row, and the function holds only the per-row gates and gathers
    them on each call, with the same bytes, since ad.fold_matmul pads W_o
    to a width at which a GEMM row's sums do not depend on the other
    rows."""
    if rows is None:
        gate = ad.logistic(ad.fold_matmul(op_emb.data, w_o.data))
        return lambda: gate
    table, flat_ids = rows
    per_row = ad.logistic(ad.fold_matmul(table, w_o.data))
    shape = op_emb.shape[:-1] + (w_o.shape[1],)
    return lambda: per_row[flat_ids].reshape(shape)


def _dgf(x, routing, routing_t, op_emb, w_o, w_f, b_f, rows):
    """Gated dense flow: sigmoid(op_emb W_o) * (routing (x W_f)) + x W_f + b_f.

    routing[i, j] = 1 routes node j's features into node i; routing is
    data and gets no gradient.  routing_t is routing with its last two axes
    swapped, held contiguous for the backward's product.  rows, if not
    None, is (op_table, flat_ids) with op_emb = op_table[flat_ids] (see
    _gate_of).  Returns the output, tape inputs and backward, unrecorded:
    _run_stack records them as "dgf_layer".
    """
    gate_of = _gate_of(op_emb, w_o, rows)
    gate = gate_of()
    h = ad.fold_matmul(x.data, w_f.data)
    agg = np.matmul(routing, h)

    def backward(g):
        gate = gate_of()
        g_h = g + np.matmul(routing_t, g * gate)
        g_x, g_wf = ad.matmul_grads(x.data, w_f.data, g_h)
        g_op, g_wo = ad.matmul_grads(op_emb.data, w_o.data,
                                     g * agg * gate * (1.0 - gate))
        return ad.suffix_reduce(g, b_f.shape), g_x, g_wf, g_op, g_wo

    out = gate * agg
    out += h
    out += b_f.data
    # the tape adds up a tensor's gradients in the order its uses are listed;
    # listing inputs in reverse order of use keeps that order fixed when x is
    # op_emb, as in each stack's first layer
    return out, (b_f, x, w_f, op_emb, w_o), backward


def _gat(x, routing, op_emb, params, variant, rows):
    """Attention flow over the routing matrix (row = receiver).

    shared_sigmoid: per-edge weight sigmoid(leaky_relu(a . [P_i, P_j])) with
    one shared projection P = x W_p; kqv_softmax: query/key scores,
    softmaxed over each receiver's senders, applied to value projections.
    Receivers without senders get a zero message; the gated message sum
    passes through layer norm.  rows is as in _dgf, and so is what it
    returns, which _run_stack records as "gat_layer".

    Under kqv_softmax the receiver term q_i . a_recv is the same for every
    sender in row i, so the softmax cancels it wherever the LeakyReLU is
    linear: w_q and the receiver half of attn_a learn only from rows whose
    scores the kink splits into both signs.  This is GAT's "static
    attention" (Brody et al., ICLR 2022).
    """
    # the projections follow the four shared names; reversed, v k q
    names = GAT_PARAM_NAMES[variant][:3:-1]
    attn_a, w_o = params["attn_a"], params["w_o"]
    gamma, beta = params["ln_gamma"], params["ln_beta"]
    projs = [ad.fold_matmul(x.data, params[name].data) for name in names]
    proj_v, proj_k, proj_q = projs if len(projs) == 3 else projs * 3
    d_out = w_o.shape[1]
    a_recv, a_send = attn_a.data[:d_out], attn_a.data[d_out:]
    # one-column products per batch entry, each row summed on its own;
    # fold_matmul would sum them in another order, moving every score and
    # trained parameter
    recv = np.matmul(proj_q, a_recv)
    send = np.matmul(proj_k, a_send)
    scores = recv + np.swapaxes(send, -1, -2)
    # the LeakyReLU's local slope: x * 1.0 and x * LEAKY_SLOPE have the
    # bytes of np.where(x > 0, x, LEAKY_SLOPE * x), NaN and -0.0 included
    slope = np.where(scores > 0.0, 1.0, LEAKY_SLOPE).astype(scores.dtype, copy=False)
    scores *= slope
    if variant == "shared_sigmoid":
        attn = ad.logistic(scores)
    else:
        # push masked-out pairs far below the row max; re-masking below
        # leaves receivers with no senders at exactly zero
        biased = scores + (routing - 1.0) * 1e9
        e = np.exp(biased - biased.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
    weights = attn * routing
    gate_of = _gate_of(op_emb, w_o, rows)
    # centred and scaled in place: layer norm
    xhat = gate_of() * np.matmul(weights, proj_v)
    xhat -= xhat.sum(axis=-1, keepdims=True) / d_out
    var = np.square(xhat).sum(axis=-1, keepdims=True) / d_out
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv

    def backward(g):
        # the messages are recomputed by the forward's own call, not held
        gate, messages = gate_of(), np.matmul(weights, proj_v)
        g_xhat = g * gamma.data
        m1 = g_xhat.sum(axis=-1, keepdims=True) / d_out
        m2 = (g_xhat * xhat).sum(axis=-1, keepdims=True) / d_out
        g_gated = inv * (g_xhat - m1 - xhat * m2)
        g_op, g_wo = ad.matmul_grads(op_emb.data, w_o.data,
                                     g_gated * messages * gate * (1.0 - gate))
        g_weights, g_v = ad.matmul_grads(weights, proj_v, g_gated * gate)
        g_attn = g_weights * routing
        if variant == "shared_sigmoid":
            g_scores = g_attn * attn * (1.0 - attn)
        else:
            g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))
        g_scores *= slope
        g_send = np.swapaxes(g_scores.sum(axis=-2, keepdims=True), -1, -2)
        g_k, g_a_send = ad.matmul_grads(proj_k, a_send, g_send)
        g_q, g_a_recv = ad.matmul_grads(proj_q, a_recv,
                                        g_scores.sum(axis=-1, keepdims=True))
        # + 0.0 maps -0.0 to 0.0, as adding two zero-padded halves does
        g_attn_a = np.concatenate([g_a_recv, g_a_send]) + 0.0
        g_projs = [g_v + g_k + g_q] if len(names) == 1 else [g_v, g_k, g_q]
        grads = [ad.suffix_reduce(g * xhat, gamma.shape),
                 ad.suffix_reduce(g, beta.shape), g_op, g_wo, g_attn_a]
        for g_proj, name in zip(g_projs, names):
            grads.extend(ad.matmul_grads(x.data, params[name].data, g_proj))
        return grads

    # reverse order of use, as in _dgf: x once per projection
    inputs = [gamma, beta, op_emb, w_o, attn_a]
    for name in names:
        inputs += [x, params[name]]
    out = xhat * gamma.data
    out += beta.data
    return out, tuple(inputs), backward


def _ensemble(x, routing, routing_t, op_emb, dgf_params, gat_params, variant,
              rows):
    """(_dgf + _gat) * 0.5 on the same inputs, as one tape op, unrecorded:
    _run_stack records it as "ensemble_layer".

    The inputs are listed attention branch first, each branch in its own
    layer's order, and the backward runs the attention branch's backward
    before the dense-flow branch's: the tape sums every gradient in the
    order it would for the two layers recorded one after the other.
    """
    out, dgf_inputs, dgf_backward = _dgf(x, routing, routing_t, op_emb,
                                         **dgf_params, rows=rows)
    gat_out, gat_inputs, gat_backward = _gat(x, routing, op_emb, gat_params,
                                             variant, rows)

    def backward(g):
        g = g * 0.5
        return (*gat_backward(g), *dgf_backward(g))

    out += gat_out
    out *= 0.5
    return out, gat_inputs + dgf_inputs, backward


def dense_layer(x: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """x @ w + b over the last axis of a 2-d or 3-d x, then ReLU if relu.
    A one-column w, as the head's output layer has, runs as a broadcast
    multiply and a last-axis sum, each row summed on its own; fold_matmul
    would sum it in another order, moving every score and trained
    parameter."""
    if w.shape[1] == 1:
        h = (x.data * w.data[:, 0]).sum(axis=-1, keepdims=True)
    else:
        h = ad.fold_matmul(x.data, w.data)
    h += b.data
    positive = h > 0.0 if relu else None

    def backward(g):
        g_h = g * positive if relu else g
        return (ad.suffix_reduce(g_h, b.shape),) + ad.matmul_grads(x.data, w.data, g_h)

    if relu:
        h *= positive
    return ad.emit("dense_layer", h, (b, x, w), backward)


def masked_mean_pool(x: Tensor, mask: np.ndarray) -> Tensor:
    """(B, n, d) node features to (B, d): the mean over the nodes whose
    (B, n, 1) mask is 1.0.  The mask is data and gets no gradient."""
    inv = 1.0 / mask.sum(axis=1)

    def backward(g):
        return ((g * inv)[:, None, :] * mask,)

    return ad.emit("masked_mean_pool", (x.data * mask).sum(axis=1) * inv,
                   (x,), backward)


class PredictorModel:
    """Parameters bound to a unified vocabulary.  ``flat`` is their only
    storage, float64 except in a working copy (see ``cast``); each
    ``params[name]`` is a reshaped view of one slice of it."""

    def __init__(self, config: PredictorConfig, vocab: UnifiedVocabulary,
                 cells_per_arch: int, arrays: dict[str, np.ndarray]):
        if cells_per_arch not in (1, 2):
            raise PredictorError(f"cells_per_arch must be 1 or 2, got {cells_per_arch}")
        self.config = config
        self.vocab = vocab
        self.cells_per_arch = cells_per_arch
        self.flat = np.concatenate(
            [np.ravel(a) for a in arrays.values()], dtype=np.float64)
        views = _slices(self.flat, {name: np.shape(a) for name, a in arrays.items()})
        self.params: dict[str, Tensor] = {
            name: Tensor(view, requires_grad=True, copy=False)
            for name, view in views.items()}

    def cast(self, dtype) -> "PredictorModel":
        """This model's parameters in dtype: the model itself if they are
        dtype already, else a working copy of their current values, with
        leaves of its own that a tape gives gradients in dtype.  Nothing
        links the copy to this model: fit makes one per call and writes
        each Adam update into it (see training)."""
        if self.flat.dtype == dtype:
            return self
        work = copy.copy(self)
        work.flat = self.flat.astype(dtype)
        views = _slices(work.flat, {name: p.shape for name, p in self.params.items()})
        work.params = {name: Tensor(view, requires_grad=True, copy=False)
                       for name, view in views.items()}
        return work

    def num_params(self) -> int:
        return self.flat.size

    def check_finite(self, dtype=np.float64) -> None:
        """Raise PredictorError naming the first parameter that is
        non-finite, or that overflows dtype, a narrower float than flat's."""
        with np.errstate(over="ignore"):  # the cast past dtype's range
            if np.isfinite(self.flat.astype(dtype, copy=False)).all():
                return
            name, p = next((n, p) for n, p in self.params.items()
                           if not np.isfinite(p.data.astype(dtype, copy=False)).all())
        how = ("is non-finite" if not np.isfinite(p.data).all()
               else f"overflows {np.dtype(dtype).name}")
        raise PredictorError(f"parameter {name} {how}")


def _slices(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Each name's view of flat: consecutive slices reshaped to shapes."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


def _layer_shapes(config: PredictorConfig, din: int, dout: int,
                  branch: str) -> dict[str, tuple]:
    d_op = config.op_embedding_dim
    if branch == "dgf":
        return {"w_o": (d_op, dout), "w_f": (din, dout), "b_f": (dout,)}
    shapes = {"attn_a": (2 * dout, 1), "w_o": (d_op, dout),
              "ln_gamma": (dout,), "ln_beta": (dout,)}
    return {name: shapes.get(name, (din, dout))
            for name in GAT_PARAM_NAMES[config.attention_variant]}


def parameter_shapes(config: PredictorConfig, vocab_size: int,
                     cells_per_arch: int) -> dict[str, tuple]:
    """Every parameter name and shape, in creation order."""
    d_op = config.op_embedding_dim
    shapes: dict[str, tuple] = {"op_table": (vocab_size, d_op)}

    def stack(cell: int, tag: str, mode: str, dims: tuple[int, ...], d_in: int):
        din = d_in
        for l, dout in enumerate(dims):
            branches = ("dgf", "gat") if mode == "ensemble" else (mode,)
            for branch in branches:
                for pname, shape in _layer_shapes(config, din, dout, branch).items():
                    shapes[f"c{cell}.{tag}{l}.{branch}.{pname}"] = shape
            din = dout

    def mlp(prefix: str, din: int, dims: tuple[int, ...]):
        for k, dout in enumerate(dims):
            shapes[f"{prefix}{k}.w"] = (din, dout)
            shapes[f"{prefix}{k}.b"] = (dout,)
            din = dout

    for cell in range(cells_per_arch):
        stack(cell, "f", config.forward_mode, config.gcn_dims, d_op)
        if config.timesteps > 1:  # the refinement runs between timesteps
            stack(cell, "b", config.backward_mode, config.backward_gcn_dims,
                  config.gcn_dims[-1])
            mlp(f"c{cell}.up", config.backward_gcn_dims[-1] + d_op,
                config.op_update_mlp_dims + (d_op,))
    head_in = config.nn_emb_dim
    if config.supplemental_dims:
        mlp("supp", config.supplemental_total, config.supp_embedder_dims)
        head_in += config.supp_embedder_dims[-1]
    mlp("head", head_in, config.mlp_dims + (1,))
    return shapes


def init(config: PredictorConfig, vocab: UnifiedVocabulary,
         cells_per_arch: int, seed: int) -> PredictorModel:
    """Deterministic initialization; every tensor draws from its own named
    stream, so layouts with shared prefixes initialize identically.  The
    op table is normal, biases and layer-norm shifts zero, layer-norm gains
    one, and every other tensor Glorot-uniform, drawn in one batch."""
    rng = Rng(seed).child("init")
    shapes = parameter_shapes(config, vocab.size, cells_per_arch)
    arrays: dict[str, np.ndarray] = {}
    uniform: list[str] = []
    for name, shape in shapes.items():
        if name == "op_table":
            stream = rng.child("param", name)
            sigma = 1.0 / np.sqrt(config.op_embedding_dim)
            arrays[name] = np.array(
                [stream.normal(0.0, sigma) for _ in range(math.prod(shape))]
            ).reshape(shape)
        elif name.endswith((".b", ".b_f", ".ln_beta")):
            arrays[name] = np.zeros(shape)
        elif name.endswith(".ln_gamma"):
            arrays[name] = np.ones(shape)
        else:
            uniform.append(name)
    draws = batch_u64([rng.child("param", name) for name in uniform],
                      [math.prod(shapes[name]) for name in uniform])
    for name, x in zip(uniform, draws):
        shape = shapes[name]
        limit = np.sqrt(6.0 / (shape[0] + shape[-1]))  # fan in + fan out
        # Rng.uniform(-limit, limit), one IEEE operation at a time
        lo, hi = -limit, limit
        arrays[name] = (lo + (hi - lo) * ((x >> 11) * (1.0 / (1 << 53)))).reshape(shape)
    return PredictorModel(config, vocab, cells_per_arch,
                          {name: arrays[name] for name in shapes})


@dataclass
class PreparedBatch:
    """Numeric views of a batch of architectures, ready for the graph stacks.

    Routing uses the active adjacency: edges touching none nodes are dropped.
    Each cell's nodes are in canonical order (see prepare_batch), so its
    active nodes lead and its none nodes trail.  Preparing is pure data:
    fit prepares its training split once per call and gathers each batch
    with ``take``; score_archs prepares each chunk and drops its none nodes
    with ``active_nodes``.  Routing, mask and supplemental rows share one
    dtype, the dtype of the forward pass over the batch.  Each cell
    position has its own node count, ids[cell].shape[1].
    """

    size: int
    ids: list[np.ndarray]          # per cell: (B, n) int64 unified ids
    routing_fwd: list[np.ndarray]  # per cell: (B, n, n) transposed adjacency
    routing_bwd: list[np.ndarray]  # per cell: (B, n, n) adjacency
    mask: list[np.ndarray]         # per cell: (B, n, 1) 1.0 for non-none nodes
    supplemental: np.ndarray | None

    def take(self, rows) -> "PreparedBatch":
        """The batch of the given rows (an index sequence): the bytes
        prepare_batch gives for those archs and supplemental rows."""
        ids, fwd, bwd, mask = ([a[rows] for a in arrays] for arrays in
                               (self.ids, self.routing_fwd, self.routing_bwd, self.mask))
        supp = None if self.supplemental is None else self.supplemental[rows]
        return PreparedBatch(len(ids[0]), ids, fwd, bwd, mask, supp)

    def active_nodes(self) -> "PreparedBatch":
        """The batch without its none nodes, so every mask entry is 1.0:
        views of each cell's leading nodes.  The archs' cells at one
        position must hold one number of active nodes."""
        ids, fwd, bwd, mask = [], [], [], []
        for c, m in enumerate(self.mask):
            n = int(np.count_nonzero(m[0]))
            ids.append(self.ids[c][:, :n])
            fwd.append(self.routing_fwd[c][:, :n, :n])
            bwd.append(self.routing_bwd[c][:, :n, :n])
            mask.append(m[:, :n])
        return PreparedBatch(self.size, ids, fwd, bwd, mask, self.supplemental)

    @property
    def dtype(self) -> np.dtype:
        return self.mask[0].dtype


def prepare_batch(model: PredictorModel, archs,
                  supplemental: np.ndarray | None = None,
                  dtype=np.float64) -> PreparedBatch:
    """The batch of archs, whose forward pass runs in dtype (float64 or
    float32).  An arch with a cell of no active node is refused, and so are
    supplemental rows that dtype cannot hold.

    Each cell's nodes are reordered by cellgraph.canonical_order: active
    nodes first, sorted by Weisfeiler-Lehman colour, then none nodes.  A
    relabeled cell then gives the same arrays, up to the order of nodes of
    one colour, whose features the layers cannot tell apart, so the sums
    over nodes run in one order and a score does not depend on the
    labeling."""
    archs = list(archs)
    if not archs:
        raise PredictorError("empty batch")
    counts = {len(a.cells) for a in archs}
    if counts != {model.cells_per_arch}:
        raise PredictorError(
            f"model expects {model.cells_per_arch} cells per arch, got {counts}"
        )
    for arch in archs:
        if any(c.op_ids.count(OP_NONE) == c.num_nodes for c in arch.cells):
            raise PredictorError(f"arch {arch.arch_id} has a cell with no active node")
    sizes = {c.num_nodes for a in archs for c in a.cells}
    if len(sizes) != 1:
        raise PredictorError(f"batch mixes node counts {sizes}; pad cells first")
    batch = len(archs)
    expected = model.config.supplemental_total
    if expected:
        if supplemental is None:
            raise PredictorError(
                f"model expects a supplemental vector of dim {expected}"
            )
        with np.errstate(over="ignore"):  # overflow is refused below
            supplemental = np.asarray(supplemental, dtype=dtype)
        if supplemental.shape != (batch, expected):
            raise PredictorError(
                f"supplemental must have shape ({batch}, {expected}), "
                f"got {supplemental.shape}"
            )
        if not np.all(np.isfinite(supplemental)):
            raise PredictorError("supplemental contains non-finite values in "
                                 f"{supplemental.dtype.name}")
    elif supplemental is not None:
        raise PredictorError("model takes no supplemental input")

    ids, routing_fwd, routing_bwd, mask = [], [], [], []
    for c in range(model.cells_per_arch):
        cells = [arch.cells[c] for arch in archs]
        stack = stack_cells(cells)
        order = canonical_order(stack.adjacency, stack.ops)
        ops = np.take_along_axis(stack.ops, order, axis=1)
        adj = np.take_along_axis(stack.adjacency, order[:, :, None], axis=1)
        adj = np.take_along_axis(adj, order[:, None, :], axis=2).astype(dtype)
        # one vocabulary lookup per space the batch draws from
        space_of = np.array([cell.space_id for cell in cells])
        cell_ids = np.empty_like(ops)
        for space in dict.fromkeys(space_of.tolist()):
            same = space_of == space
            cell_ids[same] = model.vocab.map_ops(space, ops[same])
        ids.append(cell_ids)
        routing_fwd.append(np.ascontiguousarray(adj.transpose(0, 2, 1)))
        routing_bwd.append(adj)
        mask.append((ops != OP_NONE)[:, :, None].astype(dtype))
    return PreparedBatch(batch, ids, routing_fwd, routing_bwd, mask, supplemental)


def _run_stack(model: PredictorModel, cell: int, tag: str, mode: str,
               dims: tuple[int, ...], x: Tensor, routing: np.ndarray,
               routing_t: np.ndarray, op_emb: Tensor, rows) -> Tensor:
    """routing_t is routing with its last two axes swapped.  Each level
    records its body here, on whichever thread runs the stack."""
    variant = model.config.attention_variant
    for l in range(len(dims)):
        dgf = gat = None
        if mode in ("dgf", "ensemble"):
            key = f"c{cell}.{tag}{l}.dgf."
            dgf = {name: model.params[key + name] for name in ("w_o", "w_f", "b_f")}
        if mode in ("gat", "ensemble"):
            key = f"c{cell}.{tag}{l}.gat."
            gat = {name: model.params[key + name]
                   for name in GAT_PARAM_NAMES[variant]}
        if gat is None:
            x = ad.emit("dgf_layer",
                        *_dgf(x, routing, routing_t, op_emb, **dgf, rows=rows))
        elif dgf is None:
            x = ad.emit("gat_layer", *_gat(x, routing, op_emb, gat, variant, rows))
        else:
            x = ad.emit("ensemble_layer", *_ensemble(x, routing, routing_t, op_emb,
                                                     dgf, gat, variant, rows))
    return x


def _apply_mlp(model: PredictorModel, prefix: str, layers: int,
               x: Tensor) -> Tensor:
    """ReLU between layers, linear output."""
    for k in range(layers):
        x = dense_layer(x, model.params[f"{prefix}{k}.w"],
                        model.params[f"{prefix}{k}.b"], relu=k < layers - 1)
    return x


def _cell_embedding(model: PredictorModel, batch: PreparedBatch,
                    cell: int) -> Tensor:
    cfg = model.config
    b, n = batch.ids[cell].shape
    d_op = cfg.op_embedding_dim
    flat_ids = batch.ids[cell].reshape(-1)
    op_emb = ad.reshape(ad.take(model.params["op_table"], flat_ids), (b, n, d_op))
    up_layers = len(cfg.op_update_mlp_dims) + 1
    # until the first refinement update op_emb is op_table[flat_ids], so the
    # gates of the t = 0 stacks are computed per table row
    rows = (model.params["op_table"].data, flat_ids)
    x = op_emb
    for t in range(cfg.timesteps):
        x = _run_stack(model, cell, "f", cfg.forward_mode, cfg.gcn_dims,
                       op_emb, batch.routing_fwd[cell], batch.routing_bwd[cell],
                       op_emb, rows)
        if t < cfg.timesteps - 1:
            back = _run_stack(model, cell, "b", cfg.backward_mode,
                              cfg.backward_gcn_dims, x, batch.routing_bwd[cell],
                              batch.routing_fwd[cell], op_emb, rows)
            update = _apply_mlp(model, f"c{cell}.up", up_layers,
                                ad.concat([back, op_emb], axis=-1))
            op_emb = ad.add(op_emb, update)
            rows = None
    return masked_mean_pool(x, batch.mask[cell])


def _graph_embedding(model: PredictorModel, batch: PreparedBatch) -> Tensor:
    """(B, nn_emb_dim): the pooled embeddings of the arch's cells, added."""
    nn_emb = _cell_embedding(model, batch, 0)
    for cell in range(1, model.cells_per_arch):
        nn_emb = ad.add(nn_emb, _cell_embedding(model, batch, cell))
    return nn_emb


def _helper_embedding(model: PredictorModel, batch: PreparedBatch) -> Tensor:
    """_graph_embedding on a helper thread.  numpy's error state is per
    thread, so the thread enters score_archs' own."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _graph_embedding(model, batch)


def forward_batch(model: PredictorModel, batch: PreparedBatch, *,
                  helper=None) -> Tensor:
    """(B,) predicted scores; records on the active tape if any.

    The pass runs in the batch's dtype, which must be the parameters'
    (see PredictorModel.cast for a working copy in another dtype).  An
    arch's score has the same bytes in any batch, one arch alone included:
    every weight product sums each row on its own, in ad.fold_matmul's
    GEMMs and in the one-column products alike.

    helper, an executor, embeds the second half of the batch on its thread
    while this thread embeds the first; the supplemental MLP and the head
    run on the whole batch, with the serial pass's bytes.  A tape records
    one thread only, so a helper is refused while one is active.
    """
    cfg = model.config
    if helper is not None and ad.active_tape() is not None:
        raise PredictorError("forward_batch takes no helper while a tape is active")
    if model.flat.dtype != batch.dtype:
        raise PredictorError(f"batch is {batch.dtype} but the parameters are "
                             f"{model.flat.dtype}: cast the model first")
    if helper is None:
        nn_emb = _graph_embedding(model, batch)
    else:
        mid = (batch.size + 1) // 2
        later = helper.submit(_helper_embedding, model, batch.take(slice(mid, None)))
        first = _graph_embedding(model, batch.take(slice(None, mid)))
        nn_emb = ad.concat([first, later.result()], axis=0)
    if cfg.supplemental_dims:
        supp = _apply_mlp(model, "supp", len(cfg.supp_embedder_dims),
                          Tensor(batch.supplemental))
        head_in = ad.concat([nn_emb, supp], axis=-1)
    else:
        head_in = nn_emb
    out = _apply_mlp(model, "head", len(cfg.mlp_dims) + 1, head_in)
    return ad.reshape(out, (batch.size,))


# the half chunk's node-feature elements (archs x node rows x widest gcn
# dim) from which score_archs embeds half of each chunk on a helper thread:
# narrower passes are bound by the interpreter lock, and the handoff costs
# more than it saves
HELPER_MIN_ELEMENTS = 24_000
# node rows (archs x active nodes summed over an arch's cells) per
# score_archs forward pass: larger chunks pay for fewer Python calls with
# larger activations, and a call holds one chunk's routing at a time
SCORE_ROWS = 896


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity
        return os.cpu_count() or 1


def score_archs(model: PredictorModel, archs,
                supplemental: np.ndarray | None = None) -> np.ndarray:
    """Score many architectures on no tape: a caller's active tape is
    suspended for the call and records nothing.  The pass runs in float32
    on a working copy of the model made once per call, and the scores come
    back as float64.  An arch's score depends on the arch alone, not on the
    archs scored with it nor on the labeling of its cells' nodes.

    Archs are grouped by node count and by each cell's active (non-none)
    node count, in order of first appearance.  Each group runs in chunks of
    at most SCORE_ROWS node rows (at least one arch), one forward pass each
    over the chunk's active nodes, so each arch is prepared once per call;
    the scores come back in input order.  Every input check runs on the
    archs as given, and an input error is the one the first failing arch in
    input order raises.

    With more than one CPU, a chunk whose second half holds at least
    HELPER_MIN_ELEMENTS node features (archs x node rows x widest gcn dim)
    is embedded on two threads: a helper thread, started for the call and
    joined before it returns, embeds the second half while this thread
    embeds the first (see forward_batch), with the serial pass's bytes.
    A finite parameter that float32 cannot hold, or finite parameters that
    overflow the forward pass (a corrupted or hand-edited checkpoint has
    them), raise PredictorError."""
    archs = list(archs)
    if supplemental is not None:
        supplemental = np.asarray(supplemental, dtype=np.float64)
        if supplemental.ndim == 0 or len(supplemental) != len(archs):
            raise PredictorError(
                f"supplemental must have one row per arch ({len(archs)}), "
                f"got shape {supplemental.shape}"
            )
    try:
        model.check_finite(np.float32)
    except PredictorError as exc:
        raise PredictorError(f"scores are non-finite: {exc}") from None
    work = model.cast(np.float32)
    groups: dict[tuple, list[int]] = {}
    for k, arch in enumerate(archs):
        active = tuple(c.num_nodes - c.op_ids.count(OP_NONE) for c in arch.cells)
        groups.setdefault((arch.cells[0].num_nodes, active), []).append(k)
    chunks = []
    for (_, active), index in groups.items():
        node_rows = sum(active)
        step = max(1, SCORE_ROWS // max(node_rows, 1))  # 0: refused below
        chunks += [(index[lo:lo + step], node_rows) for lo in range(0, len(index), step)]
    out = np.empty(len(archs), dtype=np.float64)
    width = max(model.config.gcn_dims)
    can_help = _cpu_count() > 1
    pool = None
    with contextlib.ExitStack() as stack, ad.no_tape(), \
            np.errstate(over="ignore", invalid="ignore"):
        for rows, node_rows in chunks:
            supp = None if supplemental is None else supplemental[rows]
            try:
                batch = prepare_batch(work, [archs[k] for k in rows], supp, np.float32)
            except ValueError:
                # the chunks run group by group: re-check arch by arch
                for k in range(len(archs)):
                    prepare_batch(work, archs[k:k + 1], None if supplemental is None
                                  else supplemental[k:k + 1], np.float32)
                raise
            wide = (can_help and (batch.size // 2) * node_rows * width
                    >= HELPER_MIN_ELEMENTS)
            if wide and pool is None:
                # imported on first use: the thread machinery adds about
                # 0.5 MB of resident memory to serial callers
                from concurrent.futures import ThreadPoolExecutor
                pool = stack.enter_context(ThreadPoolExecutor(1))
            scores = forward_batch(work, batch.active_nodes(),
                                   helper=pool if wide else None)
            out[rows] = scores.data
    if not np.isfinite(out).all():
        raise PredictorError("scores are non-finite: the parameters overflow "
                             "the forward pass")
    return out


def clone_model(model: PredictorModel) -> PredictorModel:
    arrays = {name: p.data for name, p in model.params.items()}
    return PredictorModel(model.config, model.vocab, model.cells_per_arch, arrays)
