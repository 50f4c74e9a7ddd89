"""The accuracy predictor: gated graph flows over cell DAGs.

Node features start as operation embeddings and pass through a stack of
graph layers of two kinds.  The dense-flow layer gates aggregated neighbor
features with a sigmoid transform of the operation embeddings and keeps a
residual path:

    out = sigmoid(O W_o) * (M (X W_f)) + X W_f + b_f

The attention layer projects nodes, scores each (receiver, sender) pair
with a shared attention vector through a LeakyReLU, weighs messages either
by sigmoid scores masked to edges (``shared_sigmoid``) or by a masked
softmax with separate query/key/value projections (``kqv_softmax``), gates
the summed messages the same way as above, and applies layer norm.  In
``ensemble`` mode each stack level averages the two layer outputs.

Each layer is one tape op: its forward is plain numpy, and it records itself
through ``autodiff.emit`` with a written-out backward that the tests check
against finite differences.

Both layer functions take a message-routing matrix M with M[i, j] = 1 when
node i receives from node j.  Cells store adjacency[i][j] = 1 for the edge
i -> j, so the forward pass routes over the transpose of the stored matrix
and the backward refinement flow routes over the stored matrix itself.

Refinement: per timestep the forward stack runs from the current op
embeddings, a backward stack runs over reversed edges from the final node
features, and a small MLP on [backward feature, current embedding] produces
an additive embedding update.  The update is local to one forward call; the
persistent table only changes by gradient descent.  With one timestep no
refinement runs, so its parameters are not built.  After the last timestep
node features are mean-pooled over non-none nodes, optionally concatenated
with an embedded supplemental vector, and fed to an MLP head (ReLU on the
hidden layers, linear output).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cellgraph import OP_NONE, CellArch, stack_cells
from .encodings import UnifiedVocabulary
from .rng import Rng, batch_u64

LEAKY_SLOPE = 0.2
LAYER_NORM_EPS = 1e-5
# each timestep is a full pass and no tensor's shape bounds their number, so
# without a cap a corrupted checkpoint could ask for 2**62 of them
MAX_TIMESTEPS = 64

FORWARD_MODES = ("dgf", "gat", "ensemble")
ATTENTION_VARIANTS = ("shared_sigmoid", "kqv_softmax")


class PredictorError(ValueError):
    """Raised for configuration and input contract violations."""


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
    unified: bool = False
    supplemental_dims: tuple[int, ...] = ()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                if f.type == "int":
                    value = operator.index(value)
                elif f.type == "tuple[int, ...]":
                    value = tuple(operator.index(d) for d in value)
            except TypeError:
                raise PredictorError(
                    f"{f.name} must be integer-valued, got {value!r}"
                ) from None
            object.__setattr__(self, f.name, value)
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
        if self.forward_mode not in FORWARD_MODES:
            raise PredictorError(f"forward_mode must be one of {FORWARD_MODES}")
        if self.backward_mode not in FORWARD_MODES:
            raise PredictorError(f"backward_mode must be one of {FORWARD_MODES}")
        if self.attention_variant not in ATTENTION_VARIANTS:
            raise PredictorError(
                f"attention_variant must be one of {ATTENTION_VARIANTS}"
            )
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


def dgf_layer(x: Tensor, routing: Tensor, op_emb: Tensor,
              w_o: Tensor, w_f: Tensor, b_f: Tensor) -> Tensor:
    """Gated dense flow: sigmoid(op_emb W_o) * (routing (x W_f)) + x W_f + b_f.

    routing[i, j] = 1 routes node j's features into node i; routing is
    data and gets no gradient.
    """
    gate = ad.logistic(np.matmul(op_emb.data, w_o.data))
    h = np.matmul(x.data, w_f.data)
    agg = np.matmul(routing.data, h)

    def backward(g):
        g_h = g + np.matmul(np.swapaxes(routing.data, -1, -2), g * gate)
        g_x, g_wf = ad.matmul_grads(x.data, w_f.data, g_h)
        g_op, g_wo = ad.matmul_grads(op_emb.data, w_o.data,
                                     g * agg * gate * (1.0 - gate))
        return ad.suffix_reduce(g, b_f.shape), g_x, g_wf, g_op, g_wo

    # the tape adds up a tensor's gradients in the order its uses are listed;
    # listing inputs in reverse order of use keeps that order fixed when x is
    # op_emb, as in each stack's first layer
    return ad.emit("dgf_layer", gate * agg + h + b_f.data,
                   (b_f, x, w_f, op_emb, w_o), backward)


def gat_layer(x: Tensor, routing: Tensor, op_emb: Tensor,
              params: dict[str, Tensor], variant: str) -> Tensor:
    """Attention flow over the routing matrix (row = receiver).

    shared_sigmoid: per-edge weight sigmoid(leaky_relu(a . [P_i, P_j])) with
    one shared projection P = x W_p; kqv_softmax: query/key scores,
    softmaxed over each receiver's senders, applied to value projections.
    Receivers without senders get a zero message; the gated message sum
    passes through layer norm.
    """
    if variant == "shared_sigmoid":
        names = ("w_p",)
    elif variant == "kqv_softmax":
        names = ("w_v", "w_k", "w_q")
    else:
        raise PredictorError(f"unknown attention variant {variant!r}")
    attn_a, w_o = params["attn_a"], params["w_o"]
    gamma, beta = params["ln_gamma"], params["ln_beta"]
    projs = [np.matmul(x.data, params[name].data) for name in names]
    proj_v, proj_k, proj_q = projs if len(projs) == 3 else projs * 3
    d_out = w_o.shape[1]
    a_recv, a_send = attn_a.data[:d_out], attn_a.data[d_out:]
    recv = np.matmul(proj_q, a_recv)
    send = np.matmul(proj_k, a_send)
    scores = recv + np.swapaxes(send, -1, -2)
    positive = scores > 0.0
    scores = np.where(positive, scores, LEAKY_SLOPE * scores)
    if variant == "shared_sigmoid":
        attn = ad.logistic(scores)
    else:
        # push masked-out pairs far below the row max; re-masking below
        # leaves receivers with no senders at exactly zero
        biased = scores + (routing.data - 1.0) * 1e9
        e = np.exp(biased - np.max(biased, axis=-1, keepdims=True))
        attn = e / np.sum(e, axis=-1, keepdims=True)
    weights = attn * routing.data
    messages = np.matmul(weights, proj_v)
    gate = ad.logistic(np.matmul(op_emb.data, w_o.data))
    gated = gate * messages
    mu = np.mean(gated, axis=-1, keepdims=True)
    var = np.mean((gated - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (gated - mu) * inv

    def backward(g):
        g_xhat = g * gamma.data
        m1 = np.mean(g_xhat, axis=-1, keepdims=True)
        m2 = np.mean(g_xhat * xhat, axis=-1, keepdims=True)
        g_gated = inv * (g_xhat - m1 - xhat * m2)
        g_op, g_wo = ad.matmul_grads(op_emb.data, w_o.data,
                                     g_gated * messages * gate * (1.0 - gate))
        g_weights, g_v = ad.matmul_grads(weights, proj_v, g_gated * gate)
        g_attn = g_weights * routing.data
        if variant == "shared_sigmoid":
            g_scores = g_attn * attn * (1.0 - attn)
        else:
            g_scores = attn * (g_attn - np.sum(g_attn * attn, axis=-1, keepdims=True))
        g_scores = np.where(positive, g_scores, LEAKY_SLOPE * g_scores)
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

    # reverse order of use, as in dgf_layer: x once per projection
    inputs = [gamma, beta, op_emb, w_o, attn_a]
    for name in names:
        inputs += [x, params[name]]
    return ad.emit("gat_layer", xhat * gamma.data + beta.data, tuple(inputs), backward)


class PredictorModel:
    """Parameters bound to a unified vocabulary.  ``flat`` is their only
    storage; each ``params[name]`` is a reshaped view of one slice of it."""

    def __init__(self, config: PredictorConfig, vocab: UnifiedVocabulary,
                 cells_per_arch: int, arrays: dict[str, np.ndarray]):
        if cells_per_arch not in (1, 2):
            raise PredictorError(f"cells_per_arch must be 1 or 2, got {cells_per_arch}")
        if not config.unified and len(vocab.spaces) != 1:
            raise PredictorError(
                "a non-unified model binds exactly one space "
                f"(got {len(vocab.spaces)})"
            )
        self.config = config
        self.vocab = vocab
        self.cells_per_arch = cells_per_arch
        self.flat = np.concatenate(
            [np.ravel(a) for a in arrays.values()], dtype=np.float64)
        self.params: dict[str, Tensor] = {}
        offset = 0
        for name, arr in arrays.items():
            view = self.flat[offset:offset + np.size(arr)].reshape(np.shape(arr))
            self.params[name] = Tensor(view, requires_grad=True, copy=False)
            offset += view.size

    def num_params(self) -> int:
        return self.flat.size

    def check_finite(self) -> None:
        if not np.isfinite(self.flat).all():
            name = next(n for n, p in self.params.items()
                        if not np.isfinite(p.data).all())
            raise PredictorError(f"parameter {name} is non-finite")


def _layer_shapes(config: PredictorConfig, din: int, dout: int,
                  branch: str) -> dict[str, tuple]:
    d_op = config.op_embedding_dim
    if branch == "dgf":
        return {"w_o": (d_op, dout), "w_f": (din, dout), "b_f": (dout,)}
    shapes = {
        "attn_a": (2 * dout, 1),
        "w_o": (d_op, dout),
        "ln_gamma": (dout,),
        "ln_beta": (dout,),
    }
    if config.attention_variant == "shared_sigmoid":
        shapes["w_p"] = (din, dout)
    else:
        shapes.update({"w_q": (din, dout), "w_k": (din, dout), "w_v": (din, dout)})
    return shapes


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
    """

    size: int
    num_nodes: int
    ids: list[np.ndarray]          # per cell: (B, n) int64 unified ids
    routing_fwd: list[np.ndarray]  # per cell: (B, n, n) transposed adjacency
    routing_bwd: list[np.ndarray]  # per cell: (B, n, n) adjacency
    mask: list[np.ndarray]         # per cell: (B, n, 1) 1.0 for non-none nodes
    supplemental: np.ndarray | None


def prepare_batch(model: PredictorModel, archs,
                  supplemental: np.ndarray | None = None) -> PreparedBatch:
    archs = list(archs)
    if not archs:
        raise PredictorError("empty batch")
    counts = {len(a.cells) for a in archs}
    if counts != {model.cells_per_arch}:
        raise PredictorError(
            f"model expects {model.cells_per_arch} cells per arch, got {counts}"
        )
    sizes = {c.num_nodes for a in archs for c in a.cells}
    if len(sizes) != 1:
        raise PredictorError(f"batch mixes node counts {sizes}; pad cells first")
    n = sizes.pop()
    batch = len(archs)
    expected = model.config.supplemental_total
    if expected:
        if supplemental is None:
            raise PredictorError(
                f"model expects a supplemental vector of dim {expected}"
            )
        supplemental = np.asarray(supplemental, dtype=np.float64)
        if supplemental.shape != (batch, expected):
            raise PredictorError(
                f"supplemental must have shape ({batch}, {expected}), "
                f"got {supplemental.shape}"
            )
        if not np.all(np.isfinite(supplemental)):
            raise PredictorError("supplemental contains non-finite values")
    elif supplemental is not None:
        raise PredictorError("model takes no supplemental input")

    ids, routing_fwd, routing_bwd, mask = [], [], [], []
    for c in range(model.cells_per_arch):
        cells = [arch.cells[c] for arch in archs]
        stack = stack_cells(cells)
        adj = stack.adjacency.astype(np.float64)
        ids.append(np.stack([model.vocab.map_ops(cell.space_id, cell.op_ids)
                             for cell in cells]))
        routing_fwd.append(np.ascontiguousarray(adj.transpose(0, 2, 1)))
        routing_bwd.append(adj)
        mask.append((stack.ops != OP_NONE)[:, :, None].astype(np.float64))
    return PreparedBatch(batch, n, ids, routing_fwd, routing_bwd, mask, supplemental)


def _run_stack(model: PredictorModel, cell: int, tag: str, mode: str,
               dims: tuple[int, ...], x: Tensor, routing: Tensor,
               op_emb: Tensor) -> Tensor:
    cfg = model.config
    for l in range(len(dims)):
        outs = []
        if mode in ("dgf", "ensemble"):
            key = f"c{cell}.{tag}{l}.dgf."
            outs.append(dgf_layer(
                x, routing, op_emb,
                model.params[key + "w_o"],
                model.params[key + "w_f"],
                model.params[key + "b_f"],
            ))
        if mode in ("gat", "ensemble"):
            key = f"c{cell}.{tag}{l}.gat."
            gat_params = {name[len(key):]: p for name, p in model.params.items()
                          if name.startswith(key)}
            outs.append(gat_layer(x, routing, op_emb, gat_params,
                                  cfg.attention_variant))
        x = outs[0] if len(outs) == 1 else ad.scale(ad.add(outs[0], outs[1]), 0.5)
    return x


def _apply_mlp(model: PredictorModel, prefix: str, layers: int,
               x: Tensor) -> Tensor:
    """ReLU between layers, linear output."""
    for k in range(layers):
        x = ad.add(ad.matmul(x, model.params[f"{prefix}{k}.w"]),
                   model.params[f"{prefix}{k}.b"])
        if k < layers - 1:
            x = ad.relu(x)
    return x


def _cell_embedding(model: PredictorModel, batch: PreparedBatch,
                    cell: int) -> Tensor:
    cfg = model.config
    b, n = batch.size, batch.num_nodes
    d_op = cfg.op_embedding_dim
    routing_fwd = Tensor(batch.routing_fwd[cell])
    routing_bwd = Tensor(batch.routing_bwd[cell])
    flat_ids = batch.ids[cell].reshape(-1)
    op_emb = ad.reshape(ad.take(model.params["op_table"], flat_ids), (b, n, d_op))
    up_layers = len(cfg.op_update_mlp_dims) + 1
    x = op_emb
    for t in range(cfg.timesteps):
        x = _run_stack(model, cell, "f", cfg.forward_mode, cfg.gcn_dims,
                       op_emb, routing_fwd, op_emb)
        if t < cfg.timesteps - 1:
            back = _run_stack(model, cell, "b", cfg.backward_mode,
                              cfg.backward_gcn_dims, x, routing_bwd, op_emb)
            update = _apply_mlp(model, f"c{cell}.up", up_layers,
                                ad.concat([back, op_emb], axis=-1))
            op_emb = ad.add(op_emb, update)
    mask = Tensor(batch.mask[cell])
    d = cfg.nn_emb_dim
    masked = ad.mul(x, ad.broadcast(mask, (b, n, d)))
    summed = ad.sum_(masked, axis=1)
    counts = batch.mask[cell].sum(axis=1)
    inv = Tensor(1.0 / counts)
    return ad.mul(summed, ad.broadcast(inv, (b, d)))


def forward_batch(model: PredictorModel, batch: PreparedBatch) -> Tensor:
    """(B,) predicted scores; records on the active tape if any."""
    cfg = model.config
    nn_emb = _cell_embedding(model, batch, 0)
    for cell in range(1, model.cells_per_arch):
        nn_emb = ad.add(nn_emb, _cell_embedding(model, batch, cell))
    if cfg.supplemental_dims:
        supp = _apply_mlp(model, "supp", len(cfg.supp_embedder_dims),
                          Tensor(batch.supplemental))
        head_in = ad.concat([nn_emb, supp], axis=-1)
    else:
        head_in = nn_emb
    out = _apply_mlp(model, "head", len(cfg.mlp_dims) + 1, head_in)
    return ad.reshape(out, (batch.size,))


def forward(model: PredictorModel, arch: CellArch,
            supplemental: np.ndarray | None = None) -> float:
    """Score one architecture."""
    supp = None if supplemental is None else np.asarray(
        supplemental, dtype=np.float64).reshape(1, -1)
    batch = prepare_batch(model, [arch], supp)
    return float(forward_batch(model, batch).data[0])


def score_archs(model: PredictorModel, archs,
                supplemental: np.ndarray | None = None,
                chunk: int = 64) -> np.ndarray:
    """Score many architectures without building any tape.  Finite
    parameters can still overflow the forward pass (a corrupted or
    hand-edited checkpoint does); that raises PredictorError."""
    archs = list(archs)
    out = np.empty(len(archs), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(archs), chunk):
            hi = min(lo + chunk, len(archs))
            supp = None if supplemental is None else supplemental[lo:hi]
            batch = prepare_batch(model, archs[lo:hi], supp)
            out[lo:hi] = forward_batch(model, batch).data
    if not np.isfinite(out).all():
        raise PredictorError("scores are non-finite: the parameters overflow "
                             "the forward pass")
    return out


def clone_model(model: PredictorModel) -> PredictorModel:
    arrays = {name: p.data for name, p in model.params.items()}
    return PredictorModel(model.config, model.vocab, model.cells_per_arch, arrays)
