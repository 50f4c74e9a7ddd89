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

Both layer functions take a message-routing matrix M with M[i, j] = 1 when
node i receives from node j.  Cells store adjacency[i][j] = 1 for the edge
i -> j, so the forward pass routes over the transpose of the stored matrix
and the backward refinement flow routes over the stored matrix itself.

Refinement: per timestep the forward stack runs from the current op
embeddings, a backward stack runs over reversed edges from the final node
features, and a small MLP on [backward feature, current embedding] produces
an additive embedding update.  The update is local to one forward call; the
persistent table only changes by gradient descent.  After the last timestep
node features are mean-pooled over non-none nodes, optionally concatenated
with an embedded supplemental vector, and fed to an MLP head (ReLU on the
hidden layers, linear output).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cellgraph import OP_NONE, CellArch
from .encodings import UnifiedVocabulary
from .rng import Rng

LEAKY_SLOPE = 0.2
LAYER_NORM_EPS = 1e-5

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
        if self.timesteps < 1:
            raise PredictorError(f"timesteps must be >= 1, got {self.timesteps}")
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

    routing[i, j] = 1 routes node j's features into node i.
    """
    gate = ad.sigmoid(ad.matmul(op_emb, w_o))
    h = ad.matmul(x, w_f)
    agg = ad.matmul(routing, h)
    return ad.add(ad.add(ad.mul(gate, agg), h), b_f)


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
        proj_q = proj_v = ad.matmul(x, params["w_p"])
        proj_k = proj_q
    elif variant == "kqv_softmax":
        proj_q = ad.matmul(x, params["w_q"])
        proj_k = ad.matmul(x, params["w_k"])
        proj_v = ad.matmul(x, params["w_v"])
    else:
        raise PredictorError(f"unknown attention variant {variant!r}")
    d_out = params["w_o"].shape[1]
    a_recv = ad.slice_axis(params["attn_a"], 0, 0, d_out)
    a_send = ad.slice_axis(params["attn_a"], 0, d_out, 2 * d_out)
    recv_score = ad.matmul(proj_q, a_recv)
    send_score = ad.matmul(proj_k, a_send)
    pair_shape = routing.shape
    scores = ad.add(
        ad.broadcast(recv_score, pair_shape),
        ad.broadcast(ad.transpose(send_score), pair_shape),
    )
    scores = ad.leaky_relu(scores, LEAKY_SLOPE)
    if variant == "shared_sigmoid":
        weights = ad.mul(ad.sigmoid(scores), routing)
    else:
        # push masked-out pairs far below the row max; re-mask afterwards so
        # receivers with no senders end at exactly zero
        bias = Tensor((routing.data - 1.0) * 1e9)
        weights = ad.mul(ad.softmax(ad.add(scores, bias), axis=-1), routing)
    messages = ad.matmul(weights, proj_v)
    gate = ad.sigmoid(ad.matmul(op_emb, params["w_o"]))
    return ad.layer_norm(
        ad.mul(gate, messages), params["ln_gamma"], params["ln_beta"],
        eps=LAYER_NORM_EPS,
    )


class PredictorModel:
    """Parameter container bound to a unified vocabulary."""

    def __init__(self, config: PredictorConfig, vocab: UnifiedVocabulary,
                 cells_per_arch: int, params: dict[str, Tensor]):
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
        self.params = params

    def num_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def check_finite(self) -> None:
        for name, p in self.params.items():
            if not np.all(np.isfinite(p.data)):
                raise PredictorError(f"parameter {name} is non-finite")


def _gat_param_names(variant: str) -> tuple[str, ...]:
    proj = ("w_p",) if variant == "shared_sigmoid" else ("w_q", "w_k", "w_v")
    return proj + ("attn_a", "w_o", "ln_gamma", "ln_beta")


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


def _init_tensor(name: str, shape: tuple, rng: Rng, d_op: int) -> Tensor:
    stream = rng.child("param", name)
    size = int(np.prod(shape))
    if name == "op_table":
        sigma = 1.0 / np.sqrt(d_op)
        values = [stream.normal(0.0, sigma) for _ in range(size)]
    elif name.endswith((".b", ".b_f", ".ln_beta")):
        values = [0.0] * size
    elif name.endswith(".ln_gamma"):
        values = [1.0] * size
    else:
        if len(shape) == 1:
            fan_in, fan_out = shape[0], shape[0]
        else:
            fan_in, fan_out = shape[0], shape[1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        values = [stream.uniform(-limit, limit) for _ in range(size)]
    arr = np.array(values, dtype=np.float64).reshape(shape)
    return Tensor(arr, requires_grad=True)


def init(config: PredictorConfig, vocab: UnifiedVocabulary,
         cells_per_arch: int, seed: int) -> PredictorModel:
    """Deterministic initialization; every tensor draws from its own named
    stream, so layouts with shared prefixes initialize identically."""
    rng = Rng(seed).child("init")
    params = {
        name: _init_tensor(name, shape, rng, config.op_embedding_dim)
        for name, shape in parameter_shapes(
            config, vocab.size, cells_per_arch
        ).items()
    }
    return PredictorModel(config, vocab, cells_per_arch, params)


@dataclass
class PreparedBatch:
    """Numeric views of a batch of architectures, ready for the graph stacks."""

    size: int
    num_nodes: int
    ids: list[np.ndarray]          # per cell: (B, n) int64 unified ids
    routing_fwd: list[np.ndarray]  # per cell: (B, n, n) transpose of storage
    routing_bwd: list[np.ndarray]  # per cell: (B, n, n) storage adjacency
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
        cid = np.zeros((batch, n), dtype=np.int64)
        fwd = np.zeros((batch, n, n), dtype=np.float64)
        bwd = np.zeros((batch, n, n), dtype=np.float64)
        msk = np.zeros((batch, n, 1), dtype=np.float64)
        for b, arch in enumerate(archs):
            cell = arch.cells[c]
            cid[b] = model.vocab.map_ops(cell.space_id, cell.op_ids)
            adj = cell.adjacency.astype(np.float64)
            fwd[b] = adj.T
            bwd[b] = adj
            msk[b, :, 0] = [1.0 if op != OP_NONE else 0.0 for op in cell.op_ids]
        ids.append(cid)
        routing_fwd.append(fwd)
        routing_bwd.append(bwd)
        mask.append(msk)
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
            gat_params = {
                pname: model.params[key + pname]
                for pname in _gat_param_names(cfg.attention_variant)
            }
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
    """Score many architectures without building any tape."""
    archs = list(archs)
    out = np.empty(len(archs), dtype=np.float64)
    for lo in range(0, len(archs), chunk):
        hi = min(lo + chunk, len(archs))
        supp = None if supplemental is None else supplemental[lo:hi]
        batch = prepare_batch(model, archs[lo:hi], supp)
        out[lo:hi] = forward_batch(model, batch).data
    return out


def clone_model(model: PredictorModel) -> PredictorModel:
    params = {
        name: Tensor(p.data.copy(), requires_grad=True)
        for name, p in model.params.items()
    }
    return PredictorModel(model.config, model.vocab, model.cells_per_arch, params)
