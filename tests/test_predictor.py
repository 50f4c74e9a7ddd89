"""Predictor layers, initialization and forward symmetries.

The attention layer is compared against a straight-line numpy oracle that
evaluates the pairwise scores, masking and normalization without any tape
machinery.
"""

import hashlib
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

import flan.autodiff as ad
from flan import predictor
from flan.autodiff import Tensor
from flan.benchmark import make_vocab
from flan.cellgraph import CellArch, CellGraph, validate_cells
from flan.encodings import EncodingError, unify
from flan.predictor import (
    LAYER_NORM_EPS,
    LEAKY_SLOPE,
    PredictorConfig,
    PredictorError,
    PreparedBatch,
    _cell_embedding,
    _dgf,
    _ensemble,
    _gat,
    _gate_of,
    clone_model,
    dense_layer,
    forward_batch,
    init,
    masked_mean_pool,
    parameter_shapes,
    prepare_batch,
    score_archs,
)
from flan.rng import Rng
from flan.training import save_model

from conftest import (
    arch_of,
    chain_cell,
    jitter_params,
    pad,
    permute,
    random_valid_cell,
    ref_config,
    tiny_config,
    unified_of,
    weighted_sum,
)
from gradcheck import grad_check


def make_model(config=None, vocab_size=5, cells=1, seed=0, space_id=0):
    config = config or tiny_config()
    vocab = unify([make_vocab(space_id, vocab_size)])
    return init(config, vocab, cells, seed)


def randa(rng, shape, scale=1.0):
    flat = np.array([rng.normal(0.0, scale) for _ in range(int(np.prod(shape)))])
    return flat.reshape(shape)


# -- config validation ------------------------------------------------------------

def test_config_defaults_match_reference_table():
    cfg = PredictorConfig()
    assert cfg.op_embedding_dim == 48
    assert cfg.node_embedding_dim == 48
    assert cfg.hidden_dim == 96
    assert cfg.gcn_dims == (128,) * 5
    assert cfg.mlp_dims == (200,) * 3
    assert cfg.backward_gcn_dims == (128,) * 5
    assert cfg.op_update_mlp_dims == (128,)
    assert cfg.supp_embedder_dims == (128, 128)
    assert cfg.nn_emb_dim == 128
    assert cfg.timesteps == 2
    assert cfg.forward_mode == "ensemble"
    assert cfg.attention_variant == "shared_sigmoid"


def test_config_rejections():
    with pytest.raises(PredictorError):
        tiny_config(timesteps=0)
    with pytest.raises(PredictorError, match="between 1 and 64, got 65"):
        tiny_config(timesteps=65)
    with pytest.raises(PredictorError, match="timesteps must be integer"):
        tiny_config(timesteps=1.5)
    with pytest.raises(PredictorError, match="mlp_dims must be integer"):
        tiny_config(mlp_dims=(4.0,))
    with pytest.raises(PredictorError):
        tiny_config(forward_mode="mlp")
    with pytest.raises(PredictorError):
        tiny_config(attention_variant="dot")
    with pytest.raises(PredictorError):
        tiny_config(gcn_dims=(8, 0))
    with pytest.raises(PredictorError):
        tiny_config(op_embedding_dim=6, node_embedding_dim=8)
    with pytest.raises(PredictorError):
        tiny_config(nn_emb_dim=99)
    with pytest.raises(PredictorError):
        tiny_config(supplemental_dims=(4,), supp_embedder_dims=())


@pytest.mark.parametrize("name, value", [("timesteps", True), ("gcn_dims", (8, False))])
def test_config_counts_no_bool_as_an_integer(name, value):
    with pytest.raises(PredictorError, match=f"{name} must be integer-valued"):
        tiny_config(**{name: value})


def test_config_dict_round_trip():
    cfg = tiny_config(attention_variant="kqv_softmax", supplemental_dims=(3, 5))
    assert PredictorConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg
    assert cfg.supplemental_total == 8


# -- dgf layer ----------------------------------------------------------------------

# each graph-stack level is one layer body recorded under its tape record
# name, as predictor._run_stack records it

def emit_dgf(x, routing, routing_t, op_emb, w_o, w_f, b_f, rows=None):
    return ad.emit("dgf_layer",
                   *_dgf(x, routing, routing_t, op_emb, w_o, w_f, b_f, rows))


def emit_gat(x, routing, op_emb, params, variant, rows=None):
    return ad.emit("gat_layer", *_gat(x, routing, op_emb, params, variant, rows))


def emit_ensemble(x, routing, routing_t, op_emb, dgf, gat, variant, rows):
    return ad.emit("ensemble_layer", *_ensemble(x, routing, routing_t, op_emb,
                                                dgf, gat, variant, rows))


def transposed(routing):
    """The contiguous routing_t that prepared batches hand _dgf."""
    return np.ascontiguousarray(np.swapaxes(routing, -1, -2))


def test_dgf_zero_weights_annihilate():
    rng = Rng(0)
    x = Tensor(randa(rng, (3, 4)))
    routing = randa(rng, (3, 3))
    op_emb = Tensor(randa(rng, (3, 4)))
    out = emit_dgf(
        x, routing, transposed(routing), op_emb,
        w_o=Tensor(randa(rng, (4, 2))),
        w_f=Tensor(np.zeros((4, 2))),
        b_f=Tensor(np.zeros(2)),
    )
    np.testing.assert_array_equal(out.data, np.zeros((3, 2)))


def test_dgf_no_edges_is_residual_only():
    rng = Rng(1)
    x = Tensor(randa(rng, (3, 4)))
    out = emit_dgf(
        x, np.zeros((3, 3)), np.zeros((3, 3)), Tensor(randa(rng, (3, 4))),
        w_o=Tensor(randa(rng, (4, 4))),
        w_f=Tensor(np.eye(4)),
        b_f=Tensor(np.zeros(4)),
    )
    np.testing.assert_allclose(out.data, x.data)


def test_dgf_two_node_chain_half_gate():
    # gate = sigmoid(0) = 0.5 everywhere; receiver row mixes half the sender
    x = Tensor(np.eye(2))
    routing = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = emit_dgf(
        x, routing, transposed(routing), Tensor(np.ones((2, 3))),
        w_o=Tensor(np.zeros((3, 2))),
        w_f=Tensor(np.eye(2)),
        b_f=Tensor(np.zeros(2)),
    )
    np.testing.assert_allclose(out.data[0], [1.0, 0.0])
    np.testing.assert_allclose(out.data[1], [0.5, 1.0])


def test_dgf_oracle_random():
    rng = Rng(2)
    for _ in range(20):
        n, din, dout = 4, 3, 5
        x = randa(rng, (n, din))
        routing = (randa(rng, (n, n)) > 0).astype(np.float64)
        op_emb = randa(rng, (n, din))
        w_o = randa(rng, (din, dout))
        w_f = randa(rng, (din, dout))
        b_f = randa(rng, (dout,))
        got = emit_dgf(
            Tensor(x), routing, transposed(routing), Tensor(op_emb),
            Tensor(w_o), Tensor(w_f), Tensor(b_f),
        ).data
        gate = 1.0 / (1.0 + np.exp(-(op_emb @ w_o)))
        h = x @ w_f
        want = gate * (routing @ h) + h + b_f
        np.testing.assert_allclose(got, want, atol=1e-12)


# -- gat layer -----------------------------------------------------------------------

def leaky(v):
    return np.where(v > 0, v, LEAKY_SLOPE * v)


def sigmoid_np(v):
    # same piecewise form as the tape op so bitwise comparisons hold
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ex = np.exp(v[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ln_rows(x, gamma, beta, eps=LAYER_NORM_EPS):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return (x - mu) * inv * gamma + beta


def gat_oracle(x, routing, op_emb, params, variant):
    if variant == "shared_sigmoid":
        q = k = v = x @ params["w_p"]
    else:
        q = x @ params["w_q"]
        k = x @ params["w_k"]
        v = x @ params["w_v"]
    d = q.shape[1]
    a_recv = params["attn_a"][:d, 0]
    a_send = params["attn_a"][d:, 0]
    n = x.shape[0]
    scores = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            scores[i, j] = leaky(np.array(q[i] @ a_recv + k[j] @ a_send))
    if variant == "shared_sigmoid":
        weights = sigmoid_np(scores) * routing
    else:
        biased = scores + (routing - 1.0) * 1e9
        e = np.exp(biased - biased.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True) * routing
    messages = weights @ v
    gate = sigmoid_np(op_emb @ params["w_o"])
    return ln_rows(gate * messages, params["ln_gamma"], params["ln_beta"])


def gat_params(rng, din, dout, variant):
    names = (
        ("w_p",) if variant == "shared_sigmoid" else ("w_q", "w_k", "w_v")
    )
    params = {name: randa(rng, (din, dout)) for name in names}
    params["attn_a"] = randa(rng, (2 * dout, 1))
    params["w_o"] = randa(rng, (din, dout))
    params["ln_gamma"] = randa(rng, (dout,), scale=0.5) + 1.0
    params["ln_beta"] = randa(rng, (dout,), scale=0.5)
    return params


@pytest.mark.parametrize("variant", ["shared_sigmoid", "kqv_softmax"])
def test_gat_matches_straight_line_oracle(variant):
    rng = Rng(3)
    for _ in range(20):
        n, din, dout = 3, 4, 5
        x = randa(rng, (n, din))
        routing = (randa(rng, (n, n)) > 0).astype(np.float64)
        op_emb = randa(rng, (n, din))
        params = gat_params(rng, din, dout, variant)
        got = emit_gat(
            Tensor(x), routing, Tensor(op_emb),
            {k: Tensor(v) for k, v in params.items()}, variant,
        ).data
        want = gat_oracle(x, routing, op_emb, params, variant)
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("variant", ["shared_sigmoid", "kqv_softmax"])
def test_gat_no_edges_gives_bias_rows(variant):
    rng = Rng(4)
    n, din, dout = 3, 4, 5
    params = gat_params(rng, din, dout, variant)
    out = emit_gat(
        Tensor(randa(rng, (n, din))),
        np.zeros((n, n)),
        Tensor(randa(rng, (n, din))),
        {k: Tensor(v) for k, v in params.items()}, variant,
    ).data
    want = np.tile(params["ln_beta"], (n, 1))
    np.testing.assert_array_equal(out, want)


def test_gat_singleton_softmax_weight_is_exactly_one():
    # receiver 1 hears only node 0: its message must be exactly v_0
    rng = Rng(5)
    n, din, dout = 2, 3, 4
    x = randa(rng, (n, din))
    op_emb = randa(rng, (n, din))
    routing = np.array([[0.0, 0.0], [1.0, 0.0]])
    params = gat_params(rng, din, dout, "kqv_softmax")
    got = emit_gat(
        Tensor(x), routing, Tensor(op_emb),
        {k: Tensor(v) for k, v in params.items()}, "kqv_softmax",
    ).data
    v = x @ params["w_v"]
    gate = sigmoid_np(op_emb @ params["w_o"])
    messages = np.stack([np.zeros(dout), v[0]])
    want = ln_rows(gate * messages, params["ln_gamma"], params["ln_beta"])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("variant", ["shared_sigmoid", "kqv_softmax"])
@pytest.mark.parametrize("batch", [1, 2, 16, 64])
def test_table_row_gates_give_the_bytes_of_per_node_gates(variant, batch):
    # until the refinement update op_emb is op_table[ids], and the layers
    # compute its gate once per table row; a GEMM row's bytes do not depend
    # on the row count for outputs at least 4 wide, so the gathered gates and
    # the layer outputs must equal the per-node computation byte for byte
    rng = np.random.default_rng(batch)
    n, d_op, din = 7, 48, 16
    routing = (rng.random((batch, n, n)) < 0.4).astype(np.float64)
    x = Tensor(rng.standard_normal((batch, n, din)))
    for vocab in (3, 8, 37):
        table = rng.standard_normal((vocab, d_op))
        flat_ids = rng.integers(0, vocab, batch * n)
        rows = (table, flat_ids)
        op_emb = Tensor(table[flat_ids].reshape(batch, n, d_op))
        for dout in (4, 5, 8, 16, 128):
            w_o = Tensor(rng.standard_normal((d_op, dout)))
            want = ad.logistic(ad.fold_matmul(op_emb.data, w_o.data))
            assert _gate_of(op_emb, w_o, rows)().tobytes() == want.tobytes()
            dgf = {"w_o": w_o, "w_f": Tensor(rng.standard_normal((din, dout))),
                   "b_f": Tensor(rng.standard_normal(dout))}
            routing_t = transposed(routing)
            assert (emit_dgf(x, routing, routing_t, op_emb, **dgf,
                             rows=rows).data.tobytes()
                    == emit_dgf(x, routing, routing_t, op_emb, **dgf).data.tobytes())
            gat = {k: Tensor(v) for k, v in
                   gat_params(Rng(dout), din, dout, variant).items()}
            gat["w_o"] = w_o
            assert (emit_gat(x, routing, op_emb, gat, variant, rows).data.tobytes()
                    == emit_gat(x, routing, op_emb, gat, variant).data.tobytes())


# -- layer gradients -----------------------------------------------------------------

@pytest.mark.parametrize("layer", ["dgf", "shared_sigmoid", "kqv_softmax"])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("shared", [False, True], ids=["op_emb", "x_is_op_emb"])
def test_layer_gradients_match_finite_differences(layer, lead, shared):
    # each layer is one tape op with a written-out backward; check it at a
    # generic point, including the first-layer case where x is op_emb
    rng = Rng(6)
    n, din, dout = 4, 3, 5
    x = Tensor(randa(rng, lead + (n, din)), requires_grad=True)
    op_emb = x if shared else Tensor(randa(rng, lead + (n, din)), requires_grad=True)
    # node 0 receives nothing; the others hear every node, so rows mix
    # score signs and the receiver half of the attention vector matters
    routing = np.ones(lead + (n, n))
    routing[..., 0, :] = 0.0
    if layer == "dgf":
        arrays = {"w_o": randa(rng, (din, dout)), "w_f": randa(rng, (din, dout)),
                  "b_f": randa(rng, (dout,))}
    else:
        arrays = gat_params(rng, din, dout, layer)
    params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    weights = Tensor(randa(rng, lead + (n, dout)))

    def loss():
        if layer == "dgf":
            out = emit_dgf(x, routing, transposed(routing), op_emb, **params)
        else:
            out = emit_gat(x, routing, op_emb, params, layer)
        return weighted_sum(out, weights)

    checked = {"x": x, **params} if shared else {"x": x, "op_emb": op_emb, **params}
    report = grad_check(loss, checked)
    assert report.ok(rel_tol=1e-5), [
        (b.name, b.max_rel_err, b.worst_index) for b in report.blocks]
    assert all(b.checked_entries for b in report.blocks)


def ensemble_level(variant, table_rows, seed=9):
    """A loss over one ensemble level and the leaves it reads.  With
    table_rows, op_emb is gathered from an op table and is also x, as at
    the first level of a timestep-0 stack; otherwise both are free, as
    after the first refinement update."""
    rng = Rng(seed)
    b, n, d, dout = 2, 4, 3, 5
    flat_ids = np.array([0, 2, 1, 2, 2, 0, 1, 1])
    table = Tensor(randa(rng, (3, d)), requires_grad=True)
    x = Tensor(randa(rng, (b, n, d)), requires_grad=True)
    free_op_emb = Tensor(randa(rng, (b, n, d)), requires_grad=True)
    routing = np.ones((b, n, n))
    routing[..., 0, :] = 0.0
    dgf = {k: Tensor(randa(rng, shape), requires_grad=True) for k, shape in
           (("w_o", (d, dout)), ("w_f", (d, dout)), ("b_f", (dout,)))}
    gat = {k: Tensor(v, requires_grad=True)
           for k, v in gat_params(rng, d, dout, variant).items()}
    weights = Tensor(randa(rng, (b, n, dout)))

    def loss(layer=emit_ensemble):
        if table_rows:
            op_emb = ad.reshape(ad.take(table, flat_ids), (b, n, d))
            inp, rows = op_emb, (table.data, flat_ids)
        else:
            op_emb, inp, rows = free_op_emb, x, None
        out = layer(inp, routing, transposed(routing), op_emb, dgf, gat,
                    variant, rows)
        return weighted_sum(out, weights)

    leaves = {"table": table} if table_rows else {"x": x, "op_emb": free_op_emb}
    leaves.update({f"dgf.{k}": v for k, v in dgf.items()})
    leaves.update({f"gat.{k}": v for k, v in gat.items()})
    return loss, leaves


@pytest.mark.parametrize("variant", ["shared_sigmoid", "kqv_softmax"])
@pytest.mark.parametrize("table_rows", [True, False], ids=["table_rows", "free_op_emb"])
def test_ensemble_level_gradients_match_finite_differences(variant, table_rows):
    loss, leaves = ensemble_level(variant, table_rows)
    report = grad_check(loss, leaves)
    assert report.ok(rel_tol=1e-5), [
        (b.name, b.max_rel_err, b.worst_index) for b in report.blocks]
    assert all(b.checked_entries for b in report.blocks)


@pytest.mark.parametrize("variant", ["shared_sigmoid", "kqv_softmax"])
@pytest.mark.parametrize("table_rows", [True, False], ids=["table_rows", "free_op_emb"])
def test_ensemble_level_gives_the_bytes_of_two_recorded_layers(variant, table_rows):
    # one record for the level, with the output and leaf gradients of the
    # two layers recorded one after the other, added and halved
    def two_layers(x, routing, routing_t, op_emb, dgf, gat, variant, rows):
        mean = ad.add(emit_dgf(x, routing, routing_t, op_emb, **dgf, rows=rows),
                      emit_gat(x, routing, op_emb, gat, variant, rows))
        return ad.emit("scale", mean.data * 0.5, (mean,), lambda g: (g * 0.5,))

    loss, leaves = ensemble_level(variant, table_rows)
    results = []
    for layer in (emit_ensemble, two_layers):
        with ad.Tape() as tape:
            out = loss(layer)
            tape.backward(out)
        results.append([out.data.tobytes()]
                       + [leaf.grad.tobytes() for leaf in leaves.values()])
        for leaf in leaves.values():
            leaf.grad = None
    assert results[0] == results[1]


@pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
@pytest.mark.parametrize("lead", [(5,), (2, 4)], ids=["2d", "3d"])
def test_dense_layer_gradients_match_finite_differences(relu, lead):
    rng = Rng(7)
    x = Tensor(randa(rng, lead + (3,)), requires_grad=True)
    params = {"w": Tensor(randa(rng, (3, 4)), requires_grad=True),
              "b": Tensor(randa(rng, (4,)), requires_grad=True)}
    weights = Tensor(randa(rng, lead + (4,)))
    out = dense_layer(x, params["w"], params["b"], relu)
    h = x.data @ params["w"].data + params["b"].data
    np.testing.assert_array_equal(out.data, np.maximum(h, 0.0) if relu else h)
    if relu:  # both sides of the kink are exercised, none sits on it
        assert (h > 0.0).any() and (h < 0.0).any() and np.abs(h).min() > 1e-3
    report = grad_check(
        lambda: weighted_sum(dense_layer(x, params["w"], params["b"], relu), weights),
        {"x": x, **params})
    assert report.ok(rel_tol=1e-6), [(b.name, b.max_rel_err) for b in report.blocks]
    assert all(b.checked_entries for b in report.blocks)


def test_masked_mean_pool_gradients_skip_padded_nodes():
    rng = Rng(8)
    x = Tensor(randa(rng, (3, 5, 4)), requires_grad=True)
    # rows keep 5, 3 and 2 nodes; the rest are padded none nodes
    mask = np.zeros((3, 5, 1))
    mask[0] = 1.0
    mask[1, [0, 2, 4]] = 1.0
    mask[2, [0, 4]] = 1.0
    pooled = masked_mean_pool(x, mask)
    want = np.stack([x.data[b][mask[b, :, 0] > 0].mean(axis=0) for b in range(3)])
    np.testing.assert_allclose(pooled.data, want, rtol=1e-15, atol=1e-15)
    weights = Tensor(randa(rng, (3, 4)))
    report = grad_check(lambda: weighted_sum(masked_mean_pool(x, mask), weights),
                           {"x": x})
    assert report.ok(rel_tol=1e-6)
    with ad.Tape() as tape:
        tape.backward(weighted_sum(masked_mean_pool(x, mask), weights))
    counts = mask.sum(axis=1)
    np.testing.assert_array_equal(x.grad == 0.0, np.broadcast_to(mask == 0.0, x.shape))
    np.testing.assert_allclose(x.grad, mask * (weights.data / counts)[:, None, :],
                               rtol=1e-15)


# -- initialization --------------------------------------------------------------------

def test_init_same_seed_bit_identical():
    a = make_model(seed=42)
    b = make_model(seed=42)
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()


def test_init_different_seeds_differ():
    a = make_model(seed=1)
    b = make_model(seed=2)
    changed = [
        name for name in a.params
        if a.params[name].data.tobytes() != b.params[name].data.tobytes()
    ]
    assert "op_table" in changed
    assert any(name.startswith("c0.f0.") for name in changed)


# sha256 of save_model for a fresh init (8-op vocabulary, one cell, seed 0);
# any change to the init streams or their float mapping alters a byte here
INIT_DIGESTS = {
    "paper-default": "ef01c065f6082a8b9995413f2f382d18dd092dabbff3dfed3d620ad8c01ca737",
    "reference": "1625d56435de3d256ddeb1613832f8e4aacf31dcc78b138eb09ef51f357098b1",
}


@pytest.mark.parametrize("label", sorted(INIT_DIGESTS))
def test_init_gives_pinned_bytes(tmp_path, label):
    config = PredictorConfig() if label == "paper-default" else ref_config()
    model = make_model(config, vocab_size=8)
    save_model(model, tmp_path / "init.ckpt")
    digest = hashlib.sha256((tmp_path / "init.ckpt").read_bytes()).hexdigest()
    assert digest == INIT_DIGESTS[label]


def test_init_uniform_tensors_equal_scalar_uniform_draws():
    model = make_model(seed=3)
    root = Rng(3).child("init")
    drawn = 0
    for name, p in model.params.items():
        if name == "op_table" or name.endswith((".b", ".b_f", ".ln_beta", ".ln_gamma")):
            continue
        stream = root.child("param", name)
        limit = np.sqrt(6.0 / (p.data.shape[0] + p.data.shape[-1]))
        expected = [stream.uniform(-limit, limit) for _ in range(p.data.size)]
        assert p.data.ravel().tolist() == expected, name
        drawn += 1
    assert drawn > 10


def test_init_distributions():
    model = make_model(seed=7)
    for name, p in model.params.items():
        if name == "op_table":
            continue
        if name.endswith((".b", ".b_f", ".ln_beta")):
            assert not p.data.any(), name
        elif name.endswith(".ln_gamma"):
            assert np.all(p.data == 1.0), name
        else:
            shape = p.data.shape
            fan_in = shape[0]
            fan_out = shape[1] if len(shape) > 1 else shape[0]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(p.data) <= limit), name


def test_parameter_shapes_layout():
    cfg = tiny_config(attention_variant="kqv_softmax")
    shapes = parameter_shapes(cfg, vocab_size=9, cells_per_arch=2)
    assert shapes["op_table"] == (9, cfg.op_embedding_dim)
    assert "c0.f0.dgf.w_f" in shapes and "c0.f0.gat.w_q" in shapes
    assert "c1.b0.gat.w_v" in shapes
    assert "w_p" not in {k.rsplit(".", 1)[-1] for k in shapes if ".gat." in k}
    assert shapes["c0.f0.dgf.w_f"] == (cfg.op_embedding_dim, cfg.gcn_dims[0])
    assert shapes["c0.f1.dgf.w_f"] == (cfg.gcn_dims[0], cfg.gcn_dims[1])
    # update MLP maps [backward out, op emb] back to the op embedding width
    assert shapes["c0.up0.w"] == (
        cfg.backward_gcn_dims[-1] + cfg.op_embedding_dim,
        cfg.op_update_mlp_dims[0],
    )
    assert shapes["c0.up1.w"] == (cfg.op_update_mlp_dims[0], cfg.op_embedding_dim)
    assert shapes["head0.w"] == (cfg.nn_emb_dim, cfg.mlp_dims[0])
    assert shapes[f"head{len(cfg.mlp_dims)}.w"] == (cfg.mlp_dims[-1], 1)


def test_shared_sigmoid_uses_single_projection():
    shapes = parameter_shapes(tiny_config(), vocab_size=5, cells_per_arch=1)
    gat_names = {k.rsplit(".", 1)[-1] for k in shapes if ".gat." in k}
    assert "w_p" in gat_names and "w_q" not in gat_names


def test_supplemental_parameters_present_only_when_configured():
    plain = parameter_shapes(tiny_config(), 5, 1)
    assert not any(k.startswith("supp") for k in plain)
    supp = parameter_shapes(tiny_config(supplemental_dims=(4,)), 5, 1)
    assert supp["supp0.w"] == (4, 6)
    assert supp["head0.w"][0] == tiny_config().nn_emb_dim + 6


def test_model_num_params_and_finite_check():
    model = make_model()
    total = sum(p.data.size for p in model.params.values())
    assert model.num_params() == total
    model.check_finite()
    model.params["c0.f1.gat.ln_beta"].data[2] = np.nan
    with pytest.raises(PredictorError, match=r"c0\.f1\.gat\.ln_beta"):
        model.check_finite()


def test_parameters_are_views_of_the_flat_vector():
    model = make_model()
    assert all(p.data.base is model.flat for p in model.params.values())
    model.flat[:] = np.arange(model.flat.size)
    offset = 0
    for p in model.params.values():
        np.testing.assert_array_equal(
            p.data.ravel(), np.arange(offset, offset + p.data.size))
        offset += p.data.size
    assert offset == model.flat.size


def test_overflowing_parameters_raise_instead_of_scoring():
    model = make_model()
    model.flat[:] = 1e200  # finite, so a checkpoint holding it loads
    with pytest.raises(PredictorError, match="scores are non-finite"):
        score_archs(model, [arch_of(chain_cell(4))])


def test_clone_is_independent():
    model = make_model()
    twin = clone_model(model)
    assert twin.flat.tobytes() == model.flat.tobytes()
    twin.params["op_table"].data[0, 0] += 1.0
    twin.flat[-1] += 1.0
    assert model.params["op_table"].data[0, 0] != twin.params["op_table"].data[0, 0]
    assert model.flat[-1] != twin.flat[-1]


def test_single_timestep_builds_no_refinement_parameters():
    shapes = parameter_shapes(tiny_config(timesteps=1), 5, 2)
    assert not [k for k in shapes if k.startswith("c") and ".up" in k]
    assert not [k for k in shapes if k.startswith(("c0.b", "c1.b"))]
    two = parameter_shapes(tiny_config(timesteps=2), 5, 2)
    assert {k: v for k, v in two.items() if k in shapes} == shapes


# -- forward ------------------------------------------------------------------------------

def test_forward_is_deterministic():
    model = make_model()
    arch = arch_of(chain_cell(4))
    assert score_archs(model, [arch])[0] == score_archs(model, [arch])[0]


def test_zero_update_makes_timesteps_equivalent():
    cfg2 = tiny_config(timesteps=2)
    cfg1 = tiny_config(timesteps=1)
    m2 = make_model(config=cfg2, seed=3)
    for name, p in m2.params.items():
        if ".up" in name:
            p.data[...] = 0.0
    m1 = init(cfg1, m2.vocab, 1, seed=3)
    for name, p in m1.params.items():
        p.data[...] = m2.params[name].data
    arch = arch_of(random_valid_cell(Rng(8), 5, 5))
    assert score_archs(m1, [arch])[0] == score_archs(m2, [arch])[0]


def test_nonzero_update_changes_prediction_with_timesteps():
    m2 = make_model(config=tiny_config(timesteps=2), seed=3)
    jitter_params(m2, seed=10)
    m1 = init(tiny_config(timesteps=1), m2.vocab, 1, seed=3)
    for name, p in m1.params.items():
        p.data[...] = m2.params[name].data
    arch = arch_of(random_valid_cell(Rng(8), 5, 5))
    assert score_archs(m1, [arch])[0] != score_archs(m2, [arch])[0]


@pytest.mark.parametrize("mode", ["dgf", "gat", "ensemble"])
def test_forward_permutation_invariance(mode):
    cfg = tiny_config(forward_mode=mode, backward_mode=mode)
    model = make_model(config=cfg, seed=5)
    jitter_params(model, seed=6)
    rng = Rng(99)
    for _ in range(12):
        n = 3 + rng.randint(4)
        cell = random_valid_cell(rng, n, 5)
        perm = list(range(n))
        rng.shuffle(perm)
        base = score_archs(model, [arch_of(cell)])[0]
        moved = score_archs(model, [arch_of(permute(cell, perm))])[0]
        assert abs(base - moved) <= 1e-8


def test_forward_padding_invariance():
    model = make_model(seed=5)
    jitter_params(model, seed=6)
    rng = Rng(100)
    for _ in range(12):
        n = 3 + rng.randint(3)
        cell = random_valid_cell(rng, n, 5)
        base = score_archs(model, [arch_of(cell)])[0]
        padded = score_archs(model, [arch_of(pad(cell, n + 2))])[0]
        assert abs(base - padded) <= 1e-8


def test_two_cell_embeddings_add():
    model = make_model(config=tiny_config(), cells=2, seed=9)
    jitter_params(model, seed=2)
    a = random_valid_cell(Rng(1), 4, 5)
    b = random_valid_cell(Rng(2), 4, 5)
    ab = score_archs(model, [CellArch((a, b), 0)])[0]
    # adding per-cell embeddings is symmetric up to the head MLP only when
    # the per-cell encoders share weights, which they do not; just pin the
    # batch path against the single path
    batch = prepare_batch(model, [CellArch((a, b), 0), CellArch((b, a), 1)])
    scores = forward_batch(model, batch).data
    assert scores[0] == pytest.approx(ab, abs=1e-12)


def test_score_archs_matches_forward_chunked(monkeypatch):
    model = make_model(seed=11)
    jitter_params(model, seed=3)
    rng = Rng(55)
    archs = [arch_of(random_valid_cell(rng, 4, 5), i) for i in range(7)]
    monkeypatch.setattr(predictor, "SCORE_CHUNK", 3)
    scores = score_archs(model, archs)
    monkeypatch.setattr(predictor, "SCORE_CHUNK", 1)
    singles = score_archs(model, archs)
    np.testing.assert_allclose(scores, singles, atol=1e-9)


@pytest.mark.parametrize("config, count", [
    (ref_config(), 70),
    (ref_config(attention_variant="kqv_softmax"), 70),
    (PredictorConfig(), 5),
], ids=["reference", "reference-kqv", "paper-default"])
def test_graph_stacks_give_the_same_bytes_for_every_chunk(config, count):
    # every weight product in the stacks is one GEMM over batch x node rows,
    # and each row's sums do not depend on the other rows; the head's
    # one-column output layer runs through GEMV, whose sums do depend on a
    # row's place in the batch, so score_archs is compared with a tolerance
    model = make_model(config, seed=3)
    jitter_params(model, seed=4)
    rng = Rng(8)
    archs = [arch_of(random_valid_cell(rng, 6, 5), i) for i in range(count)]
    pooled = []
    for chunk in (1, 3, 64):
        parts = [_cell_embedding(model, prepare_batch(model, archs[lo:lo + chunk]), 0)
                 for lo in range(0, count, chunk)]
        pooled.append(np.concatenate([p.data for p in parts]).tobytes())
    assert pooled[0] == pooled[1] == pooled[2]


# -- batch validation -----------------------------------------------------------------------

def test_prepare_batch_errors():
    model = make_model()
    with pytest.raises(PredictorError):
        prepare_batch(model, [])
    with pytest.raises(PredictorError):
        prepare_batch(model, [arch_of(chain_cell(3)), arch_of(chain_cell(4))])
    two_cell = CellArch((chain_cell(3), chain_cell(3)), 0)
    with pytest.raises(PredictorError):
        prepare_batch(model, [two_cell])
    with pytest.raises(PredictorError):
        prepare_batch(model, [arch_of(chain_cell(3))], np.zeros((1, 4)))


def test_supplemental_batch_validation():
    cfg = tiny_config(supplemental_dims=(4,))
    model = make_model(config=cfg)
    arch = arch_of(chain_cell(3))
    with pytest.raises(PredictorError):
        prepare_batch(model, [arch])
    with pytest.raises(PredictorError):
        prepare_batch(model, [arch], np.zeros((1, 3)))
    with pytest.raises(PredictorError):
        prepare_batch(model, [arch], np.full((1, 4), np.nan))
    batch = prepare_batch(model, [arch], np.zeros((1, 4)))
    assert forward_batch(model, batch).shape == (1,)


def test_prepared_take_gives_the_bytes_of_preparing_those_rows():
    # fit prepares its training split once per call and gathers each batch
    # from that stack
    model = make_model(config=tiny_config(supplemental_dims=(3,)), cells=2)
    rng = Rng(21)
    archs = [arch_of((random_valid_cell(rng, 5, 5), random_valid_cell(rng, 5, 5)), k)
             for k in range(9)]
    supp = np.random.default_rng(2).standard_normal((9, 3))
    whole = prepare_batch(model, archs, supp)
    for rows in ([4, 0, 7], [8], list(range(9)), [3, 3, 1]):
        want = prepare_batch(model, [archs[k] for k in rows], supp[rows])
        got = whole.take(rows)
        for field in fields(PreparedBatch):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name in ("size", "num_nodes"):
                assert a == b
                continue
            for x, y in zip(*((a, b) if isinstance(a, list) else ([a], [b])),
                            strict=True):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_prepare_batch_maps_each_cell_through_its_own_space():
    model = init(tiny_config(), unify([make_vocab(0, 5)]).extend(make_vocab(1, 6)),
                 1, seed=0)
    rng = Rng(4)
    cells = [random_valid_cell(rng, 5, 5 + k % 2, space_id=k % 2) for k in range(7)]
    batch = prepare_batch(model, [arch_of(c, k) for k, c in enumerate(cells)])
    want = np.stack([model.vocab.map_ops(c.space_id, c.op_ids) for c in cells])
    assert batch.ids[0].tobytes() == want.tobytes()


def test_vocabulary_miss_is_an_error():
    model = make_model(space_id=0)
    foreign = arch_of(chain_cell(3, space_id=1))
    with pytest.raises(EncodingError):
        prepare_batch(model, [foreign])


def test_routing_orientation_in_batch():
    model = make_model()
    cell = chain_cell(3)
    batch = prepare_batch(model, [arch_of(cell)])
    # forward routing is the transpose: receivers index senders
    assert batch.routing_fwd[0][0][1, 0] == 1.0
    assert batch.routing_bwd[0][0][0, 1] == 1.0
    assert batch.mask[0][0, :, 0].tolist() == [1.0, 1.0, 1.0]


def test_padded_nodes_masked_out():
    model = make_model()
    cell = pad(chain_cell(3), 5)
    batch = prepare_batch(model, [arch_of(cell)])
    assert batch.mask[0][0, :, 0].tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]


def test_edges_touching_none_nodes_carry_no_message(monkeypatch):
    ops = [0, 3, 2, 2, 1]
    adj = np.zeros((5, 5), dtype=np.uint8)
    adj[0, 1] = adj[1, 4] = 1
    plain = CellGraph(adj, ops, 0)
    adj = adj.copy()
    adj[2, 1] = 1
    stray = CellGraph(adj, ops, 0)
    assert validate_cells([stray], 5)[0] is None
    model = make_model()
    jitter_params(model, seed=6)
    batch = prepare_batch(model, [arch_of(stray)])
    assert not batch.routing_fwd[0].any(axis=(0, 1))[2]
    assert not batch.routing_bwd[0][0, 2].any()
    monkeypatch.setattr(predictor, "SCORE_CHUNK", 1)
    stray_score, plain_score = score_archs(model, [arch_of(stray), arch_of(plain)])
    assert stray_score == plain_score
