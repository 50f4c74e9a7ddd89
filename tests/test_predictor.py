"""Predictor layers, initialization and forward symmetries.

The attention layer is compared against a straight-line numpy oracle that
evaluates the pairwise scores, masking and normalization without any tape
machinery.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

import flan.autodiff as ad
from flan.autodiff import Tensor
from flan.benchmark import make_vocab
from flan.cellgraph import CellArch, CellGraph, pad, permute, validate
from flan.encodings import EncodingError, unify
from flan.predictor import (
    LAYER_NORM_EPS,
    LEAKY_SLOPE,
    PredictorConfig,
    PredictorError,
    clone_model,
    dgf_layer,
    forward,
    forward_batch,
    gat_layer,
    init,
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
    random_valid_cell,
    ref_config,
    tiny_config,
    unified_of,
)


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


def test_config_dict_round_trip():
    cfg = tiny_config(attention_variant="kqv_softmax", supplemental_dims=(3, 5))
    assert PredictorConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg
    assert cfg.supplemental_total == 8


# -- dgf layer ----------------------------------------------------------------------

def test_dgf_zero_weights_annihilate():
    rng = Rng(0)
    x = Tensor(randa(rng, (3, 4)))
    routing = Tensor(randa(rng, (3, 3)))
    op_emb = Tensor(randa(rng, (3, 4)))
    out = dgf_layer(
        x, routing, op_emb,
        w_o=Tensor(randa(rng, (4, 2))),
        w_f=Tensor(np.zeros((4, 2))),
        b_f=Tensor(np.zeros(2)),
    )
    np.testing.assert_array_equal(out.data, np.zeros((3, 2)))


def test_dgf_no_edges_is_residual_only():
    rng = Rng(1)
    x = Tensor(randa(rng, (3, 4)))
    out = dgf_layer(
        x, Tensor(np.zeros((3, 3))), Tensor(randa(rng, (3, 4))),
        w_o=Tensor(randa(rng, (4, 4))),
        w_f=Tensor(np.eye(4)),
        b_f=Tensor(np.zeros(4)),
    )
    np.testing.assert_allclose(out.data, x.data)


def test_dgf_two_node_chain_half_gate():
    # gate = sigmoid(0) = 0.5 everywhere; receiver row mixes half the sender
    x = Tensor(np.eye(2))
    routing = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]))
    out = dgf_layer(
        x, routing, Tensor(np.ones((2, 3))),
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
        got = dgf_layer(
            Tensor(x), Tensor(routing), Tensor(op_emb),
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
        got = gat_layer(
            Tensor(x), Tensor(routing), Tensor(op_emb),
            {k: Tensor(v) for k, v in params.items()}, variant,
        ).data
        want = gat_oracle(x, routing, op_emb, params, variant)
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("variant", ["shared_sigmoid", "kqv_softmax"])
def test_gat_no_edges_gives_bias_rows(variant):
    rng = Rng(4)
    n, din, dout = 3, 4, 5
    params = gat_params(rng, din, dout, variant)
    out = gat_layer(
        Tensor(randa(rng, (n, din))),
        Tensor(np.zeros((n, n))),
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
    got = gat_layer(
        Tensor(x), Tensor(routing), Tensor(op_emb),
        {k: Tensor(v) for k, v in params.items()}, "kqv_softmax",
    ).data
    v = x @ params["w_v"]
    gate = sigmoid_np(op_emb @ params["w_o"])
    messages = np.stack([np.zeros(dout), v[0]])
    want = ln_rows(gate * messages, params["ln_gamma"], params["ln_beta"])
    np.testing.assert_array_equal(got, want)


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
            out = dgf_layer(x, Tensor(routing), op_emb, **params)
        else:
            out = gat_layer(x, Tensor(routing), op_emb, params, layer)
        return ad.sum_(ad.mul(out, weights))

    checked = {"x": x, **params} if shared else {"x": x, "op_emb": op_emb, **params}
    report = ad.grad_check(loss, checked)
    assert report.ok(rel_tol=1e-5), [
        (b.name, b.max_rel_err, b.worst_index) for b in report.blocks]
    assert all(b.checked_entries for b in report.blocks)


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
    "paper-default": "271708933d37558ee097af970b24a8e7a0b92d83675725b48db05a8dd8ecb9a4",
    "reference": "64b4fbc6bcedc7cc89093195962669b866f32f5cb451a843ef03db85ed8ea209",
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
    assert forward(model, arch) == forward(model, arch)


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
    assert forward(m1, arch) == forward(m2, arch)


def test_nonzero_update_changes_prediction_with_timesteps():
    m2 = make_model(config=tiny_config(timesteps=2), seed=3)
    jitter_params(m2, seed=10)
    m1 = init(tiny_config(timesteps=1), m2.vocab, 1, seed=3)
    for name, p in m1.params.items():
        p.data[...] = m2.params[name].data
    arch = arch_of(random_valid_cell(Rng(8), 5, 5))
    assert forward(m1, arch) != forward(m2, arch)


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
        base = forward(model, arch_of(cell))
        moved = forward(model, arch_of(permute(cell, perm)))
        assert abs(base - moved) <= 1e-8


def test_forward_padding_invariance():
    model = make_model(seed=5)
    jitter_params(model, seed=6)
    rng = Rng(100)
    for _ in range(12):
        n = 3 + rng.randint(3)
        cell = random_valid_cell(rng, n, 5)
        base = forward(model, arch_of(cell))
        padded = forward(model, arch_of(pad(cell, n + 2)))
        assert abs(base - padded) <= 1e-8


def test_two_cell_embeddings_add():
    model = make_model(config=tiny_config(), cells=2, seed=9)
    jitter_params(model, seed=2)
    a = random_valid_cell(Rng(1), 4, 5)
    b = random_valid_cell(Rng(2), 4, 5)
    ab = forward(model, CellArch((a, b), 0))
    # adding per-cell embeddings is symmetric up to the head MLP only when
    # the per-cell encoders share weights, which they do not; just pin the
    # batch path against the single path
    batch = prepare_batch(model, [CellArch((a, b), 0), CellArch((b, a), 1)])
    scores = forward_batch(model, batch).data
    assert scores[0] == pytest.approx(ab, abs=1e-12)


def test_score_archs_matches_forward_chunked():
    model = make_model(seed=11)
    jitter_params(model, seed=3)
    rng = Rng(55)
    archs = [arch_of(random_valid_cell(rng, 4, 5), i) for i in range(7)]
    scores = score_archs(model, archs, chunk=3)
    singles = np.array([forward(model, a) for a in archs])
    np.testing.assert_allclose(scores, singles, atol=1e-9)


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


def test_edges_touching_none_nodes_carry_no_message():
    ops = [0, 3, 2, 2, 1]
    adj = np.zeros((5, 5), dtype=np.uint8)
    adj[0, 1] = adj[1, 4] = 1
    plain = CellGraph(adj, ops, 0)
    adj = adj.copy()
    adj[2, 1] = 1
    stray = CellGraph(adj, ops, 0)
    assert validate(stray, 5) is None
    model = make_model()
    jitter_params(model, seed=6)
    batch = prepare_batch(model, [arch_of(stray)])
    assert not batch.routing_fwd[0].any(axis=(0, 1))[2]
    assert not batch.routing_bwd[0][0, 2].any()
    assert forward(model, arch_of(stray)) == forward(model, arch_of(plain))
