"""Hinge-ranking training, cross-space transfer, and checkpoint persistence.

Training minimizes a pairwise hinge ranking loss over mini-batches: every
ordered pair inside a batch whose first accuracy is strictly higher
contributes max(0, margin - (score_i - score_j)).  Accuracies are
z-normalized over the training split first; the loss only sees orderings,
so this changes nothing but keeps logged magnitudes comparable across
benchmarks.  Training is mixed precision: fit makes one float32
(TRAIN_DTYPE) working copy of the float64 master vector model.flat per
call, each step's forward, loss and backward run on it, and the tape
writes its gradients into one float32 vector aligned with model.flat.
Scoring (predictor.score_archs) also runs in float32, on a working copy
of its own.  The optimizer is Adam with decoupled weight decay.  Block by
block it widens the gradient to float64, updates the float64 moments and
model.flat, and writes the block's new values, rounded to float32, into
the working copy while the block is in cache.  A loss that comes out inf or
NaN stops training with a TrainError that names where the failure is: the
first non-finite parameter if an update has blown the parameters up,
otherwise the first op on the step's tape whose output overflowed and,
if one is, the first parameter beyond float32's range.

Transfer clones a model, registers the target space in its unified
vocabulary (appending freshly initialized op-table rows for its interior
ops, existing ids never move), and fine-tunes on the target samples with
the transfer epochs and learning rate; with no samples the clone is
returned as-is, which is the zero-shot path.

Checkpoints are a small binary container: magic, version, a length-prefixed
JSON block (config, vocabulary, provenance), then named float64 tensor
records.  Same model, same bytes; no timestamps anywhere.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .encodings import SupplementalProvider, UnifiedVocabulary, zscore_columns
from .predictor import (
    PredictorConfig,
    PredictorError,
    PredictorModel,
    _check_fields,
    forward_batch,
    parameter_shapes,
    prepare_batch,
)
from .rng import Rng

# the dtype of fit's taped passes; Adam, its moments and model.flat stay
# float64, and so do checkpoints and score_archs' output, though its pass
# runs in float32 too
TRAIN_DTYPE = np.float32
CKPT_MAGIC = b"FLANCKPT"
CKPT_VERSION = 1
ADAM_BLOCK = 16384  # elements per Adam update block: temporaries stay in cache
# config keys that older checkpoints carry but that shape nothing any more;
# the loader drops them, so those checkpoints still load
RETIRED_CONFIG_KEYS = ("unified",)


class TrainError(RuntimeError):
    """Raised when training cannot proceed (bad inputs, diverged loss)."""


class CheckpointError(ValueError):
    """Raised for unreadable or mismatched checkpoint files."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    weight_decay: float = 0.00001
    epochs: int = 150
    batch_size: int = 8
    transfer_epochs: int = 30
    transfer_lr: float = 0.001
    hinge_margin: float = 0.1
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        _check_fields(self, TrainError)
        for name in ("lr", "transfer_lr", "adam_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise TrainError(f"{name} must be finite and positive, got {value}")
        for name in ("weight_decay", "hinge_margin"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise TrainError(f"{name} must be finite and >= 0, got {value}")
        # 0 epochs is a legal no-op run (the unchanged-model contract)
        if self.epochs < 0 or self.transfer_epochs < 0:
            raise TrainError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise TrainError("batch_size must be >= 1")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise TrainError("Adam betas must be in [0, 1)")


def ranking_pairs(accuracies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) over all ordered pairs with acc_i > acc_j."""
    a = np.asarray(accuracies, dtype=np.float64)
    gt = a[:, None] > a[None, :]
    return np.nonzero(gt)


def hinge_rank_loss(scores: Tensor, accuracies, margin: float) -> Tensor:
    """Mean hinge over ordered accuracy pairs; ties contribute nothing.

    With no strict pairs at all the loss is a constant zero with no
    gradient path; fit() skips such batches instead of stepping.
    """
    accs = np.asarray(accuracies, dtype=np.float64)
    if scores.ndim != 1 or accs.shape != scores.shape:
        raise TrainError(
            f"scores {scores.shape} and accuracies {accs.shape} must be "
            "equal-length vectors"
        )
    if scores.shape[0] < 2:
        raise TrainError("ranking needs at least two entries")
    idx_i, idx_j = ranking_pairs(accs)
    if idx_i.size == 0:
        return Tensor(0.0)
    violation = (scores.data[idx_i] - scores.data[idx_j]) * -1.0 + float(margin)
    active = violation > 0.0
    n = scores.shape[0]

    def backward(g):
        # per arch, the active pairs it should rank higher in minus those
        # it should rank lower in, an exact integer, times one pair weight
        counts = (np.bincount(idx_j[active], minlength=n)
                  - np.bincount(idx_i[active], minlength=n))
        weight = _pair_weight(float(g.reshape(())) / violation.size, n,
                              scores.data.dtype)
        return ((counts * weight).astype(scores.data.dtype),)

    return ad.emit("hinge_rank_loss", np.asarray(np.mean(violation * active)),
                   (scores,), backward)


def _pair_weight(weight: float, n: int, dtype) -> float:
    """weight rounded so that, over a batch of n archs, each arch's gradient
    (an integer count times weight) and every partial sum of them are exact
    in dtype: the counts of any subset sum to at most n * n // 4 in
    magnitude.  So the gradient sums to exactly zero, as a loss blind to a
    shift of every score demands; float32 rounding would otherwise leave
    about 1e-8 on the output bias, near Adam's eps, and Adam's normalised
    step makes that a move of up to lr.  At least half of dtype's bits are
    kept: in float32 the sum is exact for batches up to 127 archs."""
    if not math.isfinite(weight):
        return weight
    precision = np.finfo(dtype).nmant + 1
    bits = max(precision - (n * n // 4).bit_length(), precision // 2)
    mantissa, exponent = math.frexp(weight)
    return math.ldexp(round(mantissa * (1 << bits)), exponent - bits)


class _AdamState:
    """Adam's moments, aligned with model.flat, and fit's working copy of
    the model in TRAIN_DTYPE with its gradient vector g; views maps each
    working tensor to its slice of g, for Tape.backward to write that
    tensor's gradient into."""

    def __init__(self, model: PredictorModel):
        self.work = model.cast(TRAIN_DTYPE)
        size = model.num_params()
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.g = np.empty(size, dtype=TRAIN_DTYPE)
        self.views: dict[Tensor, np.ndarray] = {}
        offset = 0
        for p in self.work.params.values():
            self.views[p] = self.g[offset:offset + p.data.size].reshape(p.shape)
            offset += p.data.size


def _adam_step(model: PredictorModel, state: _AdamState,
               config: TrainConfig) -> None:
    """One Adam update of model.flat from state.g, which the last
    Tape.backward(loss, into=state.views) wrote; a working tensor whose
    .grad it left None received no gradient.  Each block's new values are
    copied into the working vector state.work.flat while in cache."""
    for name, p in state.work.params.items():
        if p.grad is None:
            raise TrainError(f"parameter {name} received no gradient")
        p.grad = None
    grad = state.g
    state.step += 1
    t = state.step
    lr, b1, b2, eps = config.lr, config.adam_beta1, config.adam_beta2, config.adam_eps
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for lo in range(0, grad.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        # widened first: (1.0 - b1) * g on a float32 g would stay float32
        g = grad[block].astype(np.float64)
        m, v, w = state.m[block], state.v[block], model.flat[block]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        w -= lr * ((m / bias1) / (np.sqrt(v / bias2) + eps))
        if config.weight_decay:
            w -= lr * config.weight_decay * w
        state.work.flat[block] = w


def _divergence(model: PredictorModel, tape: Tape) -> str:
    """Where a non-finite loss came from: the first non-finite parameter,
    else the first op on the tape whose output is non-finite, followed by
    the first parameter that overflows TRAIN_DTYPE if one does."""
    try:
        model.check_finite()
    except PredictorError as exc:
        return str(exc)
    where = f"{tape.first_nonfinite()} overflowed with finite parameters"
    try:
        model.check_finite(TRAIN_DTYPE)
    except PredictorError as exc:
        return f"{where}: {exc}"
    return where


# a diverging run overflows in Adam's update, the rounding of the parameters
# to TRAIN_DTYPE or the forward pass before its loss is non-finite: that loss
# raises one TrainError naming the failure, with no numpy warnings on the way
@np.errstate(over="ignore", invalid="ignore")
def fit(model: PredictorModel, bench, train_ids, config: TrainConfig,
        supplemental: SupplementalProvider | None = None) -> dict:
    """Train in place; returns a history dict with per-epoch mean losses.

    Deterministic given config.seed: batch order, and therefore every
    parameter byte, reproduces exactly.  Each training arch is prepared
    once per call, in TRAIN_DTYPE; every batch gathers its rows from that
    one stack, and its pass runs on one working copy of the parameters in
    TRAIN_DTYPE, made once per call and refreshed by each Adam step.
    Adam's moments and model.flat stay float64.
    """
    train_ids = list(train_ids)
    if not train_ids:
        raise TrainError("empty training split")
    if len(set(train_ids)) != len(train_ids):
        raise TrainError("duplicate ids in training split")

    expected = model.config.supplemental_total
    if supplemental is None and expected:
        raise TrainError(
            f"model expects supplemental input of dim {expected} but no "
            "provider was given"
        )
    # a provider the model cannot take is refused, not silently dropped
    if supplemental is not None and supplemental.dim != expected:
        raise TrainError(
            f"supplemental provider dim {supplemental.dim} != config "
            f"total {expected}"
        )
    supp = None if supplemental is None else supplemental.matrix(train_ids)
    prepared = prepare_batch(model, [bench.arch(i) for i in train_ids], supp,
                             TRAIN_DTYPE)
    accs = bench.accuracy_vector(train_ids)
    z_all = zscore_columns(accs[:, None])[:, 0]

    rng = Rng(config.seed).child("fit")
    state = _AdamState(model)
    history = {"epoch_losses": [], "steps": 0, "skipped_batches": 0}
    for epoch in range(config.epochs):
        # shuffled positions into train_ids: the shuffle moves any list of
        # this length the same way
        order = list(range(len(train_ids)))
        rng.shuffle(order)
        losses = []
        for lo in range(0, len(order), config.batch_size):
            rows = order[lo:lo + config.batch_size]
            if len(rows) < 2:
                history["skipped_batches"] += 1
                continue
            z = z_all[rows]
            pair_i, _ = ranking_pairs(z)
            if pair_i.size == 0:
                history["skipped_batches"] += 1
                continue
            with Tape() as tape:
                scores = forward_batch(state.work, prepared.take(rows))
                loss = hinge_rank_loss(scores, z, config.hinge_margin)
                value = loss.item()
                if not math.isfinite(value):
                    chunk = [train_ids[k] for k in rows]
                    raise TrainError(
                        f"non-finite loss {value} at epoch {epoch}, batch "
                        f"{chunk}: {_divergence(model, tape)}; lower the "
                        "learning rate"
                    )
                tape.backward(loss, into=state.views)
            _adam_step(model, state, config)
            losses.append(value)
            history["steps"] += 1
        history["epoch_losses"].append(
            float(np.mean(losses)) if losses else float("nan")
        )
    # the last step's update is the only one no later loss has checked
    try:
        model.check_finite()
    except PredictorError as exc:
        raise TrainError(f"the last update (step {history['steps']}) diverged: "
                         f"{exc}; lower the learning rate") from None
    return history


def transfer(model: PredictorModel, target_bench, target_train_ids,
             config: TrainConfig,
             supplemental: SupplementalProvider | None = None) -> PredictorModel:
    """Adapt a model to a target space.

    The source model is never mutated.  Unseen target ops get fresh
    op-table rows (seeded per unified id); the clone is fine-tuned for
    config.transfer_epochs at config.transfer_lr, and with an empty sample
    list it is returned without fine-tuning (zero-shot).
    """
    if target_bench.cells_per_arch != model.cells_per_arch:
        raise TrainError(
            f"cells_per_arch mismatch: model {model.cells_per_arch}, "
            f"target {target_bench.cells_per_arch}"
        )
    vocab = model.vocab
    arrays = {name: p.data for name, p in model.params.items()}
    target_vocab = target_bench.vocab
    if vocab.has_space(target_vocab.space_id):
        known = vocab.space(target_vocab.space_id)
        if known.op_names != target_vocab.op_names:
            raise TrainError(
                f"space {target_vocab.space_id} already registered with "
                "different op names"
            )
    else:
        old_size = vocab.size
        vocab = vocab.extend(target_vocab)
        d_op = model.config.op_embedding_dim
        sigma = 1.0 / np.sqrt(d_op)
        rng = Rng(config.seed)
        rows = np.empty((vocab.size - old_size, d_op))  # no rows if no op is new
        for k, unified_id in enumerate(range(old_size, vocab.size)):
            stream = rng.child("transfer-row", unified_id)
            rows[k] = [stream.normal(0.0, sigma) for _ in range(d_op)]
        arrays["op_table"] = np.concatenate([arrays["op_table"], rows])
    # the model copies the arrays, so the source is never mutated
    out = PredictorModel(model.config, vocab, model.cells_per_arch, arrays)
    target_train_ids = list(target_train_ids)
    if target_train_ids:
        tuning = replace(config, epochs=config.transfer_epochs,
                         lr=config.transfer_lr)
        fit(out, target_bench, target_train_ids, tuning, supplemental=supplemental)
    return out


def save_model(model: PredictorModel, path, provenance: dict | None = None) -> None:
    """Write the binary checkpoint; identical models produce identical bytes."""
    model.check_finite()
    names = list(model.params)
    metadata = {
        "config": asdict(model.config),
        "vocab": model.vocab.to_dict(),
        "cells_per_arch": model.cells_per_arch,
        "provenance": {str(k): str(v) for k, v in sorted((provenance or {}).items())},
        "tensors": names,
    }
    blob = json.dumps(metadata, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in names:
            arr = model.params[name].data
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.astype("<f8").tobytes())


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def pull(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CheckpointError("truncated checkpoint file")
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.pull(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.pull(8))[0]

    def done(self) -> bool:
        return self.pos == len(self.data)


def load_model(path) -> tuple[PredictorModel, dict[str, str]]:
    """The model and provenance that save_model wrote to path.  Any file
    that does not hold exactly the finite tensors its config builds raises
    CheckpointError; config keys in RETIRED_CONFIG_KEYS are dropped."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.pull(8) != CKPT_MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = reader.u32()
    if version != CKPT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}, expected {CKPT_VERSION}"
        )
    blob = reader.pull(reader.u64())
    try:
        metadata = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt metadata block: {exc}") from None
    try:
        config = PredictorConfig(**{
            key: value for key, value in metadata["config"].items()
            if key not in RETIRED_CONFIG_KEYS})
        vocab = UnifiedVocabulary.from_dict(metadata["vocab"])
        raw_cells = metadata["cells_per_arch"]
        cells_per_arch = operator.index(raw_cells)
        promised = list(metadata["tensors"])
        provenance = {str(k): str(v) for k, v in metadata["provenance"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid metadata: {exc}") from None
    if isinstance(raw_cells, bool) or cells_per_arch not in (1, 2):
        raise CheckpointError(f"cells_per_arch must be 1 or 2, got {raw_cells!r}")
    tensors: dict[str, np.ndarray] = {}
    while not reader.done():
        try:
            name = reader.pull(reader.u64()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8: {exc}") from None
        rank = reader.u64()
        shape = tuple(reader.u64() for _ in range(rank))
        # Python ints: a product that overflows int64 must reach the
        # truncation check, not wrap around
        payload = reader.pull(math.prod(shape) * 8)
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:
            raise CheckpointError(f"tensor {name!r} has shape {shape}: {exc}") from None
        if not np.all(np.isfinite(tensors[name])):
            raise CheckpointError(f"tensor {name!r} holds non-finite values")
    del reader  # the file's bytes: freed before the model copies the tensors
    if list(tensors) != promised:
        raise CheckpointError(
            "tensor records do not match the names promised in metadata"
        )
    expected = parameter_shapes(config, vocab.size, cells_per_arch)
    for name, shape in expected.items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {tensors[name].shape}, "
                f"config expects {shape}"
            )
    extra = set(tensors) - set(expected)
    if extra:
        raise CheckpointError(f"checkpoint carries unknown tensors {sorted(extra)}")
    arrays = {name: tensors[name] for name in expected}
    return PredictorModel(config, vocab, cells_per_arch, arrays), provenance
