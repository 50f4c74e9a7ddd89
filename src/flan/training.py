"""Hinge-ranking training, cross-space transfer, and checkpoint persistence.

Training minimizes a pairwise hinge ranking loss over mini-batches: every
ordered pair inside a batch whose first accuracy is strictly higher
contributes max(0, margin - (score_i - score_j)).  Accuracies are
z-normalized over the training split first; the loss only sees orderings,
so this changes nothing but keeps logged magnitudes comparable across
benchmarks.  The optimizer is Adam with decoupled weight decay; decay is
applied only to parameters that received a gradient, so parameters of an
unused branch are never touched.

Transfer clones a unified-vocabulary model, registers the target space
(appending freshly initialized op-table rows for its interior ops, existing
ids never move), and fine-tunes on the target samples; with no samples the
clone is returned as-is, which is the zero-shot path.

Checkpoints are a small binary container: magic, version, a length-prefixed
JSON block (config, vocabulary, provenance), then named float64 tensor
records.  Same model, same bytes; no timestamps anywhere.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .encodings import SupplementalProvider, UnifiedVocabulary, zscore_columns
from .predictor import (
    PredictorConfig,
    PredictorModel,
    clone_model,
    forward_batch,
    parameter_shapes,
    prepare_batch,
)
from .rng import Rng

CKPT_MAGIC = b"FLANCKPT"
CKPT_VERSION = 1


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
        if self.lr <= 0.0 or self.transfer_lr <= 0.0:
            raise TrainError("learning rates must be positive")
        # 0 epochs is a legal no-op run (the unchanged-model contract)
        if self.epochs < 0 or self.transfer_epochs < 0:
            raise TrainError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise TrainError("batch_size must be >= 1")
        if self.hinge_margin < 0.0:
            raise TrainError("hinge_margin must be >= 0")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise TrainError("Adam betas must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise TrainError("weight_decay must be >= 0")


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
    s_i = ad.take(scores, idx_i)
    s_j = ad.take(scores, idx_j)
    violation = ad.shift(ad.scale(ad.sub(s_i, s_j), -1.0), float(margin))
    return ad.mean(ad.relu(violation))


class _AdamState:
    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def _adam_step(model: PredictorModel, state: _AdamState, lr: float,
               config: TrainConfig) -> None:
    state.step += 1
    t = state.step
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name, p in model.params.items():
        g = p.grad
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + eps)
        p.data -= lr * update
        if config.weight_decay:
            p.data -= lr * config.weight_decay * p.data
        p.grad = None


def fit(model: PredictorModel, bench, train_ids, config: TrainConfig,
        supplemental: SupplementalProvider | None = None,
        epochs: int | None = None, lr: float | None = None) -> dict:
    """Train in place; returns a history dict with per-epoch mean losses.

    Deterministic given config.seed: batch order, and therefore every
    parameter byte, reproduces exactly.
    """
    train_ids = list(train_ids)
    if not train_ids:
        raise TrainError("empty training split")
    if len(set(train_ids)) != len(train_ids):
        raise TrainError("duplicate ids in training split")
    epochs = config.epochs if epochs is None else epochs
    lr = config.lr if lr is None else lr

    expected = model.config.supplemental_total
    if expected:
        if supplemental is None:
            raise TrainError(
                f"model expects supplemental input of dim {expected} but no "
                "provider was given"
            )
        if supplemental.dim != expected:
            raise TrainError(
                f"supplemental provider dim {supplemental.dim} != config "
                f"total {expected}"
            )
    archs = {i: bench.arch(i) for i in train_ids}
    accs = bench.accuracy_vector(train_ids)
    z_by_id = dict(zip(train_ids, zscore_columns(accs[:, None])[:, 0]))

    rng = Rng(config.seed).child("fit")
    state = _AdamState()
    history = {"epoch_losses": [], "steps": 0, "skipped_batches": 0}
    for epoch in range(epochs):
        order = list(train_ids)
        rng.shuffle(order)
        losses = []
        for lo in range(0, len(order), config.batch_size):
            chunk = order[lo:lo + config.batch_size]
            if len(chunk) < 2:
                history["skipped_batches"] += 1
                continue
            z = np.array([z_by_id[i] for i in chunk])
            pair_i, _ = ranking_pairs(z)
            if pair_i.size == 0:
                history["skipped_batches"] += 1
                continue
            supp = supplemental.matrix(chunk) if expected else None
            batch = prepare_batch(model, [archs[i] for i in chunk], supp)
            with Tape() as tape:
                scores = forward_batch(model, batch)
                loss = hinge_rank_loss(scores, z, config.hinge_margin)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainError(
                        f"non-finite loss {value} at epoch {epoch}, batch "
                        f"{chunk}; lower the learning rate or rerun with "
                        "FLAN_CHECKED=1 to locate the op"
                    )
                tape.backward(loss)
            _adam_step(model, state, lr, config)
            losses.append(value)
            history["steps"] += 1
        history["epoch_losses"].append(
            float(np.mean(losses)) if losses else float("nan")
        )
    return history


def transfer(model: PredictorModel, target_bench, target_train_ids,
             config: TrainConfig,
             supplemental: SupplementalProvider | None = None) -> PredictorModel:
    """Adapt a unified-vocabulary model to a target space.

    The source model is never mutated.  Unseen target ops get fresh
    op-table rows (seeded per unified id); with an empty sample list the
    adapted clone is returned without fine-tuning (zero-shot).
    """
    if not model.config.unified:
        raise TrainError("transfer requires a model built with unified=True")
    if target_bench.cells_per_arch != model.cells_per_arch:
        raise TrainError(
            f"cells_per_arch mismatch: model {model.cells_per_arch}, "
            f"target {target_bench.cells_per_arch}"
        )
    out = clone_model(model)
    target_vocab = target_bench.vocab
    if out.vocab.has_space(target_vocab.space_id):
        known = out.vocab.space(target_vocab.space_id)
        if known.op_names != target_vocab.op_names:
            raise TrainError(
                f"space {target_vocab.space_id} already registered with "
                "different op names"
            )
    else:
        old_size = out.vocab.size
        new_vocab = out.vocab.extend(target_vocab)
        d_op = out.config.op_embedding_dim
        sigma = 1.0 / np.sqrt(d_op)
        rng = Rng(config.seed)
        rows = []
        for unified_id in range(old_size, new_vocab.size):
            stream = rng.child("transfer-row", unified_id)
            rows.append([stream.normal(0.0, sigma) for _ in range(d_op)])
        table = np.concatenate(
            [out.params["op_table"].data, np.array(rows, dtype=np.float64)]
        )
        out.params["op_table"] = Tensor(table, requires_grad=True)
        out = PredictorModel(out.config, new_vocab, out.cells_per_arch, out.params)
    target_train_ids = list(target_train_ids)
    if target_train_ids:
        fit(out, target_bench, target_train_ids, config,
            supplemental=supplemental, epochs=config.transfer_epochs,
            lr=config.transfer_lr)
    return out


@dataclass
class Checkpoint:
    version: int
    config: PredictorConfig
    vocab: UnifiedVocabulary
    cells_per_arch: int
    tensors: dict[str, np.ndarray]
    provenance: dict[str, str]


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


def load_checkpoint(path) -> Checkpoint:
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
        config = PredictorConfig(**metadata["config"])
        vocab = UnifiedVocabulary.from_dict(metadata["vocab"])
        cells_per_arch = int(metadata["cells_per_arch"])
        promised = list(metadata["tensors"])
        provenance = {str(k): str(v) for k, v in metadata["provenance"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid metadata: {exc}") from None
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
    if list(tensors) != promised:
        raise CheckpointError(
            "tensor records do not match the names promised in metadata"
        )
    return Checkpoint(version, config, vocab, cells_per_arch, tensors, provenance)


def model_from_checkpoint(ckpt: Checkpoint) -> PredictorModel:
    expected = parameter_shapes(ckpt.config, ckpt.vocab.size, ckpt.cells_per_arch)
    for name, shape in expected.items():
        if name not in ckpt.tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        if ckpt.tensors[name].shape != shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {ckpt.tensors[name].shape}, "
                f"config expects {shape}"
            )
    extra = set(ckpt.tensors) - set(expected)
    if extra:
        raise CheckpointError(f"checkpoint carries unknown tensors {sorted(extra)}")
    params = {
        name: Tensor(ckpt.tensors[name], requires_grad=True)
        for name in expected
    }
    return PredictorModel(ckpt.config, ckpt.vocab, ckpt.cells_per_arch, params)


def load_model(path) -> tuple[PredictorModel, dict[str, str]]:
    ckpt = load_checkpoint(path)
    return model_from_checkpoint(ckpt), ckpt.provenance
