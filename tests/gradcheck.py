"""Finite-difference gradient check for tape-recorded scalar functions.

grad_check compares the tape gradient of every entry of each parameter
block against a central difference and reports, per block, the worst
relative error and the entries too close to zero to compare relatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from flan.autodiff import ShapeError, Tape, Tensor
from flan.rng import Rng


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
