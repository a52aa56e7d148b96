"""AdamW as it stood before gradient slabs and the BLAS-free norm, kept as an
oracle for `near2.trainer.adamw_step`.

`dense_adamw_step` takes a table-shaped gradient and table-shaped moments,
and `rows` lists the rows it updates in full (the rows touched so far in a
phase, in training); every other row only decays. Its clip norm is one
`np.vdot` per gradient, whose summation order is the BLAS library's and may
change with its thread count. The library's norm (`global_norm`) is an exact
sum of pairwise row sums instead, so the two agree to float64 rounding, not
bit for bit; `test_trainer.py` checks that on random steps.
"""

from __future__ import annotations

import math

import numpy as np

from near2.errors import NumericalError
from near2.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAMW_BLOCK,
    MAX_GRAD_NORM,
    WEIGHT_DECAY,
    OptimizerState,
)


def dense_adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    learning_rate: float,
    rows: dict[str, np.ndarray] | None = None,
) -> tuple[float, float]:
    """One clipped AdamW update in place; returns (norm, clip). Gradients and
    moments are shaped like their parameters; a row `rows` does not list must
    have zero gradient and zero moments, and only decays."""
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if not math.isfinite(norm):
        for name, g in grads.items():
            bad = np.count_nonzero(~np.isfinite(g))
            if bad:
                raise NumericalError(f"{bad} non-finite gradient entries in {name!r}; step aborted")
    clip = MAX_GRAD_NORM / norm if math.isfinite(norm) and norm > MAX_GRAD_NORM else 1.0
    state.step += 1
    t = state.step
    lr, b1, b2, eps = learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    decay = lr * WEIGHT_DECAY
    m_correction, v_correction = 1.0 - b1**t, 1.0 - b2**t
    rows = rows or {}
    for name, param in params.items():
        arrays = [
            a.reshape(len(a), -1, copy=False)
            for a in (param, grads[name], state.first_moment[name], state.second_moment[name])
        ]
        width = arrays[0].shape[1]
        per_block = max(1, ADAMW_BLOCK // width)
        listed = rows.get(name)
        scratch = np.empty((2 if listed is None else 6, per_block, width))
        for start in range(0, len(param), per_block):
            p = arrays[0][start : start + per_block]
            p -= np.multiply(p, decay, out=scratch[0, : len(p)])
        for start in range(0, len(param) if listed is None else len(listed), per_block):
            if listed is None:
                block = [a[start : start + per_block] for a in arrays]
            else:
                chunk = listed[start : start + per_block]
                block = [
                    np.take(a, chunk, axis=0, out=buf[: len(chunk)])
                    for a, buf in zip(arrays, scratch[2:])
                ]
            p, g, m, v = block
            tmp, den = scratch[:2, : len(p)]
            if clip != 1.0:
                g *= clip
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=tmp)
            v *= b2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v += tmp
            np.divide(m, m_correction, out=tmp)
            tmp *= lr
            np.divide(v, v_correction, out=den)
            np.sqrt(den, out=den)
            den += eps
            tmp /= den
            p -= tmp
            if listed is not None:
                for a, b in zip(arrays, block):
                    a[chunk] = b
    return norm, clip
