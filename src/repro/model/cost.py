"""Per-layer FLOP / byte / memory accounting and dynamism-aware timing.

A model is a list of :class:`LayerSpec` (static architecture facts).
At training step *k* each layer also carries a :class:`LayerState`
(dynamism multipliers).  :class:`ModelCost` turns (spec, state, GPU)
into forward/backward seconds and resident bytes — the exact inputs
DynMo's profiler hands to the balancers in the paper.

Time and bytes are array-valued and have one path each.
:func:`state_matrix` packs N state vectors into an ``(N, L, 6)`` float64
matrix (columns in :data:`STATE_FIELDS` order).
:meth:`ModelCost.layer_times` prices it per layer, and
:meth:`ModelCost.stage_times` sums layers into per-stage tables for N
(plan, states) lanes at once.  The pipeline engine (one lane), the
batched executor (many lanes, across engines whose cost models share a
:attr:`ModelCost.content_key`) and the profiler all go through it.
Every element undergoes the same float64 operations, in the same order,
as a per-layer scalar evaluation of the formulas below, and a stage sum
adds its layers one by one in layer order, so results do not depend on
how many lanes share a call.  :meth:`ModelCost.layer_bytes` prices the
resident bytes of every layer (weights, master copy, gradients,
optimizer states, held activations) the same way, for the profiler,
migration payloads, the data-parallel all-reduce and the per-stage
memory model.

FLOP accounting for one transformer block on a micro-batch of ``b``
sequences of ``s`` tokens with hidden ``h`` and expansion ``x``
(multiply-accumulate counted as 2 FLOPs):

- QKV + output projections:   4 matmuls -> 8 b s h^2
- attention scores + values:  2 b s^2 h (quadratic term; scaled by the
  attention density under dynamic sparse attention)
- FFN:                        2 matmuls -> 4 b s h^2 x
  (MoE: per selected expert; scaled by routing multiplier)

Backward ≈ dX (same as forward matmuls) + dW (same again); the
attention quadratic term costs ~2x forward in backward.  Frozen layers
drop the dW term and, when no earlier layer needs gradients, the whole
backward.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.model.config import GPTConfig
from repro.sparse.kernels import (
    cusparse_cost_model,
    dense_cost_model,
    sputnik_cost_model,
)
from repro.utils.validation import check_prob

#: Bytes per element of each resident term, by training precision:
#: working weight, master copy, gradient, optimizer state (each of
#: :data:`OPTIMIZER_STATES`), and the activation scale relative to the
#: specs' half-precision ``activation_bytes``.  "mixed" (the default)
#: keeps bf16 working weights, an fp32 master copy, fp32 gradients and
#: optimizer states and bf16 activations; "full" is fp32 throughout
#: with no master copy.  Precision is a *memory* knob only: compute
#: time is calibrated via ``peak_flops``/``efficiency`` and never
#: depends on it.
PRECISION_BYTES = {
    "mixed": (2.0, 4.0, 4.0, 4.0, 1.0),
    "full": (4.0, 0.0, 4.0, 4.0, 2.0),
}
PRECISIONS = tuple(PRECISION_BYTES)
#: Adam keeps two states per trained parameter (m and v)
OPTIMIZER_STATES = 2
#: a pruned layer stores its weights as CSR: a 4-byte column index
#: rides along with every kept value
CSR_INDEX_BYTES = 4
#: :meth:`ModelCost.layer_bytes` component order (the byte fields of
#: :class:`~repro.model.memory.StageMemoryReport`)
BYTE_FIELDS = ("weight", "master", "grad", "optimizer", "activation")


@dataclass(frozen=True)
class LayerSpec:
    """Static facts about one pipeline-assignable layer."""

    index: int
    name: str
    kind: str  # "embedding" | "block" | "head"
    param_count: int
    matmul_flops: float  # weight-matmul forward FLOPs (per micro-batch)
    attn_quad_flops: float  # attention quadratic forward FLOPs
    ffn_flops: float  # portion of matmul_flops that is the FFN (MoE-scalable)
    activation_bytes: int  # output activation size per micro-batch
    is_moe: bool = False
    num_experts: int = 0

    def __post_init__(self) -> None:
        if self.ffn_flops > self.matmul_flops + 1e-6:
            raise ValueError("ffn_flops cannot exceed matmul_flops")


@dataclass
class LayerState:
    """Time-varying dynamism multipliers for one layer.

    sparsity: fraction of pruned weights in [0, 1].
    frozen: layer excluded from weight updates.
    droppable_bwd: True when the whole backward can be skipped
        (all earlier layers frozen too — Egeria semantics).
    attn_density: fraction of attention entries computed (dyn. sparse attn).
    token_fraction: fraction of tokens still alive at this layer
        (early exit / MoD routing).
    moe_multiplier: slowest-expert inflation factor for the FFN
        (max_e tokens_e / (total/E)); 1.0 means perfectly balanced.
    """

    sparsity: float = 0.0
    frozen: bool = False
    droppable_bwd: bool = False
    attn_density: float = 1.0
    token_fraction: float = 1.0
    moe_multiplier: float = 1.0

    def validate(self) -> None:
        check_prob("sparsity", self.sparsity)
        check_prob("attn_density", self.attn_density)
        check_prob("token_fraction", self.token_fraction)
        if not self.moe_multiplier >= 0:  # NaN fails too
            raise ValueError(f"moe_multiplier must be >= 0, got {self.moe_multiplier}")

    def copy(self) -> "LayerState":
        return replace(self)


#: LayerState fields in state-matrix column order
STATE_FIELDS = (
    "sparsity",
    "frozen",
    "droppable_bwd",
    "attn_density",
    "token_fraction",
    "moe_multiplier",
)
#: per-column bounds of a valid state matrix (bool columns are 0/1)
_STATE_MIN = np.array([0.0, -np.inf, -np.inf, 0.0, 0.0, 0.0])
_STATE_MAX = np.array([1.0, np.inf, np.inf, 1.0, 1.0, np.inf])


def state_matrix(states_list: Sequence[Sequence[LayerState]]) -> np.ndarray:
    """N state vectors of L layers as one ``(N, L, 6)`` float64 matrix.

    Columns follow :data:`STATE_FIELDS`; bools become exactly 0.0/1.0.
    The matrix is C-contiguous, so one vector's ``tobytes()`` is the
    layout :func:`repro.training.trainer.states_fingerprint` hashes.
    Columns are filled one comprehension each, which is faster than
    building per-layer rows.
    """
    n = len(states_list)
    L = len(states_list[0]) if n else 0
    if n == 1:
        flat = states_list[0]
    else:
        if any(len(states) != L for states in states_list):
            raise ValueError("state vectors differ in length")
        flat = [st for states in states_list for st in states]
    out = np.empty((n * L, 6))
    out[:, 0] = [st.sparsity for st in flat]
    out[:, 1] = [st.frozen for st in flat]
    out[:, 2] = [st.droppable_bwd for st in flat]
    out[:, 3] = [st.attn_density for st in flat]
    out[:, 4] = [st.token_fraction for st in flat]
    out[:, 5] = [st.moe_multiplier for st in flat]
    return out.reshape(n, L, 6)


@lru_cache(maxsize=1024)
def _stage_layout(
    boundaries: tuple[int, ...], pad: int, width: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(width, S)`` layer ids whose column ``s`` lists stage ``s``'s
    layers in order, then ``pad`` (``width`` defaults to the widest
    stage); and each stage's last layer.  Every caller shares the
    cached arrays, so they are read-only."""
    b = np.asarray(boundaries)
    if width is None:
        width = int((b[1:] - b[:-1]).max())
    rows = b[:-1] + np.arange(width)[:, None]
    idx, last = np.where(rows < b[1:], rows, pad), b[1:] - 1
    idx.flags.writeable = last.flags.writeable = False
    return idx, last


def build_layer_specs(
    cfg: GPTConfig, micro_batch: int = 2, tp_ways: int = 8
) -> list[LayerSpec]:
    """Expand a config into pipeline-assignable layers.

    Layout mirrors Megatron: [embedding, block_0 .. block_{L-1}, head].
    FLOPs are per micro-batch (the scheduling unit of the pipeline).
    ``tp_ways`` shards the vocabulary embedding and LM head the way
    Megatron's vocab-parallel layers do; block FLOPs are left unsharded
    (uniform tensor-parallel scaling does not change stage balance).
    """
    if tp_ways <= 0:
        raise ValueError("tp_ways must be positive")
    b, s, h, x = micro_batch, cfg.seq_len, cfg.hidden, cfg.mlp_expansion
    act_bytes = b * s * h * cfg.dtype_bytes
    specs: list[LayerSpec] = []

    emb_params = (cfg.vocab_size * h) // tp_ways + cfg.seq_len * h
    specs.append(
        LayerSpec(
            index=0,
            name="embedding",
            kind="embedding",
            param_count=emb_params,
            matmul_flops=0.0,
            attn_quad_flops=0.0,
            ffn_flops=0.0,
            activation_bytes=act_bytes,
        )
    )

    moe_layers = set(cfg.moe_layers())
    for i in range(cfg.num_layers):
        attn_proj = 8.0 * b * s * h * h
        attn_quad = 2.0 * 2.0 * b * s * s * h  # scores + values
        is_moe = i in moe_layers
        if is_moe:
            # top-k experts run per token
            ffn = 4.0 * b * s * h * h * x * cfg.moe_top_k
            ffn_params = 2 * h * h * x * cfg.num_experts + h * cfg.num_experts
        else:
            ffn = 4.0 * b * s * h * h * x
            ffn_params = 2 * h * h * x
        params = 4 * h * h + ffn_params + 4 * h  # projections + FFN + LN
        specs.append(
            LayerSpec(
                index=i + 1,
                name=f"block{i}",
                kind="block",
                param_count=params,
                matmul_flops=attn_proj + ffn,
                attn_quad_flops=attn_quad,
                ffn_flops=ffn,
                activation_bytes=act_bytes,
                is_moe=is_moe,
                num_experts=cfg.num_experts if is_moe else 0,
            )
        )

    head_flops = 2.0 * b * s * h * cfg.vocab_size / tp_ways
    specs.append(
        LayerSpec(
            index=cfg.num_layers + 1,
            name="head",
            kind="head",
            param_count=(cfg.vocab_size * h) // tp_ways + 2 * h,
            matmul_flops=head_flops,
            attn_quad_flops=0.0,
            ffn_flops=0.0,
            activation_bytes=b * s * cfg.vocab_size * cfg.dtype_bytes,
        )
    )
    return specs


class ModelCost:
    """Turns (LayerSpec, LayerState, GPU peak FLOPs) into seconds/bytes."""

    def __init__(
        self,
        specs: list[LayerSpec],
        peak_flops: float = 989e12,
        efficiency: float = 0.45,
        precision: str = "mixed",
        activation_recompute: bool = False,
    ) -> None:
        """``activation_recompute`` trades memory for compute the
        Megatron way: activations are not kept across the pipeline
        (only one micro-batch's worth per layer), and backward first
        recomputes the forward (backward time += forward time).
        ``precision`` selects the byte regime (:data:`PRECISION_BYTES`)
        that :class:`~repro.model.memory.StageMemoryModel` prices
        resident memory with; it changes no time."""
        if not specs:
            raise ValueError("specs must be non-empty")
        if precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {precision!r}; choose from {PRECISIONS}"
            )
        self.specs = specs
        self.peak_flops = peak_flops
        self.efficiency = efficiency
        self.activation_recompute = bool(activation_recompute)
        self.precision = precision
        # the per-layer spec columns the time path reads
        ffn = np.array([sp.ffn_flops for sp in specs], dtype=np.float64)
        matmul = np.array([sp.matmul_flops for sp in specs], dtype=np.float64)
        self._dense_flops = matmul - ffn  # weight matmuls outside the FFN
        self._ffn_flops = ffn
        self._quad_flops = np.array([sp.attn_quad_flops for sp in specs], dtype=np.float64)
        self._act_bytes = np.array([sp.activation_bytes for sp in specs], dtype=np.float64)
        #: per-layer parameter counts (the byte path's spec column)
        self.param_counts = np.array([sp.param_count for sp in specs], dtype=np.float64)
        self._pk = peak_flops * efficiency
        # the kernel candidates of sparse.kernels.best_kernel_time at
        # this device's sparse-kernel peak
        spk = self._pk / 0.62
        self._spk = spk
        self._kernels = (dense_cost_model(spk), sputnik_cost_model(spk), cusparse_cost_model(spk))
        self._dense_matmul_times = self._matmul_times(self._dense_flops, None)
        #: Everything per-layer time depends on besides the state: the
        #: spec columns above, the device constants and recompute.  Two
        #: models with equal keys price every state identically, so the
        #: batched executor shares one layer-times call between them.
        #: Bytes cache their hash, so keying a dict per lane is cheap.
        #: Nothing reassigns these fields after construction.
        self.content_key: bytes = (
            np.concatenate([self._dense_flops, ffn, self._quad_flops, self._act_bytes]).tobytes()
            + np.array([peak_flops, efficiency, self.activation_recompute], dtype=np.float64).tobytes()
        )

    # -- time ------------------------------------------------------------
    def _matmul_times(self, flops: np.ndarray, sparsity: np.ndarray | None) -> np.ndarray:
        """Weight-matmul seconds with the sparse-kernel crossover applied:
        dense peak time where ``sparsity <= 0``, else the best of
        :func:`repro.sparse.kernels.best_kernel_time`'s three kernels
        (same formulas, elementwise).  ``sparsity=None`` means no
        element is pruned, so the kernel candidates are skipped."""
        t = flops / self._pk
        if sparsity is not None:
            dm, sm, cm = self._kernels
            spk = self._spk
            # dense kernel at sparsity 0: flops * (1 - 0) / (spk * eff) with
            # eff = base / (1 + irregularity * 0); x * 1.0 == x exactly
            best = dm.overhead_s + flops / (
                spk * (dm.base_efficiency / (1.0 + dm.irregularity * 0.0))
            )
            for m in (sm, cm):
                eff = m.base_efficiency / (1.0 + m.irregularity * sparsity)
                best = np.minimum(best, m.overhead_s + flops * (1.0 - sparsity) / (spk * eff))
            t = np.where(sparsity <= 0.0, t, best)
        return np.where(flops <= 0, 0.0, t)

    def _check_states(self, states: np.ndarray) -> None:
        """Shape and range checks on a :func:`state_matrix`; NaN fails."""
        if states.ndim != 3 or states.shape[1:] != (len(self.specs), 6):
            raise ValueError(
                f"got states of shape {states.shape} for {len(self.specs)} layer specs"
            )
        if not ((states >= _STATE_MIN) & (states <= _STATE_MAX)).all():
            for col, name in enumerate(STATE_FIELDS):
                v = states[..., col]
                bad = v[~((v >= _STATE_MIN[col]) & (v <= _STATE_MAX[col]))]
                if bad.size:
                    bound = "in [0, 1]" if _STATE_MAX[col] == 1.0 else ">= 0"
                    raise ValueError(f"{name} must be {bound}, got {bad[0]}")

    def layer_times(
        self, states: np.ndarray, split: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-layer ``(fwd, bwd, wgt)`` seconds for a :func:`state_matrix`.

        Each is an ``(N, L)`` float64 matrix.  ``fwd`` is the forward
        pass.  Without ``split``, ``bwd`` is the whole backward (dX, dW
        unless frozen, 2x the attention quadratic term, plus a forward
        recompute under activation checkpointing) and ``wgt`` is zeros.
        With ``split`` (zero-bubble schedules), ``wgt`` is the dW half
        (the 'W' op) and ``bwd`` the rest (the 'B' op).  Droppable
        layers cost no backward at all.
        """
        self._check_states(states)
        sp = states[..., 0]
        fz = states[..., 1]  # 0.0/1.0 flags: np.where selects on nonzero
        dr = states[..., 2]
        ad = states[..., 3]
        tf = states[..., 4]
        mm = states[..., 5]
        pk = self._pk
        if np.count_nonzero(sp):  # some layer is pruned (sparsity is checked >= 0)
            mt_dense = self._matmul_times(self._dense_flops, sp)
            mt_ffn = self._matmul_times(self._ffn_flops * mm, sp)
        else:
            mt_dense = self._dense_matmul_times
            mt_ffn = self._matmul_times(self._ffn_flops * mm, None)
        quad_scaled = self._quad_flops * ad

        fwd_matmul = mt_dense + mt_ffn
        fwd = fwd_matmul + quad_scaled / pk
        fwd = fwd * tf

        dw = np.where(fz, 0.0, fwd_matmul)
        bwd_full = (fwd_matmul + dw) + (2.0 * quad_scaled) / pk
        bwd_full = bwd_full * tf
        if self.activation_recompute:
            bwd_full = bwd_full + fwd  # recompute pass
        bwd_full = np.where(dr, 0.0, bwd_full)

        if split:
            wgt = np.where(np.logical_or(dr, fz), 0.0, fwd_matmul * tf)
            bwd = np.where(bwd_full == 0.0, 0.0, bwd_full - wgt)
        else:
            wgt = np.zeros(fwd.shape)
            bwd = bwd_full
        return fwd, bwd, wgt

    def stage_times(
        self,
        states: np.ndarray,
        boundaries: Sequence[tuple[int, ...]],
        split: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-stage ``(fwd, bwd, wgt, activation bytes)`` for N lanes.

        Lane ``i`` runs ``states[i]`` under a plan with stage
        ``boundaries[i]``; plans may differ between lanes but must have
        the same stage count S.  Returns ``(N, S)`` float64 matrices,
        unscaled by device speed.  A stage's time is its layers'
        :meth:`layer_times` added one by one in layer order onto 0.0,
        for all lanes and stages at once: step ``j`` adds every stage's
        ``j``-th layer, and stages narrower than the widest add a 0.0
        pad instead (``x + 0.0 == x``).  The activation bytes are those
        of each stage's last layer, scaled by its token fraction.
        """
        n = states.shape[0]
        L = len(self.specs)
        table = np.zeros((3, n, L + 1))  # column L is the 0.0 pad
        times = self.layer_times(states, split)
        for k in range(3 if split else 2):  # wgt stays 0.0 without split
            table[k, :, :L] = times[k]
        plans = dict.fromkeys(boundaries)
        if len(plans) == 1:
            idx, last = _stage_layout(boundaries[0], L)
            steps = table[:, :, idx]  # (3, n, width, S)
            tf_last = states[:, last, 4]
        else:
            width = max(max(map(operator.sub, b[1:], b[:-1])) for b in plans)
            lane = np.arange(n)
            layouts = [_stage_layout(b, L, width) for b in boundaries]
            steps = table[:, lane[:, None, None], np.stack([i for i, _ in layouts])]
            last = np.stack([j for _, j in layouts])
            tf_last = states[lane[:, None], last, 4]
        acc = np.zeros((3, n, steps.shape[3]))
        for j in range(steps.shape[2]):
            acc += steps[:, :, j]
        act = self._act_bytes[last] * tf_last
        return acc[0], acc[1], acc[2], act

    # -- memory -----------------------------------------------------------
    def layer_bytes(
        self,
        states: np.ndarray,
        in_flight: "int | np.ndarray" = 1,
        precision: str = "mixed",
    ) -> np.ndarray:
        """Per-layer resident bytes for a :func:`state_matrix`.

        Returns an ``(5, N, L)`` int64 array whose rows follow
        :data:`BYTE_FIELDS`: working weights (CSR values + index when
        pruned), the master copy, gradients and optimizer states (none
        for frozen layers; both count unpruned parameters only), and
        the activations of ``in_flight`` micro-batches (an int or a
        per-layer array; one under activation recompute, which holds
        only the boundary activation).  ``precision`` picks the row of
        :data:`PRECISION_BYTES`; only the memory model passes the
        cost's own, so migration payloads, the data-parallel gradient
        all-reduce and the profiler price mixed precision.  Each term
        truncates to whole bytes like ``int()``; the weight term is
        weights + master truncated, less the truncated master.
        """
        self._check_states(states)
        wb, mb, gb, ob, act_scale = PRECISION_BYTES[precision]
        sp = states[..., 0]
        fz = states[..., 1]
        tf = states[..., 4]
        params = self.param_counts
        active = params * (1.0 - sp)
        weight = np.where(sp > 0, active * (wb + CSR_INDEX_BYTES), params * wb)
        master = active * mb
        if self.activation_recompute:
            in_flight = 1
        out = np.empty((5,) + sp.shape, dtype=np.int64)
        out[1] = master
        out[0] = weight + master
        out[0] -= out[1]
        out[2] = np.where(fz, 0.0, active * gb)
        out[3] = np.where(fz, 0.0, active * ob * OPTIMIZER_STATES)
        out[4] = self._act_bytes * tf * np.maximum(1, in_flight) * act_scale
        return out


def fresh_states(n: int) -> list[LayerState]:
    """A dense, unfrozen, fully-routed state vector for n layers."""
    return [LayerState() for _ in range(n)]
