"""Batched forward primitives shared by serving and training.

The serving engine (:mod:`repro.serve.engine`) and the vectorized training
engine (:mod:`repro.rl.batched_rollout`) advance *many* queries in lockstep,
so both need the agent's LSTM/fusion/policy forward passes expressed over
``(B, ...)`` batches instead of per-query ``(1, d)`` tensors.  This module is
the single home for those primitives:

* :func:`stable_sigmoid` / :func:`stable_softmax` — NumPy twins of the
  ``Tensor`` activations (clipped, shift-stabilised) so no-grad fast paths
  reproduce the module numerics;
* :class:`BatchedLSTM` — no-grad batched evaluation of the agent's
  ``LSTMCell`` on plain arrays (serving: beam-search history folding);
* :class:`BatchedFusion` — no-grad batched forward of the fusers that have a
  vectorized implementation (serving: branch scoring);
* :class:`DifferentiableBatchedFusion` — the same batched fusion expressed in
  autograd :class:`~repro.nn.tensor.Tensor` ops, used by the training engine
  where gradients must flow into the fusion/projection weights;
* :func:`pad_action_matrices` — padded/masked action-embedding batches for
  per-query action spaces of different sizes;
* :func:`segment_offsets`, :func:`segment_rows`, :func:`segment_softmax`,
  :func:`segment_top_k` and :func:`grouped_top_k` — per-row operations over
  ragged rows laid out flat (CSR ``indptr`` offsets, or group ids), which is
  how the beam-search engine scores and prunes a whole frontier without a
  Python loop per branch.

Both fusion classes implement the exact formulas of the fuser modules
(gate-attention family, structure-only, concatenation); agents with a custom
fuser or a custom ``action_log_probs`` are reported as unsupported so callers
can fall back to the per-query path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.fusion.gate_attention import UnifiedGateAttentionNetwork
from repro.fusion.variants import ConcatenationFuser, StructureOnlyFuser
from repro.nn.tensor import Tensor, concat, stack


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Matches ``Tensor.sigmoid`` numerics (clipped, branch-stable)."""
    clipped = np.clip(x, -500, 500)
    return np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-clipped)),
        np.exp(clipped) / (1.0 + np.exp(clipped)),
    )


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stabilised softmax, matching ``Tensor.softmax`` numerics."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def segment_offsets(counts: np.ndarray) -> np.ndarray:
    """The CSR ``indptr`` of consecutive rows of the given sizes."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def segment_rows(indptr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, positions)`` of every element of a flat CSR layout.

    Element ``j`` belongs to row ``rows[j]`` and sits at offset
    ``positions[j]`` inside it; empty rows own no elements.

    >>> segment_rows(np.array([0, 2, 2, 5]))
    (array([0, 0, 2, 2, 2]), array([0, 1, 0, 1, 2]))
    """
    indptr = np.asarray(indptr)
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(int(indptr[-1])) - indptr[rows]


def segment_softmax(scores: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """:func:`stable_softmax` of every row ``scores[indptr[i]:indptr[i + 1]]``.

    One ``reduceat`` pass for the row maxima and one for the row sums; empty
    rows are skipped (``reduceat`` cannot express them).
    """
    counts = np.diff(indptr)
    nonempty = counts > 0
    starts, sizes = indptr[:-1][nonempty], counts[nonempty]
    if not len(starts):
        return np.empty(0)
    shifted = scores - np.repeat(np.maximum.reduceat(scores, starts), sizes)
    exp = np.exp(shifted)
    return exp / np.repeat(np.add.reduceat(exp, starts), sizes)


def segment_top_k(values: np.ndarray, indptr: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the ``k`` largest ``values`` of every row, best first.

    Row ``i`` picks what ``np.argsort(row, kind="stable")[::-1][:k]`` picks:
    equal values rank the later element first.  The result lists row 0's
    picks, then row 1's, and so on.  Rows are sorted side by side in a
    padded ``(rows, widest row)`` matrix.
    """
    counts = np.diff(indptr)
    if not len(values):
        return np.empty(0, dtype=np.int64)
    rows, positions = segment_rows(indptr)
    width = int(counts.max())
    # Each row right-aligned and reversed, so a stable ascending sort of the
    # negated values meets the later of two equal elements first.
    padded = np.full((len(counts), width), np.inf)
    padded[rows, width - 1 - positions] = -values
    columns = np.argsort(padded, axis=1, kind="stable")[:, :k]
    real = columns >= (width - counts)[:, None]
    return (indptr[:-1, None] + (width - 1 - columns))[real]


def grouped_top_k(groups: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest ``scores`` of every group, best first.

    Equal scores keep index order.  The result lists group 0's picks, then
    group 1's, and so on; ``groups`` holds non-negative ids.
    """
    order = np.lexsort((-scores, groups))  # stable
    ordered = groups[order]
    counts = np.bincount(ordered)
    starts = np.cumsum(counts) - counts
    return order[np.arange(len(order)) - starts[ordered] < k]


class BatchedLSTM:
    """No-grad batched evaluation of the agent's ``LSTMCell`` on plain arrays."""

    def __init__(self, agent):
        cell = agent.history_encoder.cell
        self.weight_ih = cell.weight_ih.data
        self.weight_hh = cell.weight_hh.data
        self.bias = cell.bias.data
        self.hidden_size = cell.hidden_size

    def step(
        self, inputs: np.ndarray, hidden: np.ndarray, cell: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        gates = inputs @ self.weight_ih + hidden @ self.weight_hh + self.bias
        h = self.hidden_size
        i_gate = stable_sigmoid(gates[:, 0:h])
        f_gate = stable_sigmoid(gates[:, h : 2 * h])
        g_gate = np.tanh(gates[:, 2 * h : 3 * h])
        o_gate = stable_sigmoid(gates[:, 3 * h : 4 * h])
        c_next = f_gate * cell + i_gate * g_gate
        h_next = o_gate * np.tanh(c_next)
        return h_next, c_next


def _fusion_kind(fuser) -> Optional[str]:
    """Which vectorized implementation (if any) covers ``fuser``."""
    if isinstance(fuser, UnifiedGateAttentionNetwork):
        return "gate_attention"
    if isinstance(fuser, StructureOnlyFuser):
        return "structure_only"
    if isinstance(fuser, ConcatenationFuser):
        return "concatenation"
    return None


class BatchedFusion:
    """No-grad batched forward of the fusers with a vectorized implementation."""

    def __init__(self, agent):
        self.agent = agent
        fuser = agent.fuser
        self.kind = _fusion_kind(fuser)
        if self.kind == "gate_attention":
            self.use_attention = getattr(fuser, "use_attention", True)
            self.use_filtration = getattr(fuser, "use_filtration", True)

    @property
    def supported(self) -> bool:
        return self.kind is not None

    @property
    def needs_modalities(self) -> bool:
        """Whether the fuser consumes text/image features at all."""
        return self.kind != "structure_only"

    # ------------------------------------------------------------------ paths
    def fuse(
        self,
        source: np.ndarray,
        current: np.ndarray,
        relation: np.ndarray,
        history: np.ndarray,
        source_text: Optional[np.ndarray],
        source_image: Optional[np.ndarray],
        current_text: Optional[np.ndarray],
        current_image: Optional[np.ndarray],
    ) -> np.ndarray:
        """Complementary features ``Z`` for a batch of branches, shape (B, j).

        The modality arguments may be ``None`` when :attr:`needs_modalities`
        is false — structure-only fusers never read them.
        """
        if self.kind == "structure_only":
            fuser = self.agent.fuser
            flat = np.concatenate([source, current, relation, history], axis=1)
            out = flat @ fuser.projection.weight.data + fuser.projection.bias.data
            return np.maximum(out, 0.0)
        if self.kind == "concatenation":
            fuser = self.agent.fuser
            flat = np.concatenate(
                [
                    source,
                    current,
                    relation,
                    0.5 * (source_text + current_text),
                    0.5 * (source_image + current_image),
                    history,
                ],
                axis=1,
            )
            out = flat @ fuser.projection.weight.data + fuser.projection.bias.data
            return np.maximum(out, 0.0)
        return self._gate_attention(
            source,
            current,
            relation,
            history,
            source_text,
            source_image,
            current_text,
            current_image,
        )

    def _gate_attention(
        self,
        source: np.ndarray,
        current: np.ndarray,
        relation: np.ndarray,
        history: np.ndarray,
        source_text: np.ndarray,
        source_image: np.ndarray,
        current_text: np.ndarray,
        current_image: np.ndarray,
    ) -> np.ndarray:
        fuser = self.agent.fuser
        batch = source.shape[0]
        # Structural slots y_i = [e ; h_t ; r_q] (Eq. 1), three per branch.
        structural = np.stack(
            [
                np.concatenate([source, history, relation], axis=1),
                np.concatenate([current, history, relation], axis=1),
                np.concatenate([relation, history, source], axis=1),
            ],
            axis=1,
        )  # (B, 3, slot_dim)
        # Auxiliary slots x_i = [f_t W_t ; f_i W_i] (Eq. 3).
        w_text = fuser.text_projection.weight.data
        w_image = fuser.image_projection.weight.data
        aux_source = np.concatenate([source_text @ w_text, source_image @ w_image], axis=1)
        aux_current = np.concatenate(
            [current_text @ w_text, current_image @ w_image], axis=1
        )
        auxiliary = np.stack([aux_source, aux_current, aux_source], axis=1)  # (B, 3, d_x)

        fusion = fuser.attention_fusion
        slots = structural.shape[1]
        struct_flat = structural.reshape(batch * slots, -1)
        aux_flat = auxiliary.reshape(batch * slots, -1)
        query = (aux_flat @ fusion.w_query.weight.data).reshape(batch, slots, -1)
        key = (struct_flat @ fusion.w_key.weight.data).reshape(batch, slots, -1)
        value = (struct_flat @ fusion.w_value.weight.data).reshape(batch, slots, -1)

        joint_left = (key @ fusion.w_l_key.weight.data) * (
            query @ fusion.w_l_query.weight.data
        )
        joint_right = (value @ fusion.w_r_value.weight.data) * (
            query @ fusion.w_r_query.weight.data
        )

        if self.use_attention:
            gate = stable_sigmoid(joint_left @ fusion.w_gate.weight.data)  # (B, 3, d)
            gated_key = gate * key
            gated_query = (1.0 - gate) * query
            scale = 1.0 / np.sqrt(fusion.config.attention_dim)
            scores = np.einsum("bmd,bnd->bmn", gated_key, gated_query) * scale
            attention = stable_softmax(scores, axis=-1)
            mixing = stable_sigmoid(
                np.einsum("bmn,bnd->bmd", attention, key) @ fusion.w_aggregate.weight.data
            )  # (B, 3, 1)
            attended = mixing * np.einsum("bmn,bnj->bmj", attention, joint_right)
        else:
            attended = joint_left

        if self.use_filtration:
            interaction = joint_right * attended
            features = stable_sigmoid(interaction) * interaction
        else:
            features = attended
        return features.sum(axis=1)  # (B, j)


class DifferentiableBatchedFusion:
    """Batched fusion forward in autograd ops (for the training fast path).

    Implements the same three fuser families as :class:`BatchedFusion` but on
    :class:`~repro.nn.tensor.Tensor` so gradients reach the fuser weights and
    flow back through the ``history`` tensor into the path-history LSTM.
    """

    def __init__(self, agent):
        self.agent = agent
        fuser = agent.fuser
        self.kind = _fusion_kind(fuser)
        if self.kind == "gate_attention":
            self.use_attention = getattr(fuser, "use_attention", True)
            self.use_filtration = getattr(fuser, "use_filtration", True)

    @property
    def supported(self) -> bool:
        return self.kind is not None

    @property
    def needs_modalities(self) -> bool:
        return self.kind != "structure_only"

    def fuse(
        self,
        source: np.ndarray,
        current: np.ndarray,
        relation: np.ndarray,
        history: Tensor,
        source_text: Optional[np.ndarray],
        source_image: Optional[np.ndarray],
        current_text: Optional[np.ndarray],
        current_image: Optional[np.ndarray],
    ) -> Tensor:
        """Differentiable complementary features ``Z``, shape ``(B, j)``.

        ``history`` must be the live ``(B, hidden_dim)`` LSTM hidden tensor so
        the episode graph stays connected; the embedding lookups are static
        feature tables and enter as plain arrays.
        """
        if self.kind == "structure_only":
            fuser = self.agent.fuser
            static = Tensor(np.concatenate([source, current, relation], axis=1))
            return fuser.projection(concat([static, history], axis=1)).relu()
        if self.kind == "concatenation":
            fuser = self.agent.fuser
            static = Tensor(
                np.concatenate(
                    [
                        source,
                        current,
                        relation,
                        0.5 * (source_text + current_text),
                        0.5 * (source_image + current_image),
                    ],
                    axis=1,
                )
            )
            return fuser.projection(concat([static, history], axis=1)).relu()
        return self._gate_attention(
            source,
            current,
            relation,
            history,
            source_text,
            source_image,
            current_text,
            current_image,
        )

    def _gate_attention(
        self,
        source: np.ndarray,
        current: np.ndarray,
        relation: np.ndarray,
        history: Tensor,
        source_text: np.ndarray,
        source_image: np.ndarray,
        current_text: np.ndarray,
        current_image: np.ndarray,
    ) -> Tensor:
        fuser = self.agent.fuser
        # Structural slots y_i = [e ; h_t ; r_q] (Eq. 1), three per branch.
        slot_source = concat([Tensor(source), history, Tensor(relation)], axis=1)
        slot_current = concat([Tensor(current), history, Tensor(relation)], axis=1)
        slot_context = concat([Tensor(relation), history, Tensor(source)], axis=1)
        structural = stack([slot_source, slot_current, slot_context], axis=1)
        # Auxiliary slots x_i = [f_t W_t ; f_i W_i] (Eq. 3).
        aux_source = concat(
            [
                fuser.text_projection(Tensor(source_text)),
                fuser.image_projection(Tensor(source_image)),
            ],
            axis=1,
        )
        aux_current = concat(
            [
                fuser.text_projection(Tensor(current_text)),
                fuser.image_projection(Tensor(current_image)),
            ],
            axis=1,
        )
        auxiliary = stack([aux_source, aux_current, aux_source], axis=1)  # (B, 3, d_x)

        fusion = fuser.attention_fusion
        query = fusion.w_query(auxiliary)  # (B, 3, d)
        key = fusion.w_key(structural)
        value = fusion.w_value(structural)

        joint_left = fusion.w_l_key(key) * fusion.w_l_query(query)  # (B, 3, j)
        joint_right = fusion.w_r_value(value) * fusion.w_r_query(query)

        if self.use_attention:
            gate = fusion.w_gate(joint_left).sigmoid()  # (B, 3, d)
            gated_key = gate * key
            gated_query = (1.0 - gate) * query
            scale = 1.0 / np.sqrt(fusion.config.attention_dim)
            scores = gated_key.matmul(gated_query.transpose(0, 2, 1)) * scale
            attention = scores.softmax(axis=-1)  # (B, 3, 3)
            mixing = fusion.w_aggregate(attention.matmul(key)).sigmoid()  # (B, 3, 1)
            attended = mixing * attention.matmul(joint_right)
        else:
            attended = joint_left

        if self.use_filtration:
            interaction = joint_right * attended
            features = interaction.sigmoid() * interaction
        else:
            features = attended
        return features.sum(axis=1)  # (B, j)


def pad_action_matrices(
    action_lists: Sequence[Sequence[Tuple[int, int]]],
    relation_embeddings: np.ndarray,
    entity_embeddings: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Padded action-embedding batch for per-query action spaces.

    Returns ``(embeddings, mask)`` where ``embeddings`` has shape
    ``(B, n_max, 2 * d)`` with row ``[relation ; entity]`` per action (the same
    layout as :func:`repro.rl.policy.stack_action_embeddings`) and ``mask`` is
    a boolean ``(B, n_max)`` marking real (non-padding) actions.  Padding rows
    are zeros and sit after the real actions, preserving each query's action
    order.
    """
    if not action_lists:
        raise ValueError("action_lists must not be empty")
    counts = [len(actions) for actions in action_lists]
    if min(counts) == 0:
        raise ValueError("action space is empty")
    batch = len(action_lists)
    n_max = max(counts)
    dim = relation_embeddings.shape[1] + entity_embeddings.shape[1]
    embeddings = np.zeros((batch, n_max, dim))
    mask = np.zeros((batch, n_max), dtype=bool)
    flat_rel: List[int] = []
    flat_ent: List[int] = []
    for actions in action_lists:
        for rel, ent in actions:
            flat_rel.append(rel)
            flat_ent.append(ent)
    rows = np.concatenate(
        [
            relation_embeddings[np.asarray(flat_rel, dtype=np.intp)],
            entity_embeddings[np.asarray(flat_ent, dtype=np.intp)],
        ],
        axis=1,
    )
    offset = 0
    for i, count in enumerate(counts):
        embeddings[i, :count] = rows[offset : offset + count]
        mask[i, :count] = True
        offset += count
    return embeddings, mask
