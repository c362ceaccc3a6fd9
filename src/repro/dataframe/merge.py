"""Distributed merge (join) with dynamically selected strategy.

The paper's TPCx-AI UC10 story (Fig. 8a): joining a tiny customer table
with a huge, key-skewed transaction table. Engines that hash-shuffle both
sides by join key send every hot-key row to one partition — one worker
does all the work (or dies of OOM). Xorbits' dynamic tiling executes the
first chunks, sees one side is small, and *broadcasts* it to every chunk
of the large side instead; when both sides are large it falls back to a
range-partitioned shuffle with boundaries sampled from real data.

With dynamic tiling disabled this operator reproduces the baseline
behaviour: a static hash shuffle into as many partitions as input chunks.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..core.operator import ExecContext, Operator, TileContext
from ..engine.local import DataFrame, concat, merge as frame_merge
from ..graph.entity import ChunkData
from ..utils import new_key
from .partition import (
    assign_hash_partitions,
    assign_range_partitions,
    split_by_assignment,
)
from .utils import ConcatChunks, chunk_index, nsplits_from_chunks, spread_sample


def _estimate_total(ctx: TileContext, chunks: list[ChunkData]) -> float:
    """Estimated total bytes of a side from whatever metadata exists."""
    known = ctx.chunk_nbytes_many(chunks, default=-1)
    observed = [n for n in known if n >= 0]
    if not observed:
        return float("inf")
    mean = sum(observed) / len(observed)
    return sum(n if n >= 0 else mean for n in known)


class Merge(Operator):
    """Tileable-level merge of two distributed dataframes."""

    def __init__(self, how: str, left_on: Sequence, right_on: Sequence,
                 suffixes: tuple = ("_x", "_y"),
                 out_columns: Optional[list] = None, **params):
        super().__init__(**params)
        self.how = how
        self.left_on = list(left_on)
        self.right_on = list(right_on)
        self.suffixes = tuple(suffixes)
        self.out_columns = out_columns

    def input_column_requirements(self, required):
        if required is None:
            return [None, None]
        required = set(required)
        left_req = set(self.left_on)
        right_req = set(self.right_on)
        # a required output column may come from either side (suffix-free
        # resolution is conservative: ask both sides for the base name)
        for name in required:
            base = name
            for suffix in self.suffixes:
                if suffix and isinstance(name, str) and name.endswith(suffix):
                    base = name[: -len(suffix)]
            left_req.add(base)
            right_req.add(base)
        return [sorted(left_req, key=str), sorted(right_req, key=str)]

    # -- tiling --------------------------------------------------------------
    def tile(self, ctx: TileContext):
        left_chunks = list(self.inputs[0].chunks)
        right_chunks = list(self.inputs[1].chunks)

        if ctx.config.dynamic_tiling:
            sample = (left_chunks[: ctx.config.sample_chunks]
                      + right_chunks[: ctx.config.sample_chunks])
            pending = [c for c, meta in zip(sample, ctx.chunk_metas(sample))
                       if meta is None]
            if pending:
                yield pending
            left_est = _estimate_total(ctx, left_chunks)
            right_est = _estimate_total(ctx, right_chunks)
            threshold = ctx.config.chunk_store_limit

            if right_est <= threshold and self.how in ("inner", "left"):
                out_chunks = self._tile_broadcast(
                    ctx, left_chunks, right_chunks, broadcast_right=True
                )
            elif left_est <= threshold and self.how in ("inner", "right"):
                out_chunks = self._tile_broadcast(
                    ctx, right_chunks, left_chunks, broadcast_right=False
                )
            else:
                boundaries = yield from self._sampled_boundaries(
                    ctx, left_chunks, right_chunks, left_est + right_est
                )
                out_chunks = self._tile_shuffle(
                    left_chunks, right_chunks, boundaries, hash_mode=False
                )
        else:
            # static plan: hash-shuffle both sides, one partition per
            # large-side chunk — the skew-prone baseline strategy
            n_parts = max(len(left_chunks), len(right_chunks))
            out_chunks = self._tile_shuffle(
                left_chunks, right_chunks, n_parts, hash_mode=True
            )

        n_cols = len(self.out_columns) if self.out_columns is not None else None
        return [(out_chunks,
                 nsplits_from_chunks(ctx, out_chunks, "dataframe", n_cols))]

    # -- broadcast strategy ------------------------------------------------------
    def _tile_broadcast(self, ctx: TileContext, big: list[ChunkData],
                        small: list[ChunkData], broadcast_right: bool):
        if len(small) == 1:
            small_all = small[0]
        else:
            concat_op = ConcatChunks()
            small_all = concat_op.new_chunk(
                small, "dataframe", (None, small[0].shape[-1]),
                chunk_index("dataframe", 0), columns=small[0].columns,
            )
        out_chunks = []
        for i, chunk in enumerate(big):
            merge_op = MergeChunk(
                how=self.how, left_on=self.left_on, right_on=self.right_on,
                suffixes=self.suffixes, swapped=not broadcast_right,
            )
            inputs = [chunk, small_all]
            out_chunks.append(merge_op.new_chunk(
                inputs, "dataframe", (None, None),
                chunk_index("dataframe", i), columns=self.out_columns,
            ))
        return out_chunks

    # -- shuffle strategy ----------------------------------------------------------
    def _sampled_boundaries(self, ctx: TileContext, left_chunks, right_chunks,
                            est_bytes: float):
        """Range boundaries for the shuffle, sampled from executed chunks."""
        # Boundaries need rows from EVERY chunk of both sides: join keys
        # are often laid out contiguously across chunks (generated ids),
        # so quantiles over a few chunks leave giant unsampled key spans
        # that funnel into single partitions. Like the sort operator (and
        # Spark's RangePartitioner), run the inputs and sample each chunk.
        sample = [(chunk, self.left_on[0]) for chunk in left_chunks] \
            + [(chunk, self.right_on[0]) for chunk in right_chunks]
        pending = [c for c, _ in sample if not ctx.has_value(c.key)]
        if pending:
            yield pending
        per_chunk = max(4000 // max(len(sample), 1), 20)
        collected: list = []
        for chunk, key in sample:
            frame = ctx.peek(chunk.key)
            if key in frame.columns.to_list():
                values = frame[key].values
                if len(values) > per_chunk:
                    stride = max(len(values) // per_chunk, 1)
                    values = values[::stride]
                collected.extend(
                    v for v in values.tolist() if v is not None
                )
        # a reducer holds both sides' partitions plus the join output,
        # which is wider than either input: size partitions for ~3x the
        # input bytes so a reducer's working set stays near one chunk
        n_parts = int(np.clip(
            math.ceil(3.0 * est_bytes / ctx.config.chunk_store_limit),
            2, 4 * ctx.config.cluster.n_bands,
        ))
        if not collected:
            return n_parts  # degenerate: fall back to hash partitioning
        collected.sort()
        cuts: list = []
        for r in range(1, n_parts):
            cut = collected[min(
                int(len(collected) * r / n_parts), len(collected) - 1
            )]
            if not cuts or cut > cuts[-1]:
                cuts.append(cut)  # duplicates would leave empty ranges
        if not cuts:
            return n_parts
        return cuts

    def _tile_shuffle(self, left_chunks, right_chunks, boundaries,
                      hash_mode: bool):
        if isinstance(boundaries, int):  # degenerate sampled case
            n_parts, boundaries, hash_mode = boundaries, [], True
        elif hash_mode:
            n_parts, boundaries = int(boundaries), []
        else:
            n_parts = len(boundaries) + 1
        left_parts = self._partition_side(
            left_chunks, self.left_on[0], boundaries, n_parts, hash_mode, 0
        )
        right_parts = self._partition_side(
            right_chunks, self.right_on[0], boundaries, n_parts, hash_mode, 1
        )
        out_chunks = []
        for r in range(n_parts):
            merge_op = MergeChunk(
                how=self.how, left_on=self.left_on, right_on=self.right_on,
                suffixes=self.suffixes, swapped=False,
                n_left=len(left_parts[r]),
            )
            inputs = left_parts[r] + right_parts[r]
            out_chunks.append(merge_op.new_chunk(
                inputs, "dataframe", (None, None),
                chunk_index("dataframe", r), columns=self.out_columns,
            ))
        return out_chunks

    def _partition_side(self, chunks, key, boundaries, n_parts,
                        hash_mode, side):
        partitions: list[list[ChunkData]] = [[] for _ in range(n_parts)]
        shuffle_id = new_key("shuffle")  # one dataset per shuffled side
        for m, chunk in enumerate(chunks):
            part_op = MergePartition(
                key=key, boundaries=boundaries, n_parts=n_parts,
                hash_mode=hash_mode, shuffle_id=shuffle_id,
            )
            specs = [
                {"kind": "dataframe", "shape": (None, None),
                 "index": (m, r)}
                for r in range(n_parts)
            ]
            outs = part_op.new_chunks([chunk], specs)
            for r, out in enumerate(outs):
                partitions[r].append(out)
        return partitions

    def execute(self, ctx: ExecContext):  # tileable-level op never executes
        raise NotImplementedError


class MergePartition(Operator):
    """Shuffle-map for merge: split one side's chunk into partitions."""

    is_shuffle_map = True

    def __init__(self, key, boundaries: list, n_parts: int, hash_mode: bool,
                 shuffle_id: str | None = None, **params):
        super().__init__(**params)
        self.key = key
        self.boundaries = boundaries
        self.n_parts = n_parts
        self.hash_mode = hash_mode
        self.shuffle_id = shuffle_id

    def execute(self, ctx: ExecContext):
        frame = ctx.get(self.inputs[0].key)
        keys = frame[self.key].values
        if self.hash_mode:
            assignment = assign_hash_partitions(keys, self.n_parts)
        else:
            assignment = assign_range_partitions(keys, self.boundaries)
        parts = split_by_assignment(frame, assignment, self.n_parts)
        return {chunk.key: parts[r] for r, chunk in enumerate(self.outputs)}


class MergeChunk(Operator):
    """Local merge of co-partitioned (or broadcast) chunk pairs."""

    def __init__(self, how: str, left_on, right_on, suffixes,
                 swapped: bool = False, n_left: int | None = None, **params):
        super().__init__(**params)
        self.how = how
        self.left_on = list(left_on)
        self.right_on = list(right_on)
        self.suffixes = tuple(suffixes)
        self.swapped = swapped
        self.n_left = n_left

    def execute(self, ctx: ExecContext):
        values = [ctx.get(c.key) for c in self.inputs]
        if self.n_left is not None:
            left_parts = values[: self.n_left]
            right_parts = values[self.n_left:]
            left = concat(left_parts, ignore_index=True) if len(left_parts) > 1 \
                else left_parts[0]
            right = concat(right_parts, ignore_index=True) if len(right_parts) > 1 \
                else right_parts[0]
        elif self.swapped:
            right, left = values[0], values[1]
        else:
            left, right = values[0], values[1]
        same = self.left_on == self.right_on
        return frame_merge(
            left, right,
            how=self.how,
            on=self.left_on if same else None,
            left_on=None if same else self.left_on,
            right_on=None if same else self.right_on,
            suffixes=self.suffixes,
        )
