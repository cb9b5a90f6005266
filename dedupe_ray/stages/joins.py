"""Sort-merge equi-join as a composition of Ray Data primitives.

``Dataset.join`` (hash shuffle into long-lived aggregator actors) is the
native path, but its actor-pool startup dominates on short jobs and its
partition count must be tuned per cluster. This operator expresses the same
inner equi-join as ONE union + ONE sort + a vectorized per-block merge —
the ``sorted_group_apply`` pattern the rest of the engine is built on
(custom-operator recipe (a): map_batches + sort composition).

Partitioning assumption: all rows of a join key land in one sorted block
(the guarantee ``sorted_group_apply`` relies on), so a single key's match
set must fit in a block — true for FK joins (orders ⋈ lineitem); a
many-to-many key with millions of rows per side belongs on ``Dataset.join``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from dedupe_ray.stages.groupapply import sorted_group_apply

__all__ = ["sort_merge_join"]


def sort_merge_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str | None = None,
) -> "ray.data.Dataset":
    """Inner equi-join; the output key column is named ``left_on`` and
    carries every other column from both sides (names must not collide).
    Both sides are materialized first (the sort holds them anyway), so
    their schemas cost no execution."""
    right_on = right_on or left_on
    left, right = left.materialize(), right.materialize()
    l_schema = left.schema()
    r_schema = right.schema()
    l_cols = [c for c in l_schema.names if c != left_on]
    r_cols = [c for c in r_schema.names if c != right_on]
    overlap = set(l_cols) & set(r_cols)
    if overlap:
        raise ValueError(f"column collision across sides: {sorted(overlap)}")
    l_types = {n: t for n, t in zip(l_schema.names, l_schema.types)}
    r_types = {n: t for n, t in zip(r_schema.names, r_schema.types)}

    key = left_on

    def _tag_left(batch: pa.Table) -> pa.Table:
        # SQL inner-join semantics: NULL keys never match — drop them here so
        # they can't crash the lexsort (str vs None) or join as a group
        batch = batch.filter(pc.is_valid(batch.column(left_on)))
        cols = {key: batch.column(left_on),
                "__side": pa.array(np.zeros(batch.num_rows, np.int8), pa.int8())}
        for c in l_cols:
            cols[c] = batch.column(c)
        for c in r_cols:
            cols[c] = pa.nulls(batch.num_rows, r_types[c])
        return pa.table(cols)

    def _tag_right(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column(right_on)))
        cols = {key: batch.column(right_on),
                "__side": pa.array(np.ones(batch.num_rows, np.int8), pa.int8())}
        for c in l_cols:
            cols[c] = pa.nulls(batch.num_rows, l_types[c])
        for c in r_cols:
            cols[c] = batch.column(c)
        return pa.table(cols)

    unioned = left.map_batches(_tag_left, batch_format="pyarrow", batch_size=None).union(
        right.map_batches(_tag_right, batch_format="pyarrow", batch_size=None)
    )

    def _merge_block(block: pa.Table) -> pa.Table:
        n = block.num_rows
        empty_cols = (
            {key: pa.array([], l_types[left_on])}
            | {c: pa.array([], l_types[c]) for c in l_cols}
            | {c: pa.array([], r_types[c]) for c in r_cols}
        )
        if n == 0:
            return pa.table(empty_cols)
        k = block.column(key).to_numpy(zero_copy_only=False)
        side = block.column("__side").to_numpy(zero_copy_only=False)
        order = np.lexsort((side, k))
        k_s, side_s = k[order], side[order]
        run_flag = np.r_[True, k_s[1:] != k_s[:-1]]
        run_id = np.cumsum(run_flag) - 1
        n_runs = int(run_id[-1]) + 1
        # per-run left count; within a run lefts (side 0) precede rights
        nl = np.bincount(run_id, weights=(side_s == 0)).astype(np.int64)
        run_starts = np.flatnonzero(run_flag)
        is_right = side_s == 1
        right_pos = np.flatnonzero(is_right)
        lj = nl[run_id[right_pos]]  # matches per right row
        total = int(lj.sum())
        if total == 0:
            return pa.table(empty_cols)
        r_idx = np.repeat(right_pos, lj)
        block_starts = np.cumsum(lj) - lj
        ramp = np.arange(total) - np.repeat(block_starts, lj)
        l_idx = np.repeat(run_starts[run_id[right_pos]], lj) + ramp
        # map back to original block row order, then gather per side
        take_l = pa.array(np.asarray(order)[l_idx], pa.int64())
        take_r = pa.array(np.asarray(order)[r_idx], pa.int64())
        cols = {key: block.column(key).take(take_l)}
        for c in l_cols:
            cols[c] = block.column(c).take(take_l)
        for c in r_cols:
            cols[c] = block.column(c).take(take_r)
        return pa.table(cols)

    return sorted_group_apply(unioned, key, _merge_block)
