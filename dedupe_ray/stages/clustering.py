"""Transitive clustering of match edges → connected components.

Upgrade of the reference's greedy star-shaped grouping (``Duplicates``,
/root/reference/dedupe.go:101-123 — order-dependent, overlapping groups) to
deterministic TRUE connected components with ``cluster_id = min(member_id)``
(SURVEY.md §2.5 D1).

Two implementations:

- ``local``: streamed union-find on the driver (path-halving). Correct
  whenever the EDGE LIST fits driver memory — edges are candidate duplicates
  only, orders of magnitude smaller than the corpus.
- ``distributed``: alternating large-star / small-star contraction (Kiveris
  et al., "Connected Components in MapReduce and Beyond", SoCC 2014 — public
  algorithm), each round one sort-shuffle of the edge list via
  ``sorted_group_apply``; converges in O(log n) alternating rounds to a star
  forest where every node points at its component minimum. No coordinator
  state, works at any edge-list size.

``auto`` picks local below ``local_max_edges``, distributed above.

Every path stamps pages with the same two kernels: :func:`cluster_lookup`
(doc_id → cluster_id through a sorted id map) and :func:`canonical_members`
(the one canonical order, min ``(warc_ts, url, doc_id)`` per cluster).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from dedupe_ray.stages.candidates import _collect
from dedupe_ray.stages.groupapply import sorted_group_apply

logger = logging.getLogger(__name__)

__all__ = [
    "connected_components", "union_find_local", "connected_components_distributed",
    "canonical_members", "cluster_lookup", "id_map",
]


# ---------------------------------------------------------------------------
# local union-find (driver-side, streamed edges)
# ---------------------------------------------------------------------------


def union_find_local(edges: "ray.data.Dataset | pa.Table") -> pa.Table:
    """(doc_id, cluster_id) for every node appearing in ``edges`` —
    cluster_id = min member id of the component.

    Vectorized min-label propagation (VERDICT r3 wrong-#4): node ids are
    densified with ``np.unique`` and labels converge by alternating
    min-hooking (``np.minimum.at`` over edges) with full pointer-jumping
    compression — O(E·log n) numpy ops instead of ~2·|E| Python dict
    operations (seconds of driver time at the 2M-edge gate)."""
    if isinstance(edges, pa.Table):
        batches = [edges]
    else:
        batches = edges.iter_batches(batch_size=1 << 20, batch_format="pyarrow")
    parts_s, parts_d = [], []
    for b in batches:
        parts_s.append(b.column("src").to_numpy(zero_copy_only=False))
        parts_d.append(b.column("dst").to_numpy(zero_copy_only=False))
    if not parts_s or not sum(len(p) for p in parts_s):
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
        )
    s_raw = np.concatenate(parts_s)
    d_raw = np.concatenate(parts_d)
    nodes, inv = np.unique(np.concatenate([s_raw, d_raw]), return_inverse=True)
    e1, e2 = inv[: len(s_raw)], inv[len(s_raw) :]
    # nodes is sorted, so the min dense index in a component IS its min id
    parent = np.arange(len(nodes), dtype=np.int64)
    while True:
        p1, p2 = parent[e1], parent[e2]
        hi = np.maximum(p1, p2)
        lo = np.minimum(p1, p2)
        live = hi != lo
        if not live.any():
            break
        np.minimum.at(parent, hi[live], lo[live])
        while True:  # pointer jumping to full compression
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
    return pa.table(
        {
            "doc_id": pa.array(nodes, pa.int64()),
            "cluster_id": pa.array(nodes[parent], pa.int64()),
        }
    )


def id_map(tbl: pa.Table, key: str, value: str) -> tuple[np.ndarray, np.ndarray]:
    """(keys, values) of a two-column id table, sorted by key — the form
    :func:`cluster_lookup` reads."""
    k = tbl.column(key).to_numpy(zero_copy_only=False)
    order = np.argsort(k, kind="stable")
    return k[order], tbl.column(value).to_numpy(zero_copy_only=False)[order]


def cluster_lookup(ids: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` at ``ids`` through the sorted id map ``keys``; an id absent
    from the map maps to itself (a singleton is its own cluster, and a
    cluster without a canonical entry is its own canonical)."""
    out = np.array(ids, dtype=np.int64)
    if len(keys):
        pos = np.clip(np.searchsorted(keys, out), 0, len(keys) - 1)
        hit = keys[pos] == out
        out[hit] = values[pos[hit]]
    return out


def canonical_members(rows: pa.Table) -> pa.Table:
    """(cluster_id, canonical_doc_id) per cluster, sorted by cluster_id.

    The one canonical order: the member row that sorts first by
    ``(warc_ts, url, doc_id)`` with nulls last — the reference keeps the
    first member of a group (``-delete``, cmd/dedupe/main.go:228-230), made
    order-free. ``warc_ts``/``url`` are optional; without them the smallest
    doc_id wins. One Arrow sort plus run starts, no Python objects."""
    if rows.num_rows == 0:
        return pa.table({"cluster_id": pa.array([], pa.int64()),
                         "canonical_doc_id": pa.array([], pa.int64())})
    keys = [k for k in ("cluster_id", "warc_ts", "url", "doc_id") if k in rows.column_names]
    order = pc.sort_indices(
        rows, sort_keys=[(k, "ascending") for k in keys], null_placement="at_end"
    ).to_numpy()
    cid = rows.column("cluster_id").to_numpy(zero_copy_only=False)[order]
    starts = np.flatnonzero(np.r_[True, cid[1:] != cid[:-1]])
    did = rows.column("doc_id").to_numpy(zero_copy_only=False)
    return pa.table({"cluster_id": pa.array(cid[starts], pa.int64()),
                     "canonical_doc_id": pa.array(did[order[starts]], pa.int64())})


# ---------------------------------------------------------------------------
# distributed star contraction
# ---------------------------------------------------------------------------


def _pairs_table(src: np.ndarray, dst: np.ndarray) -> pa.Table:
    return pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})


def _empty_edges() -> pa.Table:
    return _pairs_table(np.zeros(0, np.int64), np.zeros(0, np.int64))


def _group_minima(a: np.ndarray, b: np.ndarray):
    """Given rows sorted by ``a``: per-group index, counts and min over b∪{a}."""
    _, starts, counts = np.unique(a, return_index=True, return_counts=True)
    gmin_b = np.minimum.reduceat(b, starts)
    m = np.minimum(gmin_b, a[starts])
    return starts, counts, m


def _large_star_block(block: pa.Table) -> pa.Table:
    """Per node u (rows sorted by src=u, dst=neighbors): m = min(N(u) ∪ {u});
    emit (v, m) for v ∈ N(u), v > u."""
    if block.num_rows == 0:
        return _empty_edges()
    a = block.column("src").to_numpy(zero_copy_only=False)
    b = block.column("dst").to_numpy(zero_copy_only=False)
    starts, counts, m = _group_minima(a, b)
    m_row = np.repeat(m, counts)
    mask = b > a
    out = np.unique(np.stack([b[mask], m_row[mask]], axis=1), axis=0)
    out = out[out[:, 0] != out[:, 1]]
    return _pairs_table(out[:, 0], out[:, 1])


def _small_star_block(block: pa.Table) -> pa.Table:
    """Rows oriented src=max, dst=min. Per node u: m = min(N⁻(u) ∪ {u});
    emit (v, m) for v ∈ N⁻(u) ∪ {u}, v ≠ m."""
    if block.num_rows == 0:
        return _empty_edges()
    a = block.column("src").to_numpy(zero_copy_only=False)
    b = block.column("dst").to_numpy(zero_copy_only=False)
    starts, counts, m = _group_minima(a, b)
    m_row = np.repeat(m, counts)
    # neighbors v ∈ N⁻(u), v ≠ m  → (v, m)
    mask = b != m_row
    part1 = np.stack([b[mask], m_row[mask]], axis=1)
    # u itself (u ≠ m unless u is alone with m == u, impossible since b < a)
    part2 = np.stack([a[starts], m], axis=1)
    out = np.unique(np.concatenate([part1, part2]), axis=0)
    out = out[out[:, 0] != out[:, 1]]
    return _pairs_table(out[:, 0], out[:, 1])


def _bidirect(batch: pa.Table) -> pa.Table:
    src = batch.column("src").to_numpy(zero_copy_only=False)
    dst = batch.column("dst").to_numpy(zero_copy_only=False)
    return _pairs_table(np.concatenate([src, dst]), np.concatenate([dst, src]))


def _orient_max_min(batch: pa.Table) -> pa.Table:
    src = batch.column("src").to_numpy(zero_copy_only=False)
    dst = batch.column("dst").to_numpy(zero_copy_only=False)
    return _pairs_table(np.maximum(src, dst), np.minimum(src, dst))


def _edge_stats(edges: "ray.data.Dataset") -> tuple[int, int]:
    """(count, order-independent checksum) — the convergence fingerprint."""

    def _chk(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy(zero_copy_only=False).astype(np.uint64)
        dst = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (src * np.uint64(0x9E3779B97F4A7C15)) ^ (dst * np.uint64(0xC2B2AE3D27D4EB4F))
        return pa.table({"chk": pa.array([int(h.sum(dtype=np.uint64))], pa.uint64()),
                         "n": pa.array([len(src)], pa.int64())})

    t = _collect(edges.map_batches(_chk, batch_size=None, batch_format="pyarrow"),
                 pa.table({"chk": pa.array([], pa.uint64()), "n": pa.array([], pa.int64())}))
    n = t.column("n").to_numpy(zero_copy_only=False)
    return int(n.sum()), int(t.column("chk").to_numpy(zero_copy_only=False).sum(dtype=np.uint64))


def connected_components_distributed(
    edges: "ray.data.Dataset", max_rounds: int = 50
) -> "ray.data.Dataset":
    """(doc_id, cluster_id) via alternating large-star / small-star rounds."""
    prev = (-1, -1)
    cur = edges
    for rnd in range(max_rounds):
        large = sorted_group_apply(cur.map_batches(_bidirect, batch_format="pyarrow"),
                                   "src", _large_star_block)
        small = sorted_group_apply(large.map_batches(_orient_max_min, batch_format="pyarrow"),
                                   "src", _small_star_block).materialize()
        stats = _edge_stats(small)
        logger.info("cc round %d: %d edges checksum=%d", rnd, *stats)
        cur = small
        if stats == prev:
            break
        prev = stats
    else:
        logger.warning("connected components did not converge in %d rounds", max_rounds)

    # fixpoint: every edge is (member, component_min). Add identity rows for
    # the roots themselves (they appear only on the dst side).
    def _root_rows(block: pa.Table) -> pa.Table:
        roots = np.unique(block.column("src").to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": pa.array(roots, pa.int64()),
                         "cluster_id": pa.array(roots, pa.int64())})

    members = cur.map_batches(
        lambda b: pa.table({"doc_id": b.column("src"), "cluster_id": b.column("dst")}),
        batch_format="pyarrow",
    )
    roots = sorted_group_apply(
        cur.map_batches(lambda b: pa.table({"src": b.column("dst")}), batch_format="pyarrow"),
        "src", _root_rows,
    )
    return members.union(roots)


def connected_components(
    edges: "ray.data.Dataset",
    method: str = "auto",
    local_max_edges: int = 2_000_000,
) -> "ray.data.Dataset":
    """Cluster match edges into components → Dataset(doc_id, cluster_id).

    ``edges`` should be materialized by the caller if it is the result of an
    expensive pipeline (both paths consume it at least once).
    """
    if method == "auto":
        n = edges.count()
        method = "local" if n <= local_max_edges else "distributed"
        logger.info("connected_components auto: %d edges → %s", n, method)
    if method == "local":
        return ray.data.from_arrow(union_find_local(edges))
    if method == "distributed":
        return connected_components_distributed(edges)
    raise ValueError(f"unknown method {method!r}")
