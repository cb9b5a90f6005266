"""The flagship pipeline: pages → near-duplicate clusters (SURVEY.md §3.4).

One stage list, one plain function per stage. ``near_duplicates`` and the
checkpointed runner (``pipelines/runner.py``, behind ``cli dedup``) sign
the pages and then run the same list, :func:`neardup_stages`, whose stages
``edges`` (steps 2-3), ``clusters`` (step 4) and ``assignment`` (step 5)
the runner checkpoints one by one:

    1. sign         signatures_dataset   pages → + text, doc_id, simhash or
                                         minhash (one fused map_batches)
    2. band+cands   band_candidates      ×B (band_key, doc_id) rows, one sort
                    one_task_candidates  on band_key, or one task below one
                                         bundle → (src, dst) candidates
    3. verify       verified_edges       distinct candidates, exact metric ≥
                                         threshold → (src, dst, score)
    4. cluster      cluster_edges        connected components: driver
                                         union-find or star contraction
    5. stamp        assign_clusters      cluster_id + is_canonical per page:
                                         one broadcast map, or a doc_id /
                                         cluster_id sort-merge join when the
                                         cluster map is too big to broadcast

Below the candidate gate (``config.cc_local_max_edges``, decided by
``stages.candidates.verify_candidates``, the one verify gate of the near-dup
family) the driver path runs steps 3-4 and the canonical pick on the driver
over one signature slice, then stamps with the same broadcast map; above it
steps 3-5 stay distributed. Every path picks canonicals with
``stages.clustering.canonical_members`` and looks cluster ids up with
``stages.clustering.cluster_lookup``.

The corpus streams through map_batches stages; the only all-to-all exchange
of corpus-sized data is the band-key sort (16-byte rows × B). When the band
rows fit one bundle (``band_bundle_size``) the sort has nothing to
co-locate: outside ``mode="distributed"`` one plain Ray task bands the
signatures, emits the pairs and cuts the verify slice instead
(``one_task_candidates``). Everything downstream operates on the
candidate/duplicate subset.

Equivalent reference flow: ``Duplicates`` (reference ``dedupe.go:101-123``:
hash → VP-tree build → greedy radius scan → groups), upgraded to true
transitive components with one deterministic canonical order: min
``(warc_ts, url, doc_id)`` per cluster, nulls last — the "first member
survives" policy of ``-delete`` (``cmd/dedupe/main.go:228-230``) made
order-free.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Callable

import numpy as np
import pyarrow as pa

import ray
import ray.data

from dedupe_ray.config import NearDupConfig
from dedupe_ray.stages.banding import band_emitter
from dedupe_ray.stages.candidates import (
    _EMPTY_EDGES, _EMPTY_PAIRS, _EMPTY_SLICE, _collect, _emit_pairs_block, _sig_column,
    candidate_edges, signature_slice, slice_columns, verify_candidates,
)
from dedupe_ray.stages.clustering import (
    canonical_members, cluster_lookup, connected_components, id_map, union_find_local,
)
from dedupe_ray.stages.extract import ExtractText
from dedupe_ray.stages.groupapply import sorted_group_apply
from dedupe_ray.stages.signatures import SignatureStage

logger = logging.getLogger(__name__)

__all__ = [
    "signatures_dataset", "band_candidates", "one_task_candidates", "verified_edges",
    "cluster_edges", "assign_clusters", "match_edges", "neardup_stages", "near_duplicates",
]

# output of the stamp: these columns (where the input has them), then any
# caller keep_columns
_OUT_COLUMNS = ["url", "warc_ts", "lang", "doc_id", "cluster_id", "is_canonical"]
_EMPTY_CLUSTERS = pa.table({"doc_id": pa.array([], pa.int64()),
                            "cluster_id": pa.array([], pa.int64())})
# the driver path's clusters table: the map plus the canonical pick
_EMPTY_DRIVER_CLUSTERS = _EMPTY_CLUSTERS.append_column("is_canonical", pa.array([], pa.bool_()))
_EMPTY_CANON = pa.table({"cluster_id": pa.array([], pa.int64()),
                         "canonical_doc_id": pa.array([], pa.int64())})
_EMPTY_OUTPUT = pa.table({
    "url": pa.nulls(0, pa.string()),
    "warc_ts": pa.nulls(0, pa.timestamp("us")),
    "lang": pa.nulls(0, pa.string()),
    "doc_id": pa.nulls(0, pa.int64()),
    "cluster_id": pa.nulls(0, pa.int64()),
    "is_canonical": pa.nulls(0, pa.bool_()),
})


# ---------------------------------------------------------------------------
# 1. sign
# ---------------------------------------------------------------------------

# Per-WORKER-PROCESS stage cache. The extract+signature stage runs as plain
# tasks (Ray's prestarted worker pool → full parallelism from the first
# block, no actor-pool spin-up latency); each worker process lazily builds
# its SignatureStage once and keeps the token-hash memo cache warm across
# tasks — the same amortization an actor pool gives, without its startup
# serialization. (Actor pools remain the right tool for stages with HEAVY
# state — models, indexes — and are used elsewhere, e.g. langid / media.)
_PROC_STAGES: dict[str, "SignatureStage"] = {}


def _extract_and_sign(batch: pa.Table, config: NearDupConfig, extract: bool) -> pa.Table:
    key = config.config_hash() + str(extract)
    stage = _PROC_STAGES.get(key)
    if stage is None:
        stage = SignatureStage(config)
        _PROC_STAGES[key] = stage
    if extract:
        batch = ExtractText()(batch)
    elif "doc_id" not in batch.column_names:
        from dedupe_ray.stages.extract import mint_doc_ids

        batch = mint_doc_ids(batch)
    return stage(batch)


def signatures_schema(config: NearDupConfig, extract: bool = True) -> pa.Schema:
    """The schema :func:`signatures_dataset` gives a ``read_pages`` input:
    an empty batch signed on the driver (~1 ms, no Dataset execution) —
    the declared schema of an empty signatures checkpoint."""
    from dedupe_ray.fixtures.pages import PAGES_SCHEMA

    return _extract_and_sign(PAGES_SCHEMA.empty_table(), config, extract).schema


def signatures_dataset(
    pages: "ray.data.Dataset",
    config: NearDupConfig | None = None,
    extract: bool = True,
) -> "ray.data.Dataset":
    """pages → + text (extracted), doc_id, signature columns.

    One FUSED map_batches (extract → mint ids → sign): one pass over the
    corpus, zero intermediate block materialization. batch_size=None keeps
    the reader's block structure (a fixed batch_size would coalesce blocks
    and throttle parallelism on small inputs; at scale blocks are bounded by
    DataContext.target_max_block_size anyway).
    """
    config = config or NearDupConfig()
    return pages.map_batches(
        partial(_extract_and_sign, config=config, extract=extract),
        batch_format="pyarrow",
        batch_size=None,
    )


# ---------------------------------------------------------------------------
# 2. band + candidates, 3. verify, 4. cluster
# ---------------------------------------------------------------------------


def band_bundle_size(n_rows: int) -> int:
    """Bundle band emission into ~2×CPU blocks before the band-key sort.
    The sort's range shuffle creates (input_blocks × partitions) objects:
    125 signature blocks at the ×400 corpus meant ~15k tiny shuffle objects
    and a 48 s sort; bundling to ~32 blocks cut it to 9 s. Small inputs
    collapse to a handful of ≥4k-row blocks — the pair-emission pass is
    vectorized, so wide blocks cost nothing."""
    from dedupe_ray.runtime import cluster_cpus

    return max(4096, n_rows // max(8, 2 * min(cluster_cpus(), 32)))


def band_candidates(
    signatures: "ray.data.Dataset", config: NearDupConfig, n_rows: int
) -> "ray.data.Dataset":
    """signatures → candidate (src, dst) pairs, src < dst. Materialized.

    ``n_rows`` (the signature count) sizes the band bundles; the candidate
    list is small and feeds both the path choice (its count) and the
    dedupe/verify pass."""
    banded = signatures.map_batches(
        band_emitter(config.signature()), batch_format="pyarrow",
        batch_size=band_bundle_size(n_rows),
    )
    return candidate_edges(banded, config.max_bucket_size).materialize()


@ray.remote
def _one_task(load: "Callable[[], list[pa.Table]]", config: NearDupConfig,
              extra: tuple[str, ...]) -> tuple[pa.Table, pa.Table]:
    # Ray can hand zero-row, zero-column blocks; a 0-row corpus has no rows
    blocks = [b for b in load() if b.num_rows]
    if not blocks:
        return _EMPTY_PAIRS, _EMPTY_SLICE
    rows = pa.concat_tables(blocks)
    pairs = _emit_pairs_block(band_emitter(config.signature())(rows), config.max_bucket_size)
    ids = np.unique(np.r_[pairs.column("src").to_numpy(), pairs.column("dst").to_numpy()])
    return pairs, signature_slice(rows, ids, config, extra)


def one_task_candidates(
    load: "Callable[[], list[pa.Table]]", config: NearDupConfig, extra: tuple[str, ...] = ()
) -> tuple[pa.Table, pa.Table]:
    """Step 2 when the band rows fit one bundle: ONE plain Ray task takes
    the signature rows ``load()`` gives (a picklable loader of the
    ``slice_columns(config, extra)``), bands them and emits the pairs of
    the one block with the same kernels as :func:`band_candidates` — no
    sort — and returns (candidate pairs, the :func:`signature_slice` of
    the docs in a pair). Emission stays off the driver, which holds only
    what the task returns; the task is awaited here, so none outlives the
    stage."""
    return ray.get(_one_task.remote(load, config, extra))


def verified_edges(
    candidates: "ray.data.Dataset",
    signatures: "ray.data.Dataset",
    config: NearDupConfig,
) -> "ray.data.Dataset":
    """candidates → distinct verified edges (src, dst, score). Materialized.

    The distributed side of the verify gate
    (``stages.candidates.verify_candidates``): one global ``dedupe_edges``
    sort, then the broadcast ``verify_edges``."""
    return verify_candidates(candidates, signatures, config, mode="distributed")[0]


def cluster_edges(edges: "ray.data.Dataset", config: NearDupConfig) -> "ray.data.Dataset":
    """Verified edges → (doc_id, cluster_id) for every edge-involved doc."""
    if edges.count() == 0:
        return ray.data.from_arrow(_EMPTY_CLUSTERS)
    return connected_components(
        edges, method=config.cc_method, local_max_edges=config.cc_local_max_edges
    )


def match_edges(
    signatures: "ray.data.Dataset",
    config: NearDupConfig | None = None,
    n_rows: int | None = None,
) -> "ray.data.Dataset":
    """signatures → verified match edges (src, dst, score): stages 2-3.
    Materialized.

    Sizing the band bundles needs a row count: ``n_rows`` (caller-known —
    parquet footer metadata via ``sources.parquet_row_count`` or a
    checkpoint's lineage ``rows``; this metadata path neither materializes
    nor double-executes the signatures, VERDICT r4 #6), else the signatures
    are materialized once (verify re-reads them for its slim pass anyway —
    on a lazy pipeline both would otherwise re-run the expensive
    extract+sign stage). A caller streaming a corpus-scale lazy pipeline
    that must NOT be pinned in the object store (ADVICE r3) passes
    ``n_rows`` and accepts the re-execution of the lazy input by the later
    verify pass instead."""
    config = config or NearDupConfig()
    if n_rows is None:
        signatures = signatures.materialize()
        n_rows = signatures.count()
    return verified_edges(band_candidates(signatures, config, n_rows), signatures, config)


# ---------------------------------------------------------------------------
# 5. stamp
# ---------------------------------------------------------------------------


def _output_columns(keep_columns: list[str] | None) -> list[str]:
    return _OUT_COLUMNS + [c for c in (keep_columns or []) if c not in _OUT_COLUMNS]


def _stamped(batch: pa.Table, cluster: np.ndarray, is_canon: np.ndarray,
             columns: list[str]) -> pa.Table:
    """``batch`` projected onto ``columns`` with the stamp filled in."""
    stamp = {"cluster_id": pa.array(cluster, pa.int64()),
             "is_canonical": pa.array(is_canon, pa.bool_())}
    return pa.table({c: stamp[c] if c in stamp else batch.column(c)
                     for c in columns if c in stamp or c in batch.column_names})


def _members(rows: pa.Table, nodes: np.ndarray, roots: np.ndarray) -> pa.Table:
    """The rows of docs in the cluster map, with their cluster_id — the
    input of the canonical kernel."""
    d = rows.column("doc_id").to_numpy(zero_copy_only=False)
    hit = np.isin(d, nodes)
    cols = [c for c in ("doc_id", "warc_ts", "url") if c in rows.column_names]
    return rows.select(cols).filter(pa.array(hit)).append_column(
        "cluster_id", pa.array(cluster_lookup(d[hit], nodes, roots), pa.int64())
    )


def _member_rows(signatures: "ray.data.Dataset", map_ref: "ray.ObjectRef",
                 batch_size: int | None) -> "ray.data.Dataset":
    """One filtered pass: the signature rows of the docs in the broadcast
    cluster map ``map_ref``, as :func:`_members` gives them."""
    return signatures.map_batches(lambda b: _members(b, *ray.get(map_ref)),
                                  batch_format="pyarrow", batch_size=batch_size)


def _broadcast_stamp(
    signatures: "ray.data.Dataset",
    map_ref: "ray.ObjectRef",
    canon: pa.Table,
    keep_columns: list[str] | None,
    batch_size: int | None,
) -> "ray.data.Dataset":
    """ONE broadcast map over the corpus does both lookups — doc_id →
    cluster_id through the sorted cluster map ``map_ref``, then cluster_id
    → canonical doc — and projects the output columns. Docs outside the map
    are singletons: their own cluster and canonical."""
    canon_ref = ray.put(id_map(canon, "cluster_id", "canonical_doc_id"))
    columns = _output_columns(keep_columns)

    def _stamp(batch: pa.Table) -> pa.Table:
        nodes, roots = ray.get(map_ref)
        c_ids, c_docs = ray.get(canon_ref)
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        cluster = cluster_lookup(d, nodes, roots)
        return _stamped(batch, cluster, cluster_lookup(cluster, c_ids, c_docs) == d, columns)

    return signatures.map_batches(_stamp, batch_format="pyarrow", batch_size=batch_size)


def _assign_clusters_join(
    signatures: "ray.data.Dataset",
    clusters: "ray.data.Dataset",
    keep_columns: list[str] | None = None,
) -> "ray.data.Dataset":
    """Join-based stamping fallback (VERDICT r2 #5): when the dup-involved
    cluster map is too large to broadcast through the object store, attach
    ``cluster_id`` with a doc_id sort-merge join (union + one sorted pass —
    the ``sort_merge_join`` shape specialized to left-join-with-default) and
    pick canonicals inside a cluster_id shuffle. Two slim-column exchanges,
    ZERO driver/broadcast state; heavy signature columns never enter the
    shuffle. The slim columns are projected in a map and materialized (the
    sort holds them anyway), so their schema costs no execution."""
    columns = _output_columns(keep_columns)
    slim = signatures.map_batches(
        lambda b: b.select(["doc_id"] + [c for c in columns
                                         if c in b.column_names and c != "doc_id"]),
        batch_format="pyarrow", batch_size=None,
    ).materialize()
    schema = slim.schema()
    types = dict(zip(schema.names, schema.types))
    data_cols = schema.names[1:]

    # explicit side column (not a -1 cluster-id sentinel): caller-provided
    # doc/cluster ids may legitimately be negative, and a sentinel would
    # mis-sort the signature row behind a negative cluster id
    def _tag_sig(batch: pa.Table) -> pa.Table:
        out = {"doc_id": batch.column("doc_id"),
               "__side": pa.array(np.zeros(batch.num_rows, np.int8), pa.int8()),
               "__cl": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64())}
        for c in data_cols:
            out[c] = batch.column(c)
        return pa.table(out)

    def _tag_cl(batch: pa.Table) -> pa.Table:
        out = {"doc_id": batch.column("doc_id").cast(pa.int64()),
               "__side": pa.array(np.ones(batch.num_rows, np.int8), pa.int8()),
               "__cl": batch.column("cluster_id").cast(pa.int64())}
        for c in data_cols:
            out[c] = pa.nulls(batch.num_rows, types[c])
        return pa.table(out)

    unioned = slim.map_batches(_tag_sig, batch_format="pyarrow", batch_size=None).union(
        clusters.map_batches(_tag_cl, batch_format="pyarrow", batch_size=None)
    )

    def _stamp_block(block: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], types["doc_id"])}
            | {c: pa.array([], types[c]) for c in data_cols}
            | {"cluster_id": pa.array([], pa.int64())}
        )
        if block.num_rows == 0:
            return empty
        did = block.column("doc_id").to_numpy(zero_copy_only=False)
        side = block.column("__side").to_numpy(zero_copy_only=False)
        cl = block.column("__cl").to_numpy(zero_copy_only=False)
        order = np.lexsort((side, did))  # sig rows (side 0) first per doc
        did_s, side_s, cl_s = did[order], side[order], cl[order]
        boundary = np.r_[True, did_s[1:] != did_s[:-1]]
        starts = np.flatnonzero(boundary)
        run_id = np.cumsum(boundary) - 1
        ends = np.r_[starts[1:], len(did_s)] - 1
        # the cluster row (if any) sorts LAST in its doc run; every sig row
        # of the run — including duplicate doc_id rows — gets the same stamp,
        # matching the broadcast path
        has_cl = side_s[ends] == 1
        cid_run = np.where(has_cl, cl_s[ends], did_s[starts])
        sig_pos = np.flatnonzero(side_s == 0)
        take = pa.array(order[sig_pos], pa.int64())
        out = block.drop_columns(["__side", "__cl"]).take(take)
        return out.append_column(
            "cluster_id", pa.array(cid_run[run_id[sig_pos]], pa.int64())
        )

    stamped = sorted_group_apply(unioned, "doc_id", _stamp_block)

    def _canon_block(block: pa.Table) -> pa.Table:
        # canonical is DOC-level (as in the broadcast path): every row of
        # the winning doc_id is marked
        c_ids, c_docs = id_map(canonical_members(block), "cluster_id", "canonical_doc_id")
        d = block.column("doc_id").to_numpy(zero_copy_only=False)
        cluster = block.column("cluster_id").to_numpy(zero_copy_only=False)
        return _stamped(block, cluster, cluster_lookup(cluster, c_ids, c_docs) == d, columns)

    return sorted_group_apply(stamped, "cluster_id", _canon_block)


def assign_clusters(
    signatures: "ray.data.Dataset",
    clusters: "ray.data.Dataset",
    mode: str = "auto",
    broadcast_max_rows: int = 100_000_000,
    keep_columns: list[str] | None = None,
) -> "ray.data.Dataset":
    """Stamp every row with cluster_id + is_canonical; the output carries
    url, warc_ts, lang, doc_id, cluster_id, is_canonical (those the input
    has) and ``keep_columns``.

    ``mode="broadcast"`` (the common case): the cluster map covers only
    duplicate-involved docs (small side) — it is broadcast via ``ray.put``;
    the canonical of each cluster is picked distributedly over the member
    rows (a cluster_id sort), and one broadcast map stamps the corpus, which
    itself never shuffles. Singletons get ``cluster_id = doc_id``.

    ``mode="join"``: no broadcast at all — see :func:`_assign_clusters_join`
    for when the dup-involved slice exceeds the object store. ``auto`` picks
    join when the cluster map exceeds ``broadcast_max_rows`` (~1.6 GB of
    (doc_id, cluster_id) pairs at the default).
    """
    if mode == "auto":
        clusters = clusters.materialize()
        mode = "join" if clusters.count() > broadcast_max_rows else "broadcast"
        if mode == "join":
            logger.info("assign_clusters: cluster map too large — join path")
    if mode == "join":
        return _assign_clusters_join(signatures, clusters, keep_columns)
    map_ref = ray.put(id_map(_collect(clusters, _EMPTY_CLUSTERS), "doc_id", "cluster_id"))
    members = _member_rows(signatures, map_ref, batch_size=8192)
    canon = _collect(sorted_group_apply(members, "cluster_id", canonical_members), _EMPTY_CANON)
    return _broadcast_stamp(signatures, map_ref, canon, keep_columns, batch_size=8192)


# ---------------------------------------------------------------------------
# driver path: cluster and canonical pick on the driver
# ---------------------------------------------------------------------------


def _driver_clusters(
    edges: pa.Table, sigs: "Callable[[], ray.data.Dataset]", slim: pa.Table | None
) -> pa.Table:
    """Step 4 and the canonical pick on the driver → (doc_id, cluster_id,
    is_canonical) for every edge-involved doc. The members' (warc_ts, url)
    come from the edges stage's signature slice, or — when that stage was resumed
    from its checkpoint — from one filtered pass over ``sigs()``."""
    clusters = union_find_local(edges)
    nodes, roots = id_map(clusters, "doc_id", "cluster_id")
    if slim is None:
        members = _collect(_member_rows(sigs(), ray.put((nodes, roots)), batch_size=None),
                           _EMPTY_CLUSTERS)
    else:
        members = _members(slim, nodes, roots)
    canon = canonical_members(members).column("canonical_doc_id").to_numpy()
    doc = clusters.column("doc_id").to_numpy(zero_copy_only=False)
    return clusters.append_column("is_canonical", pa.array(np.isin(doc, canon), pa.bool_()))


def _as_table(x: "pa.Table | Callable[[], ray.data.Dataset]", empty: pa.Table) -> pa.Table:
    return x if isinstance(x, pa.Table) else _collect(x(), empty)


def _run_now(name: str, fn, **_) -> "pa.Table | Callable[..., ray.data.Dataset]":
    """The stage wrapper of an uncheckpointed run: call the stage; a
    Dataset is handed on as a reader that returns it."""
    out = fn()
    return out if isinstance(out, pa.Table) else lambda columns=None: out


def neardup_stages(
    sigs: "Callable[[list[str]], ray.data.Dataset]",
    sig_rows: "Callable[[list[str]], Callable[[], list[pa.Table]]]",
    n_sigs: int,
    config: NearDupConfig,
    stage=_run_now,
    mode: str = "auto",
    keep_columns: list[str] | None = None,
    stamp_batch_size: int | None = None,
) -> "Callable[..., ray.data.Dataset]":
    """Steps 2-5 over the signatures as the stages ``edges``, ``clusters``
    and ``assignment`` — the ONE stage list of ``near_duplicates`` and of
    the checkpointed runner; returns the assignment's reader.

    Each step asks the reader ``sigs(columns)`` for the signature columns
    it uses: the runner's reads just those (the ones its checkpoint has),
    ``near_duplicates``' returns its materialized blocks as they are.
    ``sig_rows(columns)`` gives the same rows as a picklable loader of
    tables for :func:`one_task_candidates`' task: the runner's reads the
    checkpoint with pyarrow (``CheckpointedRun.loader``),
    ``near_duplicates``' gets its block refs.
    ``stage(name, fn, upstream=..., extra_metrics=..., schema=...)`` runs
    each stage and returns its output as a ``pa.Table`` or as a reader
    ``columns=None -> Dataset``: :func:`_run_now` for ``near_duplicates``,
    ``CheckpointedRun.stage`` for the runner (which returns its checkpoint's
    reader for a resumed stage where ``fn`` returned a table).

    The edges stage bands in one task (:func:`one_task_candidates`) when
    ``mode`` is not ``"distributed"`` and ``n_sigs`` fits one band bundle,
    else with the band sort (:func:`band_candidates`) and a Ray slice pass.
    It picks the path through the verify gate (``verify_candidates``, which
    ``mode`` is passed to): ``"auto"`` takes the driver path when the
    candidate count is ≤ ``config.cc_local_max_edges``. It records
    ``path``, ``candidates`` and ``banding`` (``"one_task"`` or ``"sort"``)
    in ``extra_metrics`` (the runner's lineage; a resumed stage fills them
    back from it). Driver path: verify, cluster and canonical pick on the
    driver, driver-side tables as the edges and clusters outputs, the
    broadcast stamp with ``stamp_batch_size``.
    Distributed path: ``verified_edges`` → ``cluster_edges`` →
    ``assign_clusters``."""
    info: dict = {}
    slim = None  # the driver path's signature slice, this run only
    # the stamp and the canonical pick read the output columns (doc_id
    # among them)
    stamp_sigs = partial(sigs, _output_columns(keep_columns))

    def _edges():
        nonlocal slim
        # the slice carries (warc_ts, url) for the canonical pick
        extra = ("warc_ts", "url")
        columns = slice_columns(config, extra)
        if mode != "distributed" and n_sigs <= band_bundle_size(n_sigs):
            banding = "one_task"
            cand, sl = one_task_candidates(sig_rows(columns), config, extra)
            n_cand = cand.num_rows
        else:
            banding = "sort"
            cand = band_candidates(sigs(["doc_id", _sig_column(config)]), config, n_sigs)
            sl, n_cand = sigs(columns), cand.count()
        edges, slim = verify_candidates(cand, sl, config, mode, extra=extra)
        info.update(path="distributed" if slim is None else "driver", candidates=n_cand,
                    banding=banding)
        return edges

    edges = stage("edges", _edges, upstream=["signatures"], extra_metrics=info,
                  schema=_EMPTY_EDGES.schema)
    # a checkpoint from before the path was recorded came from the
    # distributed stages
    if info.get("path", "distributed") == "distributed":
        clusters = stage("clusters", lambda: cluster_edges(edges().materialize(), config),
                         upstream=["edges"], schema=_EMPTY_CLUSTERS.schema)
        return stage("assignment",
                     lambda: assign_clusters(stamp_sigs(), clusters(), keep_columns=keep_columns),
                     upstream=["signatures", "clusters"], schema=_EMPTY_OUTPUT.schema)

    clusters = stage("clusters",
                     lambda: _driver_clusters(_as_table(edges, _EMPTY_EDGES), stamp_sigs, slim),
                     upstream=["edges"])

    def _assignment():
        cl = _as_table(clusters, _EMPTY_DRIVER_CLUSTERS)
        nodes, roots = id_map(cl, "doc_id", "cluster_id")
        is_canon = cl.column("is_canonical")
        canon = pa.table({"cluster_id": cl.column("cluster_id").filter(is_canon),
                          "canonical_doc_id": cl.column("doc_id").filter(is_canon)})
        return _broadcast_stamp(stamp_sigs(), ray.put((nodes, roots)), canon, keep_columns,
                                batch_size=stamp_batch_size)

    return stage("assignment", _assignment, upstream=["signatures", "clusters"],
                 schema=_EMPTY_OUTPUT.schema)


def near_duplicates(
    pages: "ray.data.Dataset",
    config: NearDupConfig | None = None,
    extract: bool = True,
    keep_columns: list[str] | None = None,
    mode: str = "auto",
) -> "ray.data.Dataset":
    """Full flagship: pages → per-page (url, warc_ts, lang, doc_id,
    cluster_id, is_canonical). ``keep_columns`` adds extra passthroughs.

    ``mode``: "driver" verifies/clusters the (small) candidate set driver-side
    after one distributed slim pass; "distributed" keeps every step on the
    cluster (broadcast verify, star-contraction CC when ``cc_method`` says
    so, distributed canonical pick); "auto" switches on candidate count vs
    ``config.cc_local_max_edges``.
    """
    config = config or NearDupConfig()
    # signatures feed banding, verification and the stamp — materialize once
    # so the extract+signature work is not recomputed
    sigs = signatures_dataset(pages, config, extract=extract).materialize()
    n_sigs = sigs.count()
    if n_sigs == 0:
        return ray.data.from_arrow(_EMPTY_OUTPUT)
    return neardup_stages(lambda _: sigs, lambda _: partial(ray.get, sigs.to_arrow_refs()),
                          n_sigs, config, mode=mode, keep_columns=keep_columns)()
