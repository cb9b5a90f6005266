"""Similarity search over an embedding column (``list<float>``).

Two paths (SURVEY beyond-reference ops):

- ``brute_force_topk`` — exact cosine top-k: the query matrix is broadcast
  once (``ray.put``), every batch computes a numpy matmul and emits its LOCAL
  top-k per query (partial aggregation inside map_batches), and the driver
  merges the tiny per-batch partials. The corpus streams; nothing shuffles.
- ``srp_bucket_topk`` — the scale path: signed-random-projection LSH
  (b hyperplane bits per vector) buckets the corpus; a query only scans
  buckets within ``probe_radius`` Hamming bits of its own code. Recall is
  tunable via (bits, probe_radius); candidates are re-scored exactly.

Embedding-cosine NEAR-DUPLICATE pairs reuse the flagship machinery: SRP codes
are 64-bit signatures, so ``simhash``-style banding + Hamming verification
applies unchanged — see ``embedding_neardup_edges``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

__all__ = [
    "brute_force_topk", "srp_bucket_topk", "srp_codes64",
    "ivf_train_centroids", "ivf_topk", "embedding_neardup_edges",
    "semdedup",
]


def _batch_matrix(
    batch: pa.Table, col: str, dtype: "np.dtype" = np.float32
) -> np.ndarray:
    arr = batch.column(col).combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(dtype)
    n = len(batch)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def brute_force_topk(
    embeddings: "ray.data.Dataset",
    queries: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Exact cosine top-k of each query row against the corpus.

    Returns (query_id, rank, vec_id, similarity) sorted by (query_id, rank).
    Ties broken by vec_id ascending (deterministic).

    All three exact-capable paths (brute force, SRP radius-64 rescore, IVF
    full-probe) normalize and dot in FLOAT64 from the raw values (ADVICE r3):
    a float32 path here vs a float64 rescore there could flip near-tied
    ranks between supposedly identical paths and against the CAST-AS-DOUBLE
    DuckDB oracle.
    """
    q = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(q)

    def _partial(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)  # (Q, D)
        mat = _normalize(_batch_matrix(batch, vec_col, np.float64))  # (n, D)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        sims = qm @ mat.T  # (Q, n)
        kk = min(k, sims.shape[1])
        # local top-k per query (unsorted partial)
        idx = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]  # (Q, kk)
        rows_q = np.repeat(np.arange(sims.shape[0]), kk)
        cand = idx.reshape(-1)
        return pa.table(
            {
                "query_id": pa.array(rows_q, pa.int64()),
                "vec_id": pa.array(ids[cand], pa.int64()),
                "similarity": pa.array(sims[rows_q, cand], pa.float64()),
            }
        )

    # batch_size stays NUMERIC here (unlike the per-row kernels swept to
    # None): a numeric batch_size slices batches to a deterministic shape,
    # and BLAS dgemm rounding varies with matrix shape (~1 ulp), so
    # batch_size=None would make `similarity` depend on block structure and
    # break both the block-invariance test and the bit-hash oracle match.
    parts = pa.concat_tables(
        list(
            embeddings.map_batches(_partial, batch_format="pyarrow", batch_size=4096)
            .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
        )
    )
    # driver-side merge of partials: tiny (Q × kk × n_batches rows)
    return _merge_topk_partials(parts, k)


def srp_codes64(
    embeddings: "ray.data.Dataset",
    dim: int,
    seed: int = 777,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """Append ``simhash: uint64`` signed-random-projection code per vector.

    cos(angle) similarity maps to Hamming distance on the codes, so the
    whole simhash near-dup pipeline (banding → candidates → verify →
    clustering) applies to embeddings unchanged.
    """
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, 64)).astype(np.float32)
    p_ref = ray.put(planes)

    def _code(batch: pa.Table) -> pa.Table:
        pl = ray.get(p_ref)
        mat = _batch_matrix(batch, vec_col)
        proj = mat @ pl  # (n, 64)
        bits = (proj > 0).astype(np.uint64)
        code = np.zeros(len(mat), dtype=np.uint64)
        for b in range(64):
            code |= bits[:, b] << np.uint64(b)
        out = pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.int64()),
                "simhash": pa.array(code, pa.uint64()),
            }
        )
        return out

    return embeddings.map_batches(_code, batch_format="pyarrow", batch_size=4096)


def srp_bucket_topk(
    embeddings: "ray.data.Dataset",
    queries: np.ndarray,
    dim: int,
    k: int = 10,
    hamming_radius: int = 16,
    seed: int = 777,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """LSH-bucketed approximate top-k — the scale path of ``brute_force_topk``.

    Corpus vectors get 64-bit SRP codes; a query only exactly-rescoreS the
    vectors whose code lies within ``hamming_radius`` of its own code (the
    candidate set shrinks exponentially with the radius). Same output schema
    as ``brute_force_topk``; recall is tunable via the radius.
    """
    from dedupe_ray.functions.metrics import hamming64

    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, 64)).astype(np.float32)
    # codes in float32 (matches the corpus-side code path bit-for-bit);
    # rescoring in float64 from the raw values (matches brute_force_topk)
    q32 = _normalize(np.asarray(queries, dtype=np.float32))
    q_proj = q32 @ planes
    q_bits = (q_proj > 0).astype(np.uint64)
    q_codes = np.zeros(len(q32), dtype=np.uint64)
    for b in range(64):
        q_codes |= q_bits[:, b] << np.uint64(b)
    q64 = _normalize(np.asarray(queries, dtype=np.float64))
    ref = ray.put((planes, q64, q_codes))

    def _partial(batch: pa.Table) -> pa.Table:
        pl, qm, qc = ray.get(ref)
        mat = _normalize(_batch_matrix(batch, vec_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        proj = mat @ pl
        bits = (proj > 0).astype(np.uint64)
        codes = np.zeros(len(mat), dtype=np.uint64)
        for b in range(64):
            codes |= bits[:, b] << np.uint64(b)
        # exact rescoring in float64 FROM RAW VALUES — identical precision to
        # brute_force_topk so the radius-64 mode provably equals it (ADVICE r3)
        mat64 = _normalize(_batch_matrix(batch, vec_col, np.float64))
        out_q, out_v, out_s = [], [], []
        for qi in range(len(qc)):
            cand = np.flatnonzero(hamming64(codes, qc[qi]) <= hamming_radius)
            if len(cand) == 0:
                continue
            sims = mat64[cand] @ qm[qi]
            kk = min(k, len(cand))
            top = np.argpartition(-sims, kk - 1)[:kk]
            out_q.append(np.full(kk, qi, dtype=np.int64))
            out_v.append(ids[cand[top]])
            out_s.append(sims[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "similarity": pa.array([], pa.float64())})
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
                "similarity": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    parts = pa.concat_tables(
        list(
            embeddings.map_batches(_partial, batch_format="pyarrow", batch_size=4096)
            .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
        )
        or [pa.table({"query_id": pa.array([], pa.int64()),
                      "vec_id": pa.array([], pa.int64()),
                      "similarity": pa.array([], pa.float64())})]
    )
    return _merge_topk_partials(parts, k)


def ivf_train_centroids(
    embeddings: "ray.data.Dataset",
    dim: int,
    n_lists: int = 16,
    iters: int = 8,
    sample_mod: int = 4,
    seed: int = 777,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> np.ndarray:
    """Spherical k-means coarse quantizer for IVF: train on a deterministic
    hash-mod sample (reproducible across runs and partitionings — the same
    rationale as ``sample_docs``). Lloyd iterations run driver-side on the
    (small) sample; at 100 TB the sample stays a fixed-size driver array
    while assignment is distributed. Returns L2-normalized (n_lists, dim)."""
    import pyarrow.compute as pc

    sample = pa.concat_tables(
        list(
            embeddings.map_batches(
                lambda b: b.filter(
                    pc.equal(pc.bit_wise_and(b.column(id_col), sample_mod - 1), 0)
                ),
                batch_format="pyarrow", batch_size=None,
            ).iter_batches(batch_size=1 << 20, batch_format="pyarrow")
        )
    ).sort_by(id_col)  # block-structure-independent training order
    x = _normalize(_batch_matrix(sample, vec_col).astype(np.float64))
    if len(x) < n_lists:
        raise ValueError(f"sample of {len(x)} vectors < n_lists={n_lists}")
    rng = np.random.default_rng(seed)
    cents = x[rng.choice(len(x), size=n_lists, replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ cents.T, axis=1)
        for c in range(n_lists):
            members = x[assign == c]
            if len(members):
                v = members.sum(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


def ivf_topk(
    embeddings: "ray.data.Dataset",
    queries: np.ndarray,
    dim: int,
    k: int = 10,
    n_lists: int = 16,
    nprobe: int = 4,
    seed: int = 777,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """IVF approximate top-k — the inverted-file scale path: vectors are
    assigned to their nearest of ``n_lists`` centroids; each query scores
    only the rows in its ``nprobe`` closest lists. ``nprobe == n_lists``
    degrades to exact brute force (the invariant the tests pin). Same
    output schema as ``brute_force_topk``; recall tunes with nprobe.

    At cluster scale the list assignment becomes the partitioning key
    (write one parquet dir per list); here assignment happens on the fly in
    the same streaming pass that scores, so the corpus still never shuffles.
    """
    cents = ivf_train_centroids(
        embeddings, dim, n_lists=n_lists, seed=seed, id_col=id_col, vec_col=vec_col
    )
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(q @ cents.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    ref = ray.put((cents, q, probe))

    def _partial(batch: pa.Table) -> pa.Table:
        cm, qm, pr = ray.get(ref)
        mat = _normalize(_batch_matrix(batch, vec_col).astype(np.float64))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        assign = np.argmax(mat @ cm.T, axis=1)  # (n,)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(qm)):
            cand = np.flatnonzero(np.isin(assign, pr[qi]))
            if len(cand) == 0:
                continue
            sims = mat[cand] @ qm[qi]
            kk = min(k, len(cand))
            top = np.argpartition(-sims, kk - 1)[:kk]
            out_q.append(np.full(kk, qi, dtype=np.int64))
            out_v.append(ids[cand[top]])
            out_s.append(sims[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "similarity": pa.array([], pa.float64())})
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
                "similarity": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    parts = pa.concat_tables(
        list(
            embeddings.map_batches(_partial, batch_format="pyarrow", batch_size=4096)
            .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
        )
        or [pa.table({"query_id": pa.array([], pa.int64()),
                      "vec_id": pa.array([], pa.int64()),
                      "similarity": pa.array([], pa.float64())})]
    )
    return _merge_topk_partials(parts, k)


def _merge_topk_partials(parts: pa.Table, k: int) -> pa.Table:
    """Driver merge of (query_id, vec_id, similarity) partials → ranked
    top-k. Shared by the brute-force / SRP / IVF paths."""
    qid = parts.column("query_id").to_numpy(zero_copy_only=False)
    vid = parts.column("vec_id").to_numpy(zero_copy_only=False)
    sim = parts.column("similarity").to_numpy(zero_copy_only=False)
    out_q, out_r, out_v, out_s = [], [], [], []
    for quid in np.unique(qid):
        m = qid == quid
        order = np.lexsort((vid[m], -sim[m]))[:k]
        out_q.extend([int(quid)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_v.extend(vid[m][order].tolist())
        out_s.extend(sim[m][order].tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "similarity": pa.array(out_s, pa.float64()),
        }
    )


def embedding_neardup_edges(
    embeddings: "ray.data.Dataset",
    dim: int,
    hamming_threshold: int = 7,
    bands: int = 8,
    seed: int = 777,
    max_bucket_size: int = 256,
) -> "ray.data.Dataset":
    """Embedding-cosine near-duplicate candidate edges via SRP + simhash
    banding + exact Hamming verify through the near-dup verify gate
    (``stages.candidates.verify_candidates``). Returns (src, dst, score)."""
    from dedupe_ray.config import NearDupConfig, SimHashConfig
    from dedupe_ray.pipelines.neardup import band_bundle_size
    from dedupe_ray.stages.banding import simhash_band_table
    from dedupe_ray.stages.candidates import candidate_edges, verify_candidates

    cfg = NearDupConfig(
        algo="simhash",
        simhash=SimHashConfig(bands=bands, threshold=hamming_threshold),
        max_bucket_size=max_bucket_size,
    )
    codes = srp_codes64(embeddings, dim, seed).materialize()
    banded = codes.map_batches(
        lambda b: simhash_band_table(b, cfg.simhash), batch_format="pyarrow",
        batch_size=band_bundle_size(codes.count()),
    )
    cand = candidate_edges(banded, max_bucket_size).materialize()
    edges, sl = verify_candidates(cand, codes, cfg)
    return edges if sl is None else ray.data.from_arrow(edges)


def semdedup(
    embeddings: "ray.data.Dataset",
    dim: int,
    n_lists: int = 10,
    tau: float = 0.40,
    iters: int = 8,
    max_cluster_chunk: int = 4096,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning at
    web-scale through semantic deduplication"): spherical k-means clusters
    the embedding space, then WITHIN each cluster any vector whose cosine to
    a lower-id member reaches ``tau`` is dropped — semantic near-dups prune
    sub-quadratically because vectors are only ever compared inside their
    cluster, never across the corpus. Returns (vec_id, cluster, keep).

    Ray shape: centroids train driver-side on a deterministic hash-mod
    sample (``ivf_train_centroids`` — fixed-size driver array at any corpus
    size) and broadcast once; ONE streaming pass assigns each batch by
    matmul; the single shuffle is the cluster-key sort that co-locates each
    cluster's vectors for the vectorized per-group prune
    (``sorted_group_apply`` — the same partitioning shape as LSH banding).
    Degenerate clusters are chunked at ``max_cluster_chunk`` members (prune
    stays within a chunk, logged) so one mega-cluster cannot go quadratic —
    the LSH hot-bucket salting rule applied to k-means skew.

    The similarity is the QUANTIZED fixed-point cosine (q = floor(x·1024 +
    0.5); sim_fp = floor(1e6·dot/√(na·nb) + 0.5) — exact integer sums in
    float64, single correctly-rounded IEEE ops), so ``n_lists=1`` (one
    cluster = plain all-pairs prune) replays bit-identically in DuckDB: the
    audit path for this operator."""
    import logging

    logger = logging.getLogger(__name__)
    thresh = int(np.floor(tau * 1e6 + 0.5))

    if n_lists <= 1:
        def _assign(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table(
                {"cluster": pa.array(np.zeros(n, np.int64), pa.int64()),
                 id_col: batch.column(id_col),
                 vec_col: batch.column(vec_col)}
            )
    else:
        cents = ivf_train_centroids(
            embeddings, dim, n_lists=n_lists, iters=iters,
            id_col=id_col, vec_col=vec_col,
        )
        cents_ref = ray.put(cents)

        def _assign(batch: pa.Table) -> pa.Table:
            c = ray.get(cents_ref)
            mat = _normalize(_batch_matrix(batch, vec_col, np.float64))
            cl = np.argmax(mat @ c.T, axis=1).astype(np.int64)
            return pa.table(
                {"cluster": pa.array(cl, pa.int64()),
                 id_col: batch.column(id_col),
                 vec_col: batch.column(vec_col)}
            )

    assigned = embeddings.map_batches(
        _assign, batch_format="pyarrow", batch_size=None
    )

    def _prune_block(block: pa.Table) -> pa.Table:
        cl = block.column("cluster").to_numpy(zero_copy_only=False)
        ids = block.column(id_col).to_numpy(zero_copy_only=False)
        mat = _batch_matrix(block, vec_col, np.float64)
        out_id, out_cl, out_keep = [], [], []
        starts = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1]])
        bounds = np.r_[starts, len(cl)]
        for gi in range(len(starts)):
            lo, hi = bounds[gi], bounds[gi + 1]
            gids = ids[lo:hi]
            o = np.argsort(gids, kind="stable")
            gids, gmat = gids[o], mat[lo:hi][o]
            m = len(gids)
            if m > max_cluster_chunk:
                logger.warning(
                    "semdedup: chunking hot cluster %d (%d members > cap %d) "
                    "— prune stays within chunks",
                    int(cl[lo]), m, max_cluster_chunk,
                )
            keep = np.ones(m, dtype=bool)
            for c0 in range(0, m, max_cluster_chunk):
                sub = gmat[c0:c0 + max_cluster_chunk]
                q = np.floor(sub * 1024.0 + 0.5)
                dots = q @ q.T  # exact: integer-valued float64 sums < 2^53
                nn = np.diag(dots).copy()
                denom = np.sqrt(np.outer(nn, nn))
                with np.errstate(invalid="ignore", divide="ignore"):
                    sim_fp = np.floor(1e6 * (dots / denom) + 0.5)
                sim_fp[~np.isfinite(sim_fp)] = 0.0
                hit = np.triu(sim_fp >= thresh, k=1)  # earlier-id rows above
                keep[c0:c0 + max_cluster_chunk] = ~hit.any(axis=0)
            out_id.append(gids)
            out_cl.append(np.full(m, cl[lo], np.int64))
            out_keep.append(keep)
        if not out_id:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "keep": pa.array([], pa.bool_())})
        return pa.table(
            {id_col: pa.array(np.concatenate(out_id), pa.int64()),
             "cluster": pa.array(np.concatenate(out_cl), pa.int64()),
             "keep": pa.array(np.concatenate(out_keep), pa.bool_())}
        )

    from dedupe_ray.stages.groupapply import sorted_group_apply

    return sorted_group_apply(assigned, "cluster", _prune_block)
