"""End-to-end pipeline tests: golden clusters (pairwise F1 ≥ 0.99), LSH
recall vs brute force, connected-components equivalence, exact dedup,
compare lookup — the automated coverage the reference lacks (SURVEY.md §5).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from dedupe_ray.config import MinHashConfig, NearDupConfig, SimHashConfig
from dedupe_ray.eval import pairwise_f1
from dedupe_ray.fixtures.pages import generate_pages


@pytest.fixture(scope="module")
def fixture_small():
    return generate_pages(n_pages=600, seed=42)


def _pages_ds(ray_session, fixture, drop_text=True):
    import ray.data

    tbl = fixture.pages
    if drop_text:
        # the engine must re-derive text from html (extraction parity e2e)
        tbl = tbl.drop_columns(["text"]).append_column(
            "text", pa.array([None] * tbl.num_rows, pa.string())
        )
    return ray.data.from_arrow(tbl)


class TestFlagshipMinHash:
    def test_f1_ge_099(self, ray_session, fixture_small):
        from dedupe_ray.pipelines.neardup import near_duplicates

        ds = _pages_ds(ray_session, fixture_small)
        out = near_duplicates(ds, NearDupConfig(algo="minhash"))
        tbl = pa.concat_tables(list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
        assert tbl.num_rows == fixture_small.pages.num_rows
        m = pairwise_f1(tbl, fixture_small.labeled_pairs)
        assert m["f1"] >= 0.99, m
        # every cluster has exactly one canonical row
        import pandas as pd

        df = tbl.to_pandas()
        per = df.groupby("cluster_id")["is_canonical"].sum()
        assert (per == 1).all()

    def test_no_hot_bucket_merges(self, ray_session, fixture_small):
        """Hot-boilerplate pages (shared header/footer, distinct bodies) must
        all stay singletons — the F6 skew assertion."""
        from dedupe_ray.pipelines.neardup import near_duplicates

        ds = _pages_ds(ray_session, fixture_small)
        out = near_duplicates(ds, NearDupConfig(algo="minhash", max_bucket_size=8))
        tbl = pa.concat_tables(list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
        truth = fixture_small.truth
        hot_urls = {
            u
            for u, t in zip(truth.column("url").to_pylist(), truth.column("transform").to_pylist())
            if t == "hot_boiler"
        }
        df = tbl.to_pandas()
        hot = df[df["url"].isin(hot_urls)]
        assert (hot["cluster_id"] == hot["doc_id"]).all(), "hot-bucket false merge"


class TestFlagshipSimHash:
    def test_simhash_path_runs_and_matches_exact_dups(self, ray_session, fixture_small):
        from dedupe_ray.pipelines.neardup import near_duplicates

        ds = _pages_ds(ray_session, fixture_small)
        out = near_duplicates(ds, NearDupConfig(algo="simhash"))
        tbl = pa.concat_tables(list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
        m = pairwise_f1(tbl, fixture_small.labeled_pairs)
        # simhash at radius 3 (Manku web-dedup setting) is conservative:
        # near-perfect precision; recall covers the token-stream-identical
        # transforms (copy / whitespace / case) but not heavy token edits
        assert m["precision"] >= 0.99, m
        assert m["recall"] >= 0.25, m


class TestLshRecall:
    """Randomized property test vs brute force — the analog of
    /root/reference/vptree/vptree_test.go:11-55, run with several derived
    seeds (↔ ``go test --count 5``, Makefile:19)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_minhash_blocking_recall(self, ray_session, seed):
        import ray.data

        from dedupe_ray.functions.metrics import jaccard_minhash
        from dedupe_ray.pipelines.neardup import match_edges, signatures_dataset

        rng = np.random.default_rng(100 + seed)
        vocab = [f"w{i:03d}" for i in range(400)]
        texts = []
        n = 256
        for i in range(n // 2):
            base = list(rng.choice(vocab, size=60))
            texts.append(" ".join(base))
            edited = list(base)
            n_edit = int(rng.integers(0, 8))
            for j in rng.choice(60, size=n_edit, replace=False):
                edited[j] = str(rng.choice(vocab))
            texts.append(" ".join(edited))
        urls = [f"u://{i}" for i in range(n)]
        tbl = pa.table({"url": urls, "text": texts})
        cfg = NearDupConfig(algo="minhash")
        sigs = signatures_dataset(ray.data.from_arrow(tbl), cfg, extract=False).materialize()
        edges = match_edges(sigs, cfg)
        got = set()
        sig_tbl = pa.concat_tables(list(sigs.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
        for b in edges.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
            for s, d in zip(b.column("src").to_pylist(), b.column("dst").to_pylist()):
                got.add((min(s, d), max(s, d)))
        # brute force over signatures at the same threshold
        ids = sig_tbl.column("doc_id").to_numpy(zero_copy_only=False)
        flat = sig_tbl.column("minhash").combine_chunks().flatten().to_numpy(zero_copy_only=False)
        mat = flat.reshape(len(ids), cfg.minhash.num_perms)
        want = set()
        for i in range(len(ids)):
            eq = (mat[i + 1 :] == mat[i]).mean(axis=1)
            for j in np.flatnonzero(eq >= cfg.minhash.threshold):
                a, b_ = ids[i], ids[i + 1 + j]
                want.add((min(a, b_), max(a, b_)))
        # verification exactness: no edge outside the brute-force set
        assert got <= want
        # recall above the B×R-implied bound for comfortably-above-threshold pairs
        strong = set()
        for i in range(len(ids)):
            eq = (mat[i + 1 :] == mat[i]).mean(axis=1)
            for j in np.flatnonzero(eq >= 0.7):
                a, b_ = ids[i], ids[i + 1 + j]
                strong.add((min(a, b_), max(a, b_)))
        if strong:
            recall = len(got & strong) / len(strong)
            assert recall >= 0.98, (len(strong), recall)


class TestConnectedComponents:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_distributed_matches_local(self, ray_session, seed):
        import ray.data

        from dedupe_ray.stages.clustering import (
            connected_components_distributed,
            union_find_local,
        )

        rng = np.random.default_rng(seed)
        n_nodes, n_edges = 400, 300
        src = rng.integers(0, n_nodes, size=n_edges).astype(np.int64)
        dst = rng.integers(0, n_nodes, size=n_edges).astype(np.int64)
        keep = src != dst
        tbl = pa.table({"src": pa.array(src[keep]), "dst": pa.array(dst[keep])})
        local = union_find_local(tbl)
        ds = ray.data.from_arrow(tbl)
        dist = pa.concat_tables(
            list(
                connected_components_distributed(ds).iter_batches(
                    batch_size=1 << 20, batch_format="pyarrow"
                )
            )
        )
        l = dict(zip(local.column("doc_id").to_pylist(), local.column("cluster_id").to_pylist()))
        d = dict(zip(dist.column("doc_id").to_pylist(), dist.column("cluster_id").to_pylist()))
        assert l == d

    def test_chain_graph(self, ray_session):
        """Pointer-chain worst case — O(log n) rounds must still converge."""
        import ray.data

        from dedupe_ray.stages.clustering import connected_components_distributed

        n = 200
        tbl = pa.table(
            {"src": pa.array(np.arange(n - 1, dtype=np.int64) + 1000),
             "dst": pa.array(np.arange(1, n, dtype=np.int64) + 1000)}
        )
        dist = pa.concat_tables(
            list(
                connected_components_distributed(ray.data.from_arrow(tbl)).iter_batches(
                    batch_size=1 << 20, batch_format="pyarrow"
                )
            )
        )
        assert set(dist.column("cluster_id").to_pylist()) == {1000}
        assert dist.num_rows == n


class TestExactDedup:
    def test_keep_first(self, ray_session):
        import ray.data

        from dedupe_ray.pipelines.exact import exact_dedup

        tbl = pa.table(
            {
                "doc_id": pa.array([3, 1, 2, 10, 11], pa.int64()),
                "text": ["same", "same", "same", "other", "third"],
            }
        )
        out = exact_dedup(ray.data.from_arrow(tbl))
        got = pa.concat_tables(
            list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        ).to_pandas()
        assert sorted(got["doc_id"].tolist()) == [1, 10, 11]


class TestCompare:
    def test_lookup_finds_planted_neighbors(self, ray_session, fixture_small):
        from dedupe_ray.pipelines.compare import compare
        from dedupe_ray.pipelines.neardup import signatures_dataset

        cfg = NearDupConfig(algo="minhash")
        ds = _pages_ds(ray_session, fixture_small, drop_text=False)
        sigs = signatures_dataset(ds, cfg, extract=False).materialize()
        # pick a planted cluster with >= 2 members; target = its base text
        cluster = next(v for v in fixture_small.clusters.values() if len(v) >= 3)
        urls = set(cluster)
        texts = dict(
            zip(
                fixture_small.pages.column("url").to_pylist(),
                fixture_small.pages.column("text").to_pylist(),
            )
        )
        target = texts[cluster[0]]
        out = compare(sigs, target, cfg)
        got_urls = set()
        for b in out.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
            got_urls.update(b.column("url").to_pylist())
        assert cluster[0] in got_urls
        assert len(got_urls & urls) >= 2
        # an out-of-corpus gibberish target matches nothing
        out2 = compare(sigs, "zqx vbn mlp " * 40, cfg)
        assert out2.count() == 0

    def test_lookup_respects_minhash_scheme(self, ray_session, fixture_small):
        """Regression (ADVICE r1): with scheme='oph' the corpus and the
        target must be signed with the SAME scheme — a kperm target against
        an OPH corpus silently matches nothing."""
        from dedupe_ray.config import MinHashConfig
        from dedupe_ray.pipelines.compare import compare
        from dedupe_ray.pipelines.neardup import signatures_dataset

        cfg = NearDupConfig(algo="minhash", minhash=MinHashConfig(scheme="oph"))
        ds = _pages_ds(ray_session, fixture_small, drop_text=False)
        sigs = signatures_dataset(ds, cfg, extract=False).materialize()
        cluster = next(v for v in fixture_small.clusters.values() if len(v) >= 3)
        texts = dict(
            zip(
                fixture_small.pages.column("url").to_pylist(),
                fixture_small.pages.column("text").to_pylist(),
            )
        )
        out = compare(sigs, texts[cluster[0]], cfg)
        got_urls = set()
        for b in out.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
            got_urls.update(b.column("url").to_pylist())
        # the identical text must at minimum match itself (score 1.0)
        assert cluster[0] in got_urls


class TestJaroWinklerConfirm:
    def test_jw_gate_filters_pairs(self, ray_session, fixture_small):
        """With an absurdly high JW requirement every near-dup pair (except
        text-identical ones) is rejected — proves the confirm stage is live
        on the driver path."""
        from dedupe_ray.pipelines.neardup import near_duplicates

        ds = _pages_ds(ray_session, fixture_small)
        strict = near_duplicates(
            ds, NearDupConfig(algo="minhash", jaro_winkler_min=0.999999)
        )
        loose = near_duplicates(ds, NearDupConfig(algo="minhash"))
        import pandas as pd

        def n_dup_rows(out):
            df = pa.concat_tables(
                list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
            ).to_pandas()
            return int((df["cluster_id"] != df["doc_id"]).sum())

        assert n_dup_rows(strict) < n_dup_rows(loose)


class TestQuarantine:
    def test_extract_ok_marker(self, ray_session):
        import ray.data

        from dedupe_ray.stages.extract import ExtractText

        tbl = pa.table(
            {
                "url": ["a", "b", "c"],
                "html": pa.array([b"<p>fine</p>", None, b"<script>x</script>"], pa.binary()),
            }
        )
        out = pa.concat_tables(
            list(
                ray.data.from_arrow(tbl)
                .map_batches(
                    lambda b: ExtractText(mark_quarantine=True)(b), batch_format="pyarrow"
                )
                .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
            )
        ).sort_by("url")
        assert out.column("extract_ok").to_pylist() == [True, False, False]
        assert out.num_rows == 3  # rows survive; job continues


class TestDistributedMode:
    def test_distributed_path_matches_driver_path(self, ray_session, fixture_small):
        """mode='distributed' (join-free broadcast verify + star-contraction
        CC + distributed canonical) must produce the same clusters as the
        driver fast path — the 100TB path is not allowed to drift."""
        from dedupe_ray.pipelines.neardup import near_duplicates

        ds = _pages_ds(ray_session, fixture_small)
        cfg = NearDupConfig(algo="minhash", cc_method="distributed")
        a = pa.concat_tables(
            list(
                near_duplicates(ds, cfg, mode="distributed").iter_batches(
                    batch_size=1 << 20, batch_format="pyarrow"
                )
            )
        )
        b = pa.concat_tables(
            list(
                near_duplicates(ds, NearDupConfig(algo="minhash"), mode="driver").iter_batches(
                    batch_size=1 << 20, batch_format="pyarrow"
                )
            )
        )
        da = dict(zip(a.column("url").to_pylist(), a.column("cluster_id").to_pylist()))
        db = dict(zip(b.column("url").to_pylist(), b.column("cluster_id").to_pylist()))
        assert da == db
        ca = dict(zip(a.column("url").to_pylist(), a.column("is_canonical").to_pylist()))
        cb = dict(zip(b.column("url").to_pylist(), b.column("is_canonical").to_pylist()))
        assert ca == cb
        m = pairwise_f1(a, fixture_small.labeled_pairs)
        assert m["f1"] >= 0.99, m

    def test_join_stamping_matches_broadcast(self, ray_session, fixture_small):
        """assign_clusters mode='join' (sort-merge stamping, zero broadcast
        state — the path for cluster maps that exceed the object store) must
        match the broadcast path row-for-row."""
        from dedupe_ray.pipelines.neardup import (
            assign_clusters, match_edges, signatures_dataset,
        )
        from dedupe_ray.stages.clustering import connected_components

        cfg = NearDupConfig(algo="minhash")
        ds = _pages_ds(ray_session, fixture_small)
        sigs = signatures_dataset(ds, cfg).materialize()
        edges = match_edges(sigs, cfg)
        clusters = connected_components(edges).materialize()
        cols = ["url", "doc_id", "cluster_id", "is_canonical"]

        def _collect(out):
            t = pa.concat_tables(
                list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
            )
            return t.select(cols).sort_by("doc_id")

        a = _collect(assign_clusters(sigs, clusters, mode="broadcast"))
        b = _collect(assign_clusters(sigs, clusters, mode="join"))
        assert a.equals(b)
        # auto gate: a tiny broadcast_max_rows must force the join path and
        # still agree
        c = _collect(
            assign_clusters(sigs, clusters, mode="auto", broadcast_max_rows=1)
        )
        assert a.equals(c)

    def test_join_stamping_duplicate_and_negative_ids(self, ray_session):
        """Join mode must agree with broadcast mode on pathological ids:
        duplicate doc_id rows (each gets the same stamp) and negative ids
        (no sentinel confusion)."""
        import ray.data

        from dedupe_ray.pipelines.neardup import assign_clusters

        sigs = ray.data.from_arrow(pa.table(
            {
                "doc_id": pa.array([5, 5, -3, 7, 9], pa.int64()),
                "url": pa.array(["a", "a2", "b", "c", "d"], pa.string()),
                "warc_ts": pa.array([1, 2, 3, 4, 5], pa.timestamp("us")),
                "lang": pa.array(["en"] * 5, pa.string()),
            }
        ))
        clusters = ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([5, -3], pa.int64()),
             "cluster_id": pa.array([-3, -3], pa.int64())}
        ))

        def _collect(out):
            t = pa.concat_tables(
                list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
            )
            return t.select(["doc_id", "url", "cluster_id", "is_canonical"]).sort_by(
                [("doc_id", "ascending"), ("url", "ascending")]
            )

        a = _collect(assign_clusters(sigs, clusters, mode="broadcast"))
        b = _collect(assign_clusters(sigs, clusters, mode="join"))
        assert a.num_rows == 5  # duplicate doc_id rows both survive
        assert a.equals(b), f"\n{a.to_pydict()}\nvs\n{b.to_pydict()}"
        stamped = dict(zip(a.column("url").to_pylist(), a.column("cluster_id").to_pylist()))
        assert stamped["a"] == stamped["a2"] == stamped["b"] == -3
        assert stamped["c"] == 7 and stamped["d"] == 9


class TestIncrementalMatch:
    def test_new_batch_vs_corpus(self, ray_session, fixture_small, tmp_path):
        """Split the fixture: clusters whose base is in the indexed corpus
        and whose variants arrive as the increment must be flagged
        duplicate_of; fresh singletons must come back fresh (null); every
        edge has an increment doc at one end (no corpus ↔ corpus edge)."""
        import ray.data

        from dedupe_ray.pipelines.incremental import build_band_index, incremental_match_indexed

        cfg = NearDupConfig(algo="minhash")
        pages = fixture_small.pages
        truth = fixture_small.truth.to_pydict()
        transform_by_url = dict(zip(truth["url"], truth["transform"]))
        is_variant = pa.array(
            [transform_by_url[u] in ("copy", "ws_jitter", "case_jitter", "extend")
             for u in pages.column("url").to_pylist()]
        )
        new_tbl = pages.filter(is_variant)
        corpus_tbl = pages.filter(pa.compute.invert(is_variant))
        index = str(tmp_path / "index")
        build_band_index(ray.data.from_arrow(corpus_tbl), index, cfg, extract=False)
        out = incremental_match_indexed(
            ray.data.from_arrow(new_tbl), index, cfg, extract=False
        )
        status = out["new_status"].to_pydict()
        assert len(status["doc_id"]) == new_tbl.num_rows
        matched = sum(1 for d in status["duplicate_of"] if d is not None)
        # every one of these variants has its base in the corpus
        assert matched / len(status["doc_id"]) >= 0.95, matched
        new_ids = set(status["doc_id"])
        edges = out["edges"].to_pydict()
        assert edges["src"]
        assert all(s in new_ids or d in new_ids for s, d in zip(edges["src"], edges["dst"]))
        # and a batch of fresh gibberish matches nothing
        fresh = pa.table(
            {
                "url": pa.array(["new://x1", "new://x2"], pa.string()),
                "warc_ts": pa.array([1, 2], pa.timestamp("us")),
                "text": ["qqq zzz vvv " * 30, "mmm nnn ooo " * 25],
                "lang": ["en", "en"],
            }
        )
        out2 = incremental_match_indexed(ray.data.from_arrow(fresh), index, cfg, extract=False)
        assert all(d is None for d in out2["new_status"].to_pydict()["duplicate_of"])


class TestGoldenClusters5k:
    def test_f1_at_small_scale(self, ray_session):
        """FIXTURES.md 'small' corpus: 5,000 pages, F1 ≥ 0.99 — the
        statistical-robustness version of the 600-page gate."""
        from dedupe_ray.pipelines.neardup import near_duplicates

        fx = generate_pages(n_pages=5000, seed=42)
        ds = _pages_ds(ray_session, fx)
        out = near_duplicates(ds, NearDupConfig(algo="minhash"))
        tbl = pa.concat_tables(list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
        m = pairwise_f1(tbl, fx.labeled_pairs)
        assert m["f1"] >= 0.99, m


class TestCanonicalTieBreak:
    def test_same_ts_breaks_by_url(self, ray_session):
        import ray.data

        from dedupe_ray.pipelines.neardup import near_duplicates

        text = "alpha beta gamma delta epsilon zeta eta theta " * 10
        html = f"<p>{text}</p>".encode()
        tbl = pa.table(
            {
                "url": pa.array(["https://b.example/1", "https://a.example/2",
                                 "https://c.example/0"], pa.string()),
                "warc_ts": pa.array([1000, 1000, 1000], pa.timestamp("us")),
                "html": pa.array([html] * 3, pa.binary()),
                "text": pa.array([None] * 3, pa.string()),
                "lang": pa.array(["en"] * 3, pa.string()),
            }
        )
        out = near_duplicates(ray.data.from_arrow(tbl), NearDupConfig(algo="minhash"))
        t = pa.concat_tables(list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
        canon = {u: c for u, c in zip(t.column("url").to_pylist(),
                                      t.column("is_canonical").to_pylist())}
        assert len(set(t.column("cluster_id").to_pylist())) == 1
        # equal timestamps → lexicographically smallest url wins
        assert canon == {"https://a.example/2": True, "https://b.example/1": False,
                         "https://c.example/0": False}


class TestOphFlagship:
    def test_oph_scheme_end_to_end(self, ray_session, fixture_small):
        """OPH minhash through the whole flagship. Fixture docs (~100-400
        tokens) sit near OPH's small-set regime, so precision must hold
        (≥0.99) while recall may trail the kperm gate slightly."""
        from dedupe_ray.config import MinHashConfig
        from dedupe_ray.pipelines.neardup import near_duplicates

        cfg = NearDupConfig(algo="minhash", minhash=MinHashConfig(scheme="oph"))
        ds = _pages_ds(ray_session, fixture_small)
        out = near_duplicates(ds, cfg)
        tbl = pa.concat_tables(list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
        m = pairwise_f1(tbl, fixture_small.labeled_pairs)
        assert m["precision"] >= 0.99, m
        assert m["recall"] >= 0.9, m


class TestContainment:
    def test_quoting_page_detected(self, ray_session):
        """A page quoting 40% of another (plus unrelated filler) has low
        Jaccard but high containment — fingerprint containment must catch it
        while unrelated docs stay unpaired."""
        import ray.data

        from dedupe_ray.pipelines.containment import containment_pairs

        base = " ".join(f"w{i:03d}" for i in range(300))
        quote = " ".join(base.split()[:120]) + " " + " ".join(f"z{i}" for i in range(200))
        other = " ".join(f"q{i:03d}" for i in range(300))
        tbl = pa.table(
            {"doc_id": pa.array([1, 2, 3], pa.int64()),
             "text": [base, quote, other]}
        )
        out = containment_pairs(ray.data.from_arrow(tbl), threshold=0.4)
        got = set(zip(out.column("src").to_pylist(), out.column("dst").to_pylist()))
        assert (1, 2) in got
        assert all(3 not in p for p in got)


class TestRunDeterminism:
    def test_flagship_identical_across_executions(self, ray_session, fixture_small):
        """Two executions of the same pipeline in one session must agree
        byte-for-byte on (url, cluster_id, is_canonical) — parallel execution
        order must not leak into results (SURVEY.md §4.2)."""
        from dedupe_ray.pipelines.neardup import near_duplicates

        def snap():
            ds = _pages_ds(ray_session, fixture_small)
            out = near_duplicates(ds, NearDupConfig(algo="minhash"))
            t = pa.concat_tables(
                list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
            )
            return sorted(
                zip(t.column("url").to_pylist(), t.column("cluster_id").to_pylist(),
                    t.column("is_canonical").to_pylist())
            )

        assert snap() == snap()


class TestEmptyCorpus:
    def test_flagship_on_zero_rows(self, ray_session):
        import ray.data

        from dedupe_ray.fixtures.pages import PAGES_SCHEMA
        from dedupe_ray.pipelines.neardup import near_duplicates

        empty = pa.table({f.name: pa.nulls(0, f.type) for f in PAGES_SCHEMA})
        out = near_duplicates(ray.data.from_arrow(empty))
        assert out.count() == 0
        assert set(out.schema().names) >= {"url", "cluster_id", "is_canonical"}


class TestUnicodeCorpus:
    def test_non_ascii_texts_cluster(self, ray_session):
        """Non-ASCII text takes the regex tokenizer path end-to-end; exact
        copies must cluster and distinct docs must not."""
        import ray.data

        from dedupe_ray.pipelines.neardup import near_duplicates

        ru = "привет мир это тестовый документ о дедупликации данных " * 8
        zh = "数据 去重 流水线 测试 文档 内容 示例 " * 10
        tbl = pa.table(
            {
                "url": pa.array([f"u://{i}" for i in range(4)], pa.string()),
                "warc_ts": pa.array([1, 2, 3, 4], pa.timestamp("us")),
                "text": [ru, ru, zh, "plain ascii words " * 20],
                "lang": pa.array(["ru", "ru", "zh", "en"], pa.string()),
            }
        )
        out = near_duplicates(ray.data.from_arrow(tbl), NearDupConfig(), extract=False)
        t = pa.concat_tables(list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
        cl = dict(zip(t.column("url").to_pylist(), t.column("cluster_id").to_pylist()))
        assert cl["u://0"] == cl["u://1"]
        assert len({cl["u://0"], cl["u://2"], cl["u://3"]}) == 3
