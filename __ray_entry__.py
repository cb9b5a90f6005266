"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship near-dup pipeline on sf0.001; ``queries()``
exposes one callable per implemented operator/pipeline (SURVEY.md §2);
``oracle_sql()`` gives the DuckDB-equivalent SQL for every SQL-expressible
query (same column names, same value semantics). Ray is initialised by the
driver BEFORE this module is imported — nothing here calls ``ray.init`` /
``ray.shutdown``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from dedupe_ray.pipelines import queries as Q


def entry() -> Any:
    """Flagship: near-duplicate clustering over pages synthesized from the
    sf0.001 documents table (read → extract → sign → block → verify →
    cluster). Returns the per-page cluster assignment."""
    return Q.neardup_pages_minhash("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    # ORDERING CONTRACT: every query with an ``oracle_sql()`` entry comes
    # FIRST — the driver's correctness snapshot covers only the first 50
    # entries, and the oracled set (including the exact audits that certify
    # the approximate near-dup family) must all land inside that window.
    # ``tests/test_queries_oracle.py::test_oracled_queries_precede_unoracled``
    # pins this invariant.
    return {
        # --- SQL-oracled ---------------------------------------------------
        "lang_counts": Q.lang_counts,
        "docs_per_source_lang": Q.docs_per_source_lang,
        "doc_token_counts": Q.doc_token_counts,
        "doc_bpe_token_counts": Q.doc_bpe_token_counts,
        "doc_stats": Q.doc_stats,
        "exact_dedup_docs": Q.exact_dedup_docs,
        "top_docs_by_len": Q.top_docs_by_len,
        "filter_long_docs": Q.filter_long_docs,
        "orders_customers": Q.orders_customers,
        "lineitem_agg": Q.lineitem_agg,
        "events_user_stats": Q.events_user_stats,
        "events_hourly_window": Q.events_hourly_window,
        "events_sliding_window": Q.events_sliding_window,
        "distinct_mktsegment": Q.distinct_mktsegment,
        "orders_lineitem_join": Q.orders_lineitem_join,
        "orders_lineitem_join_sm": Q.orders_lineitem_join_sm,
        "top_lineitems_per_order": Q.top_lineitems_per_order,
        "user_sessions": Q.user_sessions,
        "events_asof_join": Q.events_asof_join,
        "events_range_join": Q.events_range_join,
        "embedding_topk": Q.embedding_topk,
        "sample_docs": Q.sample_docs,
        "top_tokens": Q.top_tokens,
        "suppliers_per_region": Q.suppliers_per_region,
        "parts_by_brand": Q.parts_by_brand,
        "ann_srp_exact_topk": Q.ann_srp_exact_topk,
        "ann_ivf_exact_topk": Q.ann_ivf_exact_topk,
        "media_features_dct": Q.media_features_dct,
        "media_features_av": Q.media_features_av,
        "stratified_sample_docs": Q.stratified_sample_docs,
        "oov_rate_docs": Q.oov_rate_docs,
        "redact_docs": Q.redact_docs,
        "segment_dedup_docs": Q.segment_dedup_docs,
        "quality_docs": Q.quality_docs,
        "media_features": Q.media_features,
        "distinct_users_exact": Q.distinct_users_exact,
        # --- SQL-oracled exact audits of the near-dup family ---------------
        "neardup_docs_jaccard_audit": Q.neardup_docs_jaccard_audit,
        "neardup_docs_clusters_audit": Q.neardup_docs_clusters_audit,
        "containment_docs_audit": Q.containment_docs_audit,
        "compare_lookup_audit": Q.compare_lookup_audit,
        "incremental_match_audit": Q.incremental_match_audit,
        "embedding_neardup_audit": Q.embedding_neardup_audit,
        "doc_repetition_stats": Q.doc_repetition_stats,
        "cluster_groups_audit": Q.cluster_groups_audit,
        "langid_docs": Q.langid_docs,
        "fingerprint_docs": Q.fingerprint_docs,
        "neardup_docs_hamming_audit": Q.neardup_docs_hamming_audit,
        "dup_rate_per_source": Q.dup_rate_per_source,
        "vocab_stats": Q.vocab_stats,
        "neardup_docs_minhash_audit": Q.neardup_docs_minhash_audit,
        # --- rows-only (not SQL-expressible) -------------------------------
        "neardup_pages_minhash": Q.neardup_pages_minhash,
        # the north-star metric as a query: flagship F1 vs planted labels
        "flagship_f1": Q.flagship_f1,
        "neardup_pages_minhash_oph": Q.neardup_pages_minhash_oph,
        "neardup_pages_bench": Q.neardup_pages_bench,
        "neardup_docs_simhash": Q.neardup_docs_simhash,
        "neardup_docs_simhash_wide": Q.neardup_docs_simhash_wide,
        "compare_lookup": Q.compare_lookup,
        "embedding_neardup": Q.embedding_neardup,
        "neardup_docs_ngram_jaccard": Q.neardup_docs_ngram_jaccard,
        "ann_srp_topk": Q.ann_srp_topk,
        "ann_ivf_topk": Q.ann_ivf_topk,
        "cluster_groups": Q.cluster_groups,
        "incremental_match_docs": Q.incremental_match_docs,
        "containment_docs": Q.containment_docs,
        "training_corpus": Q.training_corpus,
        # SQL-expressible but OUTSIDE the driver's 50-entry window (it is
        # already full of oracled queries) — their DuckDB oracles live in
        # ``local_oracle_sql()`` and run in the local replica gate
        # (tests/test_queries_oracle.py::test_local_sql_oracled_queries).
        "fuzzy_match_parts": Q.fuzzy_match_parts,
        "fuzzy_match_docs": Q.fuzzy_match_docs,
        "decontaminate_docs": Q.decontaminate_docs,
        "canonical_url_dedup": Q.canonical_url_dedup,
        # image near-dup end-to-end (decode is not SQL-expressible;
        # planted-group recovery pinned by test)
        "media_neardup": Q.media_neardup,
        "validate_docs": Q.validate_docs,
        "normalize_docs": Q.normalize_docs,
        "snapshot_diff_docs": Q.snapshot_diff_docs,
        "segment_rewrite_docs": Q.segment_rewrite_docs,
        # ExactSubstr duplicate-span removal (Lee et al. 2021; local-oracled)
        "dedup_spans_docs": Q.dedup_spans_docs,
        # SemDeDup audit: n_lists=1 all-pairs quantized-cosine prune,
        # bit-identical SQL replay (local-oracled)
        "semdedup_embeddings_audit": Q.semdedup_embeddings_audit,
        # SemDeDup main path (k-means is not SQL-expressible; kernel
        # certified by the audit above + planted-copy test)
        "semdedup_embeddings": Q.semdedup_embeddings,
        # corpus-bigram-LM document scoring (CCNet quality-stage shape;
        # exact-ppm fixed point, local-oracled)
        "lm_score_docs": Q.lm_score_docs,
        # codec-closure e2e: all five native formats through the real
        # decode stage (local-oracled decode_ok/fmt cycle)
        "media_features_codecs": Q.media_features_codecs,
    }


# Shared CTE chain for the exact near-dup audits: distinct word-3-shingles
# per doc, per-doc set sizes, pairwise intersection counts via the
# shared-shingle equality join, exact Jaccard ≥ 0.5 pairs. The Ray audit
# queries (pipelines/queries.py `_exact_pair_scores` family) reproduce this
# computation bit-for-bit — same ASCII tokenizer, same float64 arithmetic.
_AUDIT_CTE = (
    "tok AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t "
    "FROM documents), "
    "sh AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s "
    "FROM tok, UNNEST(range(1, len(t) - 1)) AS u(i) WHERE len(t) >= 3), "
    "sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id), "
    "inter AS (SELECT a.doc_id AS src, b.doc_id AS dst, count(*) AS i "
    "FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2), "
    "pairs AS (SELECT src, dst, i::DOUBLE / (sa.n + sb.n - i) AS jaccard "
    "FROM inter JOIN sizes sa ON sa.doc_id = src JOIN sizes sb ON sb.doc_id = dst "
    "WHERE i::DOUBLE / (sa.n + sb.n - i) >= 0.5)"
)


_TOPK_SQL = (
    "WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings "
    "WHERE vec_id < 5), "
    "scored AS (SELECT q.query_id, e.vec_id, "
    "list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), "
    "CAST(e.embedding AS DOUBLE[])) AS sim "
    "FROM q CROSS JOIN embeddings e) "
    "SELECT query_id, CAST(row_number() OVER "
    "(PARTITION BY query_id ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rank, "
    "vec_id FROM scored QUALIFY rank <= 10"
)


# winnowing oracle constants (functions/fingerprint.py): BASE^m mod 2^64 for
# m = 0..7, the splitmix finalizer multiplier, and 2^64 — inlined as HUGEINT
# literals so DuckDB reproduces the uint64 wrap arithmetic exactly.
_FP_POWERS = [
    1, 1000003, 1000006000009, 1000009000027000027, 14003818205314896721,
    14453212906556403763, 10923514805226455897, 12924618581234127435,
]
_FP_PW = "[" + ", ".join(f"CAST({p} AS HUGEINT)" for p in _FP_POWERS) + "]"
_FP_M64 = "18446744073709551616"
_FP_MIX = "18397679294719823053"  # 0xFF51AFD7ED558CCD
_FP_RAW = " + ".join(
    ["CAST(b[i] AS HUGEINT) * pw[ke]"]
    + [
        f"CASE WHEN ke >= {j + 1} THEN CAST(b[i+{j}] AS HUGEINT) * pw[ke-{j}] "
        "ELSE 0 END"
        for j in range(1, 8)
    ]
)


def _langid_profile_values() -> str:
    """(lang, words) VALUES rows from the langid profiles — the oracle scores
    the SAME word lists the Ray kernel scores."""
    from dedupe_ray.functions.langid import LANG_PROFILES

    return ", ".join(
        "('%s', [%s])"
        % (lang, ", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang])))
        for lang in sorted(LANG_PROFILES)
    )


def _minhash_perm_values() -> str:
    """(slot, a, b) VALUES rows from the minhash-audit permutation constants —
    single source of truth with the numpy kernel (`Q._MINHASH_AUDIT_PERMS`)."""
    return ", ".join(
        f"({s}, CAST({a} AS HUGEINT), CAST({b} AS HUGEINT))"
        for s, (a, b) in enumerate(Q._MINHASH_AUDIT_PERMS)
    )


def oracle_sql() -> dict[str, str]:
    bpe = Q.BPE_TOKEN_RE.replace("'", "''")
    return {
        "neardup_docs_jaccard_audit": (
            f"WITH {_AUDIT_CTE} SELECT src, dst, jaccard FROM pairs"
        ),
        "incremental_match_audit": (
            f"WITH {_AUDIT_CTE} SELECT src, dst, jaccard FROM pairs "
            "WHERE (src < 100) <> (dst < 100)"
        ),
        "neardup_docs_clusters_audit": (
            f"WITH RECURSIVE {_AUDIT_CTE}, "
            "edges AS (SELECT src AS a, dst AS b FROM pairs "
            "UNION ALL SELECT dst, src FROM pairs), "
            "reach(doc_id, r) AS (SELECT doc_id, doc_id FROM documents "
            "UNION SELECT e.b, r.r FROM reach r JOIN edges e ON e.a = r.doc_id) "
            "SELECT doc_id, min(r) AS cluster_id FROM reach GROUP BY doc_id"
        ),
        "containment_docs_audit": (
            "WITH tok AS (SELECT doc_id, "
            "regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents), "
            "sh AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] "
            "AS s FROM tok, UNNEST(range(1, len(t) - 1)) AS u(i) WHERE len(t) >= 3), "
            "sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id), "
            "inter AS (SELECT a.doc_id AS src, b.doc_id AS dst, count(*) AS i "
            "FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2) "
            "SELECT src, dst, i::DOUBLE / least(sa.n, sb.n) AS containment "
            "FROM inter JOIN sizes sa ON sa.doc_id = src "
            "JOIN sizes sb ON sb.doc_id = dst "
            "WHERE i::DOUBLE / least(sa.n, sb.n) >= 0.8"
        ),
        "distinct_users_exact": (
            "SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS n_users FROM events"
        ),
        "doc_repetition_stats": (
            "WITH tok AS (SELECT doc_id, "
            "regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents), "
            "base AS (SELECT doc_id, len(t) AS n_tokens, "
            "len(list_distinct(t)) AS n_distinct FROM tok), "
            "g AS (SELECT doc_id, t[i] || ' ' || t[i+1] AS gram "
            "FROM tok, UNNEST(range(1, len(t))) AS u(i) WHERE len(t) >= 2), "
            "gc AS (SELECT doc_id, gram, count(*) AS c FROM g GROUP BY doc_id, gram), "
            "top AS (SELECT doc_id, max(c) AS top_n, CAST(sum(c) AS BIGINT) AS ng "
            "FROM gc GROUP BY doc_id) "
            "SELECT b.doc_id, COALESCE(ng, 0) AS n_2grams, "
            "CAST(COALESCE(top_n, 0) AS BIGINT) AS top_2gram_n, "
            "CASE WHEN COALESCE(ng, 0) = 0 THEN 0.0 "
            "ELSE CAST(top_n AS DOUBLE) / ng END AS top_2gram_frac, "
            "CASE WHEN n_tokens = 0 THEN 0.0 "
            "ELSE CAST(n_distinct AS DOUBLE) / n_tokens END AS distinct_frac "
            "FROM base b LEFT JOIN top USING (doc_id)"
        ),
        "embedding_neardup_audit": (
            # sim_fp: quantized fixed-point cosine — q = floor(x·1024 + 0.5)
            # makes every dot product / norm an exact integer sum (< 2^53) in
            # float64, so the final floor(1e6·dot/sqrt(na·nb) + 0.5) is
            # bit-identical across engines (single correctly-rounded IEEE ops)
            "WITH q AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS fe, "
            "list_transform(CAST(embedding AS DOUBLE[]), "
            "x -> floor(x * 1024.0 + 0.5)) AS qe FROM embeddings) "
            "SELECT a.vec_id AS src, b.vec_id AS dst, "
            "CASE WHEN list_dot_product(a.qe, a.qe) * "
            "list_dot_product(b.qe, b.qe) = 0 THEN 0 ELSE "
            "CAST(floor(1000000.0 * (list_dot_product(a.qe, b.qe) / "
            "sqrt(list_dot_product(a.qe, a.qe) * list_dot_product(b.qe, b.qe)))"
            " + 0.5) AS BIGINT) END AS sim_fp "
            "FROM q a JOIN q b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.fe, b.fe) >= 0.42"
        ),
        "cluster_groups_audit": (
            f"WITH RECURSIVE {_AUDIT_CTE}, "
            "edges AS (SELECT src AS a, dst AS b FROM pairs "
            "UNION ALL SELECT dst, src FROM pairs), "
            "reach(doc_id, r) AS (SELECT doc_id, doc_id FROM documents "
            "UNION SELECT e.b, r.r FROM reach r JOIN edges e ON e.a = r.doc_id), "
            "cl AS (SELECT doc_id, min(r) AS cluster_id FROM reach GROUP BY doc_id) "
            "SELECT cluster_id, CAST(count(*) AS BIGINT) AS n_members, "
            "string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS member_ids "
            "FROM cl GROUP BY cluster_id HAVING count(*) > 1"
        ),
        "media_features_dct": (
            "SELECT doc_id AS media_id, CAST(TRUE AS BOOLEAN) AS decode_ok "
            "FROM documents"
        ),
        "media_features_av": (
            "SELECT doc_id AS media_id, "
            "CASE WHEN doc_id % 2 = 0 THEN 'audio' ELSE 'video' END AS media_type, "
            "CAST(TRUE AS BOOLEAN) AS decode_ok FROM documents"
        ),
        "stratified_sample_docs": (
            # same Knuth multiplicative rank as _strat_keep; doc_id·M stays
            # far below 2^63 at these id magnitudes, so SQL's exact product
            # mod 2^32 equals numpy's mod-2^64-wrapped product mod 2^32
            "SELECT doc_id, lang FROM documents "
            "QUALIFY row_number() OVER (PARTITION BY lang "
            "ORDER BY (doc_id * 2654435761) % 4294967296, doc_id) <= 20"
        ),
        "segment_dedup_docs": (
            "WITH seg AS (SELECT doc_id, u.s AS s FROM documents, "
            "unnest(string_split(text, '. ')) AS u(s)), "
            "cnt AS (SELECT s, count(*) AS c FROM seg GROUP BY s), "
            "ns AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_segments "
            "FROM seg GROUP BY doc_id), "
            "nd AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS nd FROM seg "
            "WHERE s IN (SELECT s FROM cnt WHERE c >= 3) GROUP BY doc_id) "
            "SELECT d.doc_id, COALESCE(n_segments, 0) AS n_segments, "
            "COALESCE(nd, 0) AS n_dup_segments FROM documents d "
            "LEFT JOIN ns USING (doc_id) LEFT JOIN nd USING (doc_id)"
        ),
        "redact_docs": (
            # pattern is RE2-safe, so pyarrow's and DuckDB's regex engines
            # agree byte-for-byte on both the count and the replacement
            "SELECT doc_id, CAST(len(regexp_extract_all(lower(text), "
            "'[a-z0-9._%+-]+@[a-z0-9.-]+\\.[a-z]{2,}')) AS BIGINT) AS n_emails, "
            "regexp_replace(lower(text), "
            "'[a-z0-9._%+-]+@[a-z0-9.-]+\\.[a-z]{2,}', '<EMAIL>', 'g') "
            "AS redacted_text FROM documents"
        ),
        "oov_rate_docs": (
            "WITH tok AS (SELECT doc_id, "
            "regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents), "
            "vocab AS (SELECT tk AS token FROM tok, unnest(t) AS u(tk) "
            "GROUP BY tk ORDER BY count(*) DESC, token LIMIT 1000), "
            "flat AS (SELECT doc_id, tk FROM tok, unnest(t) AS u(tk)), "
            "cnt AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens, "
            "CAST(count(*) FILTER (WHERE tk IN (SELECT token FROM vocab)) "
            "AS BIGINT) AS n_in FROM flat GROUP BY doc_id) "
            "SELECT d.doc_id, COALESCE(n_tokens, 0) AS n_tokens, "
            "COALESCE(n_tokens - n_in, 0) AS n_oov, "
            "CASE WHEN COALESCE(n_tokens, 0) = 0 THEN 0.0 "
            "ELSE CAST(n_tokens - n_in AS DOUBLE) / n_tokens END AS oov_rate "
            "FROM documents d LEFT JOIN cnt USING (doc_id)"
        ),
        "quality_docs": (
            # arithmetic mirrors functions/quality.py op-for-op (each value
            # is a single IEEE op over exactly-representable ints, same
            # association order → bit-identical doubles)
            "WITH s AS (SELECT doc_id, "
            "CAST(length(text) AS DOUBLE) AS n_chars, "
            "CAST(len(regexp_extract_all(text, '[^\\s]+')) AS DOUBLE) AS n_tokens, "
            "CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS DOUBLE) AS n_punct, "
            "CAST(len(regexp_extract_all(text, '[0-9]')) AS DOUBLE) AS n_digits, "
            "CAST(len(regexp_extract_all(text, '[a-zA-Z]')) AS DOUBLE) AS n_alpha "
            "FROM documents), "
            "r AS (SELECT doc_id, "
            "n_alpha / greatest(n_chars, 1.0) AS alpha_ratio, "
            "n_punct / greatest(n_tokens, 1.0) AS punct_ratio, "
            "n_digits / greatest(n_chars, 1.0) AS digit_ratio, "
            "n_chars / greatest(n_tokens, 1.0) AS mean_token_len FROM s) "
            "SELECT doc_id, alpha_ratio, punct_ratio, digit_ratio, mean_token_len, "
            "alpha_ratio * ((1.0 - least(digit_ratio, 1.0)) * "
            "(0.5 + 0.5 * CAST(mean_token_len >= 3.0 AND mean_token_len <= 12.0 "
            "AS DOUBLE))) AS quality_score FROM r"
        ),
        "compare_lookup_audit": (
            "WITH tok AS (SELECT doc_id, "
            "regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents), "
            "sh AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] "
            "AS s FROM tok, UNNEST(range(1, len(t) - 1)) AS u(i) WHERE len(t) >= 3), "
            "sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id), "
            "tsh AS (SELECT DISTINCT s FROM sh WHERE doc_id = 0), "
            "tn AS (SELECT count(*) AS n FROM tsh), "
            "inter AS (SELECT sh.doc_id, count(*) AS i FROM sh "
            "JOIN tsh USING (s) GROUP BY sh.doc_id) "
            "SELECT doc_id, i::DOUBLE / (sizes.n + tn.n - i) AS jaccard "
            "FROM inter JOIN sizes USING (doc_id) CROSS JOIN tn "
            "WHERE i::DOUBLE / (sizes.n + tn.n - i) >= 0.5"
        ),
        "langid_docs": (
            # mirrors functions/langid.py: score = hits/n (single float64
            # division, identical bits both engines), strict-> tie-break =
            # alphabetically-first max scorer, und below 3 tokens or 0.08
            "WITH tok AS (SELECT doc_id, "
            "regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents), "
            "sc AS (SELECT doc_id, p.lang, "
            "CAST(len(list_filter(t, x -> list_contains(p.words, x))) AS DOUBLE)"
            " / len(t) AS score "
            f"FROM tok, (VALUES {_langid_profile_values()}) AS p(lang, words) "
            "WHERE len(t) >= 3), "
            "best AS (SELECT doc_id, lang, score, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY score DESC, lang) AS rn FROM sc) "
            "SELECT d.doc_id AS doc_id, "
            "COALESCE(CASE WHEN b.score >= 0.08 THEN b.lang END, 'und') "
            "AS pred_lang "
            "FROM documents d LEFT JOIN best b ON b.doc_id = d.doc_id AND b.rn = 1"
        ),
        "fingerprint_docs": (
            # winnowing (functions/fingerprint.py) replayed in SQL: per-byte
            # rolling polynomial hash mod 2^64 (HUGEINT wrap arithmetic, the
            # 64x64->64 multiply split into two 32x64 halves), splitmix-style
            # finalizer, then rightmost-min-per-16-window selection. Assumes
            # ASCII text (codepoint == utf-8 byte) — true of the testdata and
            # asserted cheap in the Ray kernel's docstring.
            "WITH d AS (SELECT doc_id, lower(COALESCE(text, '')) AS lt, "
            "length(COALESCE(text, '')) AS n FROM documents), "
            "bl AS (SELECT doc_id, n, least(n, 8) AS ke, "
            "n - least(n, 8) + 1 AS m, "
            "list_transform(range(1, n + 1), i -> ascii(lt[i])) AS b, "
            f"{_FP_PW} AS pw FROM d WHERE n > 0), "
            f"raw AS (SELECT doc_id, m, i, ({_FP_RAW}) % {_FP_M64} AS r "
            "FROM bl, UNNEST(range(1, m + 1)) AS u(i)), "
            "m1 AS (SELECT doc_id, m, i, CAST(xor(CAST(r AS UBIGINT), "
            "CAST(r AS UBIGINT) >> 33) AS HUGEINT) AS h1 FROM raw), "
            f"m2 AS (SELECT doc_id, m, i, ((h1 % 4294967296) * {_FP_MIX} + "
            f"((h1 // 4294967296) * {_FP_MIX} % 4294967296) * 4294967296) "
            f"% {_FP_M64} AS h2 FROM m1), "
            "hh AS (SELECT doc_id, m, i, xor(CAST(h2 AS UBIGINT), "
            "CAST(h2 AS UBIGINT) >> 33) AS h FROM m2), "
            "small AS (SELECT doc_id, min(h) AS h FROM hh WHERE m <= 16 "
            "GROUP BY doc_id), "
            "ex AS (SELECT doc_id, i, h, w FROM hh, "
            "UNNEST(range(greatest(1, i - 15), least(i, m - 15) + 1)) AS u(w) "
            "WHERE m > 16), "
            "sel AS (SELECT doc_id, h FROM (SELECT doc_id, w, h, row_number() "
            "OVER (PARTITION BY doc_id, w ORDER BY h ASC, i DESC) AS rn FROM ex) "
            "WHERE rn = 1), "
            "fp AS (SELECT DISTINCT doc_id, h FROM "
            "(SELECT * FROM sel UNION ALL SELECT * FROM small)), "
            "agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_fingerprints, "
            "min(h) AS fp_min FROM fp GROUP BY doc_id) "
            "SELECT d2.doc_id, COALESCE(n_fingerprints, 0) AS n_fingerprints, "
            "CAST(COALESCE(fp_min, 0) AS UBIGINT) AS fp_min "
            "FROM documents d2 LEFT JOIN agg USING (doc_id)"
        ),
        "neardup_docs_hamming_audit": (
            # md5-simhash (same majority rule as functions/simhash.py, md5
            # token hash so both engines compute identical codes) + exact
            # popcount-xor pair scan — the simhash-family brute-force audit
            "WITH tok AS (SELECT doc_id, "
            "regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents), "
            "shm AS (SELECT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s "
            "FROM tok, UNNEST(range(1, len(t) - 1)) AS u(i) WHERE len(t) >= 3), "
            "h AS (SELECT doc_id, md5_number_upper(s) AS hv FROM shm), "
            "bits AS (SELECT doc_id, b, count(*) AS n, "
            "sum(CAST((hv >> b) & 1 AS BIGINT)) AS ones "
            "FROM h, UNNEST(range(64)) AS u(b) GROUP BY doc_id, b), "
            "sig AS (SELECT doc_id, CAST(sum(CASE WHEN 2 * ones > n "
            "THEN CAST(CAST(1 AS UBIGINT) << b AS HUGEINT) ELSE 0 END) "
            "AS UBIGINT) AS code FROM bits GROUP BY doc_id), "
            "codes AS (SELECT d.doc_id, COALESCE(s.code, 0) AS code "
            "FROM documents d LEFT JOIN sig s USING (doc_id)) "
            "SELECT a.doc_id AS src, b.doc_id AS dst, "
            "CAST(bit_count(xor(a.code, b.code)) AS BIGINT) AS hamming "
            "FROM codes a JOIN codes b ON a.doc_id < b.doc_id "
            "WHERE bit_count(xor(a.code, b.code)) <= 8"
        ),
        "dup_rate_per_source": (
            # Ray side hashes text with 128-bit blake2b for the distinct;
            # exact SQL count(DISTINCT ...) matches unless blake2b collides
            "SELECT COALESCE(source, '') AS source, "
            "CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(count(DISTINCT COALESCE(text, '')) AS BIGINT) AS n_distinct, "
            "CAST(count(*) - count(DISTINCT COALESCE(text, '')) AS BIGINT) "
            "AS n_dup_docs FROM documents GROUP BY COALESCE(source, '')"
        ),
        "vocab_stats": (
            "WITH tok AS (SELECT COALESCE(lang, '') AS lang, "
            "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t "
            "FROM documents) "
            "SELECT lang, CAST(count(*) AS BIGINT) AS total_tokens, "
            "CAST(count(DISTINCT t) AS BIGINT) AS distinct_tokens "
            "FROM tok GROUP BY lang"
        ),
        "neardup_docs_minhash_audit": (
            # md5-minhash sketch: same shingle CTE as the hamming audit, then
            # 8 permutations (a*h + b) mod 2^64 in HUGEINT wrap arithmetic
            # (the fingerprint oracle's 32x64 multiply split), min per slot
            "WITH tok AS (SELECT doc_id, "
            "regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents), "
            "shm AS (SELECT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s "
            "FROM tok, UNNEST(range(1, len(t) - 1)) AS u(i) WHERE len(t) >= 3), "
            "h AS (SELECT doc_id, CAST(md5_number_upper(s) AS HUGEINT) AS hv "
            "FROM shm), "
            "ph AS (SELECT doc_id, p.slot, ((hv % 4294967296) * p.a + "
            "((hv // 4294967296) * p.a % 4294967296) * 4294967296 + p.b) "
            f"% {_FP_M64} AS v "
            f"FROM h, (VALUES {_minhash_perm_values()}) AS p(slot, a, b)) "
            "SELECT doc_id, CAST(slot AS BIGINT) AS slot, "
            "CAST(min(v) AS UBIGINT) AS minhash FROM ph GROUP BY doc_id, slot"
        ),
        "lang_counts": "SELECT lang, count(*) AS n FROM documents GROUP BY lang",
        "docs_per_source_lang": (
            "SELECT source, lang, count(*) AS n, "
            "CAST(sum(n_chars) AS BIGINT) AS sum_chars "
            "FROM documents GROUP BY source, lang"
        ),
        "doc_token_counts": (
            "SELECT doc_id, CAST(len(regexp_extract_all(text, '[^\\s]+')) AS BIGINT) "
            "AS n_tokens FROM documents"
        ),
        "doc_bpe_token_counts": (
            f"SELECT doc_id, CAST(len(regexp_extract_all(text, '{bpe}')) AS BIGINT) "
            "AS n_bpe_tokens FROM documents"
        ),
        "doc_stats": (
            "SELECT doc_id, "
            "CAST(length(text) AS BIGINT) AS n_chars2, "
            "CAST(len(regexp_extract_all(text, '[^\\s]+')) AS BIGINT) AS n_tokens, "
            "CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS n_punct, "
            "CAST(len(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS n_digits, "
            "CAST(len(regexp_extract_all(text, '[A-Z]')) AS BIGINT) AS n_upper, "
            "CAST(len(regexp_extract_all(text, '[a-zA-Z]+')) AS BIGINT) AS n_words "
            "FROM documents"
        ),
        "exact_dedup_docs": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "top_docs_by_len": (
            "SELECT doc_id, n_chars FROM documents ORDER BY n_chars DESC, doc_id LIMIT 100"
        ),
        "filter_long_docs": "SELECT doc_id, lang FROM documents WHERE n_chars > 300",
        "orders_customers": (
            "SELECT o_orderkey, o_totalprice, c_name, c_mktsegment "
            "FROM orders JOIN customer ON o_custkey = c_custkey"
        ),
        "lineitem_agg": (
            "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
            "count(*) AS n FROM lineitem GROUP BY l_returnflag, l_linestatus"
        ),
        "events_user_stats": (
            "SELECT user_id, count(*) AS n, min(ts) AS first_ts, max(ts) AS last_ts "
            "FROM events GROUP BY user_id"
        ),
        "events_hourly_window": (
            "SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n "
            "FROM events GROUP BY event_type, date_trunc('hour', ts)"
        ),
        "events_sliding_window": (
            "WITH e AS (SELECT event_type, "
            "time_bucket(INTERVAL '15 minutes', ts) AS b FROM events) "
            "SELECT event_type, b - (k * INTERVAL '15 minutes') AS window_start, "
            "CAST(count(*) AS BIGINT) AS n "
            "FROM e, UNNEST([0, 1, 2, 3]) AS u(k) GROUP BY 1, 2"
        ),
        "distinct_mktsegment": "SELECT DISTINCT c_mktsegment FROM customer",
        "sample_docs": (
            "SELECT doc_id, lang, n_chars FROM documents WHERE doc_id % 16 = 0"
        ),
        "suppliers_per_region": (
            "SELECT r_name, count(*) AS n FROM supplier "
            "JOIN nation ON s_nationkey = n_nationkey "
            "JOIN region ON n_regionkey = r_regionkey GROUP BY r_name"
        ),
        "parts_by_brand": (
            "SELECT p_brand, count(*) AS n, min(p_retailprice) AS min_price, "
            "max(p_retailprice) AS max_price FROM part GROUP BY p_brand"
        ),
        "top_tokens": (
            "SELECT t AS token, count(*) AS n FROM documents, "
            "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS u(t) "
            "GROUP BY t ORDER BY n DESC, token LIMIT 20"
        ),
        "media_features": (
            "SELECT doc_id AS media_id, "
            "CAST(length(text) > 0 AS BOOLEAN) AS decode_ok FROM documents"
        ),
        "orders_lineitem_join": (
            "SELECT l_orderkey, l_linenumber, l_quantity, o_orderdate "
            "FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
        ),
        "orders_lineitem_join_sm": (
            "SELECT l_orderkey, l_linenumber, l_quantity, o_orderdate "
            "FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
        ),
        "top_lineitems_per_order": (
            "SELECT l_orderkey, l_linenumber, l_quantity, "
            "CAST(row_number() OVER (PARTITION BY l_orderkey "
            "ORDER BY l_quantity DESC, l_linenumber) AS BIGINT) AS rank "
            "FROM lineitem QUALIFY rank <= 2"
        ),
        "events_range_join": (
            "SELECT e.event_id, CAST(count(c.ts) AS BIGINT) AS n_recent_clicks "
            "FROM events e LEFT JOIN events c ON c.user_id = e.user_id "
            "AND c.event_type = 'click' AND c.ts <= e.ts "
            "AND c.ts > e.ts - INTERVAL 5 MINUTE "
            "WHERE e.event_type = 'error' GROUP BY e.event_id"
        ),
        "events_asof_join": (
            "SELECT e.event_id, max(c.ts) AS last_click_ts FROM events e "
            "LEFT JOIN events c ON c.user_id = e.user_id "
            "AND c.event_type = 'click' AND c.ts <= e.ts "
            "WHERE e.event_type = 'error' GROUP BY e.event_id"
        ),
        "user_sessions": (
            "WITH d AS (SELECT user_id, ts, "
            "ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS gap FROM events) "
            "SELECT user_id, CAST(count(*) FILTER (WHERE gap IS NULL "
            "OR gap > INTERVAL 30 MINUTE) AS BIGINT) AS n_sessions "
            "FROM d GROUP BY user_id"
        ),
        "embedding_topk": _TOPK_SQL,
        # exact modes of the approximate ANN paths (radius 64 / nprobe =
        # n_lists) provably equal brute force — same oracle as embedding_topk
        "ann_srp_exact_topk": _TOPK_SQL,
        "ann_ivf_exact_topk": _TOPK_SQL,
    }


# SQL replica of functions/metrics.jaro_winkler over columns s, t: DuckDB's
# jaro_similarity agrees bit-for-bit with the kernel's Jaro part (verified
# over 4k random + mutated pairs); the Winkler boost is replayed explicitly
# because the kernel applies it UNCONDITIONALLY (prefix*0.1*(1-jaro)) while
# DuckDB's jaro_winkler_similarity gates it on jaro > 0.7.
_JW_SQL = (
    "CASE WHEN s = t THEN CAST(1.0 AS DOUBLE) ELSE "
    "jaro_similarity(s, t) + "
    "(CASE WHEN substr(s,1,4)=substr(t,1,4) THEN 4 "
    "WHEN substr(s,1,3)=substr(t,1,3) THEN 3 "
    "WHEN substr(s,1,2)=substr(t,1,2) THEN 2 "
    "WHEN substr(s,1,1)=substr(t,1,1) THEN 1 ELSE 0 END * 0.1) "
    "* (1.0 - jaro_similarity(s, t)) END"
)


def local_oracle_sql() -> dict[str, str]:
    """DuckDB oracles for queries that are SQL-expressible but do not fit in
    the driver's 50-entry correctness window (``oracle_sql()`` already fills
    all 50 slots). Run by the local replica gate with the same row-count +
    schema + order-insensitive value comparison."""
    return {
        "fuzzy_match_parts": (
            "WITH c AS (SELECT DISTINCT p_name AS nm, "
            "split_part(p_name, ' ', -1) AS blk FROM part), "
            "p AS (SELECT a.nm AS s, b.nm AS t FROM c a JOIN c b "
            "ON a.blk = b.blk AND a.nm < b.nm) "
            f"SELECT * FROM (SELECT s AS name_a, t AS name_b, {_JW_SQL} AS jw "
            "FROM p) WHERE jw >= 0.88"
        ),
        "fuzzy_match_docs": (
            "WITH d AS (SELECT doc_id, lang || '|' || split_part(text, ' ', 1) AS blk, "
            "substr(text, 1, 64) AS s64 FROM documents), "
            "p AS (SELECT a.doc_id AS ka, b.doc_id AS kb, a.s64 AS s, b.s64 AS t "
            "FROM d a JOIN d b ON a.blk = b.blk AND a.doc_id < b.doc_id) "
            f"SELECT * FROM (SELECT ka AS id_a, kb AS id_b, {_JW_SQL} AS jw "
            "FROM p) WHERE jw >= 0.95"
        ),
        "decontaminate_docs": (
            # word-3-gram eval-set overlap; ngram CTE = the minhash-audit
            # shingle construction; n_hits counts OCCURRENCES, so the flat
            # (non-distinct) ngram list is scored against the DISTINCT eval set
            "WITH tok AS (SELECT doc_id, "
            "regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents), "
            "ng AS (SELECT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS g "
            "FROM tok, UNNEST(range(1, len(t) - 1)) AS u(i) WHERE len(t) >= 3), "
            "ev AS (SELECT DISTINCT g FROM ng WHERE doc_id % 100 = 0), "
            "cnt AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_ngrams, "
            "CAST(count(*) FILTER (WHERE g IN (SELECT g FROM ev)) AS BIGINT) "
            "AS n_hits FROM ng GROUP BY doc_id) "
            "SELECT d.doc_id, COALESCE(n_ngrams, 0) AS n_ngrams, "
            "COALESCE(n_hits, 0) AS n_hits, "
            "CAST(d.doc_id % 100 = 0 AS BIGINT) AS is_eval "
            "FROM documents d LEFT JOIN cnt USING (doc_id)"
        ),
        "canonical_url_dedup": (
            # replay the FULL canonicalizer over the same synthesized messy
            # urls (scheme/host case, www., default ports, trailing slash,
            # tracking params, param sort, fragments) — see
            # pipelines/queries.py canonical_url_dedup for the rule list
            "WITH m AS (SELECT doc_id, "
            "(CASE WHEN (doc_id // 3) % 2 = 0 THEN 'HTTP' ELSE 'https' END) "
            "|| '://' || "
            "(CASE doc_id % 3 WHEN 0 THEN 'WWW.src' || ((doc_id // 3) % 7) "
            "|| '.Example.COM' "
            "WHEN 1 THEN upper('src' || ((doc_id // 3) % 7)) || '.example.com' "
            "ELSE 'src' || ((doc_id // 3) % 7) || '.EXAMPLE.com' END) || "
            "(CASE WHEN doc_id % 5 = 0 THEN "
            "(CASE WHEN (doc_id // 3) % 2 = 0 THEN ':80' ELSE ':443' END) "
            "ELSE '' END) || "
            "'/docs/' || (doc_id // 3) || "
            "(CASE WHEN doc_id % 4 = 0 THEN '/' ELSE '' END) || "
            "(CASE doc_id % 3 WHEN 0 THEN '?utm_source=feed&id=' || (doc_id // 3) "
            "WHEN 1 THEN '?id=' || (doc_id // 3) || '&utm_campaign=x' "
            "ELSE '?b=2&id=' || (doc_id // 3) END) || "
            "(CASE WHEN doc_id % 2 = 1 THEN '#sec' ELSE '' END) AS url "
            "FROM documents), "
            "st AS (SELECT doc_id, regexp_replace(url, '#.*$', '') AS nofrag "
            "FROM m), "
            "pieces AS (SELECT doc_id, "
            "lower(regexp_extract(nofrag, '^([^:]+)://', 1)) AS scheme, "
            "regexp_replace(nofrag, '^[^:]+://', '') AS rest FROM st), "
            "hp AS (SELECT *, regexp_replace("
            "lower(regexp_extract(rest, '^([^/?#]*)', 1)), '^www\\.', '') "
            "AS hostport, regexp_replace(rest, '^[^/?#]*', '') AS pathq "
            "FROM pieces), "
            "norm AS (SELECT doc_id, scheme, "
            "(CASE WHEN scheme = 'http' THEN regexp_replace(hostport, ':80$', '') "
            "WHEN scheme = 'https' THEN regexp_replace(hostport, ':443$', '') "
            "ELSE hostport END) AS host, "
            "(CASE WHEN regexp_replace(regexp_replace(pathq, '\\?.*$', ''), "
            "'(.+)/$', '\\1') = '' THEN '/' ELSE "
            "regexp_replace(regexp_replace(pathq, '\\?.*$', ''), '(.+)/$', '\\1') "
            "END) AS path, "
            "array_to_string(list_sort(list_filter("
            "string_split(regexp_extract(pathq, '\\?(.*)$', 1), '&'), "
            "x -> x <> '' AND NOT starts_with(x, 'utm_') "
            "AND NOT starts_with(x, 'fbclid') AND NOT starts_with(x, 'gclid')"
            ")), '&') AS canon_q FROM hp), "
            "canon AS (SELECT doc_id, scheme || '://' || host || path || "
            "(CASE WHEN canon_q = '' THEN '' ELSE '?' || canon_q END) "
            "AS canonical_url FROM norm) "
            "SELECT canonical_url, CAST(count(*) AS BIGINT) AS n_dups, "
            "min(doc_id) AS keep_id FROM canon GROUP BY canonical_url"
        ),
        "validate_docs": (
            "SELECT 'null_text' AS rule, CAST(count(*) FILTER "
            "(WHERE text IS NULL) AS BIGINT) AS n_violations FROM documents "
            "UNION ALL SELECT 'empty_text', CAST(count(*) FILTER "
            "(WHERE text = '') AS BIGINT) FROM documents "
            "UNION ALL SELECT 'n_chars_mismatch', CAST(count(*) FILTER "
            "(WHERE text IS NOT NULL AND n_chars <> length(text)) AS BIGINT) "
            "FROM documents "
            "UNION ALL SELECT 'bad_lang', CAST(count(*) FILTER "
            "(WHERE lang IS NULL OR NOT regexp_matches(lang, '^[a-z]{2,3}$')) "
            "AS BIGINT) FROM documents "
            "UNION ALL SELECT 'dup_doc_id', "
            "CAST(count(*) - count(DISTINCT doc_id) AS BIGINT) FROM documents"
        ),
        "normalize_docs": (
            "WITH n AS (SELECT doc_id, text, trim(regexp_replace("
            "lower(nfc_normalize(text)), '\\s+', ' ', 'g')) AS norm_text "
            "FROM documents) "
            "SELECT doc_id, norm_text, "
            "CAST(length(norm_text) AS BIGINT) AS n_chars_norm, "
            "norm_text <> text AS changed FROM n"
        ),
        "snapshot_diff_docs": (
            # both snapshots derive deterministically from documents; the
            # Ray side compares 8-byte blake2b content hashes, SQL compares
            # the text itself — equal unless blake2b collides
            "WITH cur AS (SELECT doc_id, text FROM documents "
            "WHERE doc_id % 11 <> 5), "
            "prev AS (SELECT doc_id, CASE WHEN doc_id % 7 = 0 "
            "THEN text || ' OLD' ELSE text END AS text FROM documents "
            "WHERE doc_id % 10 <> 9) "
            "SELECT COALESCE(c.doc_id, p.doc_id) AS doc_id, "
            "CASE WHEN p.doc_id IS NULL THEN 'added' "
            "WHEN c.doc_id IS NULL THEN 'removed' "
            "WHEN c.text <> p.text THEN 'changed' "
            "ELSE 'unchanged' END AS status "
            "FROM cur c FULL OUTER JOIN prev p ON c.doc_id = p.doc_id"
        ),
        "segment_rewrite_docs": (
            "WITH sp AS (SELECT doc_id, string_split(text, '. ') AS t "
            "FROM documents WHERE text IS NOT NULL), "
            "seg AS (SELECT doc_id, t[i] AS s, i FROM sp, "
            "UNNEST(range(1, len(t) + 1)) AS u(i)), "
            "cnt AS (SELECT s, count(*) AS c FROM seg GROUP BY s), "
            "rep AS (SELECT s FROM cnt WHERE c >= 3), "
            "kept AS (SELECT doc_id, s, i FROM seg "
            "WHERE s NOT IN (SELECT s FROM rep)), "
            "rb AS (SELECT doc_id, string_agg(s, '. ' ORDER BY i) AS ct, "
            "CAST(count(*) AS BIGINT) AS nk FROM kept GROUP BY doc_id) "
            "SELECT d.doc_id, COALESCE(ct, '') AS clean_text, "
            "COALESCE(nk, 0) AS n_kept_segments "
            "FROM documents d LEFT JOIN rb USING (doc_id)"
        ),
        "dedup_spans_docs": (
            # ExactSubstr replay: every 8-token window ≥2 occurrences
            # corpus-wide covers its positions; uncovered tokens re-join.
            # Same tokenizer normal form (lowercase, space-joined) as the
            # Ray rewrite, so the text column hash-matches exactly.
            "WITH dt AS (SELECT doc_id, regexp_extract_all(lower("
            "coalesce(text, '')), '[a-z0-9]+') AS toks FROM documents), "
            "wins AS (SELECT doc_id, i AS s, "
            "array_to_string(toks[i:i+7], ' ') AS win "
            "FROM dt, UNNEST(range(1, len(toks) - 6)) AS u(i)), "
            "rep AS (SELECT win FROM wins GROUP BY win HAVING count(*) >= 2), "
            "cov AS (SELECT DISTINCT w.doc_id AS doc_id, w.s + o.o AS p "
            "FROM wins w JOIN rep USING (win), UNNEST(range(0, 8)) AS o(o)), "
            "tok AS (SELECT doc_id, toks[i] AS tok, i AS p "
            "FROM dt, UNNEST(range(1, len(toks) + 1)) AS u(i)) "
            "SELECT d.doc_id AS doc_id, "
            "coalesce(string_agg(t.tok, ' ' ORDER BY t.p) "
            "FILTER (WHERE c.p IS NULL), '') AS text "
            "FROM dt d "
            "LEFT JOIN tok t ON t.doc_id = d.doc_id "
            "LEFT JOIN cov c ON c.doc_id = t.doc_id AND c.p = t.p "
            "GROUP BY d.doc_id"
        ),
        "semdedup_embeddings_audit": (
            # SemDeDup n_lists=1 prune: drop b iff ANY a < b has quantized
            # fixed-point cosine >= floor(tau*1e6 + 0.5) — same q/floor
            # chain as embedding_neardup_audit, bit-identical to the kernel
            "WITH q AS (SELECT vec_id, list_transform("
            "CAST(embedding AS DOUBLE[]), x -> floor(x * 1024.0 + 0.5)) "
            "AS qe FROM embeddings), "
            "n AS (SELECT vec_id, qe, list_dot_product(qe, qe) AS nn FROM q), "
            "drops AS (SELECT DISTINCT b.vec_id AS vec_id "
            "FROM n a JOIN n b ON a.vec_id < b.vec_id "
            "WHERE a.nn > 0 AND b.nn > 0 AND "
            "floor(1000000.0 * (list_dot_product(a.qe, b.qe) / "
            "sqrt(a.nn * b.nn)) + 0.5) >= 400000) "
            "SELECT e.vec_id AS vec_id, CAST(0 AS BIGINT) AS cluster, "
            "d.vec_id IS NULL AS keep "
            "FROM embeddings e LEFT JOIN drops d USING (vec_id)"
        ),
        "lm_score_docs": (
            # smoothed-bigram ppm replay: same exact-int product, one IEEE
            # division, floor per term; integer per-doc sums
            "WITH tok AS (SELECT doc_id, regexp_extract_all(lower("
            "coalesce(text, '')), '[a-z0-9]+') AS t FROM documents), "
            "uni AS (SELECT t[i] AS w, count(*) AS c1 FROM tok, "
            "UNNEST(range(1, len(t) + 1)) AS u(i) GROUP BY w), "
            "v AS (SELECT count(*) AS vs FROM uni), "
            "big AS (SELECT doc_id, t[i] AS w1, t[i+1] AS w2 FROM tok, "
            "UNNEST(range(1, len(t))) AS u(i)), "
            "bc AS (SELECT w1, w2, count(*) AS c12 FROM big GROUP BY w1, w2), "
            "scored AS (SELECT b.doc_id, CAST(floor(1000000.0 * (bc.c12 + 1) "
            "/ (uni.c1 + v.vs)) AS BIGINT) AS p_ppm "
            "FROM big b JOIN bc ON b.w1 = bc.w1 AND b.w2 = bc.w2 "
            "JOIN uni ON uni.w = b.w1 CROSS JOIN v) "
            "SELECT tok.doc_id AS doc_id, "
            "CAST(coalesce(count(s.p_ppm), 0) AS BIGINT) AS n_bigrams, "
            "CAST(coalesce(sum(s.p_ppm), 0) AS BIGINT) AS sum_p_ppm "
            "FROM tok LEFT JOIN scored s ON s.doc_id = tok.doc_id "
            "GROUP BY tok.doc_id"
        ),
        "media_features_codecs": (
            # every synthesized payload must decode (decode_ok TRUE) and
            # carry the deterministic id→format cycle
            "SELECT doc_id AS media_id, "
            "CASE CAST(doc_id % 5 AS INT) WHEN 0 THEN 'pnm' WHEN 1 THEN 'bmp' "
            "WHEN 2 THEN 'png' WHEN 3 THEN 'gif' ELSE 'jpeg' END AS fmt, "
            "TRUE AS decode_ok FROM documents"
        ),
    }
