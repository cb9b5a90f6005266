"""Local replica of the driver's correctness gate: run every ``queries()``
entry at sf0.001 and compare the SQL-oracled ones against DuckDB
(row count + schema + order-insensitive values)."""

from __future__ import annotations

import math
import os

import duckdb
import pandas as pd
import pytest

# the checkout these tests belong to: its __ray_entry__.py is the one tested
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def test_entry_module_compiles_with_warnings_as_errors():
    """No invalid escape sequence in the oracle SQL literals (a
    ``SyntaxWarning`` on Python 3.12, an error in later versions)."""
    import warnings

    path = os.path.join(ROOT, "__ray_entry__.py")
    with open(path) as f:
        src = f.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(src, path, "exec")


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import importlib
    import sys

    sys.path.insert(0, ROOT)
    import __ray_entry__ as m

    importlib.reload(m)
    return m


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return c


def _to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        tbl = pa.concat_tables(
            list(result.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
            or [pa.table({})]
        )
        return tbl.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns), ignore_index=True)


def _compare(ray_df: pd.DataFrame, sql_df: pd.DataFrame, name: str):
    assert sorted(ray_df.columns) == sorted(sql_df.columns), (
        f"{name}: columns {sorted(ray_df.columns)} != {sorted(sql_df.columns)}"
    )
    assert len(ray_df) == len(sql_df), f"{name}: {len(ray_df)} rows != {len(sql_df)}"
    a, b = _canon(ray_df), _canon(sql_df)
    for c in a.columns:
        av, bv = a[c], b[c]
        if pd.api.types.is_float_dtype(av) or pd.api.types.is_float_dtype(bv):
            assert [round(float(x), 9) if not math.isnan(float(x)) else "nan" for x in av] == [
                round(float(x), 9) if not math.isnan(float(x)) else "nan" for x in bv
            ], f"{name}: column {c} float mismatch"
        else:
            av = av.astype(str).tolist()
            bv = bv.astype(str).tolist()
            assert av == bv, (
                f"{name}: column {c} mismatch; first diff at "
                f"{next((i for i, (x, y) in enumerate(zip(av, bv)) if x != y), None)}"
            )


def _compare_each(names, run, sql, label=str):
    """Run and compare every named query, then fail once listing each one
    that raised or differed, so one failing query hides none after it."""
    failures = []
    for name in names:
        try:
            _compare(_to_pandas(run(name)), sql(name), label(name))
        except Exception as e:  # noqa: BLE001
            failures.append(f"{name}: {e!r}")
    assert not failures, "\n".join(failures)


def test_sql_oracled_queries(entrymod, con):
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    assert set(oracles) <= set(qs)
    _compare_each(oracles, lambda n: qs[n](SF_DIR),
                  lambda n: con.execute(oracles[n]).fetchdf())


def test_local_sql_oracled_queries(entrymod, con):
    """Same gate as ``test_sql_oracled_queries`` for the queries whose
    oracles do NOT fit in the driver's (full) 50-entry window — they live in
    ``local_oracle_sql()`` instead of ``oracle_sql()``."""
    qs = entrymod.queries()
    locals_ = entrymod.local_oracle_sql()
    assert set(locals_) <= set(qs)
    assert not set(locals_) & set(entrymod.oracle_sql())
    _compare_each(locals_, lambda n: qs[n](SF_DIR),
                  lambda n: con.execute(locals_[n]).fetchdf())


def test_oracled_queries_precede_unoracled(entrymod):
    """Driver-window invariant (VERDICT r3 #1): the driver's correctness
    snapshot covers only the FIRST 50 ``queries()`` entries, so every query
    with an ``oracle_sql()`` entry must precede every query without one —
    and the oracled set must fit inside the window."""
    names = list(entrymod.queries())
    oracled = set(entrymod.oracle_sql())
    first_unoracled = next(i for i, n in enumerate(names) if n not in oracled)
    assert all(n not in oracled for n in names[first_unoracled:]), (
        "oracled query listed after a no-oracle query"
    )
    assert first_unoracled == len(oracled)
    assert len(oracled) <= 50, "oracled queries overflow the driver window"


def test_bench_rows_name_live_queries(entrymod):
    """A bench row naming a deleted query would only show as a KeyError
    when ``bench.py`` runs: every benched and summarized name must be a
    ``queries()`` entry."""
    import bench

    qs = set(entrymod.queries())
    assert set(bench.BENCH_QUERIES) <= qs, sorted(set(bench.BENCH_QUERIES) - qs)
    assert set(bench.SUMMARY_QUERIES) <= qs, sorted(set(bench.SUMMARY_QUERIES) - qs)


def test_rows_only_queries_run(entrymod):
    qs = entrymod.queries()
    oracles = set(entrymod.oracle_sql())
    for name, fn in qs.items():
        if name in oracles:
            continue
        df = _to_pandas(fn(SF_DIR))
        assert len(df) > 0, f"{name}: empty result"
        assert len(df.columns) > 0, name


def test_asof_range_join_no_click_user(entrymod, tmp_path):
    """Regression (ADVICE r1): a user with 'error' events but ZERO 'click'
    events must yield null last_click_ts / 0 n_recent_clicks, not crash."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    ts = pa.array(
        np.arange(10) * 60_000_000 + 1_700_000_000_000_000, pa.timestamp("us")
    )
    tbl = pa.table(
        {
            "event_id": pa.array(list(range(10)), pa.int64()),
            "user_id": pa.array([1, 1, 1, 2, 2, 3, 3, 3, 4, 4], pa.int64()),
            # user 2: errors only (the crash case); user 4: clicks only
            "event_type": pa.array(
                ["click", "error", "click", "error", "error",
                 "click", "click", "error", "click", "click"],
                pa.string(),
            ),
            "ts": ts,
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    oracles = entrymod.oracle_sql()
    qs = entrymod.queries()
    _compare_each(("events_asof_join", "events_range_join"),
                  lambda n: qs[n](str(tmp_path)),
                  lambda n: c.execute(oracles[n]).fetchdf())


def test_asof_range_join_wide_span_no_overflow(entrymod, tmp_path):
    """Regression (ADVICE r2): the old composite key (code·span + ts) wrapped
    int64 silently once n_users × ts-span exceeded 2^63 (~30k users × a
    10-year µs span). 5000 users over a ~290-year span would overflow it by
    ~400×; the accumulate/merge-rank kernels must match DuckDB exactly."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(3)
    n_users, per_user = 5000, 4
    n = n_users * per_user
    uid = np.repeat(np.arange(n_users, dtype=np.int64), per_user)
    # timestamps across ±145 years around 2000 (near the datetime64[us]-in-
    # int64 comfortable range): span ≈ 9.1e15 µs; 5000 × span ≈ 4.6e19 > 2^63
    ts = rng.integers(
        -4_500_000_000_000_000, 4_700_000_000_000_000, size=n, dtype=np.int64
    )
    et = rng.choice(np.asarray(["click", "error", "view"], dtype=object), size=n)
    # force some exact click/error ts ties (the inclusive-bound edge)
    et[0], et[1] = "click", "error"
    ts[1] = ts[0]
    uid[1] = uid[0]
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "user_id": pa.array(uid),
            "event_type": pa.array(et.tolist(), pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    oracles = entrymod.oracle_sql()
    qs = entrymod.queries()
    _compare_each(("events_asof_join", "events_range_join"),
                  lambda n: qs[n](str(tmp_path)),
                  lambda n: c.execute(oracles[n]).fetchdf())


def test_redact_docs_planted_emails(entrymod, tmp_path):
    """The shared testdata has no email-shaped spans, so the redaction
    oracle there only proves the pass-through; this corpus plants real
    matches (mixed case, multiples, near-misses, null text) and requires
    byte-identical pyarrow-vs-DuckDB regex replacement."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    texts = [
        "contact Bob.Smith+x@Example.COM now",
        "two a@b.io and c.d@e-f.org!",
        "no mail here",
        None,
        "edge @ not@an@email x@y.z",
        "a@b.co a@b.co a@b.co",
    ]
    tbl = pa.table(
        {"doc_id": pa.array(list(range(len(texts))), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    ray_df = _to_pandas(entrymod.queries()["redact_docs"](str(tmp_path)))
    sql_df = c.execute(entrymod.oracle_sql()["redact_docs"]).fetchdf()
    assert int(ray_df["n_emails"].sum()) == 6  # matches actually planted
    _compare(ray_df, sql_df, "redact_docs_planted")


def test_segment_dedup_planted_repeats(entrymod, tmp_path):
    """C4-style repeated-segment counts with a boilerplate sentence planted
    in 4 docs (>= the min_count threshold), one sentence at exactly 2
    occurrences (below it), and a null-text row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    boiler = "subscribe to our newsletter"
    twice = "cookie notice"
    texts = [
        f"{boiler}. unique alpha. {twice}",
        f"{boiler}. unique beta",
        f"{boiler}. unique gamma. {twice}",
        f"{boiler}. unique delta",
        None,
        "totally unrelated text",
    ]
    tbl = pa.table(
        {"doc_id": pa.array(list(range(len(texts))), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    ray_df = _to_pandas(entrymod.queries()["segment_dedup_docs"](str(tmp_path)))
    sql_df = c.execute(entrymod.oracle_sql()["segment_dedup_docs"]).fetchdf()
    by_id = ray_df.set_index("doc_id")
    assert int(by_id.loc[0, "n_dup_segments"]) == 1  # boiler yes, twice no
    assert int(by_id.loc[4, "n_segments"]) == 0  # null text
    _compare(ray_df, sql_df, "segment_dedup_planted")


def test_stratified_sample_null_lang(entrymod, tmp_path):
    """A NULL lang is its own stratum (SQL PARTITION BY semantics) — the
    sampler must neither crash on None-vs-str comparison nor fold nulls
    into another language."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    langs = (["en"] * 30 + [None] * 30 + ["de"] * 30) * 2
    tbl = pa.table(
        {"doc_id": pa.array(list(range(len(langs))), pa.int64()),
         "lang": pa.array(langs, pa.string())}
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    ray_df = _to_pandas(entrymod.queries()["stratified_sample_docs"](str(tmp_path)))
    sql_df = c.execute(entrymod.oracle_sql()["stratified_sample_docs"]).fetchdf()
    _compare(ray_df, sql_df, "stratified_sample_null_lang")


def test_top_tokens_unicode_oracle_parity(entrymod, tmp_path):
    """Regression (ADVICE r1): the top_tokens tokenizer must agree with its
    DuckDB oracle on NON-ASCII corpora, not just the all-ASCII testdata."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    texts = [
        "Crème brûlée und Straße — déjà vu naïve façade 42",
        "Ωμέγα καφές and café CAFÉ cafe",
        "日本語テキスト mixed with ascii tokens tokens",
        "ñandú piñata jalapeño 7up 7up 7up",
    ] * 3
    tbl = pa.table(
        {"doc_id": pa.array(list(range(len(texts))), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    ray_df = _to_pandas(entrymod.queries()["top_tokens"](str(tmp_path)))
    sql_df = c.execute(entrymod.oracle_sql()["top_tokens"]).fetchdf()
    _compare(ray_df, sql_df, "top_tokens_unicode")


def test_hamming_audit_planted_neardups(entrymod, tmp_path):
    """md5-simhash Hamming audit on a planted corpus: exact copies must pair
    at hamming 0, light edits at small hamming, and the Ray result must be
    bit-identical to the DuckDB replay — including <3-token docs (code 0)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = ("the quick brown fox jumps over the lazy dog and runs far away "
            "into the deep dark forest tonight") * 3
    texts = [
        base,
        base,  # exact copy → hamming 0
        base.replace("lazy", "sleepy", 1),  # one-word edit → small hamming
        "completely different content about cooking pasta with garlic "
        "butter and fresh basil leaves in a copper pan" * 2,
        "xy",  # <3 tokens → code 0
        "ab",  # <3 tokens → code 0 (pairs with the other at hamming 0)
    ]
    tbl = pa.table(
        {"doc_id": pa.array(list(range(len(texts))), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    ray_df = _to_pandas(entrymod.queries()["neardup_docs_hamming_audit"](str(tmp_path)))
    sql_df = c.execute(entrymod.oracle_sql()["neardup_docs_hamming_audit"]).fetchdf()
    pairs = {
        (int(s), int(d)): int(h)
        for s, d, h in zip(ray_df["src"], ray_df["dst"], ray_df["hamming"])
    }
    assert pairs[(0, 1)] == 0  # exact copy
    assert 0 < pairs[(0, 2)] <= 8  # light edit
    assert pairs[(4, 5)] == 0  # both shingle-less → code 0
    assert not any({0, 1} & {s, d} and 3 in (s, d) for s, d in pairs)
    _compare(ray_df, sql_df, "hamming_audit_planted")


def test_jaccard_audit_matches_bruteforce_on_random_corpora(entrymod, tmp_path):
    """The exact-pair audit pipeline (shared-shingle blocking + distributed
    intersection counts) must equal a naive driver brute force on random
    corpora — including pathological repetition and short docs."""
    import itertools
    import re

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    pat = re.compile(r"[a-z0-9]+")
    for seed in (7, 23, 99):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(15)]
        texts = []
        for _ in range(60):
            n = int(rng.integers(0, 25))
            texts.append(" ".join(rng.choice(vocab, size=n)))
        # plant true near-dups: suffix-extended copies of the first docs
        for i in range(8):
            texts.append(texts[i] + " w0 w1")
        d = tmp_path / f"corp{seed}"
        d.mkdir()
        pq.write_table(
            pa.table({"doc_id": pa.array(list(range(len(texts))), pa.int64()),
                      "text": pa.array(texts, pa.string())}),
            str(d / "documents.parquet"),
        )
        got = _to_pandas(entrymod.queries()["neardup_docs_jaccard_audit"](str(d)))
        got_pairs = (
            set(zip(got["src"].tolist(), got["dst"].tolist()))
            if "src" in got.columns else set()
        )
        # driver brute force
        sets = [
            {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}
            for toks in (pat.findall(t.lower()) for t in texts)
        ]
        exp = set()
        for a, b in itertools.combinations(range(len(texts)), 2):
            u = sets[a] | sets[b]
            if u and len(sets[a] & sets[b]) / len(u) >= 0.5:
                exp.add((a, b))
        assert got_pairs == exp, f"seed {seed}"


def test_sort_merge_join_random_vs_duckdb(entrymod, ray_session):
    """Property check of the custom sort-merge join operator against DuckDB
    inner-join semantics on randomized tables: null keys never match,
    many-to-many keys produce the full cross product, keys missing from one
    side drop out."""
    import numpy as np
    import pyarrow as pa

    import ray.data
    from dedupe_ray.stages.joins import sort_merge_join

    for seed in (1, 17, 202):
        rng = np.random.default_rng(seed)
        n_l, n_r = int(rng.integers(5, 120)), int(rng.integers(5, 120))
        lk = [int(k) if rng.random() > 0.1 else None for k in rng.integers(0, 15, n_l)]
        rk = [int(k) if rng.random() > 0.1 else None for k in rng.integers(0, 15, n_r)]
        left = pa.table({"k": pa.array(lk, pa.int64()),
                         "lv": pa.array(rng.integers(0, 1000, n_l), pa.int64())})
        right = pa.table({"rk": pa.array(rk, pa.int64()),
                          "rv": pa.array(rng.integers(0, 1000, n_r), pa.int64())})
        got = pa.concat_tables(
            list(
                sort_merge_join(
                    ray.data.from_arrow(left), ray.data.from_arrow(right),
                    left_on="k", right_on="rk",
                ).iter_batches(batch_size=1 << 20, batch_format="pyarrow")
            )
        )
        c = duckdb.connect()
        c.register("l", left)
        c.register("r", right)
        exp = c.execute(
            "SELECT k, lv, rv FROM l JOIN r ON l.k = r.rk"
        ).fetch_arrow_table()
        key = lambda t: sorted(zip(*[t.column(c_).to_pylist() for c_ in ("k", "lv", "rv")]))
        assert key(got) == key(exp), f"seed {seed}"


def test_entry_smoke(entrymod):
    df = _to_pandas(entrymod.entry())
    assert len(df) >= 500  # sf0.001 documents → >= 500 pages
    assert "cluster_id" in df.columns and "is_canonical" in df.columns
    # planted variants (doc_id % 5 == 0) must cluster with their base
    base = df[df.url.str.endswith("/base")].copy()
    var = df[df.url.str.endswith("/variant")].copy()
    assert len(var) > 0
    base["key"] = base.url.str.split("/").str[-2]
    var["key"] = var.url.str.split("/").str[-2]
    merged = var.merge(base, on="key", suffixes=("_v", "_b"))
    frac = (merged.cluster_id_v == merged.cluster_id_b).mean()
    assert frac >= 0.95, frac


def test_corpus_stats_planted(entrymod, tmp_path):
    """dup_rate_per_source / vocab_stats / neardup_docs_minhash_audit on a
    planted corpus with hand-computed answers, plus bit-parity vs the DuckDB
    oracles — including NULL source/lang/text (coalesced to '' both engines)
    and <3-token docs (no minhash rows on either engine)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = [
        # (doc_id, text, lang, source)
        (0, "alpha beta gamma alpha", "en", "siteA"),
        (1, "alpha beta gamma alpha", "en", "siteA"),  # exact dup in siteA
        (2, "delta epsilon zeta eta theta", "en", "siteA"),
        (3, "alpha beta", "de", "siteB"),  # <3 tokens -> no minhash rows
        (4, None, None, None),  # NULL text/lang/source -> '' groups
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
            "source": pa.array([r[3] for r in rows], pa.string()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    q, o = entrymod.queries(), entrymod.oracle_sql()

    dup = _to_pandas(q["dup_rate_per_source"](str(tmp_path)))
    by_src = {r["source"]: r for _, r in dup.iterrows()}
    assert (by_src["siteA"]["n_docs"], by_src["siteA"]["n_distinct"],
            by_src["siteA"]["n_dup_docs"]) == (3, 2, 1)
    assert (by_src["siteB"]["n_docs"], by_src["siteB"]["n_dup_docs"]) == (1, 0)
    assert by_src[""]["n_docs"] == 1  # NULL source coalesced
    _compare(dup, c.execute(o["dup_rate_per_source"]).fetchdf(), "dup_rate_planted")

    voc = _to_pandas(q["vocab_stats"](str(tmp_path)))
    by_lang = {r["lang"]: r for _, r in voc.iterrows()}
    # en: docs 0,1,2 -> 13 tokens total, distinct {alpha beta gamma delta
    # epsilon zeta eta theta} = 8
    assert (by_lang["en"]["total_tokens"], by_lang["en"]["distinct_tokens"]) == (13, 8)
    assert (by_lang["de"]["total_tokens"], by_lang["de"]["distinct_tokens"]) == (2, 2)
    assert "" not in by_lang  # NULL-lang doc has no tokens -> no group
    _compare(voc, c.execute(o["vocab_stats"]).fetchdf(), "vocab_planted")

    mh = _to_pandas(q["neardup_docs_minhash_audit"](str(tmp_path)))
    sig = {
        did: sorted(zip(g["slot"], g["minhash"])) for did, g in mh.groupby("doc_id")
    }
    assert sig[0] == sig[1]  # exact copies share the full signature
    assert sig[0] != sig[2]
    assert set(sig) == {0, 1, 2}  # doc 3 (<3 tokens) and doc 4 emit nothing
    assert all(len(s) == 8 for s in sig.values())
    _compare(mh, c.execute(o["neardup_docs_minhash_audit"]).fetchdf(), "minhash_planted")


def test_validate_docs_planted_violations(entrymod, tmp_path):
    """The shared testdata is clean (every rule would read 0), so this corpus
    plants one violation of every kind — null text, empty text, an n_chars
    that disagrees with length(text), a malformed lang tag, and a duplicated
    doc_id — and requires the Ray counts to match DuckDB's on the same
    planted file."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tbl = pa.table(
        {"doc_id": pa.array([0, 1, 2, 3, 4, 4], pa.int64()),
         "text": pa.array(["ok text", None, "", "short", "fine", "fine"], pa.string()),
         "lang": pa.array(["en", "de", "fr", "ENGLISH", "es", "es"], pa.string()),
         "n_chars": pa.array([7, 0, 0, 999, 4, 4], pa.int64())}
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    ray_df = _to_pandas(entrymod.queries()["validate_docs"](str(tmp_path)))
    sql_df = c.execute(entrymod.local_oracle_sql()["validate_docs"]).fetchdf()
    got = dict(zip(ray_df["rule"], ray_df["n_violations"]))
    assert got == {
        "null_text": 1, "empty_text": 1, "n_chars_mismatch": 1,
        "bad_lang": 1, "dup_doc_id": 1,
    }
    _compare(ray_df, sql_df, "validate_docs_planted")


def test_normalize_docs_planted_unicode(entrymod, tmp_path):
    """The shared testdata is ASCII, so the normalize oracle there proves
    little; this corpus plants composed/decomposed accents (NFC must merge
    e+combining-acute with é), unicode uppercase, tab/newline runs, and
    leading/trailing space — pyarrow(utf8proc) and DuckDB must agree
    byte-for-byte."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    texts = [
        "Café  vs Café",      # NFC: both sides become café
        "\tTabs\n and  newlines ",
        "ÉCOLE Française",
        "already normal",
        "",
    ]
    tbl = pa.table(
        {"doc_id": pa.array(list(range(len(texts))), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    ray_df = _to_pandas(entrymod.queries()["normalize_docs"](str(tmp_path)))
    sql_df = c.execute(entrymod.local_oracle_sql()["normalize_docs"]).fetchdf()
    _compare(ray_df, sql_df, "normalize_docs_planted")
    by_id = dict(zip(ray_df["doc_id"], ray_df["norm_text"]))
    assert by_id[0] == "café vs café"
    assert by_id[1] == "tabs and newlines"
    assert bool(ray_df.set_index("doc_id")["changed"][3]) is False


def test_snapshot_diff_all_statuses(entrymod, ray_session):
    """The deterministic snapshot rules must yield every status, with counts
    derivable from the id arithmetic on the real table."""
    import pyarrow.parquet as pq

    from dedupe_ray.pipelines.queries import snapshot_diff_docs

    ids = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id"]
    ).column("doc_id").to_pylist()
    expect = {"added": 0, "removed": 0, "changed": 0, "unchanged": 0}
    for i in ids:
        cur, prev = i % 11 != 5, i % 10 != 9
        if cur and not prev:
            expect["added"] += 1
        elif prev and not cur:
            expect["removed"] += 1
        elif cur and prev:
            expect["changed" if i % 7 == 0 else "unchanged"] += 1
    df = _to_pandas(snapshot_diff_docs(SF_DIR))
    got = df["status"].value_counts().to_dict()
    assert got == {k: v for k, v in expect.items() if v > 0}
    assert all(v > 0 for v in expect.values())


def test_segment_rewrite_planted_boilerplate(entrymod, tmp_path):
    """Rewrite must drop exactly the ≥3-occurrence boilerplate segment,
    keep the 2-occurrence one, preserve segment order, and agree with the
    SQL string_agg rebuild byte-for-byte (incl. a null-text row and a doc
    whose every segment is boilerplate)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    bp = "subscribe to our newsletter"
    texts = [
        f"alpha one. {bp}. beta two",
        f"{bp}. gamma three. twice seen",
        f"delta four. {bp}. twice seen",
        bp,
        None,
    ]
    tbl = pa.table(
        {"doc_id": pa.array(list(range(len(texts))), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    ray_df = _to_pandas(entrymod.queries()["segment_rewrite_docs"](str(tmp_path)))
    sql_df = c.execute(entrymod.local_oracle_sql()["segment_rewrite_docs"]).fetchdf()
    _compare(ray_df, sql_df, "segment_rewrite_planted")
    by_id = dict(zip(ray_df["doc_id"], ray_df["clean_text"]))
    assert by_id[0] == "alpha one. beta two"
    assert by_id[1] == "gamma three. twice seen"
    assert by_id[3] == ""      # all-boilerplate doc empties out
    assert by_id[4] == ""      # null text


def test_multiblock_doc_oracles_sf01(entrymod, ray_session):
    """The documents table is ONE read block at sf0.001/sf0.01 (500 rows <
    the 1k single-block threshold), so the main oracle gates never exercise
    multi-block partial-merge paths for document queries. This pins a
    representative subset at sf0.1 (5000 docs → 8 blocks): driver-merge
    top-k (stratified sample), tagged-union range partition (snapshot
    diff), and the two-pipeline validation audit."""
    sf = "/root/testdata/sf0.1"
    c = duckdb.connect()
    for t in ("documents",):
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    qs = entrymod.queries()
    oracles = {**entrymod.oracle_sql(), **entrymod.local_oracle_sql()}
    _compare_each(("stratified_sample_docs", "snapshot_diff_docs",
                   "validate_docs"),
                  lambda n: qs[n](sf), lambda n: c.execute(oracles[n]).fetchdf(),
                  label=lambda n: f"{n}@sf0.1")


def test_media_neardup_recovers_planted_groups(entrymod, ray_session):
    """The image near-dup pipeline (decode → dhash → banding → hamming
    verify → union-find) must merge every planted 3-variant image group
    and never merge across groups."""
    df = _to_pandas(entrymod.queries()["media_neardup"](SF_DIR))
    assert len(df) == 500
    df = df.assign(g=df.media_id // 3)
    assert df.groupby("g").cluster_id.nunique().eq(1).all()
    assert df.groupby("cluster_id").g.nunique().eq(1).all()


def test_all_queries_total_on_empty_corpus(entrymod, ray_session, tmp_path):
    """Totality sweep: every query must run (and return an empty result)
    on a ZERO-ROW corpus — Ray emits no blocks and reports no schema for
    empty datasets, so every driver-side collect needs an explicit
    empty-case shape and every join/vector query an early-out."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    for t in TABLES:
        src = pq.read_table(f"{SF_DIR}/{t}.parquet")
        pq.write_table(src.slice(0, 0), str(tmp_path / f"{t}.parquet"))
    # scalar/summary aggregates legitimately return rows on empty input
    # (SQL count() over empty = one 0-row; validate_docs reports every
    # rule at 0)
    scalar_rows = {"distinct_users_exact": 1, "validate_docs": 5,
                   # fixture-driven: ignores the corpus, always one row
                   "flagship_f1": 1}
    failures = []
    for name, fn in entrymod.queries().items():
        try:
            r = fn(str(tmp_path))
            n = (r.count() if isinstance(r, ray.data.Dataset)
                 else (r.num_rows if isinstance(r, pa.Table) else len(r)))
            assert n == scalar_rows.get(name, 0), (
                f"{name}: {n} rows from an empty corpus"
            )
        except Exception as ex:  # noqa: BLE001
            failures.append(f"{name}: {ex!r}"[:200])
    assert not failures, "\n".join(failures)


def test_all_queries_total_on_one_row_corpus(entrymod, ray_session, tmp_path):
    """Totality on a ONE-ROW corpus: singleton groups, n−1 divisions,
    fewer query vectors than requested, and sliced-away foreign keys (the
    1-row lineitem's orderkey is absent from the 1-row orders) must all
    degrade gracefully — this sweep caught the ANN reshape, the IVF
    n_lists precondition, and an out-of-bounds fact-table probe."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    for t in TABLES:
        src = pq.read_table(f"{SF_DIR}/{t}.parquet")
        pq.write_table(src.slice(0, 1), str(tmp_path / f"{t}.parquet"))
    failures = []
    for name, fn in entrymod.queries().items():
        try:
            r = fn(str(tmp_path))
            if isinstance(r, ray.data.Dataset):
                r.count()
        except Exception as ex:  # noqa: BLE001
            failures.append(f"{name}: {ex!r}"[:200])
    assert not failures, "\n".join(failures)


def _local_oracle_keys():
    # collection-time import (no Ray session needed to list keys)
    import sys

    sys.path.insert(0, ROOT)
    import __ray_entry__ as m

    return sorted(m.local_oracle_sql())


@pytest.fixture(scope="module")
def con01():
    sf = "/root/testdata/sf0.1"
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    return c


@pytest.mark.parametrize("name", _local_oracle_keys())
def test_local_oracles_full_sweep_sf01(entrymod, con01, name):
    """VERDICT r4 #4: EVERY local-oracled query swept at sf0.1 — the
    multi-block regime (documents 5000 rows → 8 blocks, events/tpch tables
    at full sf0.1 size), where partial-merge, range-partition and
    driver-merge paths actually fan out. The sf0.001 gate above stays as
    the fast signal; this one is the scale-shape gate."""
    ray_df = _to_pandas(entrymod.queries()[name]("/root/testdata/sf0.1"))
    sql_df = con01.execute(entrymod.local_oracle_sql()[name]).fetchdf()
    _compare(ray_df, sql_df, f"{name}@sf0.1")


def test_semdedup_drops_planted_copies(entrymod, ray_session):
    """SemDeDup main path (k-means, n_lists=10): deterministic perturbed
    copies (cosine ≈ 0.998 to their source) must land in their source's
    cluster and be dropped at tau=0.9, while every original survives (max
    original-pair cosine in the testdata is ~0.6)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from dedupe_ray.stages.ann import semdedup

    base = _to_pandas(
        ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")
        .select_columns(["vec_id", "embedding"])
    )
    ids = base.vec_id.to_numpy()
    mat = np.stack(base.embedding.to_numpy()).astype(np.float64)
    pick = ids % 10 == 0
    noise = np.stack([
        np.random.default_rng(int(i)).normal(0, 0.02, mat.shape[1])
        for i in ids[pick]
    ])
    all_ids = np.concatenate([ids, ids[pick] + 1_000_000])
    all_mat = np.concatenate([mat, mat[pick] + noise]).astype(np.float32)
    tbl = pa.table(
        {"vec_id": pa.array(all_ids, pa.int64()),
         "embedding": pa.FixedSizeListArray.from_arrays(
             pa.array(all_mat.reshape(-1), pa.float32()), all_mat.shape[1])}
    )
    out = _to_pandas(
        semdedup(ray.data.from_arrow(tbl), dim=mat.shape[1],
                 n_lists=10, tau=0.9)
    ).set_index("vec_id")
    planted = ids[pick] + 1_000_000
    assert len(out) == len(all_ids)
    assert out.loc[ids, "keep"].all(), "no original may drop at tau=0.9"
    same_cluster = (
        out.loc[planted, "cluster"].to_numpy()
        == out.loc[ids[pick], "cluster"].to_numpy()
    )
    dropped = ~out.loc[planted, "keep"].to_numpy()
    # SemDeDup's documented recall limit: a copy whose noise pushes it
    # across a k-means boundary never meets its source (the paper's known
    # trade for sub-quadratic cost) — every SAME-cluster copy must drop,
    # and boundary escapes must be rare
    assert dropped[same_cluster].all(), "every same-cluster copy drops"
    assert dropped.mean() >= 0.9, f"recall {dropped.mean():.2f} < 0.9"
    assert same_cluster.mean() >= 0.9


def test_dedup_spans_planted_semantics(entrymod, ray_session, tmp_path):
    """Hand-computable ExactSubstr semantics: an 8-token boilerplate window
    shared by two docs is removed from BOTH (span-union covers overlapping
    hits); a doc with no repeated window is untouched; exact duplicate docs
    blank entirely; short docs (<8 tokens) pass through."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dedupe_ray.pipelines import queries as Q

    boiler = "b1 b2 b3 b4 b5 b6 b7 b8"
    docs = pa.table(
        {"doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
         "text": pa.array([
             f"u1 u2 {boiler} u3 u4",         # boilerplate mid-doc
             f"{boiler} v1 v2 v3 v4 v5",      # boilerplate at start
             "w1 w2 w3 w4 w5 w6 w7 w8 w9",    # unique -> untouched
             "d1 d2 d3 d4 d5 d6 d7 d8 d9",    # exact dup pair ->
             "d1 d2 d3 d4 d5 d6 d7 d8 d9",    #   both blank fully
             "s1 s2 s3",                      # <8 tokens -> untouched
         ], pa.string())}
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = _to_pandas(Q.dedup_spans_docs(str(tmp_path))).set_index("doc_id")
    assert out.loc[0, "text"] == "u1 u2 u3 u4"
    assert out.loc[1, "text"] == "v1 v2 v3 v4 v5"
    assert out.loc[2, "text"] == "w1 w2 w3 w4 w5 w6 w7 w8 w9"
    assert out.loc[3, "text"] == "" and out.loc[4, "text"] == ""
    assert out.loc[5, "text"] == "s1 s2 s3"


def test_dedup_spans_and_lm_score_match_naive_reference(entrymod, ray_session, tmp_path):
    """Randomized cross-check against straight-line Python references: a
    small-vocabulary random corpus (forced window repeats) must reproduce
    the naive ExactSubstr rewrite and the naive smoothed-bigram ppm scores
    exactly — independent of the SQL oracles and of block structure."""
    import re
    from collections import Counter

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dedupe_ray.pipelines import queries as Q

    rng = np.random.default_rng(42)
    vocab = [f"t{i}" for i in range(12)]  # tiny vocab -> repeats guaranteed
    texts = [" ".join(rng.choice(vocab, size=int(n)))
             for n in rng.integers(0, 40, size=120)]
    texts[5] = texts[6] = " ".join(rng.choice(vocab, size=20))  # long dup pair
    docs = pa.table({"doc_id": pa.array(np.arange(120), pa.int64()),
                     "text": pa.array(texts, pa.string())})
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    pat = re.compile("[a-z0-9]+")
    toks = [pat.findall(t.lower()) for t in texts]

    # --- naive ExactSubstr (w=8, min_count=2) ---
    w = 8
    wc = Counter()
    for tk in toks:
        for i in range(len(tk) - w + 1):
            wc[" ".join(tk[i:i + w])] += 1
    rep = {k for k, v in wc.items() if v >= 2}
    want_spans = []
    for tk in toks:
        cov = [False] * len(tk)
        for i in range(len(tk) - w + 1):
            if " ".join(tk[i:i + w]) in rep:
                for j in range(i, i + w):
                    cov[j] = True
        want_spans.append(" ".join(t for t, c in zip(tk, cov) if not c))
    got = _to_pandas(Q.dedup_spans_docs(str(tmp_path))).set_index("doc_id")
    assert [got.loc[i, "text"] for i in range(120)] == want_spans
    assert got.loc[5, "text"] == "" == got.loc[6, "text"]  # ≥8-token dups blank

    # --- naive smoothed-bigram ppm ---
    uni = Counter(t for tk in toks for t in tk)
    bi = Counter((a, b) for tk in toks for a, b in zip(tk, tk[1:]))
    v = len(uni)
    import math
    want_n, want_s = [], []
    for tk in toks:
        ps = [math.floor(1e6 * (bi[(a, b)] + 1) / (uni[a] + v))
              for a, b in zip(tk, tk[1:])]
        want_n.append(len(ps))
        want_s.append(sum(ps))
    lm = _to_pandas(Q.lm_score_docs(str(tmp_path))).set_index("doc_id")
    assert [int(lm.loc[i, "n_bigrams"]) for i in range(120)] == want_n
    assert [int(lm.loc[i, "sum_p_ppm"]) for i in range(120)] == want_s


def test_flagship_f1_query_meets_north_star(entrymod):
    """The north-star gate surfaced as a query: one row, F1 ≥ 0.99 (ppm)."""
    df = _to_pandas(entrymod.queries()["flagship_f1"](SF_DIR))
    assert len(df) == 1
    assert int(df.f1_ppm[0]) >= 990_000, df
    assert int(df.precision_ppm[0]) >= 990_000
    assert int(df.recall_ppm[0]) >= 990_000
