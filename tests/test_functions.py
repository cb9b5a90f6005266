"""Unit tests for the pure kernels — the port of the reference's test strategy
(SURVEY.md §5): metric-property tests (hash_test.go:10-59), known-output
kernel tests (hash_test.go:61-79), golden-value tests (resize_test.go:37-237).
No Ray needed here.
"""

from __future__ import annotations

import numpy as np
import pytest

from dedupe_ray.functions.hashing import hash_token, hash_tokens, hash_url, shingle_hashes
from dedupe_ray.functions.metrics import (
    hamming64,
    jaccard_exact,
    jaccard_minhash,
    jaro_winkler,
)
from dedupe_ray.functions.minhash import MinHasher
from dedupe_ray.functions.simhash import simhash64, simhash64_batch
from dedupe_ray.functions.text import extract_text, normalize_tokens
from dedupe_ray.functions.langid import LangIdentifier
from dedupe_ray.functions.fingerprint import winnow_fingerprint


# ---- Hamming metric properties (↔ /root/reference/hash/hash_test.go:10-59) --


class TestHammingMetric:
    def test_identity(self):
        assert hamming64(0xDEADBEEF, 0xDEADBEEF) == 0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 2**63, size=100, dtype=np.uint64)
        b = rng.integers(0, 2**63, size=100, dtype=np.uint64)
        assert np.array_equal(hamming64(a, b), hamming64(b, a))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        a, b, c = (rng.integers(0, 2**63, size=200, dtype=np.uint64) for _ in range(3))
        assert np.all(hamming64(a, c) <= hamming64(a, b) + hamming64(b, c))

    def test_known_value(self):
        # d(0x0, 0xf) == 4, the reference's pinned case (hash_test.go)
        assert hamming64(0x0, 0xF) == 4

    def test_max(self):
        assert hamming64(0, 0xFFFFFFFFFFFFFFFF) == 64

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2**63, size=50, dtype=np.uint64)
        b = rng.integers(0, 2**63, size=50, dtype=np.uint64)
        vec = hamming64(a, b)
        for i in range(50):
            assert vec[i] == bin(int(a[i]) ^ int(b[i])).count("1")


# ---- determinism / known outputs ------------------------------------------


class TestDeterminism:
    def test_hash_token_stable(self):
        # pinned golden value — must never change across runs/processes
        assert hash_token("the") == hash_token("the")
        h = hash_token("hello")
        assert isinstance(h, int) and 0 <= h < 2**64

    def test_hash_url_range(self):
        assert 0 <= hash_url("https://example.com/a") < 2**63

    def test_uniform_doc_simhash(self):
        # analog of the all-white-image → Dhash 0 test (hash_test.go:61-79):
        # a single repeated token yields one unique shingle, so the simhash
        # IS that shingle's hash — and it is identical for any repeat count.
        s1 = simhash64("spam " * 10)
        s2 = simhash64("spam " * 1000)
        assert s1 == s2

    def test_empty_text(self):
        assert isinstance(simhash64(""), int)
        mh = MinHasher(num_perms=32)
        assert mh.text_signature("").shape == (32,)

    def test_batch_matches_scalar(self):
        texts = ["the quick brown fox jumps over the lazy dog", "hello world", "", "a b c d e f g"]
        batch = simhash64_batch(texts)
        for t, sig in zip(texts, batch):
            assert simhash64(t) == int(sig)

    def test_minhash_batch_matches_scalar(self):
        mh = MinHasher(num_perms=64)
        texts = ["one two three four five six", "seven eight nine ten", "one two three four five seven"]
        batch = mh.batch_signatures(texts)
        for i, t in enumerate(texts):
            assert np.array_equal(mh.text_signature(t), batch[i])


# ---- similarity behavior ---------------------------------------------------


class TestSimilarity:
    def _doc(self, rng, n=300):
        return " ".join(f"w{rng.integers(0, 500):03d}" for _ in range(n))

    def test_simhash_near_for_small_edits(self):
        rng = np.random.default_rng(42)
        base_toks = [f"w{rng.integers(0, 500):03d}" for _ in range(300)]
        edited = list(base_toks)
        for i in rng.choice(300, size=9, replace=False):  # 3% edits
            edited[i] = f"x{rng.integers(0, 500):03d}"
        d_near = hamming64(simhash64(" ".join(base_toks)), simhash64(" ".join(edited)))
        d_far = hamming64(simhash64(self._doc(rng)), simhash64(self._doc(rng)))
        assert d_near < 14 < d_far

    def test_minhash_estimates_jaccard(self):
        mh = MinHasher(num_perms=256, shingle_size=1)
        a = [f"t{i}" for i in range(0, 100)]
        b = [f"t{i}" for i in range(20, 120)]  # |∩|=80, |∪|=120 → J=2/3
        sa = mh.signature(shingle_hashes(hash_tokens(a), 1))
        sb = mh.signature(shingle_hashes(hash_tokens(b), 1))
        est = jaccard_minhash(sa, sb)
        assert abs(est - 2 / 3) < 0.12

    def test_jaccard_exact(self):
        assert jaccard_exact({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)
        assert jaccard_exact(set(), set()) == 1.0
        assert jaccard_exact({1}, set()) == 0.0


class TestJaroWinkler:
    def test_identity(self):
        assert jaro_winkler("martha", "martha") == 1.0

    def test_known_values(self):
        # classic textbook values
        assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.9611, abs=1e-3)
        assert jaro_winkler("DWAYNE", "DUANE") == pytest.approx(0.8400, abs=1e-3)
        assert jaro_winkler("DIXON", "DICKSONX") == pytest.approx(0.8133, abs=1e-3)

    def test_empty(self):
        assert jaro_winkler("", "abc") == 0.0
        assert jaro_winkler("", "") == 1.0

    def test_symmetry(self):
        assert jaro_winkler("kitten", "sitting") == jaro_winkler("sitting", "kitten")

    def test_batch_bit_identical_to_scalar(self):
        """The vectorized-across-pairs kernel (VERDICT r3 #2) must reproduce
        the scalar kernel EXACTLY — greedy match order, transposition count,
        prefix bonus, and IEEE op sequence — on randomized pairs including
        empties, unicode, prefix-share and the 512-char cap shape."""
        import random

        from dedupe_ray.functions.metrics import jaro_winkler_pairs

        random.seed(11)
        alpha = "abcdef "
        cases = []
        for _ in range(800):
            n1, n2 = random.randint(0, 40), random.randint(0, 40)
            s1 = "".join(random.choice(alpha) for _ in range(n1))
            s2 = "".join(random.choice(alpha) for _ in range(n2))
            if random.random() < 0.3:
                s2 = s1[: random.randint(0, n1)] + s2[:5]
            cases.append((s1, s2))
        cases += [
            ("", ""), ("", "a"), ("a", ""), ("abc", "abc"),
            ("MARTHA", "MARHTA"), ("DIXON", "DICKSONX"), ("ab", "ba"),
            ("x" * 512, "x" * 511 + "y"), ("日本語テスト", "日本語てすと"),
        ]
        got = jaro_winkler_pairs([a for a, _ in cases], [b for _, b in cases],
                                 chunk=97)
        exp = np.array([jaro_winkler(a, b) for a, b in cases])
        assert np.array_equal(got, exp)


# ---- extraction -----------------------------------------------------------


class TestExtractText:
    def test_basic(self):
        html = b"<html><head><title>T</title></head><body><p>Hello <b>world</b></p></body></html>"
        assert extract_text(html) == "T\nHello world"

    def test_script_style_comment_dropped(self):
        html = b"<p>keep</p><script>var x=1;</script><style>p{}</style><!-- no -->"
        assert extract_text(html) == "keep"

    def test_entities(self):
        assert extract_text(b"<p>a &amp; b &lt;c&gt; caf&eacute;</p>") == "a & b <c> café"

    def test_whitespace_collapse(self):
        assert extract_text(b"<p>  a\t\tb  </p>\n\n<p>c</p>") == "a b\nc"

    def test_inline_tags_no_separator(self):
        assert extract_text(b"<p>in<i>line</i>word</p>") == "inlineword"

    def test_invalid_utf8_replaced_not_fatal(self):
        # drop-and-continue analog of /root/reference/dedupe.go:55-58 —
        # a malformed payload still yields a deterministic string
        out = extract_text(b"<p>ok \xff\xfe</p>")
        assert out.startswith("ok")

    def test_tokens(self):
        assert normalize_tokens("Hello, World! it's 42_x") == ["hello", "world", "it", "s", "42", "x"]


# ---- langid / fingerprint -------------------------------------------------


class TestLangId:
    def test_obvious_languages(self):
        li = LangIdentifier()
        assert li.predict("the cat sat on the mat and it was happy with this") == "en"
        assert li.predict("der Hund und die Katze sind in dem Haus mit einer Maus") == "de"
        assert li.predict("le chat est dans la maison avec les souris et le chien") == "fr"
        assert li.predict("zzz qqq xxx") == "und"

    def test_batch_matches_scalar(self):
        """predict_batch is EXACTLY [predict(t) for t in texts] — the oracle
        (SQL replay of the scalar kernel) depends on this equivalence."""
        li = LangIdentifier()
        rng = np.random.default_rng(7)
        vocab = (
            "the of and to in was het de la que el en le les und der die das "
            "zzz qqq foo bar baz chat hund gato perro maison haus casa"
        ).split()
        texts = [
            "",  # zero tokens
            "   ,,, !!!",  # zero tokens after normalize
            "the of",  # below min_tokens
            "de la que en de la que en",  # fr/es shared tokens -> tie-break
            "the the the zzz zzz zzz zzz zzz zzz zzz zzz zzz zzz",  # near 0.08 gate
            "the cat sat on the mat and it was happy with this thing",
            "der hund und die katze sind in dem haus mit einer maus",
        ]
        # random soup, zero-token docs interleaved (exercises reduceat offsets)
        for i in range(60):
            n = int(rng.integers(0, 25))
            texts.append(" ".join(rng.choice(vocab, size=n)) if n else "")
        expect = [li.predict(t) for t in texts]
        got = li.predict_batch(texts)
        assert list(got) == expect
        # memo warm path: second call identical
        assert list(li.predict_batch(texts)) == expect


class TestFingerprint:
    def test_deterministic_and_robust(self):
        a = "the quick brown fox jumps over the lazy dog " * 5
        fp1 = winnow_fingerprint(a)
        fp2 = winnow_fingerprint(a)
        assert np.array_equal(fp1, fp2)
        # a prefix shift keeps most fingerprint hashes (position robustness)
        shifted = "PREFIX " + a
        fp3 = winnow_fingerprint(shifted)
        inter = len(np.intersect1d(fp1, fp3))
        assert inter / len(fp1) > 0.6

    def test_empty(self):
        assert len(winnow_fingerprint("")) == 0


class TestShingleFlatEquivalence:
    def test_flat_matches_per_doc(self):
        """shingle_hashes_flat must produce byte-identical values to the
        per-doc shingle_hashes for every doc-length class (long/short/empty)."""
        from dedupe_ray.functions.hashing import shingle_hashes_flat

        rng = np.random.default_rng(17)
        docs = []
        for n in [0, 1, 2, 3, 4, 10, 50, 0, 2, 100]:
            docs.append(rng.integers(0, 2**63, size=n, dtype=np.uint64))
        for k in (1, 2, 3, 5):
            flat = np.concatenate(docs) if docs else np.zeros(0, np.uint64)
            lens = np.array([len(d) for d in docs], dtype=np.int64)
            got_flat, got_off = shingle_hashes_flat(flat, lens, k)
            for i, d in enumerate(docs):
                want = shingle_hashes(d, k)
                got = got_flat[got_off[i] : got_off[i + 1]]
                assert np.array_equal(got, want), (k, i)

    def test_stage_matches_scalar_kernels(self):
        """SignatureStage batch output == scalar simhash64/MinHasher output."""
        import pyarrow as pa

        from dedupe_ray.config import NearDupConfig
        from dedupe_ray.functions.minhash import MinHasher
        from dedupe_ray.functions.simhash import simhash64
        from dedupe_ray.stages.signatures import SignatureStage

        texts = ["the quick brown fox jumps over the dog", "a b", "", "one one one one",
                 "x " * 200]
        tbl = pa.table({"url": [f"u{i}" for i in range(len(texts))], "text": texts,
                        "doc_id": pa.array(list(range(len(texts))), pa.int64())})
        cfg = NearDupConfig()
        stage = SignatureStage(cfg, emit_simhash=True, emit_minhash=True)
        out = stage(tbl)
        mh = MinHasher(cfg.minhash.num_perms, cfg.minhash.shingle_size, cfg.minhash.seed)
        for i, t in enumerate(texts):
            assert int(out.column("simhash")[i].as_py()) == simhash64(t, cfg.simhash.shingle_size)
            assert np.array_equal(
                np.asarray(out.column("minhash")[i].as_py(), dtype=np.uint32),
                mh.text_signature(t),
            )


class TestTokenHashMemo:
    @staticmethod
    def _batches(n_batches=3, docs=40, seed=5):
        import pyarrow as pa

        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(150)] + ["café", "naïve", "中文", "x©y"]
        return [
            pa.table({"text": [" ".join(rng.choice(vocab, size=int(rng.integers(0, 30))))
                               for _ in range(docs)]})
            for _ in range(n_batches)
        ]

    def test_hash_token_runs_once_per_distinct_token(self, monkeypatch):
        from collections import Counter

        from dedupe_ray.config import NearDupConfig
        from dedupe_ray.functions.text import normalize_tokens
        from dedupe_ray.stages import signatures

        calls = Counter()
        real = signatures.hash_token

        def counting(tok):
            calls[tok] += 1
            return real(tok)

        monkeypatch.setattr(signatures, "hash_token", counting)
        stage = signatures.SignatureStage(NearDupConfig())
        batches = self._batches()
        for b in batches:
            stage(b)
        distinct = {t for b in batches for d in b.column("text").to_pylist()
                    for t in normalize_tokens(d)}
        assert set(calls) == distinct and set(calls.values()) == {1}

    def test_cache_clear_keeps_signatures(self, monkeypatch):
        from dedupe_ray.config import NearDupConfig
        from dedupe_ray.functions.text import normalize_tokens
        from dedupe_ray.stages.signatures import SignatureStage

        batches = self._batches()
        want = [SignatureStage(NearDupConfig())(b).column("minhash") for b in batches]
        monkeypatch.setattr(SignatureStage, "_CACHE_MAX", 10)
        stage = SignatureStage(NearDupConfig())
        for b, w in zip(batches, want):
            assert stage(b).column("minhash").equals(w)
            # every batch after the first starts from a cleared memo
            assert set(stage.token_cache) == {
                t for d in b.column("text").to_pylist() for t in normalize_tokens(d)}


class TestFeatureSpaces:
    def test_registry_variants_match_scalar_path(self):
        """Each feature-space variant (M4 registry) drives the stage through
        the same shingle/hash machinery: stage output must equal the scalar
        kernel fed with that tokenizer's tokens."""
        import pyarrow as pa

        from dedupe_ray.config import NearDupConfig
        from dedupe_ray.functions.hashing import hash_tokens, shingle_hashes
        from dedupe_ray.functions.simhash import simhash_from_shingles
        from dedupe_ray.functions.text import FEATURE_TOKENIZERS
        from dedupe_ray.stages.signatures import SignatureStage

        texts = ["The quick brown fox, it JUMPED!", "a b", "", "don't stop 123"]
        tbl = pa.table({"text": texts})
        for feat, tok in FEATURE_TOKENIZERS.items():
            cfg = NearDupConfig(algo="simhash", feature=feat)
            out = SignatureStage(cfg)(tbl)
            for i, t in enumerate(texts):
                want = simhash_from_shingles(
                    shingle_hashes(hash_tokens(tok(t)), cfg.simhash.shingle_size)
                )
                assert int(out.column("simhash")[i].as_py()) == want, (feat, i)

    def test_char_feature_clusters_planted_dups(self, ray_session):
        """End-to-end flagship under the char feature space still clusters
        the planted near-duplicate variants with their base pages."""
        import pyarrow as pa
        import ray.data

        from dedupe_ray.config import NearDupConfig
        from dedupe_ray.fixtures.pages import generate_pages
        from dedupe_ray.pipelines.neardup import near_duplicates

        fx = generate_pages(n_pages=120, seed=5)
        out = pa.concat_tables(
            list(
                near_duplicates(
                    ray.data.from_arrow(fx.pages),
                    NearDupConfig(algo="minhash", feature="char"),
                    extract=False,
                ).iter_batches(batch_size=1 << 20, batch_format="pyarrow")
            )
        )
        assert out.num_rows == 120
        import collections

        by_url = dict(zip(out.column("url").to_pylist(),
                          out.column("cluster_id").to_pylist()))
        sites = collections.defaultdict(set)
        for url, cid in by_url.items():
            sites[url.split("/")[2]].add(cid)
        multi = [s for s, cids in sites.items() if len(cids) == 1 and s]
        # most planted sites (base + jitter variants) collapse to one cluster
        frac = len(multi) / max(1, len(sites))
        assert frac >= 0.9, frac


class TestOphMinHash:
    def test_oph_estimates_jaccard(self):
        """Densified OPH estimates must track exact Jaccard for sets larger
        than K (the regime it is designed for)."""
        from dedupe_ray.functions.hashing import hash_tokens

        mh = MinHasher(num_perms=128, shingle_size=1, seed=7, scheme="oph")
        for overlap, expect in ((400, 400 / 800), (550, 550 / 650)):
            a = [f"t{i}" for i in range(600)]
            b = [f"t{i}" for i in range(600 - overlap, 1200 - overlap)]
            sa = mh.signature(shingle_hashes(hash_tokens(a), 1))
            sb = mh.signature(shingle_hashes(hash_tokens(b), 1))
            est = jaccard_minhash(sa, sb)
            assert abs(est - expect) < 0.15, (overlap, est, expect)

    def test_oph_batch_matches_scalar_and_identity(self):
        mh = MinHasher(num_perms=64, shingle_size=3, seed=9, scheme="oph")
        texts = ["one two three four five six seven", "x " * 300, "a b", ""]
        batch = mh.batch_signatures(texts)
        for i, t in enumerate(texts):
            assert np.array_equal(mh.text_signature(t), batch[i]), i
        # identical docs → identical signatures (est 1.0)
        assert jaccard_minhash(batch[1], mh.text_signature("x " * 300)) == 1.0

    def test_oph_deterministic_and_validated(self):
        with pytest.raises(ValueError):
            MinHasher(num_perms=100, scheme="oph")  # not a power of two
        mh1 = MinHasher(num_perms=128, scheme="oph")
        mh2 = MinHasher(num_perms=128, scheme="oph")
        s1 = mh1.text_signature("the quick brown fox " * 30)
        assert np.array_equal(s1, mh2.text_signature("the quick brown fox " * 30))

    def test_oph_end_to_end_flagship(self):
        """The whole flagship works with scheme='oph' (rows + plausible F1
        at small scale; the fixture's small docs are OPH's worst case so the
        bar is lower than the kperm gate)."""
        # covered in tests/test_pipeline.py::TestOphFlagship (needs ray)

    def test_oph_densified_bands_stay_independent(self):
        """Regression for the circular-densification candidate explosion:
        short UNRELATED docs must not share LSH band keys through densified
        bins. With optimal densification the band-collision rate of disjoint
        docs stays near the kperm baseline (circular fill produced ~165×
        candidate blowup at bench scale)."""
        from dedupe_ray.config import MinHashConfig
        from dedupe_ray.stages.banding import minhash_band_table
        import pyarrow as pa

        rng = np.random.default_rng(11)
        n = 400
        # short docs (~20 tokens) over per-doc DISJOINT vocab → true J = 0
        texts = [
            " ".join(f"t{d}x{rng.integers(0, 40)}" for _ in range(20))
            for d in range(n)
        ]
        collisions = {}
        for scheme in ("kperm", "oph"):
            mh = MinHasher(128, 3, 5, scheme)
            sigs = mh.batch_signatures(texts)
            tbl = pa.table(
                {"doc_id": pa.array(list(range(n)), pa.int64()),
                 "minhash": pa.FixedSizeListArray.from_arrays(
                     pa.array(sigs.reshape(-1), pa.uint32()), 128)}
            )
            banded = minhash_band_table(tbl, MinHashConfig())
            keys = banded.column("band_key").to_numpy(zero_copy_only=False)
            _, counts = np.unique(keys, return_counts=True)
            collisions[scheme] = int((counts * (counts - 1) // 2).sum())
        # disjoint docs: kperm collisions ~0; oph must stay the same order,
        # not explode (circular fill gave thousands here)
        assert collisions["oph"] <= max(10, 10 * (collisions["kperm"] + 1)), collisions


class TestHll:
    def test_accuracy_and_merge(self):
        import hashlib

        from dedupe_ray.functions.hll import HllSketch

        rng = np.random.default_rng(3)
        values = rng.integers(0, 2**62, size=20000, dtype=np.uint64)
        uniq = len(np.unique(values))
        # strong 64-bit hashing of the values
        with np.errstate(over="ignore"):
            h = values * np.uint64(0x9E3779B97F4A7C15)
            h ^= h >> np.uint64(29); h *= np.uint64(0xBF58476D1CE4E5B9); h ^= h >> np.uint64(32)
        whole = HllSketch(p=12)
        whole.add_hashes(h)
        est = whole.estimate()
        assert abs(est - uniq) / uniq < 0.05, (est, uniq)
        # merge of disjoint partials == whole
        a, b = HllSketch(p=12), HllSketch(p=12)
        a.add_hashes(h[:10000]); b.add_hashes(h[10000:])
        a.merge(b)
        assert a.estimate() == whole.estimate()

    def test_small_range_linear_counting(self):
        from dedupe_ray.functions.hll import HllSketch

        sk = HllSketch(p=12)
        h = np.arange(1, 101, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        sk.add_hashes(h)
        assert abs(sk.estimate() - 100) < 10


class TestUrlNorm:
    def _one(self, u):
        import pyarrow as pa

        from dedupe_ray.functions.urlnorm import canonicalize_urls

        return canonicalize_urls(pa.array([u], pa.string()))[0].as_py()

    def test_case_www_port_fragment(self):
        assert (
            self._one("HTTP://WWW.Ex.COM:80/A/b/#frag")
            == "http://ex.com/A/b"
        )

    def test_https_default_port(self):
        assert self._one("https://a.com:443/x") == "https://a.com/x"

    def test_non_default_port_kept(self):
        assert self._one("http://a.com:8080/x") == "http://a.com:8080/x"

    def test_path_case_preserved(self):
        assert self._one("http://A.com/CaseSensitive") == "http://a.com/CaseSensitive"

    def test_tracking_params_stripped_and_sorted(self):
        assert (
            self._one("http://a.com/p?z=1&utm_source=x&a=2&fbclid=abc&gclid=9")
            == "http://a.com/p?a=2&z=1"
        )

    def test_all_params_tracking(self):
        assert self._one("http://a.com/p?utm_a=1&utm_b=2") == "http://a.com/p"

    def test_empty_path_becomes_root(self):
        assert self._one("http://a.com") == "http://a.com/"
        assert self._one("http://a.com/") == "http://a.com/"

    def test_query_without_path(self):
        assert self._one("http://a.com?b=2&a=1") == "http://a.com/?a=1&b=2"

    def test_unparseable_passthrough_and_null(self):
        import pyarrow as pa

        from dedupe_ray.functions.urlnorm import canonicalize_urls

        out = canonicalize_urls(pa.array(["not a url", None], pa.string()))
        assert out[0].as_py() == "not a url"
        assert out[1].as_py() is None

    def test_idempotent(self):
        u = "HTTPS://WWW.B.com:443/d/?utm_x=1&b=2&a=1#s"
        once = self._one(u)
        assert self._one(once) == once

    def test_matches_stdlib_reference(self):
        # cross-check against a scalar urllib-based canonicalizer on a grid
        # of synthetic urls covering every rule combination
        from urllib.parse import urlsplit

        import pyarrow as pa

        from dedupe_ray.functions.urlnorm import canonicalize_urls

        def scalar(u):
            sp = urlsplit(u)
            scheme = sp.scheme.lower()
            host = sp.netloc.lower()
            if host.startswith("www."):
                host = host[4:]
            if scheme == "http" and host.endswith(":80"):
                host = host[:-3]
            if scheme == "https" and host.endswith(":443"):
                host = host[:-4]
            path = sp.path
            if path.endswith("/") and len(path) > 1:
                path = path[:-1]
            path = path or "/"
            params = sorted(
                p
                for p in sp.query.split("&")
                if p and not p.startswith(("utm_", "fbclid", "gclid"))
            )
            q = "&".join(params)
            return scheme + "://" + host + path + ("?" + q if q else "")

        urls = []
        for scheme in ("http", "HTTPS"):
            for host in ("WWW.A.com", "b.Org:80", "c.net:443", "d.io:9"):
                for path in ("", "/", "/X/y/", "/z"):
                    for q in ("", "?utm_s=1", "?b=2&a=1&utm_c=3", "?k=v"):
                        for f in ("", "#frag"):
                            urls.append(f"{scheme}://{host}{path}{q}{f}")
        got = canonicalize_urls(pa.array(urls, pa.string())).to_pylist()
        want = [scalar(u) for u in urls]
        assert got == want


class TestQuantileSummary:
    def test_compress_preserves_weight_and_membership(self):
        from dedupe_ray.functions.quantile import compress

        rng = np.random.RandomState(7)
        v = rng.randn(10000)
        cv, cw = compress(v, np.ones(len(v), np.int64), 64)
        assert len(cv) <= 64
        assert cw.sum() == len(v)
        assert np.isin(cv, v).all()  # points are actual data values
        assert (np.diff(cv) >= 0).all()

    def test_rank_error_bound_after_merge(self):
        from dedupe_ray.functions.quantile import compress, merge, quantile

        rng = np.random.RandomState(11)
        v = np.r_[rng.randn(30000), rng.exponential(5, 20000)]
        k = 512
        parts = [
            compress(c, np.ones(len(c), np.int64), k)
            for c in np.array_split(v, 37)
        ]
        sv, sw = merge(parts, k)
        assert sw.sum() == len(v)
        vs = np.sort(v)
        for p in (0.01, 0.25, 0.5, 0.9, 0.99):
            q = quantile(sv, sw, p)
            rank = np.searchsorted(vs, q, side="left") / len(v)
            assert abs(rank - p) <= 3.0 / k, (p, rank)

    def test_merge_exact_when_small(self):
        from dedupe_ray.functions.quantile import compress, merge, quantile

        v = np.arange(100, dtype=np.float64)
        parts = [compress(c, np.ones(len(c), np.int64), 1024)
                 for c in np.array_split(v, 7)]
        sv, sw = merge(parts, 1024)
        # no compression occurred: summary is the exact sorted multiset
        assert (sv == v).all() and (sw == 1).all()
        assert quantile(sv, sw, 0.5) == 49.0

    def test_weight_above_2_53_keeps_maximum(self):
        # ADVICE r4: float64 grid rounding could drop the last grid point
        # below the total once total weight exceeds 2^53, losing the max
        # value and some weight. The pinned grid[-1] = total keeps both.
        from dedupe_ray.functions.quantile import compress, quantile

        v = np.arange(100, dtype=np.float64)
        w = np.full(100, (1 << 53) + 12345, dtype=np.int64)
        total = int(w.sum())
        cv, cw = compress(v, w, 16)
        assert int(cw.sum()) == total  # exact weight preservation
        assert cv[-1] == 99.0  # maximum value survives compression
        assert quantile(cv, cw, 1.0) == 99.0


class TestUrlnormLargeOffsets:
    def test_large_list_branch_matches_int32_branch(self, monkeypatch):
        # ADVICE r4: int32 ListArray offsets overflow past 2^31 surviving
        # params per batch. Force the int64 LargeListArray branch by lowering
        # the threshold and check byte-identical output on the same input.
        import pyarrow as pa

        from dedupe_ray.functions import urlnorm

        urls = pa.array(
            ["http://a.com/x?b=2&a=1&utm_s=9", "https://WWW.b.org/?z=1",
             None, "plain"],
            pa.string(),
        )
        want = urlnorm.canonicalize_urls(urls)
        monkeypatch.setattr(urlnorm, "_I32_OFFSET_MAX", 0)
        joined = []
        real_join = urlnorm.pc.binary_join

        def spy(lists, sep):
            joined.append(lists.type)
            return real_join(lists, sep)

        monkeypatch.setattr(urlnorm.pc, "binary_join", spy)
        got = urlnorm.canonicalize_urls(urls)
        # int64 offsets for the list AND its string values
        assert joined == [pa.large_list(pa.large_string())]
        assert got.equals(want)
