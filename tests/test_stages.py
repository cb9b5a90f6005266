"""Stage-level tests: ANN, multimodal plumbing, banding guarantees."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from dedupe_ray.config import MinHashConfig, SimHashConfig

# pinned output of dct_phash64 on the fixed 40×40 gradient plane below —
# catches accidental drift in the DCT/median/bit-layout spec
GOLDEN_DCT_PHASH = 0xCBA659B42A54AD4A


def _embeddings_ds(ray_session, n=300, d=32, seed=9):
    import ray.data

    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, d)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.reshape(-1), pa.float32()), d
            ),
        }
    )
    return ray.data.from_arrow(tbl), mat


class TestBruteForceTopk:
    def test_matches_numpy(self, ray_session):
        from dedupe_ray.stages.ann import brute_force_topk

        ds, mat = _embeddings_ds(ray_session)
        q = mat[:3].astype(np.float64)
        out = brute_force_topk(ds, q, k=5)
        # numpy reference
        m = mat.astype(np.float64)
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        sims = qn @ mn.T
        for qi in range(3):
            order = np.lexsort((np.arange(len(mat)), -sims[qi]))[:5]
            got = out.filter(pa.compute.equal(out.column("query_id"), qi))
            assert got.column("vec_id").to_pylist() == order.tolist()
            # rank 1 must be the query itself (similarity 1)
            assert got.column("vec_id").to_pylist()[0] == qi

    def test_partial_merge_across_blocks(self, ray_session):
        """Result must be identical regardless of block structure."""
        from dedupe_ray.stages.ann import brute_force_topk

        ds, mat = _embeddings_ds(ray_session)
        q = mat[:2].astype(np.float64)
        a = brute_force_topk(ds, q, k=7)
        b = brute_force_topk(ds.repartition(13), q, k=7)
        assert a.equals(b)


class TestIvfTopk:
    def test_full_probe_equals_brute_force(self, ray_session):
        """nprobe == n_lists must degrade to EXACT top-k (the IVF plumbing
        invariant: partition + merge loses nothing when every list is
        scanned)."""
        from dedupe_ray.stages.ann import brute_force_topk, ivf_topk

        ds, mat = _embeddings_ds(ray_session)
        q = mat[:3].astype(np.float64)
        exact = brute_force_topk(ds, q, k=5)
        full = ivf_topk(ds, q, dim=mat.shape[1], k=5, n_lists=8, nprobe=8)
        assert full.column("vec_id").to_pylist() == exact.column("vec_id").to_pylist()
        assert full.column("rank").to_pylist() == exact.column("rank").to_pylist()

    def test_partial_probe_recall_and_block_invariance(self, ray_session):
        from dedupe_ray.stages.ann import brute_force_topk, ivf_topk

        ds, mat = _embeddings_ds(ray_session)
        q = mat[:3].astype(np.float64)
        exact = brute_force_topk(ds, q, k=10)
        approx = ivf_topk(ds, q, dim=mat.shape[1], k=10, n_lists=8, nprobe=3)
        hits = 0
        for qi in range(3):
            e = set(
                exact.filter(pa.compute.equal(exact.column("query_id"), qi))
                .column("vec_id").to_pylist()
            )
            a = set(
                approx.filter(pa.compute.equal(approx.column("query_id"), qi))
                .column("vec_id").to_pylist()
            )
            assert qi in a  # the query's own vector lives in its top list
            hits += len(e & a)
        assert hits / 30 >= 0.3  # recall floor at 3/8 of the lists probed
        # deterministic across block structures
        b = ivf_topk(ds.repartition(13), q, dim=mat.shape[1], k=10, n_lists=8, nprobe=3)
        assert approx.equals(b)


class TestSrpCodes:
    def test_deterministic_and_similarity_preserving(self, ray_session):
        from dedupe_ray.functions.metrics import hamming64
        from dedupe_ray.stages.ann import srp_codes64

        ds, mat = _embeddings_ds(ray_session, n=100, d=32)
        t1 = pa.concat_tables(
            list(srp_codes64(ds, 32).iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        ).sort_by("doc_id")
        t2 = pa.concat_tables(
            list(srp_codes64(ds, 32).iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        ).sort_by("doc_id")
        assert t1.equals(t2)
        codes = t1.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        # a perturbed copy of v0 has a much closer code than a random vector
        v = mat[0] + 0.01 * np.random.default_rng(1).standard_normal(32).astype(np.float32)
        planes = np.random.default_rng(777).standard_normal((32, 64)).astype(np.float32)
        bits = (v @ planes > 0).astype(np.uint64)
        code_v = np.uint64(0)
        for b in range(64):
            code_v |= bits[b] << np.uint64(b)
        d_close = hamming64(codes[0], code_v)
        d_rand = int(np.median(hamming64(codes[0], codes[1:])))
        assert d_close < 10 < d_rand


class TestSortMergeJoin:
    def test_inner_semantics_and_multiplicity(self, ray_session):
        import ray.data

        from dedupe_ray.stages.joins import sort_merge_join

        left = ray.data.from_arrow(pa.table(
            {"k": pa.array([1, 2, 2, 3, 5], pa.int64()),
             "lv": pa.array(["a", "b", "c", "d", "e"], pa.string())}
        ))
        right = ray.data.from_arrow(pa.table(
            {"rk": pa.array([2, 2, 3, 4], pa.int64()),
             "rv": pa.array([10, 20, 30, 40], pa.int64())}
        ))
        out = pa.concat_tables(
            list(
                sort_merge_join(left, right, left_on="k", right_on="rk")
                .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
            )
        ).sort_by([("k", "ascending"), ("lv", "ascending"), ("rv", "ascending")])
        # k=2: 2 left × 2 right = 4 rows; k=3: 1×1; k=1,5 (left-only) and
        # k=4 (right-only) drop — inner-join semantics
        assert out.column("k").to_pylist() == [2, 2, 2, 2, 3]
        assert out.column("lv").to_pylist() == ["b", "b", "c", "c", "d"]
        assert out.column("rv").to_pylist() == [10, 20, 10, 20, 30]

    def test_column_collision_rejected(self, ray_session):
        import pytest as _pytest
        import ray.data

        from dedupe_ray.stages.joins import sort_merge_join

        left = ray.data.from_arrow(pa.table({"k": [1], "v": [1]}))
        right = ray.data.from_arrow(pa.table({"k": [1], "v": [2]}))
        with _pytest.raises(ValueError, match="collision"):
            sort_merge_join(left, right, left_on="k")


class TestMultimodal:
    def test_fake_decode_pipeline(self, ray_session):
        import ray.data

        from dedupe_ray.stages.multimodal import MediaFeatureStage

        tbl = pa.table(
            {
                "media_id": pa.array([1, 2, 3], pa.int64()),
                "url": ["a", "b", "c"],
                "media_type": ["image", "image", "audio"],
                "payload": pa.array([b"xx", None, b"yy"], pa.binary()),
                "width": pa.array([4, 4, 0], pa.int32()),
                "height": pa.array([4, 4, 0], pa.int32()),
                "duration_ms": pa.array([0, 0, 9], pa.int32()),
            }
        )
        ds = ray.data.from_arrow(tbl)
        out = pa.concat_tables(
            list(
                ds.map_batches(
                    MediaFeatureStage, batch_format="pyarrow", batch_size=2, concurrency=2
                ).iter_batches(batch_size=1 << 20, batch_format="pyarrow")
            )
        ).sort_by("media_id")
        assert out.column("decode_ok").to_pylist() == [True, False, True]
        assert "payload" not in out.column_names
        feats = out.column("features").to_pylist()
        assert len(feats[0]) == MediaFeatureStage.FEATURE_DIM
        # deterministic features
        stage = MediaFeatureStage()
        f1 = stage._decode_payload(b"xx", "image")
        assert np.allclose(feats[0], f1)

    @staticmethod
    def _ppm_bytes(gray: np.ndarray) -> bytes:
        h, w = gray.shape
        rgb = np.repeat(gray[:, :, None], 3, axis=2).astype(np.uint8)
        return b"P6\n# test\n%d %d\n255\n" % (w, h) + rgb.tobytes()

    @staticmethod
    def _bmp_bytes(gray: np.ndarray) -> bytes:
        h, w = gray.shape
        stride = (w * 3 + 3) & ~3
        rows = np.zeros((h, stride), np.uint8)
        px = np.repeat(gray[:, :, None], 3, axis=2).astype(np.uint8)
        rows[:, : w * 3] = px.reshape(h, w * 3)
        data = rows[::-1].tobytes()  # bottom-up
        off = 14 + 40
        header = (
            b"BM" + (off + len(data)).to_bytes(4, "little") + b"\0\0\0\0"
            + off.to_bytes(4, "little")
            + (40).to_bytes(4, "little")
            + w.to_bytes(4, "little", signed=True)
            + h.to_bytes(4, "little", signed=True)
            + (1).to_bytes(2, "little") + (24).to_bytes(2, "little")
            + (0).to_bytes(4, "little") + len(data).to_bytes(4, "little")
            + b"\0" * 16
        )
        return header + data

    def test_real_decode_ppm_bmp_dhash(self):
        """mode='real' genuinely decodes PNM/BMP without codec libs; a
        left-to-right brightness ramp makes every dhash gradient bit 1."""
        from dedupe_ray.stages.multimodal import MediaFeatureStage, decode_image

        ramp = np.tile(np.linspace(0, 255, 18, dtype=np.uint8), (16, 1))
        stage = MediaFeatureStage(mode="real")
        for payload in (self._ppm_bytes(ramp), self._bmp_bytes(ramp)):
            gray = decode_image(payload)
            assert gray.shape == (16, 18)
            feats = stage._decode_payload(payload, "image")
            assert feats.shape == (64,)
            assert np.all(feats == 1.0)  # monotone increasing rows
        # identical image via the two container formats → identical features
        f1 = stage._decode_payload(self._ppm_bytes(ramp), "image")
        f2 = stage._decode_payload(self._bmp_bytes(ramp), "image")
        assert np.array_equal(f1, f2)

    def test_real_mode_quarantines_undecodable(self, ray_session):
        import ray.data

        from dedupe_ray.stages.multimodal import MediaFeatureStage

        ramp = np.tile(np.linspace(0, 255, 10, dtype=np.uint8), (8, 1))
        tbl = pa.table(
            {
                "media_id": pa.array([1, 2, 3], pa.int64()),
                "url": ["a", "b", "c"],
                "media_type": ["image", "image", "audio"],
                "payload": pa.array(
                    [self._ppm_bytes(ramp), b"not-an-image", b"riff-audio"],
                    pa.binary(),
                ),
                "width": pa.array([10, 0, 0], pa.int32()),
                "height": pa.array([8, 0, 0], pa.int32()),
                "duration_ms": pa.array([0, 0, 9], pa.int32()),
            }
        )
        out = pa.concat_tables(
            list(
                ray.data.from_arrow(tbl)
                .map_batches(
                    MediaFeatureStage, fn_constructor_kwargs={"mode": "real"},
                    batch_format="pyarrow", batch_size=4, concurrency=1,
                )
                .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
            )
        ).sort_by("media_id")
        assert out.column("decode_ok").to_pylist() == [True, False, False]


    @staticmethod
    def _wav_bytes(samples: np.ndarray, rate: int = 8000, channels: int = 1) -> bytes:
        from dedupe_ray.stages.multimodal import encode_wav

        return encode_wav(samples, rate, channels)

    def test_real_audio_decode_wav(self):
        """16-bit PCM WAV decodes for real (pure numpy); stereo averages to
        mono; features are deterministic and shaped FEATURE_DIM."""
        from dedupe_ray.stages.multimodal import audio_features, decode_wav

        t = np.arange(4000) / 8000.0
        sig = 0.5 * np.sin(2 * np.pi * 440 * t)
        mono, rate = decode_wav(self._wav_bytes(sig))
        assert rate == 8000 and len(mono) == 4000
        assert np.abs(mono - sig).max() < 1e-3  # 16-bit quantization only
        stereo, _ = decode_wav(self._wav_bytes(sig, channels=2))
        assert np.allclose(stereo, mono)
        f = audio_features(mono)
        assert f.shape == (64,) and np.array_equal(f, audio_features(mono))
        assert f[0::2].max() > 0.1  # RMS of a loud sine
        # short clip: zero-padded, no crash
        assert audio_features(mono[:5]).shape == (64,)
        with pytest.raises(ValueError):
            decode_wav(b"RIFF....WAVEjunk")
        # truncated data chunk must raise (quarantine), not half-decode
        full = self._wav_bytes(sig)
        with pytest.raises(ValueError):
            decode_wav(full[: len(full) - 100])

    def test_real_video_frame_sample(self):
        """A concatenated-P5 frame stream decodes frame by frame; sampling
        every 2nd frame hashes 3 of 6; a constant stream equals the
        single-frame dhash."""
        from dedupe_ray.stages.multimodal import (
            dhash_features, iter_pnm_frames, video_features,
        )

        ramp = np.tile(np.linspace(0, 255, 18, dtype=np.uint8), (16, 1))
        frame = b"P5\n18 16\n255\n" + ramp.tobytes()
        stream = frame * 6
        frames = list(iter_pnm_frames(stream))
        assert len(frames) == 6 and frames[3].shape == (16, 18)
        feats = video_features(stream, sample_every=2)
        assert np.array_equal(feats, dhash_features(ramp.astype(np.float32)))
        with pytest.raises(ValueError):
            video_features(b"P5\n2 2\n255\n" + b"\x00")  # truncated frame
        # P6 color frames + algo dispatch: dct features over sampled frames
        from dedupe_ray.stages.multimodal import dct_features, decode_image

        rgb = np.repeat(ramp[:, :, None], 3, axis=2)
        p6 = b"P6\n18 16\n255\n" + rgb.tobytes()
        feats_dct = video_features(p6 * 3, sample_every=1, features=dct_features)
        assert np.array_equal(feats_dct, dct_features(decode_image(p6)))

    def test_media_stage_real_audio_video_quarantine(self, ray_session):
        """mode='real' routes audio→WAV decode, video→frame sampling; a
        corrupt payload of either type quarantines, the job continues."""
        import ray.data

        from dedupe_ray.stages.multimodal import MediaFeatureStage

        t = np.arange(2000) / 8000.0
        wav = self._wav_bytes(0.3 * np.sin(2 * np.pi * 200 * t))
        ramp = np.tile(np.linspace(0, 255, 10, dtype=np.uint8), (8, 1))
        vid = (b"P5\n10 8\n255\n" + ramp.tobytes()) * 4
        tbl = pa.table(
            {
                "media_id": pa.array([1, 2, 3, 4], pa.int64()),
                "url": ["a", "b", "c", "d"],
                "media_type": ["audio", "video", "audio", "video"],
                "payload": pa.array([wav, vid, b"not-audio", b"not-video"], pa.binary()),
                "width": pa.array([0] * 4, pa.int32()),
                "height": pa.array([0] * 4, pa.int32()),
                "duration_ms": pa.array([250, 0, 0, 0], pa.int32()),
            }
        )
        out = pa.concat_tables(
            list(
                ray.data.from_arrow(tbl)
                .map_batches(
                    MediaFeatureStage, fn_constructor_kwargs={"mode": "real"},
                    batch_format="pyarrow", batch_size=4, concurrency=1,
                )
                .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
            )
        ).sort_by("media_id")
        assert out.column("decode_ok").to_pylist() == [True, True, False, False]

    def test_dct_phash_matches_reference_formula(self):
        """The matmul DCT-II must equal the reference's table-based
        cosine-product sum (/root/reference/hash/hash.go:96-126) on random
        planes — same 8×8 (+1,+1) low-frequency block, same upper median."""
        from dedupe_ray.stages.multimodal import _area_resize, dct_phash64

        rng = np.random.default_rng(11)
        n = 32
        cos_table = np.cos(np.arange(2 * n * (n - 1)) / (2 * n) * np.pi)
        cu = cos_table[np.outer(2 * np.arange(n) + 1, np.arange(n))]  # (i, u)
        c = np.ones(n)
        c[0] = 1 / np.sqrt(2)
        for _ in range(3):
            gray = rng.random((45, 51)) * 255.0
            f = _area_resize(gray, n, n)
            dct = np.einsum("iu,jv,ij->uv", cu, cu, f) * (np.outer(c, c) / 4)
            freqs = dct[1:9, 1:9].reshape(-1)
            median = np.sort(freqs)[32]
            exp = 0
            for k, fr in enumerate(freqs):
                if fr > median:
                    exp ^= 1 << k
            assert int(dct_phash64(gray)) == exp

    def test_dct_phash_golden_and_invariance(self):
        """Pin the DCT phash of a fixed gradient plane (format stability) and
        check the defining invariance: positive brightness scaling rescales
        every coefficient AND the median, so the hash is unchanged."""
        from dedupe_ray.stages.multimodal import dct_phash64

        x = np.arange(40)
        base = (np.add.outer(x * 3, x * 5) % 256).astype(np.float64)
        code = int(dct_phash64(base))
        assert code == GOLDEN_DCT_PHASH
        assert int(dct_phash64(base * 0.5)) == code
        assert int(dct_phash64(base * 2.0)) == code

    def test_media_stage_dct_algo(self):
        """algo='dct' dispatches to the DCT features; output layout matches
        the dhash path (±1 floats, FEATURE_DIM wide)."""
        from dedupe_ray.stages.multimodal import (
            MediaFeatureStage, dct_features, decode_image,
        )

        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(33, 47)).astype(np.uint8)
        payload = self._ppm_bytes(img)
        stage = MediaFeatureStage(mode="real", algo="dct")
        feats = stage._decode_payload(payload, "image")
        assert feats.shape == (64,)
        assert set(np.unique(feats)) <= {-1.0, 1.0}
        assert np.array_equal(feats, dct_features(decode_image(payload)))


class TestBandingGuarantees:
    def test_simhash_pigeonhole_recall(self, ray_session):
        """Any pair within Hamming distance bands-1 MUST share a band key."""
        from dedupe_ray.stages.banding import simhash_band_table

        rng = np.random.default_rng(4)
        cfg = SimHashConfig(bands=8, threshold=7)
        base = rng.integers(0, 2**63, size=200, dtype=np.uint64)
        # flip up to 7 random bits
        flipped = base.copy()
        for i in range(len(base)):
            for b in rng.choice(64, size=int(rng.integers(0, 8)), replace=False):
                flipped[i] ^= np.uint64(1) << np.uint64(b)
        tbl = pa.table(
            {
                "doc_id": pa.array(np.arange(400, dtype=np.int64)),
                "simhash": pa.array(np.concatenate([base, flipped]), pa.uint64()),
            }
        )
        banded = simhash_band_table(tbl, cfg)
        keys = banded.column("band_key").to_numpy(zero_copy_only=False)
        ids = banded.column("doc_id").to_numpy(zero_copy_only=False)
        for i in range(200):
            k1 = set(keys[ids == i].tolist())
            k2 = set(keys[ids == i + 200].tolist())
            assert k1 & k2, f"pair {i} within radius shares no band"

    def test_minhash_band_keys_deterministic(self, ray_session):
        from dedupe_ray.functions.minhash import MinHasher
        from dedupe_ray.stages.banding import minhash_band_table

        cfg = MinHashConfig()
        mh = MinHasher(cfg.num_perms, cfg.shingle_size, cfg.seed)
        sigs = mh.batch_signatures(["one two three four five", "six seven eight nine ten"])
        tbl = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "minhash": pa.FixedSizeListArray.from_arrays(
                    pa.array(sigs.reshape(-1), pa.uint32()), cfg.num_perms
                ),
            }
        )
        a = minhash_band_table(tbl, cfg)
        b = minhash_band_table(tbl, cfg)
        assert a.equals(b)
        assert a.num_rows == 2 * cfg.bands
        # identical signatures → identical band keys
        tbl2 = pa.table(
            {
                "doc_id": pa.array([3, 4], pa.int64()),
                "minhash": pa.FixedSizeListArray.from_arrays(
                    pa.array(np.concatenate([sigs[0], sigs[0]]), pa.uint32()), cfg.num_perms
                ),
            }
        )
        c = minhash_band_table(tbl2, cfg)
        k3 = c.filter(pa.compute.equal(c.column("doc_id"), 3)).column("band_key")
        k4 = c.filter(pa.compute.equal(c.column("doc_id"), 4)).column("band_key")
        assert k3.to_pylist() == k4.to_pylist()


class TestSources:
    def test_read_pages_mixed_formats(self, ray_session, tmp_path):
        import json as _json

        import pyarrow.parquet as pq

        from dedupe_ray.fixtures.pages import PAGES_SCHEMA, generate_pages
        from dedupe_ray.sources import read_pages

        f = generate_pages(n_pages=60, seed=3)
        pq.write_table(f.pages.slice(0, 30), str(tmp_path / "a.parquet"))
        # jsonl with only url+text (optional columns missing)
        with open(tmp_path / "b.jsonl", "w") as fh:
            for u, t in zip(
                f.pages.column("url").to_pylist()[30:],
                f.pages.column("text").to_pylist()[30:],
            ):
                fh.write(_json.dumps({"url": u, "text": t}) + "\n")
        ds = read_pages([str(tmp_path / "a.parquet"), str(tmp_path / "b.jsonl")])
        tbl = pa.concat_tables(
            list(ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        )
        assert tbl.num_rows == 60
        assert tbl.schema.equals(PAGES_SCHEMA)
        # jsonl rows have null html/warc_ts but keep text
        b = tbl.filter(pa.compute.is_null(tbl.column("html")))
        assert b.num_rows == 30
        assert b.column("text").null_count == 0

    def test_read_pages_rejects_unknown_format(self, ray_session):
        from dedupe_ray.sources import read_pages

        with pytest.raises(ValueError):
            read_pages(["/tmp/x.avro"])

    def test_read_pages_csv(self, ray_session, tmp_path):
        import csv as _csv

        from dedupe_ray.sources import read_pages

        with open(tmp_path / "c.csv", "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["url", "text", "lang"])
            w.writerow(["https://x.example/1", "hello world", "en"])
            w.writerow(["https://x.example/2", "bonjour le monde", "fr"])
        ds = read_pages(str(tmp_path / "c.csv"))
        tbl = pa.concat_tables(
            list(ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        )
        assert tbl.num_rows == 2
        assert tbl.column("lang").to_pylist() == ["en", "fr"]
        assert tbl.column("html").null_count == 2



class TestComboBanding:
    def test_combo_pigeonhole_recall(self, ray_session):
        """bands=8, combo=2: any pair within Hamming distance 6 must share a
        2-block combination key."""
        from dedupe_ray.stages.banding import simhash_band_table

        rng = np.random.default_rng(21)
        cfg = SimHashConfig(bands=8, combo=2, threshold=6)
        base = rng.integers(0, 2**63, size=150, dtype=np.uint64)
        flipped = base.copy()
        for i in range(len(base)):
            for b in rng.choice(64, size=int(rng.integers(0, 7)), replace=False):
                flipped[i] ^= np.uint64(1) << np.uint64(b)
        tbl = pa.table(
            {"doc_id": pa.array(np.arange(300, dtype=np.int64)),
             "simhash": pa.array(np.concatenate([base, flipped]), pa.uint64())}
        )
        banded = simhash_band_table(tbl, cfg)
        assert banded.num_rows == 300 * 28  # C(8,2) keys per row
        keys = banded.column("band_key").to_numpy(zero_copy_only=False)
        ids = banded.column("doc_id").to_numpy(zero_copy_only=False)
        for i in range(150):
            k1 = set(keys[ids == i].tolist())
            k2 = set(keys[ids == i + 150].tolist())
            assert k1 & k2, f"pair {i} within radius 6 shares no combo key"

    def test_combo_config_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            SimHashConfig(bands=8, combo=2, threshold=7)  # > bands - combo
        with _pytest.raises(ValueError):
            SimHashConfig(bands=4, combo=4)

    def test_wide_simhash_end_to_end(self, ray_session):
        """The wide (combo) simhash config catches moderately edited docs the
        radius-3 default misses — run the full flagship with it."""
        import ray.data

        from dedupe_ray.config import NearDupConfig
        from dedupe_ray.fixtures.pages import generate_pages
        from dedupe_ray.pipelines.neardup import near_duplicates
        from dedupe_ray.eval import pairwise_f1

        fx = generate_pages(n_pages=400, seed=42)
        tbl = fx.pages
        cfg_wide = NearDupConfig(
            algo="simhash", simhash=SimHashConfig(bands=8, combo=2, threshold=6)
        )
        out = near_duplicates(ray.data.from_arrow(tbl), cfg_wide, extract=False)
        t = pa.concat_tables(list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
        m = pairwise_f1(t, fx.labeled_pairs)
        cfg_narrow = NearDupConfig(algo="simhash")
        out2 = near_duplicates(ray.data.from_arrow(tbl), cfg_narrow, extract=False)
        t2 = pa.concat_tables(list(out2.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
        m2 = pairwise_f1(t2, fx.labeled_pairs)
        assert m["precision"] >= 0.99
        assert m["recall"] >= m2["recall"]


class TestEmitPairs:
    def test_emit_pairs_block_matches_naive_salted(self, ray_session):
        """The fully-vectorized pair emission (VERDICT r3 #3) must produce
        exactly the per-bucket naive emission — sorted unique members per
        bucket, consecutive cap-sized salt chunks, within-chunk pairs —
        distinct and sorted by (src, dst), on randomized blocks with
        duplicate members and hot buckets, and on one ~600-member bucket
        over the whole signed int64 range repeated in several bands, a few
        members missing in each, so the salt chunks shift between bands."""
        import logging

        import numpy as np

        from dedupe_ray.stages.candidates import _emit_pairs_block

        def check(keys, ids, cap, case):
            blk = pa.table({"band_key": pa.array(keys), "doc_id": pa.array(ids, pa.int64())})
            got = _emit_pairs_block(blk, cap)
            src, dst = (got.column(c).to_numpy() for c in ("src", "dst"))
            exp = set()
            for k in np.unique(keys):
                members = np.unique(ids[keys == k])
                for off in range(0, len(members), cap):
                    chunk = members[off : off + cap].tolist()
                    for x in range(len(chunk)):
                        for y in range(x + 1, len(chunk)):
                            exp.add((chunk[x], chunk[y]))
            assert set(zip(src.tolist(), dst.tolist())) == exp, case
            assert got.num_rows == len(exp), case
            assert (np.lexsort((dst, src)) == np.arange(len(src))).all(), case

        logging.disable(logging.WARNING)
        try:
            rng = np.random.default_rng(7)
            for trial in range(12):
                n = int(rng.integers(1, 1500))
                keys = rng.integers(0, int(rng.integers(1, 30)), n).astype(np.int64)
                ids = rng.integers(0, 40, n).astype(np.int64)
                check(keys, ids, int(rng.integers(2, 10)), trial)

            lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
            edge = np.array([lo, lo + 1, lo + 2, -1, 0, 1, hi - 2, hi - 1, hi], np.int64)
            bucket = np.unique(np.r_[edge, rng.integers(lo, hi, 600, dtype=np.int64)])
            keys, ids = [], []
            for band in range(6):
                kept = np.delete(bucket, rng.choice(len(bucket), int(rng.integers(2, 9)),
                                                    replace=False))
                rows = np.r_[kept, rng.choice(kept, 40)]  # duplicate rows too
                keys.append(np.full(len(rows), band * 7919, np.int64))
                ids.append(rng.permutation(rows))
            check(np.concatenate(keys), np.concatenate(ids), 256, "hot bucket")
        finally:
            logging.disable(logging.NOTSET)


class TestCliStats:
    def test_stats_to_parquet(self, ray_session, tmp_path, capsys):
        import pyarrow.parquet as pq

        from dedupe_ray.cli import main
        from dedupe_ray.fixtures.pages import generate_pages

        src = str(tmp_path / "p.parquet")
        pq.write_table(generate_pages(n_pages=50, seed=4).pages, src)
        out = str(tmp_path / "stats_out")
        assert main(["stats", "--input", src, "--output", out]) == 0
        t = pq.read_table(out)
        assert t.num_rows == 50
        assert "n_tokens" in t.column_names


class TestFuzzyStage:
    def test_group_pairs_matches_naive(self):
        from dedupe_ray.stages.fuzzy import _group_pairs

        rng = np.random.default_rng(77)
        for trial in range(30):
            n = int(rng.integers(0, 60))
            # sorted block column with groups of skewed sizes (incl. big ones)
            blk = np.sort(rng.choice([b"a", b"b", b"c", b"dd"], size=n)).astype(object)
            li, ri = _group_pairs(blk)
            exp = {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if blk[i] == blk[j]
            }
            assert set(zip(li.tolist(), ri.tolist())) == exp, trial
            assert len(li) == len(exp)
        # all-one-group edge (pure quadratic) and empty
        li, ri = _group_pairs(np.asarray(["x"] * 25, dtype=object))
        assert len(li) == 25 * 24 // 2
        li, ri = _group_pairs(np.asarray([], dtype=object))
        assert len(li) == 0

    def test_fuzzy_match_names_matches_naive(self, ray_session):
        import itertools

        import ray.data

        from dedupe_ray.functions.metrics import jaro_winkler
        from dedupe_ray.stages.fuzzy import fuzzy_match_names

        names = [
            "ivory almond chocolate", "ivory almond chocolat",
            "ivory almond chocolate", "midnight linen rose",
            "midnight linnen rose", "goldenrod peach rose",
            "azure plum steel", "azure plun steel", "azure plum steel",
        ]
        ds = ray.data.from_items([{"nm": s} for s in names]).repartition(3)
        out = fuzzy_match_names(
            ds, "nm", block_of=lambda s: s.rsplit(" ", 1)[-1], threshold=0.9
        ).to_pandas()
        got = {(a, b, round(j, 12)) for a, b, j in out.itertuples(index=False)}
        # the distributed (sorted) path emits the identical pair set
        out_d = fuzzy_match_names(
            ds, "nm", block_of=lambda s: s.rsplit(" ", 1)[-1], threshold=0.9,
            distribute=True,
        ).to_pandas()
        assert {(a, b, round(j, 12)) for a, b, j in out_d.itertuples(index=False)} == got
        vocab = sorted(set(names))
        exp = set()
        for a, b in itertools.combinations(vocab, 2):
            if a.rsplit(" ", 1)[-1] != b.rsplit(" ", 1)[-1]:
                continue
            jw = jaro_winkler(a, b)
            if jw >= 0.9:
                exp.add((a, b, round(jw, 12)))
        assert got == exp and len(exp) > 0
        # vocabulary dedupe: repeated names never pair with themselves
        assert all(a != b for a, b, _ in got)

    def test_fuzzy_match_records_prefix_and_ordering(self, ray_session):
        import ray.data

        from dedupe_ray.functions.metrics import jaro_winkler
        from dedupe_ray.stages.fuzzy import fuzzy_match_records

        rows = [
            {"id": 7, "txt": "alpha beta gamma delta", "blk": "g1"},
            {"id": 3, "txt": "alpha beta gamma delto", "blk": "g1"},
            {"id": 9, "txt": "alpha beta gamma deltaXXXX", "blk": "g1"},
            {"id": 1, "txt": "totally different words", "blk": "g2"},
            {"id": 2, "txt": "totally different wordz", "blk": "g2"},
        ]
        ds = ray.data.from_items(rows).repartition(2)
        out = fuzzy_match_records(
            ds, "id", "txt", "blk", threshold=0.5, prefix_chars=22
        ).to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        # pairs are scored on the 22-char prefix: id 9's long tail is invisible
        exp = []
        for a, b in [(3, 7), (3, 9), (7, 9), (1, 2)]:
            ta = next(r["txt"][:22] for r in rows if r["id"] == a)
            tb = next(r["txt"][:22] for r in rows if r["id"] == b)
            exp.append((a, b, jaro_winkler(ta, tb)))
        assert list(map(tuple, out.itertuples(index=False))) == sorted(exp)
        assert (out.id_a < out.id_b).all()


class TestPngDecoder:
    """Pure-Python PNG decode (VERDICT r4 #7): round-trips against a
    spec-exact in-test encoder (forward-applied filters) for every
    supported color type and every filter, PIL-free."""

    @staticmethod
    def _encode(img: np.ndarray, ctype: int, filters=None, palette=None) -> bytes:
        import struct
        import zlib
        from binascii import crc32

        def chunk(typ: bytes, data: bytes) -> bytes:
            return (struct.pack(">I", len(data)) + typ + data
                    + struct.pack(">I", crc32(typ + data) & 0xFFFFFFFF))

        h, w = img.shape[:2]
        ch = 1 if img.ndim == 2 else img.shape[2]
        flat = img.reshape(h, w * ch).astype(np.int64)
        filters = filters if filters is not None else [0] * h
        out, prev = [], np.zeros(w * ch, np.int64)
        for y in range(h):
            f, line = filters[y], flat[y]
            if f == 0:
                enc = line
            elif f == 1:
                left = np.r_[np.zeros(ch, np.int64), line[:-ch]]
                enc = line - left
            elif f == 2:
                enc = line - prev
            elif f == 3:
                left = np.r_[np.zeros(ch, np.int64), line[:-ch]]
                enc = line - ((left + prev) >> 1)
            else:  # paeth
                enc = np.empty(w * ch, np.int64)
                for x in range(w * ch):
                    a = line[x - ch] if x >= ch else 0
                    b = prev[x]
                    c = prev[x - ch] if x >= ch else 0
                    p = a + b - c
                    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                    enc[x] = line[x] - pred
            out.append(bytes([f]) + (enc & 0xFF).astype(np.uint8).tobytes())
            prev = line
        ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
        body = chunk(b"IHDR", ihdr)
        if palette is not None:
            body += chunk(b"PLTE", palette.astype(np.uint8).tobytes())
        body += chunk(b"IDAT", zlib.compress(b"".join(out)))
        body += chunk(b"IEND", b"")
        return b"\x89PNG\r\n\x1a\n" + body

    def test_color_types_roundtrip(self):
        from dedupe_ray.stages.multimodal import _parse_png

        rng = np.random.RandomState(3)
        gray = rng.randint(0, 256, (13, 9), dtype=np.uint8)
        assert (_parse_png(self._encode(gray, 0)) == gray).all()
        rgb = rng.randint(0, 256, (7, 11, 3), dtype=np.uint8)
        assert (_parse_png(self._encode(rgb, 2)) == rgb).all()
        rgba = rng.randint(0, 256, (6, 5, 4), dtype=np.uint8)
        assert (_parse_png(self._encode(rgba, 6)) == rgba).all()
        ga = rng.randint(0, 256, (8, 4, 2), dtype=np.uint8)
        assert (_parse_png(self._encode(ga, 4)) == ga[:, :, 0]).all()
        pal = rng.randint(0, 256, (256, 3), dtype=np.uint8)
        idx = rng.randint(0, 256, (9, 6), dtype=np.uint8)
        assert (_parse_png(self._encode(idx, 3, palette=pal)) == pal[idx]).all()

    def test_all_filters_roundtrip(self):
        from dedupe_ray.stages.multimodal import _parse_png

        rng = np.random.RandomState(5)
        rgb = rng.randint(0, 256, (10, 10, 3), dtype=np.uint8)
        for f in range(5):
            got = _parse_png(self._encode(rgb, 2, filters=[f] * 10))
            assert (got == rgb).all(), f"filter {f}"
        mixed = [0, 1, 2, 3, 4, 4, 3, 2, 1, 0]
        assert (_parse_png(self._encode(rgb, 2, filters=mixed)) == rgb).all()

    def test_decode_image_png_gray_is_luma(self):
        from dedupe_ray.stages.multimodal import _luma, decode_image

        rng = np.random.RandomState(9)
        rgb = rng.randint(0, 256, (12, 8, 3), dtype=np.uint8)
        got = decode_image(self._encode(rgb, 2))
        assert np.allclose(got, _luma(rgb))
        gray = rng.randint(0, 256, (5, 5), dtype=np.uint8)
        assert (decode_image(self._encode(gray, 0)) == gray.astype(np.float32)).all()

    def test_unsupported_png_raises(self):
        import struct
        import zlib
        from binascii import crc32

        import pytest as _pytest

        from dedupe_ray.stages.multimodal import _parse_png

        # 16-bit depth must raise, not mis-decode
        ihdr = struct.pack(">IIBBBBB", 2, 2, 16, 0, 0, 0, 0)
        payload = (b"\x89PNG\r\n\x1a\n"
                   + struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr
                   + struct.pack(">I", crc32(b"IHDR" + ihdr) & 0xFFFFFFFF))
        with _pytest.raises(ValueError):
            _parse_png(payload)

    def test_quarantine_metric_names_format_and_fix(self, caplog):
        import logging

        import pyarrow as pa

        from dedupe_ray.stages.multimodal import MediaFeatureStage

        stage = MediaFeatureStage(mode="real")
        batch = pa.table(
            {"media_id": pa.array([1, 2], pa.int64()),
             "media_type": pa.array(["image", "image"], pa.string()),
             "payload": pa.array([b"\xff\xd8\xff\xe0fakejpeg", b""], pa.binary())}
        )
        with caplog.at_level(logging.WARNING, logger="dedupe_ray.stages.multimodal"):
            out = stage(batch)
        assert out.column("decode_ok").to_pylist() == [False, False]
        msg = "\n".join(r.message for r in caplog.records)
        assert "quarantined 2/2" in msg and "jpeg=1" in msg and "empty=1" in msg
        assert "install pillow to decode jpeg" in msg


class TestSemdedupChunking:
    def test_hot_cluster_chunked(self, ray_session):
        """A cluster above max_cluster_chunk must prune within chunks
        (bounded quadratic work — the LSH salting rule applied to k-means
        skew): exact copies split across chunks keep ONE survivor per
        chunk, never one overall. (The truncation warning fires inside a
        Ray worker, so it is not asserted here — the skew bench captures
        it in worker logs.)"""
        import pyarrow as pa
        import ray.data

        from dedupe_ray.stages.ann import semdedup

        rng = np.random.RandomState(21)
        # 12 copies of ONE vector + 20 unrelated vectors, chunk cap 8:
        # copies split 8+4 across chunks; within each chunk every copy
        # after the first drops -> exactly 2 survivors of the 12
        base = rng.randn(16).astype(np.float32)
        dups = np.tile(base, (12, 1))
        others = rng.randn(20, 16).astype(np.float32) * 5
        mat = np.concatenate([dups, others])
        ids = np.arange(len(mat), dtype=np.int64)
        tbl = pa.table(
            {"vec_id": pa.array(ids, pa.int64()),
             "embedding": pa.FixedSizeListArray.from_arrays(
                 pa.array(mat.reshape(-1), pa.float32()), 16)}
        )
        out = pa.concat_tables(list(
            semdedup(ray.data.from_arrow(tbl), dim=16, n_lists=1,
                     tau=0.99, max_cluster_chunk=8)
            .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
        )).to_pandas().set_index("vec_id")
        dup_keep = out.loc[ids[:12], "keep"].to_numpy()
        assert dup_keep.sum() == 2  # one survivor per chunk (8+4 split)
        assert dup_keep[0] and dup_keep[8]


class TestGifDecoder:
    """Pure-Python GIF decode: round-trips against an in-test spec-exact
    encoder — both a real LZW compressor (dictionary growth + width bumps)
    and the fixed-width clear-code variant, plus interlace."""

    @staticmethod
    def _lzw_encode(indices, min_code_size: int) -> bytes:
        clear, eoi = 1 << min_code_size, (1 << min_code_size) + 1
        table = {bytes([i]): i for i in range(clear)}
        next_code = eoi + 1
        width = min_code_size + 1
        bits, acc, nbits = bytearray(), 0, 0

        def emit(code, w):
            nonlocal acc, nbits
            acc |= code << nbits
            nbits += w
            while nbits >= 8:
                bits.append(acc & 0xFF)
                acc >>= 8
                nbits -= 8

        emit(clear, width)
        seq = b""
        for i in indices:
            nxt = seq + bytes([int(i)])
            if nxt in table:
                seq = nxt
                continue
            emit(table[seq], width)
            table[nxt] = next_code
            next_code += 1
            # GIF width bump: decoder grows width when ITS dict reaches
            # 2^width; its dict stays one entry behind the encoder's
            if next_code - 1 == (1 << width) and width < 12:
                width += 1
            seq = bytes([int(i)])
        if seq:
            emit(table[seq], width)
        emit(eoi, width)
        if nbits:
            bits.append(acc & 0xFF)
        return bytes(bits)

    @classmethod
    def _encode(cls, idx: "np.ndarray", palette: "np.ndarray",
                interlace: bool = False, local_table: bool = False) -> bytes:
        h, w = idx.shape
        n = len(palette)
        size_field = max(1, int(np.ceil(np.log2(n))) - 1) if n > 2 else 0
        size_field = 0
        while (2 << size_field) < n:
            size_field += 1
        pal = np.zeros((2 << size_field, 3), np.uint8)
        pal[:n] = palette
        head = b"GIF89a" + w.to_bytes(2, "little") + h.to_bytes(2, "little")
        if not local_table:
            head += bytes([0x80 | size_field, 0, 0]) + pal.tobytes()
        else:
            head += bytes([0, 0, 0])
        # graphic-control extension: exercises the sub-block skipper
        head += b"\x21\xf9\x04\x00\x00\x00\x00\x00"
        desc = b"\x2c" + b"\x00\x00\x00\x00" + w.to_bytes(2, "little") + \
            h.to_bytes(2, "little")
        iflags = (0x40 if interlace else 0)
        if local_table:
            iflags |= 0x80 | size_field
            desc += bytes([iflags]) + pal.tobytes()
        else:
            desc += bytes([iflags])
        rows = idx
        if interlace:
            order = np.r_[np.arange(0, h, 8), np.arange(4, h, 8),
                          np.arange(2, h, 4), np.arange(1, h, 2)]
            rows = idx[order]
        min_code = max(2, size_field + 1)
        lzw = cls._lzw_encode(rows.reshape(-1), min_code)
        body = bytes([min_code])
        for i in range(0, len(lzw), 255):
            chunk = lzw[i:i + 255]
            body += bytes([len(chunk)]) + chunk
        return head + desc + body + b"\x00\x3b"

    def test_lzw_roundtrip(self):
        from dedupe_ray.stages.multimodal import _parse_gif

        rng = np.random.RandomState(4)
        pal = rng.randint(0, 256, (16, 3), dtype=np.uint8)
        # repetitive indices drive real dictionary growth + width bumps
        idx = np.tile(rng.randint(0, 16, (8, 25), dtype=np.uint8), (5, 2))
        got = _parse_gif(self._encode(idx, pal))
        assert (got == pal[idx]).all()

    def test_interlace_and_local_table(self):
        from dedupe_ray.stages.multimodal import _parse_gif

        rng = np.random.RandomState(6)
        pal = rng.randint(0, 256, (8, 3), dtype=np.uint8)
        idx = rng.randint(0, 8, (19, 7), dtype=np.uint8)  # odd height
        assert (_parse_gif(self._encode(idx, pal, interlace=True))
                == pal[idx]).all()
        assert (_parse_gif(self._encode(idx, pal, local_table=True))
                == pal[idx]).all()

    def test_decode_image_gif_is_luma(self):
        from dedupe_ray.stages.multimodal import _luma, decode_image

        rng = np.random.RandomState(8)
        pal = rng.randint(0, 256, (4, 3), dtype=np.uint8)
        idx = rng.randint(0, 4, (10, 10), dtype=np.uint8)
        got = decode_image(self._encode(idx, pal))
        assert np.allclose(got, _luma(pal[idx]))

    def test_truncated_gif_raises(self):
        import pytest as _pytest

        from dedupe_ray.stages.multimodal import _parse_gif

        with _pytest.raises(ValueError):
            _parse_gif(b"GIF89a\x05\x00\x05\x00\x00\x00\x00\x3b")


# ---------------------------------------------------------------------------
# JPEG: spec-exact in-test ENCODER (Annex K tables, canonical Huffman codes
# built independently from (counts, values)) to round-trip the decoder
# ---------------------------------------------------------------------------

_JQT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
], np.int32)
_JQT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
], np.int32)
# Annex K typical Huffman tables: (counts[16], values)
_JHUFF = {
    ("dc", 0): ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
                bytes(range(12))),
    ("dc", 1): ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
                bytes(range(12))),
    ("ac", 0): ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
                bytes([
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
        0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
        0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
        0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
        0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
        0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
        0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
        0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
        0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
        0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])),
    ("ac", 1): ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
                bytes([
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
        0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
        0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
        0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
        0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
        0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
        0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
        0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
        0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
        0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
        0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
        0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
        0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])),
}


def _canonical_codes(counts, values):
    """(counts, values) → {symbol: (code, length)} by the T.81 algorithm."""
    out, code, k = {}, 0, 0
    for ln in range(1, 17):
        for _ in range(counts[ln - 1]):
            out[values[k]] = (code, ln)
            code += 1
            k += 1
        code <<= 1
    return out


class _JBitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, code, length):
        self.acc = (self.acc << length) | code
        self.nbits += length
        while self.nbits >= 8:
            byte = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)
            self.nbits -= 8
            self.acc &= (1 << self.nbits) - 1

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.put((1 << pad) - 1, pad)


def _jpeg_quality_tables(quality):
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    ql = np.clip((_JQT_LUMA * scale + 50) // 100, 1, 255).astype(np.int32)
    qc = np.clip((_JQT_CHROMA * scale + 50) // 100, 1, 255).astype(np.int32)
    return ql, qc


def _encode_jpeg(img, quality=90, subsample=False, restart_interval=0):
    """Baseline JFIF encoder (test oracle): 4:4:4 or 4:2:0, Annex K tables."""
    from dedupe_ray.functions.jpeg import _ZIGZAG, dct2_matrix

    gray = img.ndim == 2
    h, w = img.shape[:2]
    ql, qc = _jpeg_quality_tables(quality)
    if gray:
        y = img.astype(np.float64)
        planes = [y]
        samp = [(1, 1)]
        qtab = [ql]
    else:
        f = img.astype(np.float64)
        y = 0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]
        cb = -0.168736 * f[..., 0] - 0.331264 * f[..., 1] + 0.5 * f[..., 2] + 128
        cr = 0.5 * f[..., 0] - 0.418688 * f[..., 1] - 0.081312 * f[..., 2] + 128
        if subsample:
            def down2(p):
                hh, ww = (p.shape[0] + 1) & ~1, (p.shape[1] + 1) & ~1
                pad = np.pad(p, ((0, hh - p.shape[0]), (0, ww - p.shape[1])),
                             mode="edge")
                return pad.reshape(hh // 2, 2, ww // 2, 2).mean(axis=(1, 3))
            planes = [y, down2(cb), down2(cr)]
            samp = [(2, 2), (1, 1), (1, 1)]
        else:
            planes = [y, cb, cr]
            samp = [(1, 1), (1, 1), (1, 1)]
        qtab = [ql, qc, qc]
    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    cmat = dct2_matrix()
    # quantized zigzag blocks per component, MCU-ordered
    comp_blocks = []
    for p, (hs, vs), q in zip(planes, samp, qtab):
        ph, pw = mcuy * vs * 8, mcux * hs * 8
        pad = np.pad(p, ((0, ph - p.shape[0]), (0, pw - p.shape[1])),
                     mode="edge") - 128.0
        blocks = pad.reshape(ph // 8, 8, pw // 8, 8).transpose(0, 2, 1, 3)
        coef = np.einsum("ij,abjk,kl->abil", cmat, blocks, cmat.T)
        zz = coef.reshape(-1, 64)[:, :]  # raster per block
        zig = zz.reshape(-1, 8, 8).reshape(-1, 64)[:, _ZIGZAG]
        qz = np.round(zig / q[None, :]).astype(np.int32)
        comp_blocks.append(qz.reshape(ph // 8, pw // 8, 64))
    # entropy encode
    tabs = {k: _canonical_codes(*v) for k, v in _JHUFF.items()}
    bw = _JBitWriter()
    pred = [0] * len(planes)
    rst = 0

    def put_mag(v):
        size = int(v).bit_length() if v > 0 else int(-v).bit_length()
        return size, (v if v >= 0 else v + (1 << size) - 1)

    n_mcu = mcux * mcuy
    body = bytearray()
    for m in range(n_mcu):
        if restart_interval and m and m % restart_interval == 0:
            bw.flush()
            body += bw.out + bytes([0xFF, 0xD0 + (rst & 7)])
            bw = _JBitWriter()
            rst += 1
            pred = [0] * len(planes)
        my, mx = divmod(m, mcux)
        for ci, (hs, vs) in enumerate(samp):
            tid = 0 if ci == 0 else 1
            dc = tabs[("dc", tid)]
            ac = tabs[("ac", tid)]
            for by in range(vs):
                for bx in range(hs):
                    blk = comp_blocks[ci][my * vs + by, mx * hs + bx]
                    diff = int(blk[0]) - pred[ci]
                    pred[ci] = int(blk[0])
                    if diff == 0:
                        bw.put(*dc[0])
                    else:
                        size, mag = put_mag(diff)
                        bw.put(*dc[size])
                        bw.put(mag, size)
                    run = 0
                    nz = np.nonzero(blk[1:])[0]
                    last = nz[-1] + 1 if len(nz) else 0
                    for k in range(1, last + 1):
                        v = int(blk[k])
                        if v == 0:
                            run += 1
                            continue
                        while run > 15:
                            bw.put(*ac[0xF0])
                            run -= 16
                        size, mag = put_mag(v)
                        bw.put(*ac[(run << 4) | size])
                        bw.put(mag, size)
                        run = 0
                    if last < 63:
                        bw.put(*ac[0x00])
    bw.flush()
    body += bw.out
    # markers
    def seg(marker, payload):
        return bytes([0xFF, marker]) + (len(payload) + 2).to_bytes(2, "big") + payload

    out = b"\xff\xd8"
    out += seg(0xDB, bytes([0x00]) + bytes(ql.astype(np.uint8)))
    if not gray:
        out += seg(0xDB, bytes([0x01]) + bytes(qc.astype(np.uint8)))
    ncomp = 1 if gray else 3
    sof = bytes([8]) + h.to_bytes(2, "big") + w.to_bytes(2, "big") + bytes([ncomp])
    for ci in range(ncomp):
        hs, vs = samp[ci]
        sof += bytes([ci + 1, (hs << 4) | vs, 0 if ci == 0 else 1])
    out += seg(0xC0, sof)
    for (kind, tid), (counts, values) in _JHUFF.items():
        if gray and tid == 1:
            continue
        tc = 0 if kind == "dc" else 1
        out += seg(0xC4, bytes([(tc << 4) | tid]) + bytes(counts) + values)
    if restart_interval:
        out += seg(0xDD, restart_interval.to_bytes(2, "big"))
    sos = bytes([ncomp])
    for ci in range(ncomp):
        tid = 0 if ci == 0 else 1
        sos += bytes([ci + 1, (tid << 4) | tid])
    sos += bytes([0, 63, 0])
    out += seg(0xDA, sos)
    return out + bytes(body) + b"\xff\xd9"


class TestJpegDecoder:
    def test_dct_basis_inverts(self):
        from dedupe_ray.functions.jpeg import dct2_matrix

        rng = np.random.RandomState(2)
        x = rng.randn(8, 8)
        c = dct2_matrix()
        assert np.allclose(c.T @ (c @ x @ c.T) @ c, x, atol=1e-12)
        assert np.allclose(c @ c.T, np.eye(8), atol=1e-12)

    def test_flat_gray_roundtrip_near_exact(self):
        from dedupe_ray.functions.jpeg import decode_jpeg

        img = np.full((24, 17), 77, np.uint8)
        got = decode_jpeg(_encode_jpeg(img, quality=90))
        assert got.shape == (24, 17)
        assert np.abs(got.astype(int) - 77).max() <= 3

    def test_smooth_rgb_roundtrip_444(self):
        from dedupe_ray.functions.jpeg import decode_jpeg

        yy, xx = np.mgrid[0:40, 0:33]
        img = np.stack([
            (yy * 3 + 20) % 200 + 20,
            (xx * 4 + 40) % 200 + 20,
            ((yy + xx) * 2 + 60) % 200 + 20,
        ], axis=-1).astype(np.uint8)
        got = decode_jpeg(_encode_jpeg(img, quality=95))
        assert got.shape == img.shape
        err = np.abs(got.astype(int) - img.astype(int))
        assert err.mean() < 4 and err.max() <= 40, (err.mean(), err.max())

    def test_rgb_420_subsampled(self):
        from dedupe_ray.functions.jpeg import decode_jpeg

        yy, xx = np.mgrid[0:35, 0:29]
        img = np.stack([
            (yy * 5) % 180 + 30, (xx * 5) % 180 + 30,
            ((yy * 2 + xx) * 3) % 180 + 30,
        ], axis=-1).astype(np.uint8)
        got = decode_jpeg(_encode_jpeg(img, quality=92, subsample=True))
        assert got.shape == img.shape
        err = np.abs(got.astype(int) - img.astype(int))
        # chroma is 2x2-averaged: gradients smear across the subsample grid
        assert err.mean() < 8, err.mean()

    def test_restart_markers(self):
        from dedupe_ray.functions.jpeg import decode_jpeg

        rng = np.random.RandomState(11)
        img = rng.randint(60, 200, (24, 40), dtype=np.uint8)
        a = decode_jpeg(_encode_jpeg(img, quality=85, restart_interval=2))
        b = decode_jpeg(_encode_jpeg(img, quality=85))
        assert (a == b).all()

    def test_progressive_rejected(self):
        import pytest as _pytest

        from dedupe_ray.functions.jpeg import decode_jpeg

        img = np.full((8, 8), 100, np.uint8)
        payload = bytearray(_encode_jpeg(img))
        i = payload.find(b"\xff\xc0")
        payload[i + 1] = 0xC2  # rewrite SOF0 -> SOF2 (progressive)
        with _pytest.raises(ValueError, match="baseline"):
            decode_jpeg(bytes(payload))

    def test_decode_image_jpeg_luma(self):
        from dedupe_ray.stages.multimodal import decode_image

        img = np.full((16, 16, 3), 128, np.uint8)
        got = decode_image(_encode_jpeg(img, quality=90))
        assert got.shape == (16, 16)
        assert np.abs(got - 128.0).max() <= 3


class TestCodecFuzz:
    def test_malformed_payloads_raise_cleanly(self):
        """The quarantine contract: any malformed payload must raise (the
        media stage converts that to decode_ok=False) — never hang, crash
        the process, or return a bogus array. Seeded fuzz over truncations
        and byte corruptions of VALID payloads for every native codec, plus
        random bytes behind each magic prefix."""
        from dedupe_ray.stages.multimodal import decode_image

        rng = np.random.RandomState(123)
        pal = rng.randint(0, 256, (8, 3), dtype=np.uint8)
        idx = rng.randint(0, 8, (12, 9), dtype=np.uint8)
        gif = TestGifDecoder._encode(idx, pal)
        png = TestPngDecoder._encode(rng.randint(0, 256, (9, 7, 3),
                                                 dtype=np.uint8), 2)
        jpg = _encode_jpeg(rng.randint(0, 256, (16, 16), dtype=np.uint8))
        pnm = b"P5\n9 7\n255\n" + rng.randint(0, 256, 63, dtype=np.uint8).tobytes()
        for valid in (gif, png, jpg, pnm):
            decode_image(valid)  # sanity: the uncorrupted payload decodes
            for _ in range(60):
                buf = bytearray(valid)
                mode = rng.randint(3)
                if mode == 0:  # truncate
                    buf = buf[: rng.randint(1, len(buf))]
                elif mode == 1:  # corrupt random bytes (keep magic intact)
                    for _ in range(rng.randint(1, 8)):
                        buf[rng.randint(8, len(buf))] = rng.randint(256)
                else:  # random tail behind the real magic
                    buf = buf[:10] + bytes(rng.randint(0, 256, 64, dtype=np.uint8))
                try:
                    out = decode_image(bytes(buf))
                    # a surviving decode must still be a sane image array
                    assert out.ndim == 2 and out.size > 0
                except Exception:
                    pass  # clean raise -> quarantined
