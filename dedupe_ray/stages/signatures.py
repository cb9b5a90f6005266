"""Signature stage: text → SimHash + MinHash columns (actor pool).

The analog of the reference's ``imageHash`` dispatch
(/root/reference/dedupe.go:21-31): one batched, vectorized kernel emitting
the configured signature columns. This is a CALLABLE CLASS for
``map_batches(SignatureStage, concurrency=N)`` — permutation tables and the
token-hash memo cache are built once per actor in ``__init__`` (the pattern
the reference approximates with per-worker goroutine state,
/root/reference/dedupe.go:52-65).

Output columns:
    simhash : uint64                      (when algo includes simhash)
    minhash : fixed_size_list<uint32, K>  (when algo includes minhash)
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import pyarrow as pa

from dedupe_ray.config import NearDupConfig
from dedupe_ray.functions.hashing import hash_token, shingle_hashes_flat
from dedupe_ray.functions.minhash import MinHasher
from dedupe_ray.functions.simhash import simhash_from_flat

__all__ = ["SignatureStage"]


class _TokenHashMemo(dict):
    """token → ``hash_token(token)``; a miss hashes and stores the token."""

    def __missing__(self, token: str) -> int:
        h = self[token] = hash_token(token)
        return h


class SignatureStage:
    def __init__(self, config: NearDupConfig | None = None, text_col: str = "text",
                 emit_simhash: bool | None = None, emit_minhash: bool | None = None):
        self.config = config or NearDupConfig()
        self.text_col = text_col
        algo = self.config.algo
        self.emit_simhash = emit_simhash if emit_simhash is not None else (algo == "simhash")
        self.emit_minhash = emit_minhash if emit_minhash is not None else (algo == "minhash")
        mh = self.config.minhash
        self.minhasher = MinHasher(mh.num_perms, mh.shingle_size, mh.seed,
                                   getattr(mh, 'scheme', 'kperm'))
        self.token_cache = _TokenHashMemo()
        self.simhash_k = self.config.simhash.shingle_size
        # feature-space variant (M4 registry): "word" is the pinned default;
        # "char"/"bpe" swap the tokenizer, changing every signature
        from dedupe_ray.functions.text import FEATURE_TOKENIZERS

        self.tokenize = FEATURE_TOKENIZERS[getattr(self.config, "feature", "word")]

    # token-hash memo cap: ~1M entries ≈ 100 MB per worker; a web-scale
    # vocabulary would otherwise grow the cache without bound. Clearing is
    # correct (pure memo) and amortizes to nothing.
    _CACHE_MAX = 1 << 20

    def _shingles_flat(self, texts: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
        """Tokenize per doc (C fast path), hash tokens through the per-actor
        memo, then one global sliding-window shingle pass.

        ``map`` over the memo's ``__getitem__`` runs no Python bytecode per
        hit; blake2b runs once per DISTINCT token, in ``__missing__``. (An
        np.unique de-dup must SORT the batch's tokens: ~0.26 s per 580k, r4.)"""
        token_lists = [self.tokenize(t or "") for t in texts]
        lens = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
        cache = self.token_cache
        if len(cache) > self._CACHE_MAX:
            cache.clear()
        flat_tok = np.fromiter(map(cache.__getitem__, chain.from_iterable(token_lists)),
                               dtype=np.uint64, count=int(lens.sum()))
        return shingle_hashes_flat(flat_tok, lens, k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        # simhash and minhash share the same shingle space when their shingle
        # sizes agree (the default) — compute the flat shingle array once.
        mh_cfg = self.config.minhash
        flat, offsets = self._shingles_flat(texts, mh_cfg.shingle_size)
        if self.emit_simhash:
            if self.simhash_k == mh_cfg.shingle_size:
                sflat, soff = flat, offsets
            else:
                sflat, soff = self._shingles_flat(texts, self.simhash_k)
            sims = simhash_from_flat(sflat, soff)
            batch = batch.append_column("simhash", pa.array(sims, pa.uint64()))
        if self.emit_minhash:
            sigs = self.minhasher.signatures_flat(flat, offsets)  # (n, K) uint32
            arr = pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.reshape(-1), pa.uint32()), mh_cfg.num_perms
            )
            batch = batch.append_column("minhash", arr)
        return batch
