"""K-permutation MinHash signatures — vectorized, mergeable.

The analog of the reference's multi-slot DHASH signature
(/root/reference/dedupe.go:26-28: two 64-bit hashes compared by summed
Hamming): a K-slot sketch whose slot-equality rate estimates Jaccard
similarity of the shingle sets. Slots are uint32 (standard; 128 slots =
512 B/doc).
"""

from __future__ import annotations

import numpy as np

from dedupe_ray.functions.hashing import hash_tokens, shingle_hashes
from dedupe_ray.functions.text import normalize_tokens

__all__ = ["MinHasher"]

_MERSENNE61 = np.uint64((1 << 61) - 1)


_OPH_EMPTY = np.uint64(1) << np.uint64(63)


class MinHasher:
    """Stateful minhash kernel: permutation parameters are generated once from
    ``seed`` and reused per batch — hold one instance per actor
    (stateful-stage pattern; analog of per-worker state in
    /root/reference/dedupe.go:52-65).

    ``scheme="kperm"`` (default): classic K independent multiply-shift
    permutations — O(K) work per shingle.
    ``scheme="oph"``: one-permutation hashing (Li/Owen/Zhang 2012) with
    OPTIMAL densification (Shrivastava, ICML 2017) — each shingle hashes
    ONCE into one of K bins (O(1) per shingle, ~K× cheaper on long
    documents); empty bins borrow from a double-hash probe sequence so
    adjacent densified bins stay independent (circular fill made LSH band
    keys collapse onto one source bin for short docs → candidate explosion).
    Same (K,) uint32 signature shape, so banding/verification are unchanged.
    Estimates have somewhat higher variance for documents with ≪ K shingles.
    """

    def __init__(self, num_perms: int = 128, shingle_size: int = 3, seed: int = 12345,
                 scheme: str = "kperm"):
        if scheme not in ("kperm", "oph"):
            raise ValueError(scheme)
        if scheme == "oph" and num_perms & (num_perms - 1):
            raise ValueError("oph requires num_perms to be a power of two")
        self.scheme = scheme
        self.num_perms = num_perms
        self.shingle_size = shingle_size
        rng = np.random.default_rng(seed)
        # Multiply-shift universal hashing: h_j(x) = (a_j·x) >> 32 with a_j
        # odd — 2 ops per value vs ~6 for a Mersenne-prime scheme, same
        # minwise behavior in practice (Dietzfelbinger et al. multiply-shift).
        self.a = rng.integers(0, 1 << 63, size=num_perms, dtype=np.uint64) * 2 + 1
        self.token_cache: dict[str, int] = {}

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        """(num_perms,) uint32 signature of one shingle-hash set."""
        if self.scheme == "oph":
            return self._oph_flat(
                shingles, np.array([0, len(shingles)], dtype=np.int64)
            )[0]
        out = np.empty(self.num_perms, dtype=np.uint32)
        buf = np.empty_like(shingles)
        with np.errstate(over="ignore"):
            for j in range(self.num_perms):
                np.multiply(shingles, self.a[j], out=buf)
                buf >>= np.uint64(32)
                out[j] = buf.min()
        return out

    def _oph_flat(self, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """(n_docs, K) OPH signatures: one hash per shingle scattered into K
        bins (top log2 K bits pick the bin, low 32 bits are the value), then
        vectorized OPTIMAL densification of empty bins."""
        K = self.num_perms
        b = K.bit_length() - 1
        n_docs = len(offsets) - 1
        if n_docs == 0:
            return np.empty((0, K), dtype=np.uint32)
        lens = np.diff(offsets)
        doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        bins = (flat >> np.uint64(64 - b)).astype(np.int64)
        vals = flat & np.uint64(0xFFFFFFFF)
        keys = doc_idx * K + bins
        order = np.lexsort((vals, keys))
        ks, vs = keys[order], vals[order]
        first = np.r_[True, ks[1:] != ks[:-1]]
        mat = np.full(n_docs * K, _OPH_EMPTY, dtype=np.uint64)
        mat[ks[first]] = vs[first]
        mat = mat.reshape(n_docs, K)
        # OPTIMAL densification (Shrivastava, ICML 2017): every empty bin
        # borrows, value as-is, from the first FILLED bin along a per-bin
        # double-hash probe sequence tgt_t(k) = (h1[k] + t·h2[k]) mod K with
        # h2 odd (K is a power of two, so the probes cover every bin in K
        # steps — always terminates when the doc has ≥1 filled bin). Unlike
        # circular left-fill, ADJACENT empty bins borrow from unrelated
        # filled bins, so an LSH band of densified bins still carries R
        # independent minima; circular fill collapsed whole bands onto one
        # source bin for sparse (short-document) signatures and exploded the
        # flagship's candidate count ~165× on 51k web pages.
        occupied = mat != _OPH_EMPTY
        res = mat.copy()
        unresolved = ~occupied
        if unresolved.any():
            k_idx = np.arange(K, dtype=np.uint64)
            h1 = (
                (k_idx * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)
            ).astype(np.int64) % K
            h2 = (
                ((k_idx * np.uint64(0xC2B2AE3D27D4EB4F)) >> np.uint64(40))
                .astype(np.int64) % K
            ) | 1  # odd → full cycle modulo the power-of-two K
            # probe only the rows that still have unresolved bins: one
            # near-empty outlier doc must not force full-matrix gathers for
            # the whole batch across up to K passes (ADVICE r2)
            any_filled = occupied.any(axis=1)
            rows = np.flatnonzero(unresolved.any(axis=1) & any_filled)
            sub_unres = unresolved[rows]
            for t in range(1, K + 1):
                if not len(rows):
                    break
                tgt = (h1 + t * h2) % K
                cand = mat[np.ix_(rows, tgt)]
                take = sub_unres & (cand != _OPH_EMPTY)
                r_idx, c_idx = np.nonzero(take)
                res[rows[r_idx], c_idx] = cand[r_idx, c_idx]
                sub_unres &= ~take
                still = sub_unres.any(axis=1)
                if not still.all():
                    rows = rows[still]
                    sub_unres = sub_unres[still]
        out = np.where(res == _OPH_EMPTY, np.uint64(0), res).astype(np.uint32)
        return out

    def signatures_flat(self, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """(n_docs, num_perms) signatures from flattened shingle hashes via
        ``np.minimum.reduceat`` — the batch hot path.

        One CONTIGUOUS 1-D multiply + reduceat per permutation into a
        reused buffer: ~50× faster than the equivalent 2-D broadcast on
        numpy's uint64 path (which falls off the SIMD loop and allocates a
        (n_shingles × chunk) temp per op)."""
        if self.scheme == "oph":
            return self._oph_flat(flat, np.asarray(offsets, dtype=np.int64))
        n_docs = len(offsets) - 1
        out = np.empty((n_docs, self.num_perms), dtype=np.uint32)
        if n_docs == 0:
            return out
        idx = offsets[:-1].astype(np.int64)
        buf = np.empty_like(flat)
        with np.errstate(over="ignore"):
            for j in range(self.num_perms):
                np.multiply(flat, self.a[j], out=buf)
                # shift the n_docs minima, not the n_shingles products: the
                # shift is monotone, so min(x >> 32) == min(x) >> 32
                out[:, j] = np.minimum.reduceat(buf, idx) >> np.uint64(32)
        return out

    def text_signature(self, text: str) -> np.ndarray:
        toks = normalize_tokens(text)
        sh = shingle_hashes(hash_tokens(toks, self.token_cache), self.shingle_size)
        return self.signature(sh)

    def batch_signatures(self, texts) -> np.ndarray:
        """(n_texts, num_perms) uint32 signatures for a batch of raw texts."""
        parts, total = [], 0
        offsets = np.zeros(len(texts) + 1, dtype=np.int64)
        for i, t in enumerate(texts):
            sh = shingle_hashes(
                hash_tokens(normalize_tokens(t), self.token_cache), self.shingle_size
            )
            parts.append(sh)
            total += len(sh)
            offsets[i + 1] = total
        if not parts:
            return np.empty((0, self.num_perms), dtype=np.uint32)
        return self.signatures_flat(np.concatenate(parts), offsets)
