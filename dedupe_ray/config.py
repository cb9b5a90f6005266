"""Pipeline configuration — the analog of the reference's ``HashType``.

The reference models an algorithm as ``HashType{name, Threshold}`` with a
registry map ``HashTypes`` and name-only equality so a CLI-overridden
threshold still dispatches correctly (/root/reference/hash/hash.go:13-44).
We model the same plug-point as frozen dataclasses plus a ``SIGNATURE_ALGOS``
registry keyed by name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace


@dataclass(frozen=True)
class MinHashConfig:
    """MinHash + banded-LSH parameters (the "DHASH" slot: multi-slot signature,
    /root/reference/dedupe.go:26-28 generalized to K slots).

    ``num_perms`` minwise permutations over word ``shingle_size``-shingles;
    ``bands × rows`` must equal ``num_perms``. The S-curve threshold is
    approximately ``(1/bands) ** (1/rows)``.
    """

    name: str = "minhash"
    # "kperm" = classic K permutations; "oph" = one-permutation hashing with
    # rotation densification (O(1)/shingle — the long-document scale lever)
    scheme: str = "kperm"
    num_perms: int = 128
    shingle_size: int = 3
    bands: int = 32
    rows: int = 4
    # Verification threshold on the estimated Jaccard similarity — the analog
    # of HashType.Threshold (/root/reference/hash/hash.go:29-39).
    threshold: float = 0.5
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.bands * self.rows != self.num_perms:
            raise ValueError(
                f"bands({self.bands}) * rows({self.rows}) != num_perms({self.num_perms})"
            )


@dataclass(frozen=True)
class SimHashConfig:
    """64-bit SimHash parameters (the "DCT" slot: single 64-bit hash,
    /root/reference/hash/hash.go:81-155).

    Candidates come from exact-match bands over the 64 bits (``bands`` blocks
    of ``64 // bands`` bits); by pigeonhole, any pair within Hamming distance
    ``bands - 1`` shares at least one band. Verification keeps pairs with
    Hamming distance <= ``threshold``.

    Defaults follow Manku et al. (WWW'07, simhash web dedup): radius 3 with
    4 × 16-bit bands. Wider bands matter at scale: random pairs collide in a
    band with probability 2^-bits, so 16-bit bands give n²·4/2^17 spurious
    candidates vs n²·8/2^9 for 8-bit bands — a 500× difference at any n.
    """

    name: str = "simhash"
    shingle_size: int = 3
    bands: int = 4
    threshold: int = 3  # Hamming radius; <= bands-combo guarantees 100% recall
    # combo=k keys each exact-match k blocks jointly (C(bands, k) keys of
    # k·(64/bands) bits — Manku et al.'s multi-table scheme). combo=1 is
    # plain banding. Wider radius without tiny keys: e.g. bands=8, combo=2 →
    # 28 keys × 16 bits, guaranteed recall through radius 6.
    combo: int = 1
    seed: int = 12345

    def __post_init__(self) -> None:
        if 64 % self.bands != 0:
            raise ValueError(f"bands({self.bands}) must divide 64")
        if not 1 <= self.combo < self.bands:
            raise ValueError(f"combo({self.combo}) must be in [1, bands)")
        if self.threshold > self.bands - self.combo:
            raise ValueError(
                f"threshold({self.threshold}) > bands-combo "
                f"({self.bands - self.combo}): recall guarantee broken"
            )


@dataclass(frozen=True)
class NearDupConfig:
    """Full flagship-pipeline configuration."""

    algo: str = "minhash"  # key into SIGNATURE_ALGOS
    # Feature space for the signature kernels — key into
    # functions.text.FEATURE_TOKENIZERS ("word" | "char" | "bpe"), the
    # config-selectable analog of the reference's resample-filter registry
    # (M4, /root/reference/utils/resize.go:632-860; hash paths use only
    # Linear there, only "word" here by default).
    feature: str = "word"
    minhash: MinHashConfig = field(default_factory=MinHashConfig)
    simhash: SimHashConfig = field(default_factory=SimHashConfig)
    # Skew control: an LSH bucket larger than this is salted into sub-buckets
    # of at most this size (pairs across salts are sacrificed and the
    # truncation is logged) — the reference never faces this because a VP-tree
    # has no buckets; web boilerplate makes it the #1 skew risk here.
    max_bucket_size: int = 256
    # Optional second-stage confirmation on normalized text (Jaro-Winkler);
    # requires carrying text to the verifier, so off by default at scale.
    jaro_winkler_min: float | None = None
    # Connected components: "auto" uses a driver-side union-find when the
    # edge set is small, distributed star-contraction otherwise.
    cc_method: str = "auto"
    cc_local_max_edges: int = 2_000_000

    def __post_init__(self) -> None:
        from dedupe_ray.functions.text import FEATURE_TOKENIZERS

        if self.feature not in FEATURE_TOKENIZERS:
            raise ValueError(
                f"unknown feature {self.feature!r}; "
                f"choose from {sorted(FEATURE_TOKENIZERS)}"
            )

    def signature(self) -> MinHashConfig | SimHashConfig:
        return getattr(self, self.algo)

    def with_threshold(self, threshold: float) -> "NearDupConfig":
        """CLI-style threshold override (mirrors ``-threshold``,
        /root/reference/cmd/dedupe/main.go:139-141)."""
        sig = replace(self.signature(), threshold=threshold)
        return replace(self, **{self.algo: sig})

    def config_hash(self) -> str:
        """Stable hash of the config — part of checkpoint lineage."""
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def signature_hash(self) -> str:
        """Stable hash of what fixes the signatures and band keys — ``algo``,
        ``feature`` and the signature config without its threshold — the
        lineage key of a band index, which any threshold can match against."""
        sig = {k: v for k, v in asdict(self.signature()).items() if k != "threshold"}
        blob = json.dumps([self.algo, self.feature, sig], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Registry — the analog of ``HashTypes`` (/root/reference/hash/hash.go:41-44).
SIGNATURE_ALGOS: dict[str, type] = {
    "minhash": MinHashConfig,
    "simhash": SimHashConfig,
}
