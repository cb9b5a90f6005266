"""Deterministic HTML → text extraction and token normalization.

This is the analog of the reference's decode + normalize front end
(``LoadImage`` /root/reference/utils/file.go:14-23 and the pixel-format
normalizer ``scanner.scan`` /root/reference/utils/resize.go:35-290): every
raw payload is canonicalized to one fixed representation before hashing.
The per-row invariant (BASELINE.json:input_hint) is that ``extract_text``
is BYTE-IDENTICAL per url against the fixture oracle, the way parity for
the reference would pin the grayscale constants 0.299/0.587/0.114
(/root/reference/hash/hash.go:47-50). Do not change the spec below without
regenerating golden fixtures.

Extraction spec (exact, in order):
 1. Decode bytes as UTF-8 with ``errors="replace"``.
 2. Drop ``<script …>…</script>`` and ``<style …>…</style>`` blocks and
    HTML comments ``<!-- … -->`` (case-insensitive, non-greedy).
 3. Replace block-level tags (open/close/self-closed) with ``"\n"``;
    strip every other tag to ``""``.
 4. Unescape HTML entities (``html.unescape``).
 5. Per line: collapse runs of whitespace to a single ASCII space and strip;
    drop empty lines; join the survivors with ``"\n"``.
"""

from __future__ import annotations

import html as _html
import re

__all__ = ["extract_text", "extract_text_batch", "normalize_tokens",
           "char_tokens", "bpe_tokens", "FEATURE_TOKENIZERS", "BPE_TOKEN_RE",
           "BLOCK_TAGS"]

BLOCK_TAGS = (
    "address|article|aside|blockquote|body|br|caption|dd|div|dl|dt|fieldset|"
    "figcaption|figure|footer|form|h1|h2|h3|h4|h5|h6|head|header|hr|html|li|"
    "main|nav|ol|p|pre|section|table|tbody|td|tfoot|th|thead|title|tr|ul"
)

_RE_DROP = re.compile(
    r"<script\b[^>]*>.*?</script\s*>|<style\b[^>]*>.*?</style\s*>|<!--.*?-->",
    re.IGNORECASE | re.DOTALL,
)
_RE_BLOCK = re.compile(rf"</?(?:{BLOCK_TAGS})\b[^>]*/?>", re.IGNORECASE)
_RE_TAG = re.compile(r"<[^>]*>")
_RE_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def extract_text(html_bytes: bytes | str) -> str:
    """Extract canonical visible text from one HTML payload (see spec above)."""
    s = html_bytes.decode("utf-8", errors="replace") if isinstance(html_bytes, bytes) else html_bytes
    s = _RE_DROP.sub("", s)
    s = _RE_BLOCK.sub("\n", s)
    s = _RE_TAG.sub("", s)
    s = _html.unescape(s)
    # step 5, exact: ``\s`` in ``re`` on str matches where str.isspace() holds
    return "\n".join(filter(None, map(" ".join, map(str.split, s.split("\n")))))


def extract_text_batch(payloads) -> list[str]:
    """Extract a batch of payloads (any iterable of bytes/str).

    A per-record parser is inherently a Python-level loop (like the
    reference's one-image-at-a-time decode, /root/reference/dedupe.go:54-63);
    each record costs three regex passes, unescape and split/join, all in C.
    """
    return [extract_text(p) for p in payloads]


# ASCII fast path: [^\W_]+ on ASCII text is exactly [A-Za-z0-9]+ — a C-level
# translate+split is ~3× the regex engine. The regex stays the definition
# (and the path for any non-ASCII text); golden tests pin equivalence.
_ASCII_KEEP = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum()}
)


def _alnum_runs(low: str) -> list[str]:
    r"""``_RE_TOKEN.findall(low)``, the regex run only on words that are not
    all alnum: ``[^\W_]`` matches exactly where ``str.isalnum()`` holds."""
    out: list[str] = []
    for w in low.split():
        if w.isalnum():
            out.append(w)
        else:
            out += _RE_TOKEN.findall(w)
    return out


def normalize_tokens(text: str) -> list[str]:
    """Lowercased word tokens of ``text`` — the canonical feature space for
    signatures (the analog of resize-to-fixed-grid before hashing,
    /root/reference/hash/hash.go:57-58)."""
    low = text.lower()
    if low.isascii():
        return low.translate(_ASCII_KEEP).split()
    return _alnum_runs(low)


def char_tokens(text: str) -> list[str]:
    """Character-stream feature space: each character of the lowercased,
    whitespace-canonicalized text is one token, so the k-shingle machinery
    yields char k-grams (robust to word-boundary edits; the standard choice
    for CJK / no-whitespace scripts)."""
    low = text.lower()
    if low.isascii():
        return list(" ".join(low.translate(_ASCII_KEEP).split()))
    return list(" ".join(_alnum_runs(low)))


# BPE-ish token pattern — RE2-safe (no lookahead) so Arrow's
# count_substring_regex and DuckDB's regexp_extract_all count identically.
BPE_TOKEN_RE = r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9']+"
_RE_BPE = re.compile(BPE_TOKEN_RE)


def bpe_tokens(text: str) -> list[str]:
    """GPT-2-style pre-tokenization feature space (case-folded)."""
    return _RE_BPE.findall(text.lower())


# Feature-space registry — the analog of the reference's 15-entry resample
# filter registry (/root/reference/utils/resize.go:632-860, M4): the hash
# paths there use only Linear (hash/hash.go:58); here the signature stage
# uses only "word" by default, with the others config-selectable
# (NearDupConfig.feature). Changing the feature changes every signature —
# it participates in the config hash, so checkpoints invalidate correctly.
FEATURE_TOKENIZERS: dict = {
    "word": normalize_tokens,
    "char": char_tokens,
    "bpe": bpe_tokens,
}
