"""The whitespace pass of ``extract_text`` and the non-ASCII path of the
tokenizers run on C string builtins (``str.split``/``join``/``isalnum``)
instead of per-line / whole-document regexes. These tests pin the two
code-point facts that make the rewrite exact, and compare the rewritten
functions with the regex implementations, kept below as the oracle.
"""

from __future__ import annotations

import html as _html
import re

import numpy as np

from dedupe_ray.functions.text import char_tokens, extract_text, normalize_tokens

# ---- oracle: the regex implementations the rewrite replaced, verbatim ------

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
_RE_WS = re.compile(r"\s+")
_RE_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)

_ASCII_KEEP = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum()}
)


def oracle_extract_text(html_bytes: bytes | str) -> str:
    s = html_bytes.decode("utf-8", errors="replace") if isinstance(html_bytes, bytes) else html_bytes
    s = _RE_DROP.sub("", s)
    s = _RE_BLOCK.sub("\n", s)
    s = _RE_TAG.sub("", s)
    s = _html.unescape(s)
    lines = []
    for line in s.split("\n"):
        line = _RE_WS.sub(" ", line).strip()
        if line:
            lines.append(line)
    return "\n".join(lines)


def oracle_normalize_tokens(text: str) -> list[str]:
    low = text.lower()
    if low.isascii():
        return low.translate(_ASCII_KEEP).split()
    return _RE_TOKEN.findall(low)


def oracle_char_tokens(text: str) -> list[str]:
    low = text.lower()
    if low.isascii():
        return list(" ".join(low.translate(_ASCII_KEEP).split()))
    return list(" ".join(_RE_TOKEN.findall(low)))


# ---- the code-point facts ---------------------------------------------------


def test_regex_classes_equal_str_predicates_on_every_code_point():
    # \s (str pattern) <=> str.isspace(): what split()/strip() use;
    # [^\W_] <=> str.isalnum(): what keeps a whole word out of the regex
    ws_bad = [i for i in range(0x110000)
              if (_RE_WS.fullmatch(chr(i)) is not None) != chr(i).isspace()]
    tok_bad = [i for i in range(0x110000)
               if (_RE_TOKEN.fullmatch(chr(i)) is not None) != chr(i).isalnum()]
    assert ws_bad == [] and tok_bad == []


# ---- seeded fuzz against the oracle ------------------------------------------

# whitespace that is not ASCII (NBSP, NEL, LINE/PARAGRAPH SEPARATOR, the
# C0 information separators, ideographic space), look-alikes that are not
# whitespace, alnum that is not ASCII (superscripts, fractions, other
# scripts' digits, case-folding oddities), lone surrogates, markup
_FRAGMENTS = [
    " ", "  ", "\t", "\r", "\n", "\n\n", "\v", "\f", "\xa0", "\x85", "\u2028",
    "\u2029", "\x1c", "\x1d", "\x1e", "\x1f", "\u3000", "\u200b", "\ufeff",
    "word", "Word", "WORD", "don't", "a_b", "x-y", "foo.bar", "123", "4,5",
    "Ä", "ß", "İ", "Σ", "ς", "\u212a", "ﬁ", "café", "naïve", "中文", "日本語",
    "١٢٣", "²", "½", "Ⅻ", "©", "®", "—", "…", "€", "_", "__", "\ud800",
    "\udfff", "\ud83d", "\U0001f600",
    "<!-- comment -->", "<!--\nmulti\nline-->", "<script>var a = 1 < 2;</script>",
    "<SCRIPT type=x>\n</script >", "<style>p{}</style>", "<p>", "</p>", "<div class=a>",
    "<br/>", "<BR>", "<b>", "</b>", "<span>", "<a href='x'>", "<li>", "<td>",
    "&amp;", "&nbsp;", "&#160;", "&#x85;", "&#133;", "&#8232;", "&#x1c;",
    "&#0;", "&#xD800;", "&lt;", "&gt;", "&eacute;", "&copy;", "&bogus;", "&",
]


def _fuzz_docs(seed: int, n: int) -> list[str]:
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n):
        parts = []
        for _ in range(int(rng.integers(0, 60))):
            r = rng.random()
            if r < 0.7:
                parts.append(_FRAGMENTS[int(rng.integers(len(_FRAGMENTS)))])
            elif r < 0.85:  # any code point, lone surrogates included
                parts.append(chr(int(rng.integers(0, 0x110000))))
            else:
                parts.append(chr(int(rng.integers(0, 0x300))))
        docs.append("".join(parts))
    return docs


def test_rewrites_match_the_regex_oracle_on_fuzzed_input():
    docs = _fuzz_docs(seed=20261017, n=3000)
    assert any(not d.isascii() for d in docs) and any(d.isascii() and d for d in docs)
    for d in docs:
        # str input, and bytes input with the surrogates/invalid bytes the
        # decoder must replace
        raw = d.encode("utf-8", errors="surrogatepass")
        for src in (d, raw, raw[: len(raw) // 2]):
            assert extract_text(src) == oracle_extract_text(src), repr(src)
        text = oracle_extract_text(d)
        for t in (d, text):
            assert normalize_tokens(t) == oracle_normalize_tokens(t), repr(t)
            assert char_tokens(t) == oracle_char_tokens(t), repr(t)
