"""Vectorized URL canonicalization — pure Arrow kernel (no Ray).

The first stage of a Common-Crawl-style pipeline is URL-level dedup: fetch /
keep each logical page once (CCNet §3.1; the reference's path walk plays the
same role for files, ``main.go`` FindImages). This kernel normalizes a URL
column entirely with Arrow compute — regex splits, list kernels and ONE
numpy lexsort for the query params — so a 100 TB url column streams through
``map_batches`` with no per-row Python.

Rules (RFC 3986 syntax-based normalization + tracker stripping):

- scheme and host lowercased (path/query stay case-sensitive)
- leading ``www.`` stripped from the host
- default ports stripped (``:80`` for http, ``:443`` for https; any other
  port is preserved)
- fragment dropped
- tracking params dropped (``utm_*``, ``fbclid``, ``gclid``)
- surviving query params sorted bytewise (order-insensitive equality)
- trailing slash stripped from non-root paths; empty path → ``/``
- rows that do not parse as ``scheme://host...`` pass through UNCHANGED
  (garbage in a crawl column must not collide on a null)

Out of scope (documented, not silently wrong): percent-encoding
normalization, IDN/punycode, userinfo, dot-segment removal.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TRACKING_PREFIXES = ("utm_", "fbclid", "gclid")
# ListArray offset ceiling; tests lower it to force the LargeListArray branch
_I32_OFFSET_MAX = int(np.iinfo(np.int32).max)


def canonicalize_urls(url: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Canonicalize a string array of URLs; element-wise, null-preserving."""
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()
    nofrag = pc.replace_substring_regex(url, "#.*$", "")
    scheme = pc.utf8_lower(
        pc.struct_field(pc.extract_regex(nofrag, "^(?P<s>[^:]+)://"), "s")
    )
    rest = pc.replace_substring_regex(nofrag, "^[^:]+://", "")
    hostport = pc.utf8_lower(
        pc.struct_field(pc.extract_regex(rest, "^(?P<h>[^/?#]*)"), "h")
    )
    hostport = pc.replace_substring_regex(hostport, r"^www\.", "")
    host = pc.if_else(
        pc.equal(scheme, "http"),
        pc.replace_substring_regex(hostport, ":80$", ""),
        pc.if_else(
            pc.equal(scheme, "https"),
            pc.replace_substring_regex(hostport, ":443$", ""),
            hostport,
        ),
    )
    pathq = pc.replace_substring_regex(rest, "^[^/?#]*", "")
    path = pc.replace_substring_regex(pathq, r"\?.*$", "")
    path = pc.replace_substring_regex(path, "(.+)/$", "\\1")
    path = pc.if_else(pc.equal(path, ""), pa.scalar("/"), path)
    q = pc.struct_field(
        pc.extract_regex(pathq, r"\?(?P<q>.*)$"), "q"
    ).fill_null("")
    params = pc.split_pattern(q, "&")
    flat = pc.list_flatten(params)
    parent = pc.list_parent_indices(params).to_numpy(zero_copy_only=False)
    keep_mask = pc.invert(pc.equal(flat, ""))
    for pref in _TRACKING_PREFIXES:
        keep_mask = pc.and_(keep_mask, pc.invert(pc.starts_with(flat, pref)))
    keep = keep_mask.to_numpy(zero_copy_only=False)
    vals = np.asarray(flat.to_pylist(), dtype=object)[keep]
    par = parent[keep]
    o = np.lexsort((vals, par))
    vals, par = vals[o], par[o]
    counts = np.bincount(par, minlength=len(url)).astype(np.int64)
    cum = np.r_[0, np.cumsum(counts)]
    # int32 offsets overflow past 2^31 surviving params per batch (ADVICE r4):
    # above that, list AND string values take int64 offsets. A joined query
    # is never longer than its url, so it fits the url's type.
    list_cls, off_t, val_t = ((pa.ListArray, pa.int32(), pa.string()) if cum[-1] <= _I32_OFFSET_MAX
                              else (pa.LargeListArray, pa.int64(), pa.large_string()))
    plist = list_cls.from_arrays(pa.array(cum, off_t), pa.array(vals.tolist(), val_t))
    canon_q = pc.binary_join(plist, pa.scalar("&", val_t)).cast(url.type)
    qpart = pc.if_else(
        pc.equal(canon_q, ""),
        pa.scalar(""),
        pc.binary_join_element_wise("?", canon_q, ""),
    )
    canon = pc.binary_join_element_wise(scheme, "://", host, path, qpart, "")
    # unparseable rows (no scheme://) keep their original value; null in →
    # null out (binary_join_element_wise already nulls on null scheme)
    return pc.if_else(pc.is_valid(scheme), canon, url)
