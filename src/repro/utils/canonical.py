"""Canonical JSON: the one encoding behind state hashes and checkpoint files.

Sorted keys, compact separators, NaN rejected.  Python floats round-trip
exactly through JSON (shortest-repr encoding), so equal states always encode
to equal strings and vice versa.

JSON text is compositional: a list encodes as its items' texts joined by
commas, an object as its sorted ``"key":value`` pairs.  So a value encoded
once can be spliced into a larger document (:func:`splice_json`) and the
result is byte-identical to encoding the whole document afresh.
"""

from __future__ import annotations

import json
from typing import Mapping

__all__ = ["canonical_json", "splice_json"]

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(payload) -> str:
    """Deterministic JSON encoding: sorted keys, compact, NaN rejected."""
    return _ENCODER.encode(payload)


def splice_json(payload: dict, encoded: Mapping[str, str]) -> str:
    """``canonical_json`` of ``payload`` with some top-level values given as text.

    ``encoded`` maps top-level keys of ``payload`` to the canonical JSON
    text of their values; each is written verbatim in place of the value
    ``payload`` holds under that key (typically ``None``).  All top-level
    keys must be strings, as they are in every state and checkpoint payload.
    """
    encode = _ENCODER.encode
    pairs = [
        f"{encode(key)}:{encoded[key] if key in encoded else encode(value)}"
        for key, value in sorted(payload.items())
    ]
    return "{" + ",".join(pairs) + "}"
