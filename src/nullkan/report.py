"""Canonical report payloads.

Reports are plain dicts of JSON scalars.  `canonical_json` fixes the
byte form (sorted keys, two-space indent, LF, trailing newline) so the
same run always produces the same file, and null sets are rendered as
element-id arrays ordered by ascending mask.
"""

from __future__ import annotations

import json

# The builtin SHA-256 keeps OpenSSL's 3.4 MB out of every verdict's peak.
try:
    from _sha256 import sha256  # CPython 3.10 and 3.11
except ImportError:
    from hashlib import sha256  # 3.12+, where the builtin is `_sha2`

from .order import NullityStructure


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def digest(data: bytes) -> str:
    return "sha256:" + sha256(data).hexdigest()


def nullity_cells(struct: NullityStructure) -> list[list[str]]:
    return [sorted(struct.carrier.elems_of(m)) for m in sorted(struct.masks)]


def assignment_payload(assignment: dict[str, NullityStructure]) -> dict:
    return {
        x: {"carrier": list(s.carrier.elements), "null": nullity_cells(s)}
        for x, s in assignment.items()
    }
