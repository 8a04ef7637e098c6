"""Deterministic seed derivation for shardable generation.

Every random draw in the toolkit flows from one user-visible root seed.
Child seeds are derived by hashing the root seed together with a label
path (e.g. ``("num", 17)`` for the 18th arithmetic example), so shards
and per-example streams are independent and reproducible regardless of
scheduling.
"""

from . import sha256


def derive_seed(seed: int, *labels) -> int:
    """Derive a 64-bit child seed from a root seed and a label path.

    The derivation is the first 8 bytes of the SHA-256 digest of
    ``"<seed>:<label>:<label>..."``, so it is stable across runs,
    platforms, and Python versions.
    """
    text = ":".join([str(int(seed)), *[str(part) for part in labels]])
    digest = sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
