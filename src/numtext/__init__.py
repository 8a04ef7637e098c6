"""Deterministic toolkit for numeric-reasoning-over-text training data:
synthetic arithmetic (NUM) and word-problem (TXT) generation, DROP/SQuAD
ingestion with prefix-tagged formatting, temperature-scaled multitask
mixing, warmup/inverse-decay learning-rate schedules, and DROP-style
EM / numeracy-gated F1 scoring."""

__version__ = "0.1.0"

# The package's one SHA-256 (seeds, config and vocabulary hashes). It is the
# interpreter's own module, as ``random`` takes ``_sha512``: ``hashlib`` would load
# OpenSSL into every command. Python 3.12 renamed it; ``hashlib`` gives the same digests.
try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256
