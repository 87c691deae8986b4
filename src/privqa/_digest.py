"""The two digests privqa computes, from CPython's builtin hash modules.

`hashlib` loads OpenSSL's `_hashlib` on import, which costs every command
about 3.4 MB of memory; the builtin modules compute the same digests. The
builtin sha256 lives in `_sha256` up to Python 3.11 and in `_sha2` from 3.12;
a build without either falls back to `hashlib`.
"""

try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

__all__ = ["blake2b", "sha256"]
