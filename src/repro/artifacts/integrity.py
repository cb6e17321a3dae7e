"""Hashing, signing, key files and the atomic file write for artifacts.

The integrity model is layered (weakest to strongest):

* per-record SHA-256 -- catches corruption of one record's payload;
* whole-content SHA-256 in the footer -- catches any tampering *including*
  of headers, but an attacker who can rewrite the file can recompute it;
* HMAC-SHA256 over the same content bytes, keyed by a secret file --
  unforgeable without the key, verified with :func:`hmac.compare_digest`
  so the check leaks no timing information.

The same key doubles as the service's client-auth secret
(``repro serve --auth-key``): a client proves key possession by sending
``HMAC(key, client_id)`` and the server compares in constant time.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import os
import secrets
from typing import Optional, Union

from repro.artifacts.spec import ArtifactKeyError, ArtifactSignatureError

#: Keys below this many bytes are refused outright.
MIN_KEY_BYTES = 16

#: Size of freshly generated keys.
DEFAULT_KEY_BYTES = 32


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hmac_hex(key: bytes, data: bytes) -> str:
    return hmac.new(key, data, hashlib.sha256).hexdigest()


def sign_content(key: bytes, content: bytes) -> str:
    """The artifact footer signature for ``content``."""
    return hmac_hex(key, content)


def verify_signature(key: bytes, content: bytes, signature: Optional[str]) -> None:
    """Constant-time signature check; raises :class:`ArtifactSignatureError`."""
    if signature is None:
        raise ArtifactSignatureError(
            "artifact is unsigned but a verification key was provided"
        )
    expected = sign_content(key, content)
    if not hmac.compare_digest(expected, signature):
        raise ArtifactSignatureError("artifact signature does not match the key")


def auth_token(key: bytes, client_id: str) -> str:
    """The ``X-Auth-Token`` value proving possession of ``key``."""
    return hmac_hex(key, client_id.encode("utf-8"))


def verify_auth_token(key: bytes, client_id: str, token: str) -> bool:
    """Constant-time client-auth check (bool: HTTP layer answers 401)."""
    if not client_id or not token:
        return False
    return hmac.compare_digest(auth_token(key, client_id), token)


# --------------------------------------------------------------------------- #
# Files
# --------------------------------------------------------------------------- #

def write_file_atomically(
    path: Union[str, os.PathLike], data: bytes, mode: int = 0o666
) -> None:
    """Replace ``path`` with ``data``, or leave it as it was.

    The bytes go to a new temporary file in ``path``'s directory, created
    with ``mode`` (less the umask), which is flushed, fsynced and renamed
    over ``path``.  On any failure the temporary file is closed and
    removed, and an :class:`OSError` names ``path``.
    """
    path = os.fspath(path)
    tmp_path = os.path.join(os.path.dirname(path), f".tmp-{secrets.token_hex(8)}")
    try:
        descriptor = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise
    except OSError as error:
        raise OSError(error.errno, error.strerror, path) from error


def generate_key(num_bytes: int = DEFAULT_KEY_BYTES) -> bytes:
    return secrets.token_bytes(num_bytes)


def write_key_file(
    path: Union[str, os.PathLike], key: Optional[bytes] = None
) -> bytes:
    """Write ``key`` (or a fresh one) as hex, owner-read-only (0600).

    The file is always a new one, so a key written over an existing,
    more permissive file does not inherit that file's mode.
    """
    if key is None:
        key = generate_key()
    if len(key) < MIN_KEY_BYTES:
        raise ArtifactKeyError(
            f"refusing to write a {len(key)}-byte key (minimum {MIN_KEY_BYTES})"
        )
    write_file_atomically(path, (key.hex() + "\n").encode("ascii"), mode=0o600)
    return key


def load_key_file(path: Union[str, os.PathLike]) -> bytes:
    """Read and validate a hex key file; raises :class:`ArtifactKeyError`."""
    try:
        with open(os.fspath(path), "r", encoding="ascii") as handle:
            text = handle.read().strip()
    except OSError as error:
        raise ArtifactKeyError(f"cannot read key file {path!s}: {error}")
    except UnicodeDecodeError:
        raise ArtifactKeyError(f"key file {path!s} is not ASCII hex")
    try:
        key = bytes.fromhex(text)
    except ValueError:
        raise ArtifactKeyError(f"key file {path!s} is not valid hex")
    if len(key) < MIN_KEY_BYTES:
        raise ArtifactKeyError(
            f"key file {path!s} holds only {len(key)} bytes "
            f"(minimum {MIN_KEY_BYTES})"
        )
    return key
