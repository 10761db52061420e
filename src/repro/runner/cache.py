"""Content-addressed on-disk cache for unit results.

Layout: ``<root>/<token[:2]>/<token>.pkl`` where ``token`` is
:meth:`repro.runner.units.RunUnit.cache_token` — a sha256 over experiment
name, unit function path, parameters, seed, and package version. Files are
self-verifying (magic header + payload digest) and written atomically, so a
corrupted, truncated, or foreign file is always treated as a miss, never an
error; concurrent writers at worst redo work.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.runner.units import RunUnit

#: File format tag; bump when the on-disk layout changes.
_MAGIC = b"RRC1"
_DIGEST_BYTES = 32

#: Environment override for where results land (tests point this at tmp).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """Pickle store keyed by unit content hashes.

    ``hits`` / ``misses`` count lookups since construction; ``stores`` counts
    successful writes; ``corrupt`` counts blobs that failed verification and
    were quarantined. All methods are best-effort: I/O failures degrade to
    cache misses (reads) or dropped entries (writes) rather than exceptions,
    because a cache must never make a correct run fail.

    A blob that exists but fails verification (bad magic, digest mismatch,
    unpicklable payload) is *quarantined* — renamed to ``<token>.corrupt``,
    or unlinked if the rename fails — so the recomputed result can be stored
    under the original name instead of colliding with the damaged file on
    every subsequent run, and so the damaged bytes remain on disk for
    post-mortem instead of silently re-reading as a miss forever.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def path_for(self, unit: RunUnit) -> Path:
        token = unit.cache_token()
        return self.root / token[:2] / f"{token}.pkl"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, unit: RunUnit) -> Tuple[bool, Any]:
        """``(True, value)`` on a verified hit, else ``(False, None)``.

        A blob that fails verification counts as a miss *and* is moved out
        of the way (see class docstring) so it cannot shadow the slot.
        """
        path = self.path_for(unit)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return False, None
        value = _decode(blob)
        if value is _INVALID:
            self.misses += 1
            self.corrupt += 1
            self._quarantine(path)
            return False, None
        self.hits += 1
        return True, value

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Rename a damaged blob aside (or unlink it if the rename fails)."""
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def put(self, unit: RunUnit, value: Any) -> Optional[Path]:
        """Atomically persist ``value``; returns the path, or ``None`` when it
        cannot be written or pickled (a lock, a local function)."""
        path = self.path_for(unit)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            blob = _MAGIC + hashlib.sha256(payload).digest() + payload
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=path.name, suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            return None
        self.stores += 1
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache {self.root} hits={self.hits} misses={self.misses} "
            f"stores={self.stores}>"
        )


class _Invalid:
    __slots__ = ()


#: Sentinel distinguishing "decoded None" from "undecodable blob".
_INVALID = _Invalid()


def _decode(blob: bytes) -> Any:
    """Verify and unpickle a cache blob; ``_INVALID`` on any defect."""
    header = len(_MAGIC) + _DIGEST_BYTES
    if len(blob) < header or blob[: len(_MAGIC)] != _MAGIC:
        return _INVALID
    digest = blob[len(_MAGIC) : header]
    payload = blob[header:]
    if hashlib.sha256(payload).digest() != digest:
        return _INVALID
    try:
        return pickle.loads(payload)
    except Exception:
        return _INVALID
