"""On-disk result cache for regenerated experiments and sweep points.

Every experiment is a pure function of (experiment name, scale
configuration, source tree), so its report can be cached and replayed.
A sweep grid point is a pure function of one more input — the point's
full parameter dict — so its measurement dict caches the same way. The
key digests all inputs; any edit under ``src/repro`` — or any scale- or
parameter-field change — misses and recomputes, which keeps the cache
impossible to poison by code drift and makes two grid points of the
same experiment impossible to collide (each parameter assignment gets
its own key).

There is one entry format for both: a single JSON file under
``out/cache/`` holding the unit's JSON payload (an experiment's report
text + shape verdict, or a grid point's measurement dict) and a
checksum of that payload. A corrupt, truncated or mistyped entry
(interrupted write, disk mishap, hostile bytes) fails validation and is
deleted, so the caller transparently recomputes — the cache can only
ever cost a miss, never a wrong result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any

__all__ = ["DEFAULT_CACHE_DIR", "code_digest", "cache_key", "load",
           "store"]

DEFAULT_CACHE_DIR = Path("out/cache")

#: bump to invalidate every existing entry on format changes
#: (v2: keys carry the sweep-point parameter dict; v3: one entry format)
_FORMAT_VERSION = 3

_code_digest: str | None = None


def code_digest() -> str:
    """Digest of every ``src/repro/**/*.py`` file (path + content).

    Computed once per process: the source tree cannot change under a
    running harness, and hashing ~50 files per experiment would cost
    more than some cache hits save.
    """
    global _code_digest
    if _code_digest is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _code_digest = h.hexdigest()
    return _code_digest


def cache_key(experiment: str, scale,
              params: dict[str, Any] | None = None) -> str:
    """Digest identifying one (experiment, scale, params, tree) cell.

    ``params`` is the sweep point's *full* parameter dict; it is part
    of the key so two grid points of the same experiment and scale can
    never collide. ``None`` (a whole-experiment report, no grid) and
    ``{}`` hash differently from any non-empty parameter assignment.
    """
    ident = {
        "version": _FORMAT_VERSION,
        "experiment": experiment,
        "scale": asdict(scale),
        "params": (None if params is None
                   else {k: params[k] for k in sorted(params)}),
        "code": code_digest(),
    }
    blob = json.dumps(ident, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _checksum(payload: dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def load(key: str, cache_dir: str | Path = DEFAULT_CACHE_DIR,
         fields: dict[str, type] | None = None) -> dict[str, Any] | None:
    """Return the cached payload dict, or None on miss.

    ``fields`` names keys the payload must carry and their types (an
    experiment's ``{"report": str, "shapes_hold": bool}``). A malformed
    entry — unreadable, not JSON, missing or mistyped fields, or a
    payload whose checksum does not match — counts as a miss and is
    removed so the recomputed result can take its place. JSON
    round-trips floats exactly (shortest repr), so a hit is
    byte-identical to a recompute in every downstream rendering.
    """
    path = Path(cache_dir) / f"{key}.json"
    try:
        entry = json.loads(path.read_bytes())
        payload = entry["payload"]
        if not isinstance(payload, dict):
            raise TypeError("payload is not an object")
        for name, kind in (fields or {}).items():
            if not isinstance(payload[name], kind):
                raise TypeError(f"{name} is not {kind.__name__}")
        if _checksum(payload) != entry["sha256"]:
            raise ValueError("checksum mismatch")
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        try:
            path.unlink(missing_ok=True)
        except OSError:  # e.g. a directory squatting on the entry name
            pass
        return None
    return payload


def store(key: str, experiment: str, payload: dict[str, Any],
          cache_dir: str | Path = DEFAULT_CACHE_DIR) -> Path:
    """Write one entry atomically; returns its path.

    The temporary file is unique per writer, so two processes storing
    the same key (two sweeps sharing a cache directory) cannot trip
    over each other's half-written file; the last rename wins, and both
    wrote the same bytes.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{key}.json"
    entry = {"experiment": experiment, "payload": payload,
             "sha256": _checksum(payload)}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f"{key}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return path
