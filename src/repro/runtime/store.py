"""Versioned, content-addressed artifact store.

One *release* is the atomic unit of model rollout: the LSTM weights,
the serialized :class:`~repro.logs.templates.TemplateStore`, the group
assignments and the operating threshold that were produced together
and must be deployed together.  The store keeps every artifact as a
content-addressed blob (``objects/<aa>/<sha256>``) and every release
as a JSON manifest naming its blobs, so:

* publishing is atomic — blobs are written first, the manifest is
  written via temp-file + ``os.replace``, and the ``CURRENT`` pointer
  flips last (a crash at any point leaves the previous release
  intact and current);
* identical artifacts across releases are stored once (weights that
  did not change between releases share a blob);
* rollback is a pointer flip to any retained release;
* retention keeps the newest ``keep_releases`` manifests and
  garbage-collects blobs no retained manifest references.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Union

from repro import telemetry

_MANIFEST_VERSION = 1
_CURRENT = "CURRENT"


class StoreError(RuntimeError):
    """Raised for invalid store operations or damaged artifacts."""


@dataclass(frozen=True)
class Release:
    """One published release.

    Attributes:
        release_id: monotonically increasing integer id.
        artifacts: artifact name → hex sha256 of its blob.
        metadata: caller-supplied JSON-safe annotations.
    """

    release_id: int
    artifacts: Dict[str, str]
    metadata: Dict[str, object]


def atomic_write(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp + replace."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class ArtifactStore:
    """Content-addressed release store under one directory.

    Args:
        directory: store root (created at the first publish, so a
            store that is only read leaves no trace).
        keep_releases: how many releases to retain; older manifests
            are deleted at publish time and their exclusive blobs
            garbage-collected.  The current release is always
            retained regardless of age.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        keep_releases: int = 3,
    ) -> None:
        if keep_releases < 1:
            raise ValueError("keep_releases must be >= 1")
        self.directory = pathlib.Path(directory)
        self.keep_releases = int(keep_releases)
        self._objects = self.directory / "objects"
        self._releases = self.directory / "releases"

    # -- blobs ----------------------------------------------------------

    def _blob_path(self, digest: str) -> pathlib.Path:
        return self._objects / digest[:2] / digest

    def _write_blob(self, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()
        path = self._blob_path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, data)
        return digest

    def object_path(self, digest: str) -> pathlib.Path:
        """Filesystem path of a stored blob (``StoreError`` if missing)."""
        path = self._blob_path(digest)
        if not path.exists():
            raise StoreError(f"missing object {digest}")
        return path

    # -- manifests ------------------------------------------------------

    def _manifest_path(self, release_id: int) -> pathlib.Path:
        return self._releases / f"{release_id:08d}.json"

    def release_ids(self) -> List[int]:
        """Retained release ids, oldest first."""
        return sorted(
            int(path.stem) for path in self._releases.glob("*.json")
        )

    def current_id(self) -> Optional[int]:
        """The current release id (None before the first publish)."""
        pointer = self.directory / _CURRENT
        if not pointer.exists():
            return None
        return int(pointer.read_text().strip())

    def manifest(self, release_id: int) -> Release:
        """Load one release's manifest."""
        path = self._manifest_path(release_id)
        if not path.exists():
            raise StoreError(f"no release {release_id}")
        payload = json.loads(path.read_text())
        if payload.get("manifest_version") != _MANIFEST_VERSION:
            raise StoreError(
                f"release {release_id}: unsupported manifest version "
                f"{payload.get('manifest_version')!r}"
            )
        return Release(
            release_id=payload["release"],
            artifacts=dict(payload["artifacts"]),
            metadata=dict(payload.get("metadata", {})),
        )

    def current(self) -> Optional[Release]:
        """The current release's manifest (None before first publish)."""
        release_id = self.current_id()
        if release_id is None:
            return None
        return self.manifest(release_id)

    # -- publish / read -------------------------------------------------

    def publish(
        self,
        artifacts: Mapping[str, bytes],
        metadata: Optional[Mapping[str, object]] = None,
    ) -> Release:
        """Atomically publish a new release and make it current.

        Blobs land first, then the manifest, then the ``CURRENT``
        pointer — a crash between any two steps leaves the store on
        the previous release with no partial state visible.
        """
        if not artifacts:
            raise ValueError("a release needs at least one artifact")
        ids = self.release_ids()
        release_id = (ids[-1] + 1) if ids else 1
        digests = {
            name: self._write_blob(data)
            for name, data in sorted(artifacts.items())
        }
        self._releases.mkdir(parents=True, exist_ok=True)
        manifest = {
            "manifest_version": _MANIFEST_VERSION,
            "release": release_id,
            "artifacts": digests,
            "metadata": dict(metadata or {}),
        }
        atomic_write(
            self._manifest_path(release_id),
            json.dumps(manifest, indent=2, sort_keys=True).encode(),
        )
        atomic_write(
            self.directory / _CURRENT, str(release_id).encode()
        )
        self._retain()
        registry = telemetry.default_registry()
        registry.counter("runtime.store.releases_published").inc()
        registry.gauge("runtime.store.current_release").set(release_id)
        return Release(release_id, digests, dict(metadata or {}))

    def read(self, release_id: int, name: str) -> bytes:
        """Read one artifact's bytes, verifying its content hash."""
        release = self.manifest(release_id)
        if name not in release.artifacts:
            raise StoreError(
                f"release {release_id} has no artifact {name!r}; "
                f"has {sorted(release.artifacts)}"
            )
        digest = release.artifacts[name]
        data = self.object_path(digest).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            raise StoreError(
                f"object {digest} failed content verification "
                f"(artifact {name!r} of release {release_id})"
            )
        return data

    # -- rollback / retention -------------------------------------------

    def previous_id(self) -> int:
        """The retained release :meth:`rollback` would make current."""
        current_id = self.current_id()
        if current_id is None:
            raise StoreError("nothing published; cannot roll back")
        older = [rid for rid in self.release_ids() if rid < current_id]
        if not older:
            raise StoreError(
                f"release {current_id} has no retained predecessor"
            )
        return older[-1]

    def rollback(self) -> Release:
        """Flip ``CURRENT`` back to the previous retained release."""
        target = self.previous_id()
        atomic_write(self.directory / _CURRENT, str(target).encode())
        registry = telemetry.default_registry()
        registry.counter("runtime.store.rollbacks").inc()
        registry.gauge("runtime.store.current_release").set(target)
        return self.manifest(target)

    def _retain(self) -> None:
        """Drop manifests beyond ``keep_releases``; GC orphaned blobs."""
        ids = self.release_ids()
        current_id = self.current_id()
        keep = set(ids[-self.keep_releases:])
        if current_id is not None:
            keep.add(current_id)
        doomed = [rid for rid in ids if rid not in keep]
        if not doomed:
            return
        for release_id in doomed:
            self._manifest_path(release_id).unlink()
        referenced = set()
        for release_id in self.release_ids():
            referenced.update(
                self.manifest(release_id).artifacts.values()
            )
        for shard in self._objects.iterdir():
            for blob in list(shard.iterdir()):
                if blob.name not in referenced:
                    blob.unlink()


__all__ = ["ArtifactStore", "Release", "StoreError", "atomic_write"]
