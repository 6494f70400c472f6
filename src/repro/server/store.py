"""SQLite session persistence for the PDE-as-a-service daemon.

The store is what makes the fleet *resident*: every hosted device's spec
(seed, geometry, passwords — this is a simulator, the spec is the
experiment definition, not a secret), lifecycle state and a block-interned
image of its storage medium live in one SQLite file, checkpointed after
every mutating operation. A daemon restart — graceful or a plain kill —
re-creates each device from its spec, restores the checkpointed image
byte-for-byte onto the fresh medium and re-attaches the PDE system over
it, exactly like powering a real phone back up: the on-flash half survives,
the in-RAM half (mounts, pool object, session keys) is rebuilt by booting.

Images and adversary snapshots share one content-addressed ``blocks``
table (SHA-256 keyed), the same interning trick
:func:`repro.blockdev.snapshot.capture` uses in RAM: a fleet of mostly
empty 16 MiB devices costs kilobytes, not gigabytes, and repeated
snapshots of a slowly changing device only store the churn.

All methods are safe to call from the executor's worker threads: one
connection guarded by one lock (operations are short — the daemon's
concurrency lives in the simulated devices, not in SQLite).
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import threading
import time
from typing import Dict, List, Optional

from repro.blockdev.snapshot import Snapshot
from repro.errors import DeviceExistsError, NoSuchDeviceError, ServerError

#: Bump on incompatible schema changes; stored in ``meta``.
STORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS devices (
    id    INTEGER PRIMARY KEY AUTOINCREMENT,
    name  TEXT NOT NULL UNIQUE,
    spec  TEXT NOT NULL,
    state TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS blocks (
    hash  TEXT PRIMARY KEY,
    data  BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS images (
    device_id  INTEGER NOT NULL REFERENCES devices(id),
    medium     TEXT NOT NULL,
    block_size INTEGER NOT NULL,
    taken_at   REAL NOT NULL,
    manifest   TEXT NOT NULL,
    PRIMARY KEY (device_id, medium)
);
CREATE TABLE IF NOT EXISTS snapshots (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    device_id  INTEGER NOT NULL REFERENCES devices(id),
    label      TEXT NOT NULL,
    taken_at   REAL NOT NULL,
    digest     TEXT NOT NULL,
    block_size INTEGER NOT NULL,
    manifest   TEXT NOT NULL
);
"""


class FleetStore:
    """The daemon's session database.

    *path* is a filesystem path or ``":memory:"`` (ephemeral — the fleet
    then does not survive a restart, which is fine for tests and demos).
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        if self.path != ":memory:":
            pathlib.Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # one connection shared across worker threads, guarded by _lock
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._lock = threading.Lock()
        # operational bookkeeping (not persisted): how many checkpoint
        # transactions this process has committed, and the wall seconds
        # the most recent one took inside the lock
        self.checkpoints = 0
        self.last_checkpoint_wall_s = 0.0
        with self._lock:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(STORE_SCHEMA_VERSION)),
                )
                self._conn.commit()
            elif int(row[0]) != STORE_SCHEMA_VERSION:
                raise ServerError(
                    f"fleet db {self.path} has schema version {row[0]}, "
                    f"this daemon speaks {STORE_SCHEMA_VERSION}"
                )

    # -- devices ---------------------------------------------------------------

    def create_device(self, name: str, spec: Dict[str, object]) -> int:
        """Insert a device row; returns its id. Names are unique."""
        with self._lock:
            try:
                cur = self._conn.execute(
                    "INSERT INTO devices (name, spec, state) VALUES (?, ?, ?)",
                    (name, json.dumps(spec, sort_keys=True), "{}"),
                )
            except sqlite3.IntegrityError:
                raise DeviceExistsError(
                    f"device name {name!r} is already in use"
                ) from None
            self._conn.commit()
            return int(cur.lastrowid)

    def update_state(self, device_id: int, state: Dict[str, object]) -> None:
        with self._lock:
            cur = self._conn.execute(
                "UPDATE devices SET state = ? WHERE id = ?",
                (json.dumps(state, sort_keys=True), device_id),
            )
            if cur.rowcount == 0:
                raise NoSuchDeviceError(device_id)
            self._conn.commit()

    def get_device(self, device_id: int) -> Optional[Dict[str, object]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT id, name, spec, state FROM devices WHERE id = ?",
                (device_id,),
            ).fetchone()
        if row is None:
            return None
        return {
            "id": row[0],
            "name": row[1],
            "spec": json.loads(row[2]),
            "state": json.loads(row[3]),
        }

    def list_devices(self) -> List[Dict[str, object]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, name, spec, state FROM devices ORDER BY id"
            ).fetchall()
        return [
            {
                "id": r[0],
                "name": r[1],
                "spec": json.loads(r[2]),
                "state": json.loads(r[3]),
            }
            for r in rows
        ]

    def delete_device(self, device_id: int) -> None:
        """Drop a device with its image and snapshots; prune orphan blocks."""
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM devices WHERE id = ?", (device_id,)
            )
            if cur.rowcount == 0:
                raise NoSuchDeviceError(device_id)
            self._conn.execute(
                "DELETE FROM images WHERE device_id = ?", (device_id,)
            )
            self._conn.execute(
                "DELETE FROM snapshots WHERE device_id = ?", (device_id,)
            )
            self._prune_blocks_locked()
            self._conn.commit()

    # -- images & snapshots ----------------------------------------------------

    def _intern_blocks_locked(self, snapshot: Snapshot) -> List[str]:
        # A frozen CoW capture arrives with every block's hash already
        # computed (unchanged blocks carry the hash cached at the last
        # freeze); any other capture hashes once per distinct block
        # object. Interning then costs one INSERT per *distinct* block.
        hashes = snapshot.block_hashes()
        self._conn.executemany(
            "INSERT OR IGNORE INTO blocks (hash, data) VALUES (?, ?)",
            dict(zip(hashes, snapshot.blocks)).items(),
        )
        return list(hashes)

    def _load_manifest_locked(
        self, manifest: List[str], block_size: int, label: str, taken_at: float
    ) -> Snapshot:
        interned: Dict[str, bytes] = {}
        blocks: List[bytes] = []
        for h in manifest:
            data = interned.get(h)
            if data is None:
                row = self._conn.execute(
                    "SELECT data FROM blocks WHERE hash = ?", (h,)
                ).fetchone()
                if row is None:
                    raise ServerError(
                        f"fleet db {self.path} is corrupt: block {h} "
                        "referenced by a manifest is missing"
                    )
                data = interned[h] = bytes(row[0])
            blocks.append(data)
        return Snapshot(
            label=label,
            taken_at=taken_at,
            block_size=block_size,
            blocks=tuple(blocks),
        )

    def _save_image_locked(
        self, device_id: int, medium: str, snapshot: Snapshot
    ) -> None:
        """Intern + upsert one medium's image row; caller owns the commit."""
        manifest = self._intern_blocks_locked(snapshot)
        self._conn.execute(
            "INSERT OR REPLACE INTO images "
            "(device_id, medium, block_size, taken_at, manifest) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                device_id,
                medium,
                snapshot.block_size,
                snapshot.taken_at,
                json.dumps(manifest),
            ),
        )

    def save_image(
        self, device_id: int, medium: str, snapshot: Snapshot
    ) -> None:
        """Checkpoint one of a device's media (replaces the last image).

        *medium* names the physical device within the phone —
        ``userdata``, ``cache`` or ``devlog``; a bootable checkpoint
        needs all three (the log partitions carry their own ext4
        filesystems, and their breadcrumbs are experiment data).
        """
        with self._lock:
            self._save_image_locked(device_id, medium, snapshot)
            self._conn.commit()

    def checkpoint(
        self,
        device_id: int,
        images: Dict[str, Snapshot],
        state: Optional[Dict[str, object]] = None,
    ) -> None:
        """Atomically persist a device's media images and lifecycle state.

        All image rows (and the state row, when given) land in ONE SQLite
        transaction: a daemon killed mid-checkpoint leaves the previous
        consistent fleet image intact, never a torn one mixing media from
        two different checkpoints. This is the only way a multi-medium
        checkpoint should be written — per-medium :meth:`save_image` calls
        commit independently and can tear.
        """
        with self._lock:
            started = time.monotonic()
            try:
                for medium, snapshot in images.items():
                    self._save_image_locked(device_id, medium, snapshot)
                if state is not None:
                    cur = self._conn.execute(
                        "UPDATE devices SET state = ? WHERE id = ?",
                        (json.dumps(state, sort_keys=True), device_id),
                    )
                    if cur.rowcount == 0:
                        raise NoSuchDeviceError(device_id)
            except BaseException:
                self._conn.rollback()
                raise
            self._conn.commit()
            self.checkpoints += 1
            self.last_checkpoint_wall_s = time.monotonic() - started

    def load_image(self, device_id: int, medium: str) -> Optional[Snapshot]:
        with self._lock:
            row = self._conn.execute(
                "SELECT block_size, taken_at, manifest FROM images "
                "WHERE device_id = ? AND medium = ?",
                (device_id, medium),
            ).fetchone()
            if row is None:
                return None
            return self._load_manifest_locked(
                json.loads(row[2]), row[0],
                f"image-{device_id}-{medium}", row[1],
            )

    def add_snapshot(self, device_id: int, snapshot: Snapshot) -> int:
        """Persist one adversary snapshot manifest; returns its id."""
        with self._lock:
            manifest = self._intern_blocks_locked(snapshot)
            cur = self._conn.execute(
                "INSERT INTO snapshots "
                "(device_id, label, taken_at, digest, block_size, manifest) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    device_id,
                    snapshot.label,
                    snapshot.taken_at,
                    snapshot.digest(),
                    snapshot.block_size,
                    json.dumps(manifest),
                ),
            )
            self._conn.commit()
            return int(cur.lastrowid)

    def get_snapshot(self, device_id: int, snapshot_id: int) -> Snapshot:
        with self._lock:
            row = self._conn.execute(
                "SELECT label, taken_at, block_size, manifest FROM snapshots "
                "WHERE id = ? AND device_id = ?",
                (snapshot_id, device_id),
            ).fetchone()
            if row is None:
                raise NoSuchDeviceError(
                    f"snapshot {snapshot_id} of device {device_id}"
                )
            return self._load_manifest_locked(
                json.loads(row[3]), row[2], row[0], row[1]
            )

    def list_snapshots(self, device_id: int) -> List[Dict[str, object]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, label, taken_at, digest FROM snapshots "
                "WHERE device_id = ? ORDER BY id",
                (device_id,),
            ).fetchall()
        return [
            {"id": r[0], "label": r[1], "taken_at": r[2], "digest": r[3]}
            for r in rows
        ]

    # -- maintenance -----------------------------------------------------------

    def _prune_blocks_locked(self) -> int:
        """Delete blocks referenced by no image or snapshot manifest."""
        referenced = set()
        for (manifest,) in self._conn.execute("SELECT manifest FROM images"):
            referenced.update(json.loads(manifest))
        for (manifest,) in self._conn.execute(
            "SELECT manifest FROM snapshots"
        ):
            referenced.update(json.loads(manifest))
        cur = self._conn.execute("SELECT hash FROM blocks")
        orphans = [h for (h,) in cur.fetchall() if h not in referenced]
        for h in orphans:
            self._conn.execute("DELETE FROM blocks WHERE hash = ?", (h,))
        return len(orphans)

    def stats(self) -> Dict[str, object]:
        """Row counts + checkpoint bookkeeping, for ``/healthz`` and tests."""
        with self._lock:
            out: Dict[str, object] = {}
            for table in ("devices", "blocks", "images", "snapshots"):
                out[table] = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"  # fixed table names
                ).fetchone()[0]
            out["checkpoints"] = self.checkpoints
            out["last_checkpoint_wall_s"] = self.last_checkpoint_wall_s
            return out

    def close(self) -> None:
        with self._lock:
            self._conn.close()
