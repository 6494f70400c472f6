"""One hosted fleet device: a simulated phone plus its PDE system.

A :class:`ServerDevice` is what a ``/devices/{id}`` resource resolves to:
a full :class:`~repro.android.phone.Phone` (own sim clock, RNG streams,
eMMC medium) with a :class:`~repro.core.system.MobiCealSystem` on top,
plus the device's telemetry spool and metric registry. All methods here
run in executor worker threads *under the device's lock* — one op at a
time per device, in request order — which is the whole determinism story:
every clock advance and RNG draw a device makes is a pure function of its
seed and its op sequence, so eight devices driven concurrently are
byte-identical to the same eight driven one after another.

Deliberately none of this uses the global :mod:`repro.obs` recorder (a
process-wide current-recorder slot — exactly what a multi-device daemon
must not share). Each device owns a private
:class:`~repro.obs.metrics.MetricRegistry`, confined to its lock.

After every mutating op the device checkpoints: ``sync()`` if booted,
then a block-interned image of every medium plus the lifecycle state row
into the :class:`~repro.server.store.FleetStore` — all in **one** SQLite
transaction (:meth:`~repro.server.store.FleetStore.checkpoint`), so a
daemon killed mid-checkpoint leaves the previous consistent checkpoint
behind, never a torn one. Devices on the copy-on-write store hand the
capture a frozen image with per-block hashes attached, so a checkpoint
costs O(dirty blocks), not O(device size). :meth:`ServerDevice.resume`
inverts that on daemon restart — a restart is a fleet-wide power event;
devices come back OFFLINE and are booted again over their restored
medium (``after_crash`` persisting across the restart).
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.android.framework import PhoneState
from repro.android.phone import SMALL_USERDATA_BLOCKS, Phone
from repro.android.screenlock import UnlockResult
from repro.blockdev.snapshot import Snapshot, capture, diff, restore
from repro.core.config import MobiCealConfig
from repro.core.system import MobiCealSystem, Mode
from repro.errors import (
    BadPasswordError,
    BadRequestError,
    ConfigError,
    ModeError,
)
from repro.obs.chrometrace import render_chrome_trace
from repro.obs.export import SCHEMA_VERSION
from repro.obs.gauges import pool_deniability_gauges
from repro.obs.metrics import MetricRegistry
from repro.obs.recorder import Recorder
from repro.obs.stream import DeviceTelemetryStreamer, SpoolWriter, spool_path

#: Hard ceiling on hosted device size — the daemon keeps every device's
#: medium in RAM, so one request must not be able to allocate gigabytes.
MAX_USERDATA_BLOCKS = 1 << 20

_NULL_CONTEXT = contextlib.nullcontext()


@dataclass(frozen=True)
class DeviceConfig:
    """The create-request personality of one hosted device.

    This is everything needed to rebuild the device from scratch — the
    spec persisted in SQLite is exactly this dataclass as a dict. In a
    simulator the passwords are part of the experiment definition, not
    secrets, so they round-trip through the store like any other knob.
    """

    name: str
    seed: int = 0
    userdata_blocks: int = SMALL_USERDATA_BLOCKS
    num_volumes: int = 4
    decoy_password: str = "decoy"
    hidden_passwords: Tuple[str, ...] = ("hidden",)
    screenlock_password: str = "0000"
    allocation: str = "random"

    @classmethod
    def from_request(cls, payload: object) -> "DeviceConfig":
        """Parse and validate a ``POST /devices`` body.

        Raises :class:`BadRequestError` naming the offending field, so the
        API's 400s are actionable.
        """
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        known = {
            "name", "seed", "userdata_blocks", "num_volumes",
            "decoy_password", "hidden_passwords", "screenlock_password",
            "allocation",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise BadRequestError(f"unknown device field(s): {unknown}")
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise BadRequestError("'name' must be a non-empty string")
        kwargs: Dict[str, object] = {"name": name}
        for field_name, types in (
            ("seed", int),
            ("userdata_blocks", int),
            ("num_volumes", int),
            ("decoy_password", str),
            ("screenlock_password", str),
            ("allocation", str),
        ):
            if field_name in payload:
                value = payload[field_name]
                if not isinstance(value, types) or isinstance(value, bool):
                    raise BadRequestError(
                        f"{field_name!r} must be of type {types.__name__}"
                    )
                kwargs[field_name] = value
        if "hidden_passwords" in payload:
            pwds = payload["hidden_passwords"]
            if not isinstance(pwds, list) or not all(
                isinstance(p, str) for p in pwds
            ):
                raise BadRequestError(
                    "'hidden_passwords' must be a list of strings"
                )
            kwargs["hidden_passwords"] = tuple(pwds)
        config = cls(**kwargs)  # type: ignore[arg-type]
        config.validate()
        return config

    def validate(self) -> None:
        if not 64 <= self.userdata_blocks <= MAX_USERDATA_BLOCKS:
            raise BadRequestError(
                "'userdata_blocks' must be in "
                f"[64, {MAX_USERDATA_BLOCKS}], got {self.userdata_blocks}"
            )
        try:
            self.mobiceal_config().validate()
        except ConfigError as exc:
            raise BadRequestError(str(exc)) from None
        if len(self.hidden_passwords) >= self.num_volumes - 1:
            raise BadRequestError(
                f"{len(self.hidden_passwords)} hidden password(s) need "
                f"num_volumes > {len(self.hidden_passwords) + 1}"
            )

    def to_spec(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "userdata_blocks": self.userdata_blocks,
            "num_volumes": self.num_volumes,
            "decoy_password": self.decoy_password,
            "hidden_passwords": list(self.hidden_passwords),
            "screenlock_password": self.screenlock_password,
            "allocation": self.allocation,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "DeviceConfig":
        kwargs = dict(spec)
        kwargs["hidden_passwords"] = tuple(kwargs.get("hidden_passwords", ()))
        return cls(**kwargs)  # type: ignore[arg-type]

    def mobiceal_config(self) -> MobiCealConfig:
        return MobiCealConfig(
            num_volumes=self.num_volumes, allocation=self.allocation
        )

    def make_phone(self, store: Optional[str] = None) -> Phone:
        # *store* is host policy (which BlockStore backend holds the
        # bytes), not part of the persisted device spec: the same fleet db
        # can be served with ``--store ram`` one day and ``mmap`` the next.
        return Phone(
            seed=self.seed, userdata_blocks=self.userdata_blocks, store=store
        )


def decode_write_request(payload: object) -> Tuple[str, bytes]:
    """Parse a ``POST /devices/{id}/write`` body into ``(path, data)``.

    Content arrives base64-encoded (JSON has no bytes); ``data`` may be
    given instead as a plain UTF-8 string for curl-friendliness.
    """
    if not isinstance(payload, dict):
        raise BadRequestError("request body must be a JSON object")
    path = payload.get("path")
    if not isinstance(path, str) or not path.startswith("/"):
        raise BadRequestError("'path' must be an absolute path string")
    if "data_b64" in payload:
        encoded = payload["data_b64"]
        if not isinstance(encoded, str):
            raise BadRequestError("'data_b64' must be a base64 string")
        try:
            data = base64.b64decode(encoded, validate=True)
        except (binascii.Error, ValueError):
            raise BadRequestError("'data_b64' is not valid base64") from None
    elif "data" in payload:
        if not isinstance(payload["data"], str):
            raise BadRequestError("'data' must be a string")
        data = payload["data"].encode("utf-8")
    else:
        raise BadRequestError("one of 'data_b64' or 'data' is required")
    return path, data


class ServerDevice:
    """One resident device; all methods run under the device's lock."""

    def __init__(
        self,
        device_id: int,
        config: DeviceConfig,
        store,
        stream_dir,
        store_backend: Optional[str] = None,
        slow_request_s: Optional[float] = None,
        wall_cb=None,
    ) -> None:
        self.id = device_id
        self.config = config
        self.store = store
        self.phone = config.make_phone(store=store_backend)
        self.system = MobiCealSystem(self.phone, config.mobiceal_config())
        self.metrics = MetricRegistry()
        self.writer = SpoolWriter(spool_path(stream_dir, device_id), device_id)
        self.streamer = DeviceTelemetryStreamer(
            self.writer, self.metrics, clock=self.phone.clock
        )
        self.needs_recovery = False
        self.image_digest: Optional[str] = None
        self.created_wall = time.monotonic()
        self.finished = False
        #: slow-request capture threshold (wall seconds); None disables
        self.slow_request_s = slow_request_s
        #: daemon callback for wall-clock durations (e.g. checkpoint time);
        #: must be thread-safe — it is invoked from worker threads
        self.wall_cb = wall_cb
        # the request currently executing under this device's lock; only
        # run_op sets these, so they are lock-confined like everything else
        self._trace = None
        self._trace_recorder: Optional[Recorder] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        device_id: int,
        config: DeviceConfig,
        store,
        stream_dir,
        store_backend: Optional[str] = None,
        slow_request_s: Optional[float] = None,
        wall_cb=None,
    ):
        """Build and initialize a brand-new device (``POST /devices``)."""
        device = cls(
            device_id, config, store, stream_dir, store_backend,
            slow_request_s=slow_request_s, wall_cb=wall_cb,
        )
        device.phone.framework.power_on()
        device.system.initialize(
            config.decoy_password,
            config.hidden_passwords,
            config.screenlock_password,
        )
        # initialize() ends with a reboot: the device sits at the pre-boot
        # prompt (OFFLINE), like a phone fresh out of ``pde wipe``
        device.streamer.start(config.to_spec())
        device._after_op("create")
        return device

    @classmethod
    def resume(
        cls,
        record: Dict[str, object],
        store,
        stream_dir,
        store_backend: Optional[str] = None,
        slow_request_s: Optional[float] = None,
        wall_cb=None,
    ):
        """Rebuild a device from its SQLite row after a daemon restart."""
        config = DeviceConfig.from_spec(record["spec"])
        device = cls(
            int(record["id"]), config, store, stream_dir, store_backend,
            slow_request_s=slow_request_s, wall_cb=wall_cb,
        )
        for medium, target in device._media():
            image = store.load_image(device.id, medium)
            if image is None:
                continue
            restore(target, image)
            if medium == "userdata":
                device.image_digest = image.manifest_digest()
        state = record.get("state") or {}
        # the restart is a power event: whatever mode the device was in,
        # it comes back OFFLINE over the restored medium
        device.system = MobiCealSystem.attach(
            device.phone,
            config.mobiceal_config(),
            config.screenlock_password,
        )
        device.needs_recovery = bool(state.get("needs_recovery", False))
        for name, value in (state.get("counters") or {}).items():
            device.metrics.counter(name).add(value)
        for name, value in (state.get("gauges") or {}).items():
            device.metrics.gauge(name).set(value)
        device.streamer.start(config.to_spec())
        device._after_op("resume")
        return device

    # -- lifecycle ops (executor-thread, device-locked) ------------------------

    def run_op(self, trace, op: str, fn, *args, **kwargs):
        """Run one op under a per-request span recorder.

        With *trace* ``None`` (tracing disabled) this is a bare call —
        zero overhead, zero behavior change. When traced, the op runs
        inside a fresh private :class:`Recorder` on the device's sim
        clock (wall capture on), producing the nested span tree
        ``http.{route}`` → ``queue.wait`` + ``device.{op}`` →
        ``checkpoint``. The recorder is per-request and discarded after
        the op — a resident daemon must not accumulate span history — and
        it only *reads* the sim clock, so a traced op is byte-identical
        to an untraced one.

        If the op's wall time reaches ``slow_request_s``, the whole span
        tree is exported as a chrome-trace artifact next to the device's
        spool (``slow-{trace}-{span}.chrome.json``) before the recorder
        is dropped; the artifact name lands on ``trace.slow_capture``.
        """
        if trace is None:
            return fn(*args, **kwargs)
        recorder = Recorder(clock=self.phone.clock, wall=True)
        self._trace = trace
        self._trace_recorder = recorder
        started_wall = time.monotonic()
        try:
            with recorder.span(
                f"http.{trace.route}",
                trace=trace.trace_id,
                span=trace.span_id,
                method=trace.method,
                device=self.id,
            ):
                with recorder.span(
                    "queue.wait", wait_s=round(trace.queue_wait_s, 6)
                ):
                    pass
                with recorder.span(f"device.{op}", trace=trace.trace_id):
                    result = fn(*args, **kwargs)
        finally:
            self._trace = None
            self._trace_recorder = None
        trace.sim_t = self.phone.clock.now
        wall_s = time.monotonic() - started_wall
        if self.slow_request_s is not None and wall_s >= self.slow_request_s:
            trace.slow_capture = self._export_slow_trace(trace, recorder)
        return result

    def _export_slow_trace(self, trace, recorder: Recorder) -> str:
        """Drop the request's chrome trace next to the telemetry spool."""
        name = f"slow-{trace.trace_id}-{trace.span_id}.chrome.json"
        # trace ids are validated lowercase hex (server.trace), so the
        # name cannot traverse; .chrome.json keeps it out of the *.jsonl
        # globs the spool reducer and monitor fold
        path = self.writer.path.parent / name
        path.write_text(render_chrome_trace(recorder, timeline="sim"))
        return name

    def boot(self, password: str, after_crash: Optional[bool] = None) -> Dict[str, object]:
        """Pre-boot auth + framework start; auto powers on if needed.

        *after_crash* defaults to the device's persisted recovery flag, so
        a device crashed before a daemon restart still recovers correctly
        on its first post-restart boot.
        """
        if after_crash is None:
            after_crash = self.needs_recovery
        if self.phone.framework.state is PhoneState.POWER_OFF:
            self.system.power_on()
        self.system.boot_with_password(password, after_crash=after_crash)
        self.system.start_framework()
        self.needs_recovery = False
        recovery = self.system.last_recovery
        self._after_op("boot")
        out: Dict[str, object] = {"mode": self.system.mode.value}
        if recovery is not None:
            out["recovery"] = {
                "clean": recovery.clean,
                "orphan_blocks_freed": recovery.orphan_blocks_freed,
                "double_mappings_dropped": recovery.double_mappings_dropped,
                "recommitted": recovery.recommitted,
            }
        return out

    def switch(self, password: str) -> Dict[str, object]:
        """Screen-lock entry: unlock, or fast-switch into the hidden mode."""
        try:
            result = self.system.screenlock.enter_password(password)
        except ModeError:
            # a non-lock password in the hidden mode hits the (one-way)
            # fast-switch checker; the lock screen just shows "wrong
            # password", so the API does too
            result = UnlockResult.REJECTED
        if result is UnlockResult.REJECTED:
            raise BadPasswordError(
                "password unlocks no screen and opens no hidden volume"
            )
        self._after_op("switch")
        return {"unlock": result.name.lower(), "mode": self.system.mode.value}

    def write(self, path: str, data: bytes) -> Dict[str, object]:
        if self.system.mode not in (Mode.PUBLIC, Mode.HIDDEN):
            raise ModeError("device is not booted; boot it first")
        self.system.store_file(path, data)
        self._after_op("write", bytes_written=len(data))
        return {"path": path, "bytes": len(data), "mode": self.system.mode.value}

    def read(self, path: str) -> bytes:
        if self.system.mode not in (Mode.PUBLIC, Mode.HIDDEN):
            raise ModeError("device is not booted; boot it first")
        return self.system.read_file(path)

    def crash(self) -> Dict[str, object]:
        """Yank the battery: dirty mounts dropped, pool discarded."""
        self.system.crash()
        self.needs_recovery = True
        self._after_op("crash")
        return {"mode": self.system.mode.value, "needs_recovery": True}

    def attach(self) -> Dict[str, object]:
        """Forensic re-attach: fresh system object over the same medium."""
        if self.system.mode in (Mode.PUBLIC, Mode.HIDDEN):
            raise ModeError("device is booted; crash or shut it down first")
        if self.phone.framework.state is not PhoneState.POWER_OFF:
            self.phone.framework.shutdown()
        self.system = MobiCealSystem.attach(
            self.phone,
            self.config.mobiceal_config(),
            self.config.screenlock_password,
        )
        self._after_op("attach")
        return {"mode": self.system.mode.value}

    def snapshot(self, label: str = "") -> Dict[str, object]:
        """Multi-snapshot adversary: image the raw medium on demand."""
        label = label or f"snap-{self.phone.clock.now:.3f}"
        if self.system.mode in (Mode.PUBLIC, Mode.HIDDEN):
            self.system.sync()
        snap = capture(
            self.phone.userdata, label=label, taken_at=self.phone.clock.now
        )
        previous = self.store.list_snapshots(self.id)
        snapshot_id = self.store.add_snapshot(self.id, snap)
        out: Dict[str, object] = {
            "snapshot_id": snapshot_id,
            "label": label,
            "digest": snap.digest(),
            "taken_at": snap.taken_at,
            "num_blocks": snap.num_blocks,
        }
        if previous:
            before = self.store.get_snapshot(self.id, previous[-1]["id"])
            delta = diff(before, snap)
            out["diff_vs_previous"] = {
                "before": previous[-1]["label"],
                "changed_blocks": delta.num_changed,
                "longest_run": delta.longest_run(),
            }
        self._after_op("snapshot")
        return out

    def finish(self) -> None:
        """Emit ``device_finish`` and close the spool (``DELETE``)."""
        if self.finished:
            return
        self.finished = True
        counters = {n: c.value for n, c in self.metrics.counters.items()}
        ops = int(
            sum(
                v for n, v in counters.items()
                if n.startswith("workload.ops.")
            )
        )
        bytes_written = counters.get("workload.bytes_written", 0.0)
        sim_t = self.phone.clock.now
        result = {
            "ops": ops,
            "bytes_written": bytes_written,
            "write_mb_s": (bytes_written / 1e6) / sim_t if sim_t > 0 else 0.0,
        }
        payload = {
            "schema_version": SCHEMA_VERSION,
            "spans": {},
            "marks": {},
            "metrics": self.metrics.as_dict(),
            "io": {"events": 0, "by_op": {}},
        }
        self.streamer.finish(
            result, payload, time.monotonic() - self.created_wall
        )
        self.writer.close()

    def close(self) -> None:
        """Daemon shutdown: leave the spool open-ended, just close the fh."""
        if not self.finished:
            self.writer.close()

    # -- bookkeeping (runs after every mutating op) ----------------------------

    def _after_op(self, op: str, bytes_written: int = 0) -> None:
        self.metrics.counter(f"workload.ops.{op}").add(1)
        self.metrics.counter(f"server.ops.{op}").add(1)
        if bytes_written:
            self.metrics.counter("workload.bytes_written").add(bytes_written)
        if self.system._pool is not None:
            for name, value in pool_deniability_gauges(self.system.pool).items():
                self.metrics.gauge(name).set(value)
        extra: Dict[str, object] = {}
        if self._trace is not None:
            # traced requests stamp their telemetry: the snapshot this op
            # produced is joinable to the access-log line that caused it
            extra["trace"] = self._trace.trace_id
        self.streamer.emit_snapshot(**extra)
        self._checkpoint()

    def _media(self):
        """Every physical medium a bootable checkpoint must cover."""
        return (
            ("userdata", self.phone.userdata),
            ("cache", self.phone.cache_dev),
            ("devlog", self.phone.devlog_dev),
        )

    def _checkpoint(self) -> None:
        """Persist all media + lifecycle state; the restart contract.

        All three images and the state row land in **one** SQLite
        transaction, so a daemon killed between rows can never leave a
        userdata image from checkpoint N next to a devlog image from
        checkpoint N-1. On a copy-on-write store the captures are frozen
        images (only dirty blocks get hashed), making the steady-state
        checkpoint O(blocks touched since the last one).
        """
        recorder = self._trace_recorder
        span = (
            recorder.span("checkpoint", device=self.id)
            if recorder is not None
            else _NULL_CONTEXT
        )
        started_wall = time.monotonic()
        with span:
            if self.system.mode in (Mode.PUBLIC, Mode.HIDDEN):
                self.system.sync()
            for mountpoint in ("/cache", "/devlog"):
                fs = self.phone.framework.mounts.get(mountpoint)
                if fs is not None and fs.mounted:
                    fs.flush()
            images: Dict[str, Snapshot] = {}
            for medium, source in self._media():
                image = capture(
                    source,
                    label=f"image-{self.id}-{medium}",
                    taken_at=self.phone.clock.now,
                )
                if medium == "userdata":
                    self.image_digest = image.manifest_digest()
                images[medium] = image
            self.store.checkpoint(self.id, images, self.state_dict())
        if self.wall_cb is not None:
            self.wall_cb("server.checkpoint_s", time.monotonic() - started_wall)

    def state_dict(self) -> Dict[str, object]:
        return {
            "mode": self.system.mode.value,
            "framework": self.phone.framework.state.value,
            "needs_recovery": self.needs_recovery,
            "sim_t": self.phone.clock.now,
            "image_digest": self.image_digest,
            "counters": {
                n: c.value for n, c in sorted(self.metrics.counters.items())
            },
            "gauges": {
                n: g.value for n, g in sorted(self.metrics.gauges.items())
            },
        }

    # -- introspection ---------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """The ``GET /devices/{id}`` resource body."""
        counters = {n: c.value for n, c in sorted(self.metrics.counters.items())}
        return {
            "id": self.id,
            "name": self.config.name,
            "spec": self.config.to_spec(),
            "mode": self.system.mode.value,
            "framework": self.phone.framework.state.value,
            "needs_recovery": self.needs_recovery,
            "sim_t": self.phone.clock.now,
            "image_digest": self.image_digest,
            "counters": counters,
            "gauges": {
                n: g.value for n, g in sorted(self.metrics.gauges.items())
            },
            "snapshots": self.store.list_snapshots(self.id),
        }

    def summary(self) -> Dict[str, object]:
        """The ``GET /devices`` row."""
        return {
            "id": self.id,
            "name": self.config.name,
            "mode": self.system.mode.value,
            "sim_t": self.phone.clock.now,
            "needs_recovery": self.needs_recovery,
        }
