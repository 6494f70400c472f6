"""End-to-end wall-clock benchmark of the MobiCeal reproduction.

Run it from the repository root::

    python3 perfbench/run.py --workload daily_mcp --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

- ``daily_mcp``    — a ``mixed_daily`` trace replayed on an observed mc-p stack;
- ``bulk_android`` — an ``ota_update`` trace replayed on Android FDE;
- ``daemon_rw``    — two closed-loop clients against ``repro serve``;
- ``fleet_mcp``    — ``run_fleet`` over a process pool with spooled telemetry.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
outside-in traced pass (:mod:`perfbench.tracer`) and prints the per-layer
metrics. Nothing under ``src/`` is modified: every span is recorded by
wrappers this package installs around the layers' public methods.
"""
