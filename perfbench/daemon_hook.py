"""Run the ``repro`` CLI under the layer tracer, then write its profile.

Usage (with ``src`` and the repository root on ``PYTHONPATH``)::

    python -m perfbench.daemon_hook PROFILE.json serve --port 0 ...

The traced daemon run of ``daemon_rw`` starts the daemon this way: the
wrappers are installed before ``serve`` builds any device, every
``ServerDevice.run_op`` call is a root span, and once the daemon has shut
down cleanly the folded :class:`~perfbench.tracer.Profile` is written to
``PROFILE.json`` and the raw spans next to it (``PROFILE.npz``).
"""

from __future__ import annotations

import json
import pathlib
import sys

from perfbench.tracer import DAEMON_ROOTS, Tracer


def main(argv) -> int:
    out = pathlib.Path(argv[0])
    from repro.cli import main as repro_main

    tracer = Tracer(roots=DAEMON_ROOTS).install()
    try:
        code = repro_main(argv[1:])
    finally:
        tracer.uninstall()
    tracer.dump(out.with_suffix(".npz"))
    out.write_text(json.dumps(tracer.profile().as_dict()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
