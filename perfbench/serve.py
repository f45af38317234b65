"""Run ``repro-live serve`` from the source tree, optionally traced.

Usage::

    python3 perfbench/serve.py <repro-live serve arguments>

The server holds ``common.OBJECTS_PER_CLASS`` low- and high-importance
view objects (the paper's N_l and N_h) and bounds its OS and update
queues at ``common.QUEUE_MAX``.  The serve command has no flags for
these, so this wraps its config builder.

When the environment variable ``PERFBENCH_TRACE_DIR`` names a directory,
every serving process carries the timing wrappers of ``tracing.py`` and
writes its counters there as ``trace-<pid>.json`` when it ends.  Shard
workers are ``spawn`` children: they re-run this file's top level as
``__mp_main__`` before unpickling their entry point, so the wrappers are
installed in them too, and the patched worker coroutine dumps their
counters after the worker has sent its final result.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")
TRACER = None
if TRACE_DIR:
    import tracing
    from repro.live import cluster

    TRACER = tracing.install()
    _serve_worker_async = cluster._serve_worker_async

    async def _traced_worker(*args, **kwargs):
        try:
            return await _serve_worker_async(*args, **kwargs)
        finally:
            TRACER.dump(TRACE_DIR)

    cluster._serve_worker_async = _traced_worker


def main(argv: "list[str]") -> int:
    from common import OBJECTS_PER_CLASS, QUEUE_MAX
    from repro.live import __main__ as live

    build_config = live._build_config

    def sized_config(args):
        config = build_config(args).with_updates(
            n_low=OBJECTS_PER_CLASS, n_high=OBJECTS_PER_CLASS
        ).with_system(os_queue_max=QUEUE_MAX, update_queue_max=QUEUE_MAX)
        config.validate()
        return config

    live._build_config = sized_config
    try:
        return live.main(["serve", *argv])
    finally:
        if TRACER is not None:
            TRACER.dump(TRACE_DIR)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
