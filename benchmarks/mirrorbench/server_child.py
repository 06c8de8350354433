"""Server child of ``svc_image_rank``: a ``MirrorService`` in its own
process, so the service's event loop and executor threads do not share
an interpreter lock with the load generator.

Protocol with the parent (line-delimited JSON on stdout): one ``ready``
line with the bound port once the collection is loaded and the service
listens; then the child blocks on stdin until the parent writes a line
(or closes the pipe -- a dead parent never leaves a server behind); it
stops the service and prints one ``stopped`` line with the service's
status counters, its own peak RSS and any thread it failed to stop.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.core.mirror import MirrorDBMS  # noqa: E402
from repro.monet.fragments import shutdown_backends  # noqa: E402
from repro.service import ServiceThread  # noqa: E402
from repro.workloads import INTERNAL_DDL  # noqa: E402

import loadgen  # noqa: E402
from wl_svc_image_rank import COLLECTION, service_config  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--images", type=int, required=True)
    parser.add_argument("--clusters", type=int, required=True)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args()

    # One core for the whole service (event loop + executor threads
    # share one interpreter lock anyway); the clients stay off it.
    if args.cpu is not None:
        os.sched_setaffinity(0, [args.cpu])
    db = MirrorDBMS()
    db.define(INTERNAL_DDL)
    db.replace(COLLECTION, loadgen.image_rows(args.seed, args.images, args.clusters))
    with ServiceThread(db, service_config()) as service:
        print(json.dumps({"event": "ready", "port": service.port}), flush=True)
        sys.stdin.readline()
        status = service.service.status()
    shutdown_backends()
    leaked = [
        t.name for t in threading.enumerate() if t.name.startswith("mirror-")
    ]
    print(
        json.dumps(
            {
                "event": "stopped",
                "status": status,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "leaked_threads": leaked,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
