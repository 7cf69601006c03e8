"""The system under test: one Ripple service process.

``python perf/serve.py RUNTIME`` builds the store, front door, and HTTP
server the benchmark drives, prints the server's URL as the only line
on stdout, and drains on SIGTERM.  ``ripple service serve`` is not used
because it only offers the single-threaded ``LocalKVStore``.
"""

from __future__ import annotations

import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.kvstore import PartitionedKVStore  # noqa: E402
from repro.service import FrontDoor, ServiceServer  # noqa: E402

N_PARTITIONS = 4
MAX_CONCURRENT = 2
DRAIN_TIMEOUT_S = 20.0


def main(argv: list) -> int:
    if len(argv) != 1 or argv[0] not in ("threaded", "process"):
        print("usage: serve.py threaded|process", file=sys.stderr)
        return 2
    runtime = argv[0]
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGINT, lambda signum, frame: stop.set())

    store = PartitionedKVStore(n_partitions=N_PARTITIONS, runtime=runtime)
    front_door = FrontDoor(store, runtime=runtime, max_concurrent=MAX_CONCURRENT)
    server = ServiceServer(front_door, port=0).start()
    print(server.url, flush=True)

    stop.wait()
    drained = server.close(timeout=DRAIN_TIMEOUT_S)
    store.close()
    return 0 if drained else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
