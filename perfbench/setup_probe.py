"""One set-up in a fresh interpreter: import ``repro``, build a network.

Prints one JSON line with the child's own timings once the network is built;
``perfbench.measure.import_probes`` runs it and times it from outside.

    PYTHONPATH=src python3 perfbench/setup_probe.py resnet50
"""

import json
import sys
import time

started = time.perf_counter()
import repro  # noqa: E402  (the import is what this probe times)

imported = time.perf_counter()
repro.get_network(sys.argv[1])
built = time.perf_counter()
print(json.dumps({"import_s": imported - started, "network_s": built - imported}),
      flush=True)
