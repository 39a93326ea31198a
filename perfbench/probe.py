"""Set-up probe: a fresh interpreter made ready for one workload.

Usage: ``python3 perfbench/probe.py WORKLOAD SCRATCH_DIR``

Imports the experiment runner and, for ``serve``, the service, then
starts a healthy 2-shard fleet.  Prints one JSON line of host seconds
(``import_s``, ``fleet_s``) once ready, which is the moment the parent
stops its clock and kills the probe.
"""

import json
import sys
import time

start = time.perf_counter()
import repro.experiments.runner  # noqa: E402,F401

imported = time.perf_counter()
if sys.argv[1] == "serve":
    from repro.serve.client import ServeClient
    from repro.serve.fleet import InProcessFleet

    fleet = InProcessFleet(shards=2, root=sys.argv[2], workers=1).start()
    ServeClient(fleet.url).health()
ready = time.perf_counter()
print(json.dumps({"import_s": imported - start, "fleet_s": ready - imported}),
      flush=True)
