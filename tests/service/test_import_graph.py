"""Import-graph guards, each checked in a fresh interpreter, since this
test session has long since imported everything.

- The wire codecs stay off the reporting stack.  The daemon, its workers
  and the client encode and decode requests on every job.  Those codecs
  live on the value classes themselves, so round-tripping a request or a
  response must not drag in the report renderers or the fault-study
  driver.
- Processes that do not serve stay off asyncio.  Only the daemon runs an
  event loop; ``import repro``, the client, the journal and the
  worker-side executor must not load it (nor ssl, which comes with it),
  since every module loaded adds to each such process's resident memory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_PROBE = """
import sys

import repro.cli
from repro.core.mapping import Partition
from repro.faults.model import FaultScenario
from repro.service import ScheduleRequest, ScheduleResponse, SimulateSpec
from repro.topology.irregular import random_irregular_topology

topo = random_irregular_topology(8, seed=3)
req = ScheduleRequest.build(topo, clusters=2, seed=5,
                            faults=FaultScenario(links=[topo.links[0]]),
                            simulate=SimulateSpec())
assert ScheduleRequest.from_dict(req.to_dict()).fingerprint() \\
    == req.fingerprint()
resp = ScheduleResponse(fingerprint=req.fingerprint(), topology_name="t",
                        method="tabu", seed=5,
                        partition=Partition([0, 0, 0, 0, 1, 1, 1, 1]),
                        f_g=1.0, d_g=1.0, c_c=1.0)
assert ScheduleResponse.from_dict(resp.to_dict()).to_dict() == resp.to_dict()
for name in sorted(sys.modules):
    if (name.startswith("repro.reporting")
            or name == "repro.experiments.failures"):
        print(name)
"""


_CLIENT_PROBE = """
import sys

import repro
from repro.service import (ServiceClient, WriteAheadLog, build_search,
                           execute_request)

for name in sorted(sys.modules):
    if name.split(".")[0] in ("asyncio", "ssl"):
        print(name)
"""


def _loaded_by(probe: str) -> list:
    """The names a probe script prints, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_wire_round_trip_leaves_reporting_unloaded():
    assert _loaded_by(_PROBE) == []


def test_client_side_imports_leave_asyncio_unloaded():
    assert _loaded_by(_CLIENT_PROBE) == []
