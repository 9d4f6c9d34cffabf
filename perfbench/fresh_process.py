"""One fresh process: set-up time, then optionally one workload iteration.

    python3 perfbench/fresh_process.py SRC_DIR CONFIG_JSON [WORKLOAD PARAMS_JSON SEED WORK_DIR]

Set-up is importing rtosim and rtosim.cli, building a scenario from its flat
config and preparing it.  Prints its seconds at the reference machine speed
(see calibrate.py), then in host seconds.  Given a workload, it then runs one
iteration of it and prints the process's peak RSS in MiB.
"""
import json
import resource
import sys
from pathlib import Path

from calibrate import SpeedProbe

sys.path.insert(0, sys.argv[1])
cell = json.loads(sys.argv[2])
with SpeedProbe() as probe:
    import rtosim  # noqa: E402,F401
    import rtosim.cli  # noqa: E402,F401
    from rtosim import config, scenarios  # noqa: E402

    scenarios.prepare_scenario(config.build_scenario(cell))
print(repr(probe.reference_seconds), repr(probe.seconds))

if len(sys.argv) > 3:
    from workloads import FACTORIES

    name, params, seed, work = sys.argv[3:7]
    for group in FACTORIES[name](**json.loads(params)).groups(int(seed)):
        group.call(Path(work))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
