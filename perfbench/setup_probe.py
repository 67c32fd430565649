"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is the import of modirect plus make_case, simulate_measurement and
Evaluator construction.  run.py starts this script several times with the
workload's case spec as a JSON argument and takes the median; it prints one
JSON object with the seconds and the file modirect was imported from.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
start = time.perf_counter()
import modirect  # noqa: E402 - the import is part of what is timed

config = modirect.make_case(spec["case"], **spec["overrides"])
measurement = modirect.simulate_measurement(config)
modirect.Evaluator(modirect.BeamModel(n_elements=config.n_elements), measurement)
print(json.dumps({"setup_s": time.perf_counter() - start,
                  "module": modirect.__file__}))
