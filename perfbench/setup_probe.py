"""Set-up as a fresh workload process does it: import, build the scenario,
factorise its GP kernels.  Prints "ready" when done; run.py times it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stlfalsify as sf  # noqa: E402

sc = sf.scenario(sys.argv[1])
sf.log_likelihood(sc.model, sc.nominal_trace())
print("ready", flush=True)
