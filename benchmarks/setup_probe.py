"""Set-up probe of the compare workload: import spo and calibrate the weights
of every canonical environment, as ``spo compare`` does before its first
episode. The benchmark times this script from spawn to exit.

Usage: python3 setup_probe.py SEED
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from spo import harness  # noqa: E402
from spo.environments import canonical_specs  # noqa: E402

for spec in canonical_specs().values():
    harness.calibrate_weights(spec, seed=int(sys.argv[1]))
