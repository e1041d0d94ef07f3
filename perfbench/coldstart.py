"""One cold start for setup_s: import prymsplit from ./src, build each field
named in argv[1] (a JSON list of [p, k]) with its chi/sqrt tables, then print
"ready".  run.py times this process from spawn to that line."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import warm  # noqa: E402  (imports prymsplit)

warm(json.loads(sys.argv[1]))
print("ready", flush=True)
