"""Set-up probe: import twoproc from the given source directory, load and
validate the given model files, then print "ready".

    python3 perfbench/probe.py src model1.json [model2.json ...]
"""

import sys

sys.path.insert(0, sys.argv[1])

from twoproc import cli  # noqa: E402

for path in sys.argv[2:]:
    cli.load_model_file(path)
print("ready", flush=True)
