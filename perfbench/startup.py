"""One set-up sample: import the CLI and build its parser under the speed probe.

run.py starts this as a fresh interpreter and times the whole process.  It
prints [program seconds, reference seconds] of the import and parser build
as JSON, so run.py can put the import at the probe's reference speed.
"""

import json
import time

from speedprobe import SpeedProbe

with SpeedProbe() as probe:
    start = time.perf_counter()
    import ladderspec.cli

    ladderspec.cli.build_parser()
    end = time.perf_counter()
print(json.dumps(probe.measure(start, end)))
