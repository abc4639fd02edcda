"""Set-up time and peak memory of one `xp` operation in a fresh interpreter.

    python3 perfbench/probe.py START SRC_DIR setup|operation XP_ARG...

START is the wall-clock time at which the caller launched this process.
Set-up runs from START through `import ratmat` and, for `xp run`, the pole
derivation for the given config.  With "operation" the `xp` call then runs
once.  Prints one JSON line with setup_s and, after an operation, its exit
code and the peak resident set size of this process in MB.
"""

import sys
import time

start = float(sys.argv[1])
sys.path.insert(0, sys.argv[2])
mode = sys.argv[3]
argv = sys.argv[4:]

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import ratmat.cli  # noqa: E402
import ratmat.experiment  # noqa: E402

if argv[0] == "run":
    with open(argv[argv.index("--config") + 1]) as fh:
        config = ratmat.experiment.ExperimentConfig.from_json(json.load(fh))
    ratmat.experiment.derive_poles(config)
result = {"setup_s": time.time() - start}

if mode == "operation":
    with contextlib.redirect_stdout(io.StringIO()):
        result["code"] = ratmat.cli.main(argv)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kB on Linux
    result["peak_rss_mb"] = peak_kb / 1024.0
print(json.dumps(result))
