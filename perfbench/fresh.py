"""One CLI call in a fresh interpreter: times ``import wavelab.cli``, runs the
given argv through ``wavelab.cli.main`` and prints one JSON line with the
import time, the exit code and the process's peak resident memory.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/fresh.py '["evolve", "--out", "..."]'
"""

import json
import resource
import sys
import time

t0 = time.perf_counter()
import wavelab.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0

if __name__ == "__main__":
    rc = wavelab.cli.main(json.loads(sys.argv[1]))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"import_s": import_s, "rc": rc, "peak_rss_mib": peak_kib / 1024.0}))
