"""Run one freshsim CLI command in this fresh process and report its memory.

    python3 perfbench/rss_child.py SRC_DIR CLI_ARG...

Discards the command's own output and prints one line of JSON with its exit
code and the process's peak resident set size in MiB.

The peak is VmHWM of /proc/self/status where that exists. `ru_maxrss` is
only the fallback: on Linux it carries over the parent's peak through fork
and exec, so a child started by a large parent would report the parent.
"""

import contextlib
import io
import json
import resource
import sys


def peak_rss_kib() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from freshsim.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(sys.argv[2:])
    print(json.dumps({"rc": rc, "peak_rss_mb": peak_rss_kib() / 1024}))
