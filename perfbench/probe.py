"""Set-up probe: what a pipeline process does before its first subcommand.

Usage: python3 probe.py <src dir> <workload> <seed> <work dir>

Imports htss.cli (and with it numpy) from the given source tree, then
writes the workload's world and config documents. run.py times whole
runs of this script, interpreter start included, as setup_s.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    src, name, seed, work = sys.argv[1:5]
    sys.path.insert(0, src)
    import htss.cli  # noqa: F401
    import workloads

    workloads.write_documents(workloads.build(name, int(seed)), Path(work))
