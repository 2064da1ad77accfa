"""One fresh interpreter brought to a warm state for a workload, then exit.

``run.py`` times this whole process: interpreter start, ``import mplm.cli``
and the lazy tables the workload fills on first use.

    python3 perfbench/setup_probe.py <workload>
"""

import sys

import workloads as wl

if __name__ == "__main__":
    wl.import_program()
    wl.fill_tables(wl.workloads()[sys.argv[1]])
