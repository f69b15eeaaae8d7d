"""Set-up probe: import the program, run a workload's first warm-up request.

    python3 benchmark/probe.py WORKLOAD SEED

Prints ``ready`` once the request is done; run.py times each probe from
process start to that line.  The main process checks the same request's
output, so a wrong output is counted there, once.
"""

import sys

from run import import_program


def main() -> int:
    import_program()
    import workloads

    warm, _ = workloads.WORKLOADS[sys.argv[1]].generate(int(sys.argv[2]))
    warm[0].run()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
