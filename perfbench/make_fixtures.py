"""Write one workload's generated inputs into a directory.

Runs in its own process, so that generating and pretraining the fixtures
does not set the peak memory of the process that measures.

Usage: python3 perfbench/make_fixtures.py WORKLOAD full|tiny SEED OUT_DIR
"""

import sys

import workloads


def main(argv):
    name, scale, seed, out_dir = argv
    workloads.make_fixtures(workloads.get(name, tiny=scale == "tiny"), int(seed), out_dir)


if __name__ == "__main__":
    main(sys.argv[1:])
