"""Benchmark set-up in a fresh process: imports, the bed, its centers file.

    python3 bench/make_input.py <workload> <seed> <centers path>

run.py starts this several times and times each start to exit, so that
setup_s includes the interpreter start and the imports, not only the bed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, path = argv
    wl = workloads.WORKLOADS[name]
    workloads.write_centers(wl.make_bed(int(seed)), path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
