"""Run one benchmark workload from the root of a checkout:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main as run

    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
