"""One ``setup_s`` sample, taken in a fresh interpreter.

Usage: ``python3 setup_child.py <workload> <seed> <src-dir> <scratch-dir>``.
Prints the seconds from before ``import repro`` to a constructed
detector or supervisor.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    workload, seed, src, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    sys.path.insert(0, src)
    import repro  # noqa: F401  (timed on purpose)
    import configs

    built = configs.construct(workload, seed, scratch)
    elapsed = time.perf_counter() - start
    close = getattr(built, "close", None)
    if close is not None:
        close()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
