"""The command line's start-up: `python -m subgauss` and the `subgauss` script.

Before it imports the command line, and with it numpy, the start-up pins
OpenBLAS to one thread (the package calls no BLAS routine, and the pool's
spinning threads would take the CPU the reader needs; a value already set
wins) and forks a spec.SpecReader for `bound SPEC`, which reads the spec
while numpy imports.  Every exit path ends the reader.
"""

import os
import sys

from .spec import start_reader


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    reader = start_reader(sys.argv[1:])
    try:
        from .cli import main as cli_main

        return cli_main(spec_reader=reader)
    finally:
        if reader is not None:
            reader.close()


if __name__ == "__main__":
    sys.exit(main())
