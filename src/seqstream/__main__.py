"""``python -m seqstream``: the command-line interface of :mod:`seqstream.cli`,
exiting with its code."""

import sys

from seqstream.cli import main

if __name__ == "__main__":
    sys.exit(main())
