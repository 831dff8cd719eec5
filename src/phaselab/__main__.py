"""`python -m phaselab ...`: the same command line as the `phaselab` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
