"""Command-line entry point for ``python -m terncorr``."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
