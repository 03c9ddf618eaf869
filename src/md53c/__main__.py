"""python -m md53c <command>: the command-line driver of md53c.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
