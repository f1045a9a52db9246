"""``python3 -m barspin``: the barspin command line."""

import sys

from barspin.cli import main

if __name__ == "__main__":
    sys.exit(main())
