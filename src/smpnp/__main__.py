"""``python -m smpnp``: the smpnp command line (see ``driver.main``)."""

import sys

from .driver import main

if __name__ == "__main__":
    sys.exit(main())
