"""``python -m mqcardinal``: the same command line as the ``mqcardinal`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
