"""``python -m sectlab``: the command line interface of :mod:`sectlab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
