"""``python -m repro`` entry point.

The ``__name__`` guard keeps an import of this module from running the
CLI.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
