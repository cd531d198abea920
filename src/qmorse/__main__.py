"""``python -m qmorse``: the command-line interface of `qmorse.cli`."""

import sys

from .cli import main

sys.exit(main())
