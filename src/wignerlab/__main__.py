"""``python -m wignerlab``: the same command line as the ``wignerlab`` script."""

import sys

from .cli import main

sys.exit(main())
