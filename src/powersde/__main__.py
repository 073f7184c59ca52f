"""``python -m powersde``: the ``powersde`` command line."""

import sys

from .cli import main

sys.exit(main())
