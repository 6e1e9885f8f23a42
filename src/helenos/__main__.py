"""``python -m helenos``: the ``helenos`` command without the console script."""

import sys

from .cli import main

sys.exit(main())
