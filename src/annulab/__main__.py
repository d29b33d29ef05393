"""``python -m annulab <command>``: the annulab command line."""

import sys

from .cli import main

sys.exit(main())
