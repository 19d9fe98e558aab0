"""``python -m repro`` — same entry point as the ``naspipe`` script."""

import sys

from repro.cli import run

sys.exit(run())
