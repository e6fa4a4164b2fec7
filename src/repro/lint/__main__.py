"""``python -m repro.lint`` entry point (the CLI lives in :mod:`repro.lint.cli`)."""

import sys

from .cli import main

sys.exit(main())
