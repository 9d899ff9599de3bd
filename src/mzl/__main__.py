"""Run the mzl command line as ``python -m mzl``."""
import sys

from .cli import main

sys.exit(main())
