"""One fresh-interpreter set-up sample: import the package, run one command, exit.

Run from the repository root as ``python3 perfbench/setup_probe.py <cli args...>``;
the parent times it from spawn to exit.  The exit code is the command's.
"""

import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.abspath("src"))

from cstar_entropy import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
sys.exit(code)
