import os
import subprocess
import sys
from pathlib import Path

import galideal

SRC = str(Path(galideal.__file__).resolve().parents[1])


def run_python(*args, timeout=60, env=None, **kwargs):
    # a fresh interpreter on the package under test, output captured as
    # text.  The environment holds PYTHONPATH, the entries of env and, when
    # it is set here, PYTHONDONTWRITEBYTECODE, so a run that writes no
    # bytecode cache does not have its subprocesses write one into the
    # source tree
    env = {"PYTHONPATH": SRC, **(env or {})}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout, env=env, **kwargs)
