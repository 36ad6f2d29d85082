import os
import subprocess
import sys

import pytest

import hasseforge


@pytest.fixture
def run_module_cli():
    """Return a function that runs ``python -m hasseforge ARGV...`` in a
    fresh interpreter and returns the completed process (stdout and stderr
    captured as bytes unless ``text=True`` is passed).  Interpreter options
    such as ``-O`` go in ``python_opts``.

    The child's PYTHONPATH puts the directory holding the imported
    ``hasseforge`` package first, then any inherited PYTHONPATH, so the
    child runs the same code as the test process whatever the working
    directory and whether or not the package is installed.
    """
    pkg_parent = os.path.dirname(os.path.dirname(hasseforge.__file__))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (pkg_parent + os.pathsep + inherited
                         if inherited else pkg_parent)

    def run(*argv, python_opts=(), **kwargs):
        return subprocess.run([sys.executable, *python_opts, "-m", "hasseforge", *argv],
                              env=env, capture_output=True, **kwargs)

    return run
