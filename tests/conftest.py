import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

# hypothesis imports this module to report a failing example.  On import it
# raises a DeprecationWarning (mypy_extensions.TypedDict), which the "error"
# filter turns into an INTERNALERROR that loses the example and stops the
# run.  Importing it once here, with that warning ignored, keeps the report.
# The module needs libcst, which hypothesis does not require; without it
# hypothesis skips that report, and there is nothing to import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


def _shapes_passed_to(monkeypatch, name):
    """Shapes of the arrays passed to ``np.linalg.<name>`` from here on."""
    calls = []
    function = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return function(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes of the arrays passed to ``np.linalg.eigvalsh`` from here on."""
    return _shapes_passed_to(monkeypatch, "eigvalsh")


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the arrays passed to ``np.linalg.eigh`` from here on."""
    return _shapes_passed_to(monkeypatch, "eigh")
