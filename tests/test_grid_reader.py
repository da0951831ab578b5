"""The one grid reader behind ``irreality_curve`` (theta) and
``detector_probabilities`` (phi).

Every accepted grid reads to the float64 bits of ``float()`` applied to
each point, so both functions give the bytes they give on that array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreality import MziConfig, detector_probabilities
from qreality.core import _grid
from qreality.eraser import ProtocolConfig, irreality_curve

CURVE = ProtocolConfig(theta=0.0, alice_config="Cx")
FRINGE = MziConfig(phi=0.0)
POINTS = [0.0, 0.5, 1.25, 3.0]

# one factory per accepted kind, so that a generator is fresh for each call
ACCEPTED = {
    "list": lambda: list(POINTS),
    "tuple": lambda: tuple(POINTS),
    "range": lambda: range(4),
    "generator": lambda: (t for t in POINTS),
    "bool-list": lambda: [True, False, True],
    "bool-array": lambda: np.array([True, False, True]),
    "int-array": lambda: np.arange(4),
    "float32-array": lambda: np.array(POINTS, dtype=np.float32) + np.float32(0.1),
    "float64-array": lambda: np.array(POINTS),
}


def assert_read_as(grid_of, want: np.ndarray) -> None:
    """Both functions read ``grid_of()`` as the float64 array ``want``."""
    assert irreality_curve(CURVE, "d1", grid_of()).theta.tobytes() == want.tobytes()
    got = detector_probabilities(FRINGE, grid_of())
    assert got.tobytes() == detector_probabilities(FRINGE, want).tobytes()


@pytest.mark.parametrize("make", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_accepted_grid_reads_as_its_float_conversion(make):
    assert_read_as(make, np.array([float(t) for t in make()]))


def test_float64_grid_is_not_copied():
    grid = np.array(POINTS)
    assert _grid(grid, "phi") is grid


@settings(max_examples=50, deadline=None)
@given(
    points=st.lists(
        st.floats(0.0, float(np.pi), allow_nan=False, allow_infinity=False), min_size=1
    ),
    container=st.sampled_from([list, tuple, np.array]),
)
def test_lists_tuples_and_arrays_read_as_their_float_conversion(points, container):
    assert_read_as(lambda: container(points), np.array([float(t) for t in points]))
