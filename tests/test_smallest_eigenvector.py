"""The closed-form structure-tensor axis against ``np.linalg.eigh``.

``vesselness._smallest_eigenvector`` takes the smallest eigenvalue from the
trigonometric solve and the axis from the longest cross product of two rows of
J - lambda_min I; where no cross product is longer than 1e-8 trace^2 it falls
back to eigh on those tensors alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibervox.vesselness import _smallest_eigenvector

# (a11, a22, a33, a12, a13, a23) of a (..., 3, 3) stack, the helper's order.
_COMPONENTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def smallest_eigenvector(tensors):
    return _smallest_eigenvector(*(tensors[..., i, j] for i, j in _COMPONENTS))


entries = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def psd_tensors(draw):
    """J = s * M M^T with M possibly sparse, rank-deficient or diagonal."""
    m = np.array(draw(st.lists(entries, min_size=9, max_size=9))).reshape(3, 3)
    kind = draw(st.sampled_from(["full", "rank2", "diagonal"]))
    if kind == "rank2":
        m[:, draw(st.integers(0, 2))] = 0.0
    elif kind == "diagonal":
        m = np.diag(draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3, unique=True)))
    return draw(st.sampled_from([1e-30, 1.0, 1e30])) * (m @ m.T)


@settings(max_examples=400, deadline=None)
@given(st.lists(psd_tensors(), min_size=1, max_size=8))
def test_closed_form_matches_eigh_where_the_smallest_eigenvalue_is_simple(tensors):
    tensors = np.array(tensors)
    got = smallest_eigenvector(tensors)
    values, vectors = np.linalg.eigh(tensors)
    scale = np.abs(values).max(axis=-1)
    simple = values[:, 1] - values[:, 0] > 1e-6 * scale
    norms = np.linalg.norm(got, axis=-1)
    cosines = np.abs(np.einsum("ni,ni->n", got, vectors[..., 0]))
    assert np.all(np.abs(norms[simple] - 1.0) <= 1e-12)
    assert np.all(cosines[simple] >= 1.0 - 1e-9)


def _rotation(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return q


@pytest.mark.parametrize("scale", [1e-30, 1.0, 1e30])
def test_degenerate_tensors_keep_the_eigh_vector(scale):
    g = np.array([0.3, -0.8, 0.5])
    q = _rotation(3)
    tensors = scale * np.array([
        np.zeros((3, 3)),                            # J = 0
        np.outer(g, g),                              # rank 1: lambda_min = 0 is double
        np.diag([1.0, 1.0, 2.0]),                    # double lambda_min on the axes
        q @ np.diag([1.0, 1.0, 2.0]) @ q.T,          # ... and rotated off them
        q @ np.diag([0.0, 0.0, 1.0]) @ q.T,          # a rotated rank-1 tensor
    ])
    got = smallest_eigenvector(tensors)
    assert got.tobytes() == np.linalg.eigh(tensors).eigenvectors[..., 0].tobytes()


def test_degenerate_voxels_fall_back_among_simple_ones():
    # One simple tensor per degenerate one: the fallback writes only its own
    # voxels, and the rest keep the closed form's unit vectors.
    simple = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 1.0]])
    tensors = np.array([simple, np.zeros((3, 3)), simple, np.diag([2.0, 2.0, 5.0])])
    got = smallest_eigenvector(tensors)
    want = np.linalg.eigh(tensors).eigenvectors[..., 0]
    assert got[1::2].tobytes() == want[1::2].tobytes()
    assert np.allclose(np.abs(np.einsum("ni,ni->n", got[::2], want[::2])), 1.0, atol=1e-12)
    assert got[0].tobytes() == got[2].tobytes()
