import math

import numpy as np
import pytest
from scipy import stats

from sectlab.grassmann import Frame, sample_haar
from sectlab.sampler import StreamHandle


def test_frame_invariants_hold_over_many_draws():
    h = StreamHandle(5)
    for j in range(200):
        f = sample_haar(5, 3, h.split(j))
        assert np.allclose(f.basis.T @ f.basis, np.eye(3), atol=1e-12)
        u = h.split(j).split(1).generator().standard_normal(3)
        assert np.allclose(f.embed(u) @ f.basis, u, atol=1e-12)
        assert np.linalg.norm(f.embed(u)) == pytest.approx(np.linalg.norm(u), abs=1e-12)


def test_embed_axis_aligned():
    f = Frame(np.eye(3)[:, [0, 2]])
    assert np.allclose(f.embed(np.array([2.0, -3.0])), [2.0, 0.0, -3.0])
    assert np.allclose(np.array([1.0, 9.0, 4.0]) @ f.basis, [1.0, 4.0])


def test_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Frame(np.ones((3, 2)))


@pytest.mark.parametrize("eps", [5e-11, 5e-10, 4e-6, 2e-5])
def test_orthonormality_tolerance_is_allclose(eps):
    basis = np.eye(3)[:, :2]
    basis[0, 1] = eps                                  # Gram entry (0, 1) is eps
    scaled = np.eye(3)[:, :2] * np.sqrt(1.0 + eps)     # Gram diagonal is 1 + eps
    for b in (basis, scaled):
        if np.allclose(b.T @ b, np.eye(2), atol=1e-10):
            assert Frame(b).s == 2
        else:
            with pytest.raises(ValueError):
                Frame(b)


def test_bit_identical_for_same_stream():
    a = sample_haar(6, 2, StreamHandle(99, 3))
    b = sample_haar(6, 2, StreamHandle(99, 3))
    assert np.array_equal(a.basis, b.basis)
    c = sample_haar(6, 2, StreamHandle(99, 4))
    assert not np.array_equal(a.basis, c.basis)


def test_planar_angle_is_uniform():
    # directions in the plane: angle mod pi should be uniform on [0, pi)
    h = StreamHandle(123)
    angles = np.empty(10_000)
    for j in range(len(angles)):
        f = sample_haar(2, 1, h.split(j))
        v = f.basis[:, 0]
        angles[j] = math.atan2(v[1], v[0]) % math.pi
    p = stats.kstest(angles / math.pi, "uniform").pvalue
    assert p > 0.01


def test_projection_trace_moment():
    # E ||P_F e1||^2 = s/n by symmetry
    h = StreamHandle(7)
    n, s, draws = 4, 2, 4000
    vals = np.empty(draws)
    e1 = np.eye(n)[0]
    for j in range(draws):
        f = sample_haar(n, s, h.split(j))
        vals[j] = np.sum((e1 @ f.basis) ** 2)
    se = vals.std(ddof=1) / math.sqrt(draws)
    assert abs(vals.mean() - s / n) <= 3 * se


def test_rotation_invariance_of_projection_statistics():
    # statistics of R-rotated draws match plain draws on fixed probe vectors
    n, s, draws = 4, 2, 3000
    rot_gen = StreamHandle(55).generator()
    q, r = np.linalg.qr(rot_gen.standard_normal((n, n)))
    rotation = q * np.sign(np.diagonal(r))
    probes = rot_gen.standard_normal((5, n))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)

    def moments(handle, rotate):
        out = np.empty((draws, len(probes)))
        for j in range(draws):
            basis = sample_haar(n, s, handle.split(j)).basis
            if rotate:
                basis = rotation @ basis
            out[j] = np.sum((probes @ basis) ** 2, axis=1)
        return out

    plain = moments(StreamHandle(60), rotate=False)
    rotated = moments(StreamHandle(61), rotate=True)
    for i in range(len(probes)):
        se = math.hypot(plain[:, i].std(ddof=1), rotated[:, i].std(ddof=1)) / math.sqrt(draws)
        assert abs(plain[:, i].mean() - rotated[:, i].mean()) <= 3 * se


def test_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        sample_haar(3, 3, StreamHandle(0))
    with pytest.raises(ValueError):
        sample_haar(3, 0, StreamHandle(0))
