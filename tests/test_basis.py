import numpy as np
import pytest

from ivboot import GeneralDesign, IvSample, RngStream, build_general_design, cosine_design


def test_cosine_design_first_entry():
    z = cosine_design(4, 1)
    assert z[0, 0] == pytest.approx(np.cos(np.pi / 2), abs=1e-15)


def test_cosine_design_full_period():
    z = cosine_design(4, 2)
    assert z[1, 1] == pytest.approx(1.0)  # cos(2*pi)


def test_cosine_design_column_norms_bounded():
    z = cosine_design(200, 5)
    norms = np.linalg.norm(z, axis=0)
    assert np.all(np.isfinite(norms))
    assert np.all(norms <= np.sqrt(200) + 1e-12)


def test_cosine_rows_near_orthogonal():
    z = cosine_design(200, 5)
    gram = z @ z.T / 200.0
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 0.51
    assert np.abs(np.diag(gram)).max() <= 0.51


def test_cosine_design_rejects_degenerate():
    with pytest.raises(ValueError):
        cosine_design(0, 3)
    with pytest.raises(ValueError):
        cosine_design(10, 0)


def test_build_general_design_unit_instruments():
    psi = cosine_design(6, 2)
    y = np.arange(6.0)
    d = build_general_design(np.ones((1, 6)), psi, y)
    assert np.allclose(d.eta[0], psi.T)
    assert np.allclose(d.zk[0], y)


def test_build_general_design_exact_centering():
    W = np.full((2, 4), 3.0)
    y = np.full(4, 2.0)
    delta = np.full(2, 6.0)  # delta_k = W * Y exactly
    d = build_general_design(W, np.ones((1, 4)), y, delta=delta)
    assert np.allclose(d.zk, 0.0)


def test_build_general_design_direct_product():
    W = np.array([[2.0, 3.0]])
    psi = np.ones((1, 2))
    y = np.ones(2)
    d = build_general_design(W, psi, y)
    assert np.allclose(d.eta[0], [[2.0], [3.0]])
    assert np.allclose(d.zk[0], [2.0, 3.0])


def test_build_general_design_dimension_mismatch():
    with pytest.raises(ValueError):
        build_general_design(np.ones((1, 4)), np.ones((2, 5)), np.ones(4))
    with pytest.raises(ValueError):
        build_general_design(np.ones((1, 4)), np.ones((2, 4)), np.ones(4), delta=np.ones(3))


def test_general_design_validation():
    with pytest.raises(ValueError):
        GeneralDesign(eta=np.zeros((1, 3, 2)), zk=np.zeros((1, 4)))
    with pytest.raises(ValueError):
        GeneralDesign(eta=np.zeros((1, 3, 2)), zk=np.zeros((1, 3)), penalty=-1.0)


def test_iv_sample_validation():
    z = cosine_design(8, 2)
    IvSample(y1=np.zeros(8), y2=np.zeros(8), z=z)
    with pytest.raises(ValueError):
        IvSample(y1=np.zeros(8), y2=np.zeros(7), z=z)


def test_rng_stream_bit_identical():
    a = RngStream(42, 7).generator().standard_normal(100)
    b = RngStream(42, 7).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_ids():
    a = RngStream(42, 0).generator().standard_normal(10)
    b = RngStream(42, 1).generator().standard_normal(10)
    assert not np.allclose(a, b)


def test_rng_stream_tuple_keys():
    a = RngStream(42, (0, 1)).generator().standard_normal(10)
    b = RngStream(42, (1, 0)).generator().standard_normal(10)
    assert not np.allclose(a, b)
    assert np.array_equal(RngStream(42, (3,)).generator().standard_normal(10),
                          RngStream(42, 3).generator().standard_normal(10))
