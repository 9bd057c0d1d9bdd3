import numpy as np
import pytest

from ivboot import ErrorSpec, RngStream, SimConfig, cosine_design, gen_errors, gen_pi, gen_sample


def test_gen_pi_scalar_case():
    z = cosine_design(50, 1)
    pi = gen_pi(z, 3.0)
    expected = np.sqrt(3.0 / (50 * float((z @ z.T)[0, 0])))
    assert pi[0] == pytest.approx(expected)


def test_gen_pi_constraint_exact():
    z = cosine_design(200, 5)
    for c in (0.5, 4.0, 900.0):
        pi = gen_pi(z, c)
        quad = pi @ (z @ z.T) @ pi
        assert abs(quad - c / 200) <= 1e-12 * (c / 200)


def test_gen_pi_homogeneity():
    z = cosine_design(120, 4)
    assert np.allclose(gen_pi(z, 8.0), np.sqrt(2.0) * gen_pi(z, 4.0))


def test_gen_errors_gauss_covariance():
    omega = np.array([[1.0, 0.3], [0.3, 2.0]])
    eps = gen_errors(ErrorSpec("gauss", omega), 100_000, RngStream(0, 0))
    cov = np.cov(eps.T)
    assert np.abs(cov - omega).max() <= 0.05


def test_gen_errors_laplace_unit_variance():
    # Laplace marginals are normalized to unit variance so the shape, not
    # the scale, carries the misspecification
    eps = gen_errors(ErrorSpec("laplace"), 100_000, RngStream(0, 1))
    assert abs(np.var(eps[:, 0]) - 1.0) <= 0.05
    kurt = np.mean(eps[:, 0] ** 4) / np.var(eps[:, 0]) ** 2
    assert kurt > 4.0  # heavy tails preserved (Gaussian would be 3)


def test_gen_errors_hetero_linear_endpoint_variance():
    n = 16
    gen = RngStream(1, 0).generator()
    draws = np.stack([gen_errors(ErrorSpec("hetero_linear"), n, gen)
                      for _ in range(30_000)])
    assert np.var(draws[:, -1, 0]) == pytest.approx(5.0, rel=0.05)
    assert np.var(draws[:, n // 2 - 1, 0]) == pytest.approx(2.5, rel=0.05)


def test_gen_errors_hetero_periodic_variance_band():
    n = 24
    gen = RngStream(1, 1).generator()
    draws = np.stack([gen_errors(ErrorSpec("hetero_periodic"), n, gen)
                      for _ in range(30_000)])
    per_i = draws[:, :, 0].var(axis=0)
    assert per_i.min() >= 0.4
    assert per_i.max() <= 3.6


def test_gen_sample_noiseless_structural_identity():
    # without its errors the sample is exactly y1 = beta* x, y2 = x; the
    # errors are gen_errors on the config's own stream, the default one
    cfg = SimConfig(n=100, q=3, concentration=4.0, beta_star=1.4, beta_grid=(1.4,))
    s = gen_sample(cfg)
    eps = gen_errors(cfg.error, cfg.n, cfg.rng())
    x = s.z.T @ gen_pi(s.z, cfg.concentration)
    assert np.allclose(s.y1 - 1.4 * x, eps[:, 0], rtol=0, atol=1e-12)
    assert np.allclose(s.y2 - x, eps[:, 1], rtol=0, atol=1e-12)


def test_gen_sample_reconstruction_identity():
    cfg = SimConfig(n=60, q=3, concentration=2.0, beta_star=0.9, beta_grid=(0.9,),
                    master_seed=77)
    stream = RngStream(77, 5)
    s = gen_sample(cfg, rng=stream)
    eps = gen_errors(cfg.error, cfg.n, stream)  # same stream, same draws
    x = s.z.T @ gen_pi(s.z, cfg.concentration)
    assert np.allclose(s.y2 - x, eps[:, 1])
    assert np.allclose(s.y1 - cfg.beta_star * x, eps[:, 0])


def test_gen_sample_deterministic():
    cfg = SimConfig(n=50, q=2, concentration=1.0, beta_grid=(1.0,), master_seed=3)
    s1 = gen_sample(cfg, rng=cfg.rng())
    s2 = gen_sample(cfg, rng=cfg.rng())
    assert np.array_equal(s1.y1, s2.y1)
    assert np.array_equal(s1.y2, s2.y2)


def test_gen_sample_truth_recorded():
    cfg = SimConfig(n=40, q=2, concentration=1.0, beta_star=1.2, beta_grid=(1.2,))
    s = gen_sample(cfg, rng=cfg.rng())
    assert s.truth.beta_star == 1.2
    assert s.truth.pi_star.shape == (2,)


def test_error_spec_validation():
    with pytest.raises(ValueError):
        ErrorSpec("cauchy")
    with pytest.raises(ValueError):
        ErrorSpec("gauss", omega=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=3, q=5)
    with pytest.raises(ValueError, match=r"need 1 <= q <= n/2, got n=9, q=5"):
        SimConfig(n=9, q=5)
    assert SimConfig(n=10, q=5).q == 5
    with pytest.raises(ValueError):
        SimConfig(alpha=1.5)
    with pytest.raises(ValueError):
        SimConfig(concentration=-1.0)
    for bad in (dict(boot_reps=0), dict(concentration=np.nan), dict(concentration=np.inf),
                dict(beta_star=np.nan), dict(beta_grid=(1.0, np.nan)), dict(beta_grid=(-np.inf,)),
                dict(n=200.0), dict(q=5.0), dict(reps=2.5), dict(boot_reps=100.0),
                dict(master_seed=7.0)):
        with pytest.raises(ValueError):
            SimConfig(**bad)
    with pytest.raises(ValueError, match="beta_grid must hold at least one value"):
        SimConfig(beta_grid=())
    cfg = SimConfig(n=np.int64(10), q=np.int32(5), master_seed=np.uint64(7))
    assert (cfg.n, cfg.q, cfg.master_seed) == (10, 5, 7) and type(cfg.master_seed) is int
