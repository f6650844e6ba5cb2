import math

import numpy as np
import pytest

from qrdiv.errors import BadParameter, InfiniteLimit, NotInvertible
from qrdiv.hermitian import (
    meet_bases,
    sample_cptp,
    sample_state,
    sample_unitary,
    spectral_decompose,
    spectrum,
    tensor,
)
from qrdiv.oracles import eps_ladder_limit
from qrdiv.supports import (
    abs_cont_part,
    kubo_ando_mean,
    kubo_ando_mean_real,
    neg_log,
    neg_power,
    perspective,
    power_fn,
    x_log_x,
)
from support_reference import abs_cont_part_kernel_formula, perspective_smoothed


def test_builtin_limits_match_numeric():
    # declared boundary limits vs numeric evaluation near 0
    eps = 1e-9
    for fn, f0, ft0 in [
        (power_fn(0.5), 0.0, 0.0),
        (power_fn(1.5), 0.0, math.inf),
        (x_log_x(), 0.0, math.inf),
        (neg_log(), math.inf, 0.0),
        (neg_power(0.3), 0.0, 0.0),
    ]:
        assert fn.f_at_zero_plus == f0
        assert fn.transpose_at_zero_plus == ft0
        if math.isfinite(f0):
            # power-law tails converge slowly; only the direction is checked
            assert abs(fn.f(eps) - f0) < 1e-2
            assert abs(fn.f(eps * 1e-3) - f0) < abs(fn.f(eps) - f0) + 1e-15
        if math.isfinite(ft0):
            assert abs(eps * fn.f(1.0 / eps) - ft0) < 1e-2


def test_transpose_involution():
    fn = power_fn(0.3)
    ft = fn.transpose()
    assert abs(ft.f(2.0) - 2.0 * fn.f(0.5)) < 1e-12
    assert ft.f_at_zero_plus == fn.transpose_at_zero_plus


# ---------------------------------------------------------------------------
# absolutely continuous part


def test_ac_dominated_support_returns_rho():
    rho = sample_state(3, 2, 0)
    sigma = np.eye(3, dtype=complex)
    np.testing.assert_allclose(abs_cont_part(rho, sigma), rho, atol=1e-10)


def test_ac_rank_one_not_dominated():
    sigma = np.diag([1.0, 0.0]).astype(complex)
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = np.outer(v, v).astype(complex)
    np.testing.assert_allclose(abs_cont_part(rho, sigma), np.zeros((2, 2)), atol=1e-10)


def test_ac_two_routes_agree_and_maximality():
    rng = np.random.default_rng(1)
    for _ in range(25):
        rho = sample_state(3, 3, rng)
        sigma = sample_state(3, 2, rng)
        a1 = abs_cont_part(rho, sigma)
        a2 = abs_cont_part_kernel_formula(rho, sigma)
        np.testing.assert_allclose(a1, a2, atol=1e-8)
        # 0 <= C <= rho and supp C inside supp sigma
        assert np.min(np.linalg.eigvalsh(rho - a1)) > -1e-9
        assert np.min(np.linalg.eigvalsh(a1)) > -1e-10
        s = spectrum(sigma).proj
        np.testing.assert_allclose(s @ a1 @ s, a1, atol=1e-9)
        # maximization oracle: any PSD C <= rho with supp in sigma has Tr C <= Tr a1
        for _ in range(20):
            c = abs_cont_part(sample_state(3, 3, rng) * np.trace(rho).real, sigma)
            lam = np.max(np.linalg.eigvalsh(c - rho))
            if lam <= 1e-12:
                assert np.trace(c).real <= np.trace(a1).real + 1e-8


def test_ac_tensor_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(10):
        r1, s1 = sample_state(2, 2, rng), sample_state(2, 1, rng)
        r2, s2 = sample_state(2, 1, rng), sample_state(2, 2, rng)
        lhs = abs_cont_part(tensor(r1, r2), tensor(s1, s2))
        rhs = tensor(abs_cont_part(r1, s1), abs_cont_part(r2, s2))
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_ac_joint_monotone_and_block_additive():
    rng = np.random.default_rng(3)
    for _ in range(10):
        r1, s1 = sample_state(3, 2, rng), sample_state(3, 2, rng)
        bump_r = sample_state(3, 3, rng) * 0.5
        bump_s = sample_state(3, 3, rng) * 0.5
        a_small = abs_cont_part(r1, s1)
        a_big = abs_cont_part(r1 + bump_r, s1 + bump_s)
        assert np.min(np.linalg.eigvalsh(a_big - a_small)) > -1e-8
    # block additivity on a direct sum
    r1, s1 = sample_state(2, 2, 4), sample_state(2, 1, 5)
    r2, s2 = sample_state(2, 1, 6), sample_state(2, 2, 7)
    z = np.zeros((2, 2))
    rd = np.block([[r1, z], [z, r2]])
    sd = np.block([[s1, z], [z, s2]])
    direct = np.block([[abs_cont_part(r1, s1), z], [z, abs_cont_part(r2, s2)]])
    np.testing.assert_allclose(abs_cont_part(rd, sd), direct, atol=1e-9)


# ---------------------------------------------------------------------------
# perspective


def test_perspective_identity_function():
    rho, sigma = sample_state(3, 3, 8), sample_state(3, 3, 9)
    np.testing.assert_allclose(perspective(power_fn(1.0), rho, sigma), rho, atol=1e-9)


def _rotated_commuting_pairs(seed):
    """(p, q, U) at d = 8, 16, 32 with Haar U: p vanishes on the first two
    indices, q on the next two and both on the fifth, so the support meet
    of U diag(p) U* and U diag(q) U* is a proper subspace."""
    rng = np.random.default_rng(seed)
    for d in (8, 16, 32):
        p, q = rng.uniform(0.05, 1.0, d), rng.uniform(0.05, 1.0, d)
        p[[0, 1, 4]] = 0.0
        q[[2, 3, 4]] = 0.0
        yield p / p.sum(), q / q.sum(), sample_unitary(d, rng)


def test_perspective_commuting_is_classical_fdivergence():
    p = np.array([0.2, 0.5, 0.3])
    q = np.array([0.6, 0.4, 0.0])
    fn = power_fn(0.5)
    out = perspective(fn, np.diag(p).astype(complex), np.diag(q).astype(complex))
    expect = [q[i] * fn.f(p[i] / q[i]) if p[i] * q[i] > 0 else 0.0 for i in range(3)]
    np.testing.assert_allclose(np.diag(out).real, expect, atol=1e-10)
    # rotated: q f(p/q) on the meet, f(0+) q where p = 0, transpose(0+) p
    # where q = 0 (x^0 has f(0+) = 1)
    for p, q, u in _rotated_commuting_pairs(28):
        for fn in (power_fn(0.5), power_fn(0.0)):
            vals = [qi * fn.f(pi / qi) if pi * qi > 0
                    else fn.f_at_zero_plus * qi if qi > 0
                    else fn.transpose_at_zero_plus * pi for pi, qi in zip(p, q)]
            rho, sig = (u @ np.diag(x) @ u.conj().T for x in (p, q))
            np.testing.assert_allclose(perspective(fn, rho, sig),
                                       u @ np.diag(vals) @ u.conj().T, atol=1e-10)


def test_perspective_eps_ladder_certifies_closed_form():
    # build-time self-test of the closed form against the defining limit;
    # the fixed ladder {1e-4,1e-5,1e-6} resolves 1e-6 wherever the eps
    # expansion has a single leading power (invertible pairs, commuting
    # singular pairs); mixed-order cases are held to the ladder's own
    # error estimate
    rng = np.random.default_rng(10)

    def certify(fn, rho, sigma, strict):
        closed = perspective(fn, rho, sigma)
        d = rho.shape[0]
        for i in range(d):
            for j in range(i, d):
                lad = eps_ladder_limit(
                    lambda e, i=i, j=j: perspective_smoothed(fn, rho, sigma, e)[
                        i, j
                    ].real,
                    eps=(1e-4, 1e-5, 1e-6),
                )
                tol = 1e-6 if strict else max(1e-6, 5 * lad.error)
                assert abs(lad.value - closed[i, j].real) < tol

    for fn in (power_fn(0.5), x_log_x(), power_fn(1.5)):
        certify(fn, sample_state(3, 3, rng), sample_state(3, 3, rng), strict=True)
    # commuting singular pair: single-power eps tail, strict certificate
    p = np.diag([0.6, 0.4, 0.0]).astype(complex)
    q = np.diag([0.3, 0.0, 0.7]).astype(complex)
    certify(power_fn(0.5), p, q, strict=True)
    # non-commuting singular pair: mixed orders
    certify(power_fn(0.5), sample_state(3, 3, rng), sample_state(3, 2, rng), strict=False)


def test_perspective_transpose_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
        fn = power_fn(0.3)
        np.testing.assert_allclose(
            perspective(fn, rho, sigma),
            perspective(fn.transpose(), sigma, rho),
            atol=1e-9,
        )


def test_perspective_infinite_limit_raises():
    rho = sample_state(2, 2, 12)
    sigma = sample_state(2, 1, 13)
    with pytest.raises(InfiniteLimit):
        perspective(x_log_x(), rho, sigma)  # transpose limit inf, rho not dominated


def test_perspective_infinite_f_at_zero_raises():
    # rho of rank 1 inside a full-rank supp sigma: sigma^{-1/2} rho sigma^{-1/2}
    # has a zero eigenvalue, where -log takes f(0+) = +inf
    rho = sample_state(2, 1, 12)
    sigma = sample_state(2, 2, 13)
    with pytest.raises(InfiniteLimit):
        perspective(neg_log(), rho, sigma)


@pytest.mark.parametrize("call", [
    lambda: power_fn(-0.5),
    lambda: power_fn(2.5),
    lambda: neg_power(0.0),
    lambda: neg_power(1.0),
    lambda: kubo_ando_mean(-0.1, np.eye(2), np.eye(2)),
    lambda: kubo_ando_mean(1.1, np.eye(2), np.eye(2)),
], ids=["power < 0", "power > 2", "neg_power 0", "neg_power 1", "mean gamma < 0",
        "mean gamma > 1"])
def test_exponents_outside_their_range_fail_at_the_boundary(call):
    with pytest.raises(BadParameter):
        call()


# ---------------------------------------------------------------------------
# Kubo-Ando means


def test_mean_identity_base():
    rho = sample_state(3, 3, 14)
    np.testing.assert_allclose(
        kubo_ando_mean(0.3, rho, np.eye(3, dtype=complex)),
        spectral_power(rho, 0.3),
        atol=1e-9,
    )


def spectral_power(a, x):
    return spectrum(a).power(x)


def test_mean_commuting():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.3, 0.2, 0.5])
    g = 0.4
    m = kubo_ando_mean(g, np.diag(p).astype(complex), np.diag(q).astype(complex))
    expect = np.where(p * q > 0, q ** (1 - g) * p**g, 0.0)
    np.testing.assert_allclose(np.diag(m).real, expect, atol=1e-10)
    # rotated, on a proper meet: the exact mean is U diag(q^{1-g} p^g) U*
    for p, q, u in _rotated_commuting_pairs(29):
        rho, sig = (u @ np.diag(x) @ u.conj().T for x in (p, q))
        for g in (0.25, 0.5, 0.8):
            np.testing.assert_allclose(kubo_ando_mean(g, rho, sig),
                                       u @ np.diag(q ** (1 - g) * p**g) @ u.conj().T, atol=1e-10)


def test_mean_support_and_symmetry():
    rng = np.random.default_rng(15)
    for _ in range(10):
        rho = sample_state(4, 3, rng)
        sigma = sample_state(4, 2, rng)
        g = rng.uniform(0.1, 0.9)
        m = kubo_ando_mean(g, rho, sigma)
        b, _ = meet_bases(spectrum(rho).proj, spectrum(sigma).proj)
        np.testing.assert_allclose(spectrum(m).proj, b @ b.conj().T, atol=1e-7)
        # sigma #_g rho = rho #_{1-g} sigma
        np.testing.assert_allclose(
            m, kubo_ando_mean(1 - g, sigma, rho), atol=1e-9
        )


def test_mean_endpoint_conventions():
    rho = sample_state(3, 2, 16)
    sigma = sample_state(3, 2, 17)
    np.testing.assert_allclose(
        kubo_ando_mean(0.0, rho, sigma), abs_cont_part(sigma, rho), atol=1e-10
    )
    np.testing.assert_allclose(
        kubo_ando_mean(1.0, rho, sigma), abs_cont_part(rho, sigma), atol=1e-10
    )


def test_mean_tensor_multiplicative():
    rng = np.random.default_rng(18)
    for _ in range(5):
        r1, s1 = sample_state(2, 2, rng), sample_state(2, 2, rng)
        r2, s2 = sample_state(2, 1, rng), sample_state(2, 2, rng)
        g = 0.6
        lhs = kubo_ando_mean(g, tensor(r1, r2), tensor(s1, s2))
        rhs = tensor(kubo_ando_mean(g, r1, s1), kubo_ando_mean(g, r2, s2))
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_mean_matches_perspective_half():
    rng = np.random.default_rng(19)
    rho, sigma = sample_state(2, 2, rng), sample_state(2, 2, rng)
    np.testing.assert_allclose(
        kubo_ando_mean(0.5, rho, sigma),
        perspective(power_fn(0.5), rho, sigma),
        atol=1e-9,
    )


def test_mean_holder_bound():
    rng = np.random.default_rng(20)
    for _ in range(20):
        rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
        g = rng.uniform(0.05, 0.95)
        tr = np.trace(kubo_ando_mean(g, rho, sigma)).real
        assert tr <= 1.0 + 1e-10
        assert tr < 1.0 - 1e-10  # strict for non-proportional states
    # equality on proportional pairs
    rho = sample_state(3, 3, 21)
    assert abs(np.trace(kubo_ando_mean(0.4, rho, rho)).real - 1.0) < 1e-10


def test_mean_joint_monotlisticity_and_positive_maps():
    rng = np.random.default_rng(22)
    for _ in range(10):
        r1, s1 = sample_state(3, 3, rng), sample_state(3, 3, rng)
        r2 = r1 + sample_state(3, 3, rng) * 0.5
        s2 = s1 + sample_state(3, 3, rng) * 0.5
        g = 0.35
        diff = kubo_ando_mean(g, r2, s2) - kubo_ando_mean(g, r1, s1)
        assert np.min(np.linalg.eigvalsh(diff)) > -1e-9
        # positive-map inequality for a sampled CPTP channel
        ch = sample_cptp(3, 3, 2, int(rng.integers(2**31)))
        lhs = ch(kubo_ando_mean(g, r1, s1))
        rhs = kubo_ando_mean(g, ch(r1), ch(s1))
        assert np.min(np.linalg.eigvalsh(rhs - lhs)) > -1e-9


def test_mean_real_gamma():
    rho = sample_state(2, 2, 23)
    np.testing.assert_allclose(
        kubo_ando_mean_real(2.0, rho, np.eye(2, dtype=complex)), rho @ rho, atol=1e-10
    )
    p = np.array([0.3, 0.7])
    q = np.array([0.6, 0.4])
    m = kubo_ando_mean_real(-1.0, np.diag(p).astype(complex), np.diag(q).astype(complex))
    np.testing.assert_allclose(np.diag(m).real, q * q / p, atol=1e-10)
    with pytest.raises(NotInvertible):
        kubo_ando_mean_real(2.0, sample_state(2, 1, 24), np.eye(2, dtype=complex))


def test_mean_real_composition_law():
    rng = np.random.default_rng(25)
    for _ in range(10):
        rho, sigma = sample_state(2, 2, rng), sample_state(2, 2, rng)
        g1, g2 = rng.uniform(0.1, 0.9, size=2)
        inner = kubo_ando_mean_real(g2, rho, sigma)
        lhs = kubo_ando_mean_real(g1, rho, inner)
        rhs = kubo_ando_mean_real(1 - (1 - g1) * (1 - g2), rho, sigma)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_mean_real_agrees_with_bounded_gamma():
    rho, sigma = sample_state(3, 3, 26), sample_state(3, 3, 27)
    for g in (0.2, 0.8):
        np.testing.assert_allclose(
            kubo_ando_mean_real(g, rho, sigma),
            kubo_ando_mean(g, rho, sigma),
            atol=1e-9,
        )


def test_mean_of_scaled_identities_keeps_the_main_term():
    # sigma_ac's trace 2e-3 is far below that of rho; the meet is the whole
    # space, so the main term is taken whatever the traces
    m = kubo_ando_mean(0.5, 1e12 * np.eye(2), 1e-3 * np.eye(2))
    np.testing.assert_allclose(m, 3.16227766016838e4 * np.eye(2), rtol=1e-12, atol=1e-8)
