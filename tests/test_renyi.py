import math

import numpy as np
import pytest

from qrdiv.barycentric import barycentric_renyi_full
from qrdiv.classical import classical_renyi
from qrdiv.errors import BadParameter
from qrdiv.hermitian import CLUSTER_RTOL, sample_state, sample_unitary, spectrum, tensor
from qrdiv.relent import Umegaki, bs_rel_entropy, measured_lower_bound, umegaki
from qrdiv.renyi import (
    max_fdivergence,
    max_q_alpha_mean_route,
    max_relative_entropy,
    max_renyi,
    optimal_reverse_test,
    reg_measured_renyi,
    renyi_alpha_z,
)
from qrdiv.supports import (
    kubo_ando_mean,
    kubo_ando_mean_real,
    neg_log,
    neg_power,
    power_fn,
    x_log_x,
)

INF = float("inf")


def commuting_pair(p, q, seed=0):
    d = len(p)
    u = sample_unitary(d, seed)
    return u @ np.diag(p).astype(complex) @ u.conj().T, u @ np.diag(q).astype(
        complex
    ) @ u.conj().T


# ---------------------------------------------------------------------------
# Renyi (alpha, z)


def test_az_zero_on_equal_states():
    rho = sample_state(3, 3, 0)
    for a in (0.0, 0.3, 1.0, 2.0):
        for z in (0.5, 1.0, 2.0, INF):
            assert abs(renyi_alpha_z(a, z, rho, rho)) < 1e-10


def test_az_commuting_collapses_to_classical():
    p = np.array([0.2, 0.5, 0.3])
    q = np.array([0.6, 0.1, 0.3])
    rho, sig = commuting_pair(p, q, 1)
    for a in (0.0, 0.3, 0.7, 1.0, 1.5, 2.0):
        expect = classical_renyi(a, p, q)
        for z in (0.5, 1.0, 3.0, INF):
            assert abs(renyi_alpha_z(a, z, rho, sig) - expect) < 1e-9


def test_az_support_rules():
    full = sample_state(3, 3, 2)
    low = sample_state(3, 2, 3)
    assert renyi_alpha_z(2.0, 1.0, full, low) == INF
    assert math.isfinite(renyi_alpha_z(0.5, 1.0, full, low))
    assert renyi_alpha_z(2.0, INF, full, low) == INF
    with pytest.raises(BadParameter):
        renyi_alpha_z(0.5, -1.0, full, low)


_R, _S = sample_state(2, 2, 41), sample_state(2, 2, 42)
_ZERO = np.zeros((2, 2), dtype=complex)


@pytest.mark.parametrize("call", [
    lambda: renyi_alpha_z(0.5, 1.0, _ZERO, _S),
    lambda: renyi_alpha_z(-0.5, 1.0, _R, _S),
    lambda: max_renyi(-0.5, _R, _S),
    lambda: max_renyi(0.5, _ZERO, _S),
    lambda: max_q_alpha_mean_route(2.5, _R, _S),
    lambda: max_fdivergence(power_fn(0.5), _R, _S),  # not operator convex
    lambda: max_fdivergence(neg_log(), _R, _S),  # infinite f(0+)
    lambda: reg_measured_renyi(-0.5, _R, _S),
], ids=["az zero rho", "az alpha < 0", "max_renyi alpha < 0", "max_renyi zero rho",
        "mean route alpha 2.5",
        "fdiv not operator convex", "fdiv infinite f(0+)", "reg_measured alpha < 0"])
def test_bad_parameters_fail_at_the_boundary(call):
    with pytest.raises(BadParameter):
        call()


_NAN = float("nan")


# every alpha entry point reads one rule, alpha = inf or alpha >= 0, which
# NaN fails (alpha=None stays the relative entropy); a Kubo-Ando weight of
# any sign must be finite
@pytest.mark.parametrize("call", [
    lambda: renyi_alpha_z(_NAN, INF, _R, _S),
    lambda: renyi_alpha_z(_NAN, 1.0, _R, _S),
    lambda: measured_lower_bound(_R, _S, alpha=-1.0),
    lambda: measured_lower_bound(_R, _S, alpha=_NAN),
    lambda: reg_measured_renyi(_NAN, _R, _S),
    lambda: max_renyi(_NAN, _R, _S),
    lambda: barycentric_renyi_full(_NAN, (Umegaki(), Umegaki()), _R, _S),
    lambda: classical_renyi(_NAN, [0.5, 0.5], [0.5, 0.5]),
    lambda: kubo_ando_mean_real(_NAN, _R, _S),
    lambda: kubo_ando_mean_real(INF, _R, _S),
], ids=["az(nan, inf)", "az(nan, 1)", "measured alpha < 0", "measured alpha nan",
        "reg_measured nan", "max_renyi nan", "bary nan", "classical nan", "mean_real nan",
        "mean_real inf"])
def test_a_nan_or_negative_order_fails_at_the_boundary(call):
    with pytest.raises(BadParameter):
        call()


def test_az_alpha_one_is_umegaki():
    rho, sig = sample_state(3, 3, 4), sample_state(3, 3, 5)
    for z in (0.5, 1.0, INF):
        assert abs(renyi_alpha_z(1.0, z, rho, sig) - umegaki(rho, sig)) < 1e-10


def test_az_additive_on_tensor_products():
    rng = np.random.default_rng(6)
    r1, s1 = sample_state(2, 2, rng), sample_state(2, 2, rng)
    r2, s2 = sample_state(2, 2, rng), sample_state(2, 2, rng)
    for a, z in ((0.3, 0.5), (0.7, 1.0), (1.5, 2.0), (0.5, INF)):
        lhs = renyi_alpha_z(a, z, tensor(r1, r2), tensor(s1, s2))
        rhs = renyi_alpha_z(a, z, r1, s1) + renyi_alpha_z(a, z, r2, s2)
        assert abs(lhs - rhs) < 1e-7


def test_az_scaling_law():
    rho, sig = sample_state(3, 3, 7), sample_state(3, 3, 8)
    for a, z in ((0.3, 1.0), (2.0, 2.0), (0.6, INF)):
        base = renyi_alpha_z(a, z, rho, sig)
        scaled = renyi_alpha_z(a, z, 0.4 * rho, 2.5 * sig)
        assert abs(scaled - (base + math.log(0.4) - math.log(2.5))) < 1e-9


def test_az_sandwiched_half_vs_measured_bound():
    rng = np.random.default_rng(9)
    for n in range(5):
        rho, sig = sample_state(2, 2, rng), sample_state(2, 2, rng)
        target = renyi_alpha_z(0.5, 0.5, rho, sig)
        lb, _ = measured_lower_bound(rho, sig, alpha=0.5, restarts=4, iters=120, seed=n)
        assert lb <= target + 1e-9
        # Araki-Lieb-Thirring direction: z = 1/2 below z = 1 for alpha < 1
        assert target <= renyi_alpha_z(0.5, 1.0, rho, sig) + 1e-10


# ---------------------------------------------------------------------------
# optimal reverse test and maximal Renyi


def test_reverse_test_identity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        rho = sample_state(d, int(rng.integers(1, d + 1)), rng)
        sig = sample_state(d, int(rng.integers(1, d + 1)), rng)
        rt = optimal_reverse_test(rho, sig)
        np.testing.assert_allclose(rt.apply(rt.p), rho, atol=1e-8)
        np.testing.assert_allclose(rt.apply(rt.q), sig, atol=1e-8)
        # channel maps indicators to states
        for g in rt.gamma_map:
            assert abs(np.trace(g).real - 1) < 1e-8
            assert np.min(np.linalg.eigvalsh(g)) > -1e-10


def test_reverse_test_commuting_dominated():
    p = np.array([0.25, 0.25, 0.5])
    q = np.array([0.1, 0.4, 0.5])
    rho, sig = np.diag(p).astype(complex), np.diag(q).astype(complex)
    rt = optimal_reverse_test(rho, sig)
    # joint diagonals grouped by the eigenvalues of p/q
    assert sorted(rt.p[rt.p > 1e-12]) == pytest.approx([0.25, 0.25, 0.5])
    assert rt.q[-1] == 0.0 and rt.p[-1] == 0.0


def test_reverse_test_singular_tail():
    sig = np.diag([1.0, 0.0]).astype(complex)
    v = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = np.outer(v, v).astype(complex)
    rt = optimal_reverse_test(rho, sig)
    assert rt.q[-1] == 0.0
    assert abs(rt.p[-1] - np.trace(rho - kubo_ando_mean(1.0, rho, sig)).real) < 1e-8
    assert rt.p[-1] > 0.1


def test_max_renyi_two_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        rho = sample_state(d, d, rng)
        sig = sample_state(d, int(rng.integers(1, d + 1)), rng)
        for a in (0.0, 0.3, 0.8, 1.3, 2.0):
            if a == 1.3 or a == 2.0:
                pass
            v1 = max_renyi(a, rho, sig).value
            q2 = max_q_alpha_mean_route(a, rho, sig)
            if a == 0:
                v2 = INF if q2 <= 0 else -math.log(q2)
            else:
                v2 = INF if q2 == INF or q2 <= 0 else math.log(q2) / (a - 1.0)
            if v1 == INF or v2 == INF:
                assert v1 == v2
            else:
                assert abs(v1 - v2) < 1e-8


def _reverse_test_cases(kind):
    """(rho, sigma) pairs: ``clustered`` has sigma^{-1/2} rho sigma^{-1/2}
    = U diag(y) U* with two pairs of eigenvalues 0.3 CLUSTER_RTOL apart
    (relative), and ``clustered-0.5`` 50 such pairs 0.5 CLUSTER_RTOL apart;
    ``singular`` a rank-2 sigma, so rho has a part outside supp sigma;
    ``kappa=1e6`` the pairs of test_conditioning's 1e6 row."""
    if kind == "kappa=1e6":
        from test_conditioning import _state

        rng = np.random.default_rng(1)
        return [(_state(4, 1e6, rng), _state(4, 1e6, rng)) for _ in range(4)]
    rng = np.random.default_rng(40)
    if kind == "singular":
        return [(sample_state(4, 4, rng), sample_state(4, 2, rng)) for _ in range(4)]
    t = (0.3 if kind == "clustered" else 0.5) * CLUSTER_RTOL
    y = np.array([2.0, 2.0 * (1 + t), 0.5, 0.5 * (1 - t)])
    out = []
    for _ in range(4 if kind == "clustered" else 50):
        sig, u = sample_state(4, 4, rng), sample_unitary(4, rng)
        root = spectrum(sig).power(0.5)
        out.append((root @ ((u * y) @ u.conj().T) @ root, sig))
    return out


@pytest.mark.parametrize("kind", ["clustered", "clustered-0.5", "singular", "kappa=1e6"])
def test_max_renyi_is_the_classical_renyi_of_the_reverse_test(kind):
    # max_renyi reads only the reverse test's (p, q), without its channel
    for rho, sig in _reverse_test_cases(kind):
        rt = optimal_reverse_test(rho, sig)
        if kind.startswith("clustered"):
            assert len(rt.p) == 3  # two blocks and the singular index
        # the channel gives sigma back to rounding, and rho up to each block's
        # mean over eigenvalues within CLUSTER_RTOL of each other
        assert np.abs(rt.apply(rt.q) - sig).max() <= 1e-13
        assert np.abs(rt.apply(rt.p) - rho).max() <= CLUSTER_RTOL * np.abs(rho).max()
        if kind == "singular":
            assert rt.p[-1] > 0.0 and rt.q[-1] == 0.0
        for a in (0.25, 0.5, 1.5, 2.0):
            got, ref = max_renyi(a, rho, sig).value, classical_renyi(a, rt.p, rt.q)
            assert got == ref or abs(got - ref) <= 1e-14 * abs(ref), (a, got, ref)


def test_max_renyi_basics():
    rho = sample_state(3, 3, 12)
    for a in (0.0, 0.5, 1.0, 2.0, INF):
        assert abs(max_renyi(a, rho, rho).value) < 1e-9
    r = np.diag([0.5, 0.5]).astype(complex)
    s = np.diag([0.25, 0.75]).astype(complex)
    assert abs(max_renyi(INF, r, s).value - math.log(2)) < 1e-12
    assert abs(max_relative_entropy(r, s) - math.log(2)) < 1e-12


def test_max_relative_entropy_is_inf_off_the_support():
    r = np.diag([0.5, 0.5]).astype(complex)
    s = np.diag([1.0, 0.0]).astype(complex)
    assert max_relative_entropy(r, s) == INF
    assert max_renyi(INF, r, s).value == INF


def test_max_renyi_alpha_one_limit_is_bs():
    rng = np.random.default_rng(13)
    for _ in range(5):
        rho, sig = sample_state(2, 2, rng), sample_state(2, 2, rng)
        bs = bs_rel_entropy(rho, sig)  # Tr rho = 1
        lo = max_renyi(0.999, rho, sig).value
        hi = max_renyi(1.001, rho, sig).value
        assert lo <= bs + 1e-9 <= hi + 2e-9  # monotone bracket
        # midpoint cancels the linear term; quadratic remainder stays small
        assert abs(0.5 * (lo + hi) - bs) < 5e-6
        assert abs(max_renyi(1.0, rho, sig).value - bs) < 1e-9


def test_max_renyi_alpha_monotone_and_additive():
    rng = np.random.default_rng(14)
    rho, sig = sample_state(3, 3, rng), sample_state(3, 3, rng)
    grid = [0.1, 0.4, 0.8, 1.0, 1.4, 2.0]
    vals = [max_renyi(a, rho, sig).value for a in grid]
    assert all(vals[i + 1] >= vals[i] - 1e-10 for i in range(len(vals) - 1))
    r2, s2 = sample_state(2, 2, rng), sample_state(2, 2, rng)
    for a in (0.3, 0.9, 1.5, 2.0):
        lhs = max_renyi(a, tensor(rho, r2), tensor(sig, s2)).value
        rhs = max_renyi(a, rho, sig).value + max_renyi(a, r2, s2).value
        assert abs(lhs - rhs) < 1e-7


def test_max_renyi_scaling_law():
    rho, sig = sample_state(3, 3, 15), sample_state(3, 3, 16)
    for a in (0.4, 1.7, INF):
        base = max_renyi(a, rho, sig).value
        scaled = max_renyi(a, 0.7 * rho, 1.3 * sig).value
        assert abs(scaled - (base + math.log(0.7) - math.log(1.3))) < 1e-9


def test_max_renyi_above_two_flagged():
    rho, sig = sample_state(2, 2, 17), sample_state(2, 2, 18)
    mv = max_renyi(3.0, rho, sig)
    assert mv.upper_bound_only
    assert not max_renyi(2.0, rho, sig).upper_bound_only


def test_max_renyi_variational_identity():
    # D_alpha^max = alpha/(1-alpha) D^max(m||rho) + D^max(m||sigma)
    #               - log(Tr rho)/(alpha-1), m = normalized sigma #_alpha rho
    rng = np.random.default_rng(19)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        rho, sig = sample_state(d, d, rng), sample_state(d, d, rng)
        for a in (0.25, 0.5, 0.75):
            mean = kubo_ando_mean(a, rho, sig)
            q = np.trace(mean).real
            m_hat = mean / q
            lhs = max_renyi(a, rho, sig).value
            rhs = (a / (1 - a)) * bs_rel_entropy(m_hat, rho) + bs_rel_entropy(
                m_hat, sig
            )
            assert abs(lhs - rhs) < 1e-7


# ---------------------------------------------------------------------------
# maximal f-divergences


def test_max_fdiv_xlogx_is_bs():
    rng = np.random.default_rng(20)
    pairs = [(sample_state(3, 3, rng), sample_state(3, 2, rng)) for _ in range(10)]
    # a deficiency is nonzero iff it has rank, whatever its trace: rho's
    # part outside supp sigma has rank 1 (BS = +inf), and rho's 5e-10 is
    # below its cutoff (BS = 0.0)
    pairs += [(np.diag([1e-3, 1e-5]), np.diag([1e6, 0.0])),
              (np.diag([1.0, 5e-10]), np.diag([1.0, 0.0]))]
    for rho, sig in pairs:
        v = max_fdivergence(x_log_x(), rho, sig)
        assert (v == INF) == (bs_rel_entropy(rho, sig) == INF)
        if v != INF:
            assert abs(v - bs_rel_entropy(rho, sig)) < 1e-9


def test_max_fdiv_neg_power_is_neg_mean_trace():
    rho, sig = sample_state(3, 3, 21), sample_state(3, 3, 22)
    v = max_fdivergence(neg_power(0.5), rho, sig)
    assert abs(v + np.trace(kubo_ando_mean(0.5, rho, sig)).real) < 1e-9


def test_max_fdiv_commuting_and_reverse_test():
    p = np.array([0.4, 0.6, 0.0])
    q = np.array([0.3, 0.3, 0.4])
    rho, sig = np.diag(p).astype(complex), np.diag(q).astype(complex)
    fn = neg_power(0.3)
    direct = sum(
        q[i] * fn.f(p[i] / q[i]) if p[i] * q[i] > 0 else 0.0 for i in range(3)
    )
    assert abs(max_fdivergence(fn, rho, sig) - direct) < 1e-10
    rng = np.random.default_rng(23)
    rho, sig = sample_state(2, 2, rng), sample_state(2, 2, rng)
    rt = optimal_reverse_test(rho, sig)
    cl = sum(
        rt.q[i] * fn.f(rt.p[i] / rt.q[i]) if rt.p[i] * rt.q[i] > 0 else 0.0
        for i in range(len(rt.p))
    )
    assert abs(max_fdivergence(fn, rho, sig) - cl) < 1e-8


# ---------------------------------------------------------------------------
# regularized measured closed forms


def test_reg_measured_piecewise():
    rho, sig = sample_state(3, 3, 24), sample_state(3, 3, 25)
    assert abs(reg_measured_renyi(1.0, rho, sig) - umegaki(rho, sig)) < 1e-10
    assert abs(
        reg_measured_renyi(0.5, rho, sig) - renyi_alpha_z(0.5, 0.5, rho, sig)
    ) < 1e-12
    assert abs(
        reg_measured_renyi(0.3, rho, sig) - renyi_alpha_z(0.3, 0.7, rho, sig)
    ) < 1e-12
    assert abs(
        reg_measured_renyi(2.0, rho, sig) - renyi_alpha_z(2.0, 2.0, rho, sig)
    ) < 1e-12
    assert abs(reg_measured_renyi(INF, rho, sig) - max_relative_entropy(rho, sig)) < 1e-12


def test_reg_measured_commuting_classical():
    p = np.array([0.2, 0.8])
    q = np.array([0.7, 0.3])
    rho, sig = commuting_pair(p, q, 26)
    for a in (0.0, 0.25, 0.5, 1.0, 2.0):
        assert abs(reg_measured_renyi(a, rho, sig) - classical_renyi(a, p, q)) < 1e-9


def test_measured_tensor_power_monotonicity_smoke():
    # n -> D^meas(W^(x) n)/ and D^max are monotone increasing on n in {1,2,3}
    rng = np.random.default_rng(27)
    rho, sig = sample_state(2, 2, rng), sample_state(2, 2, rng)
    rn, sn = rho.copy(), sig.copy()
    prev_meas, prev_max = -INF, -INF
    for n in (1, 2, 3):
        lb, _ = measured_lower_bound(rn, sn, restarts=2, iters=40, seed=n)
        dm = bs_rel_entropy(rn, sn)
        assert lb >= prev_meas - 5e-3  # ascent noise tolerance on the bound
        assert dm >= prev_max - 1e-10
        prev_meas, prev_max = lb, dm
        if n < 3:
            rn, sn = tensor(rn, rho), tensor(sn, sig)


def test_reverse_test_keeps_an_index_of_small_mass():
    # sigma's 1.5e-9 is above its cutoff; its index has mass near 1.5e-9,
    # below 1e-9 Tr sigma, and must still map to its own state
    rho = sample_state(4, 4, 5)
    u = sample_unitary(4, 3)
    sigma = u @ np.diag([1.0, 1.0, 1.0, 1.5e-9]) @ u.conj().T
    rt = optimal_reverse_test(rho, sigma)
    assert np.abs(rt.apply(rt.p) - rho).max() <= 1e-7
    assert np.abs(rt.apply(rt.q) - sigma).max() <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5, 2.0])
def test_max_renyi_against_zero_sigma_is_infinite(alpha):
    # the meet is empty and all of rho is the reverse test's singular index
    assert max_renyi(alpha, np.eye(2), np.zeros((2, 2))).value == INF
