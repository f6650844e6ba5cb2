import math

import numpy as np
import pytest

from qrdiv import (
    BelavkinStaszewski,
    GcqChannel,
    SolverOptions,
    Umegaki,
    barycentric_q,
    barycentric_renyi,
    barycentric_renyi_full,
    dual_renyi,
    hermitian,
    bs_rel_entropy,
    max_renyi,
    measured_lower_bound,
    parse_kind,
    rel_entropy,
    renyi_alpha_z,
    umegaki,
)
from qrdiv.errors import (
    BadFactorization,
    BadParameter,
    BadRank,
    DimensionMismatch,
    DomainError,
    NonHermitian,
    NotAResolution,
)
from qrdiv.hermitian import (
    Spectrum,
    _derived_spectrum,
    check_hermitian,
    compressed_rank,
    matrix_from_json,
    matrix_to_json,
    meet_bases,
    partial_trace,
    pinch,
    sample_cptp,
    sample_state,
    sample_unitary,
    spectral_decompose,
    spectrum,
    support_leq,
    support_meet,
    tensor,
)
from qrdiv.renyi import (
    max_fdivergence,
    max_q_alpha_mean_route,
    max_relative_entropy,
    optimal_reverse_test,
    reg_measured_renyi,
)
from qrdiv.supports import (
    abs_cont_part,
    kubo_ando_mean,
    kubo_ando_mean_real,
    perspective,
    power_fn,
    x_log_x,
)


def test_spectral_diag():
    w, u = spectral_decompose(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [3.0, 1.0])
    np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-12)


def test_spectral_pauli_x():
    w, u = spectral_decompose(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(u), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)


def test_spectral_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        w, u = spectral_decompose(h)
        assert np.all(np.diff(w) <= 1e-12)
        np.testing.assert_allclose((u * w) @ u.conj().T, h, atol=1e-10)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitian):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonHermitian):
        check_hermitian(np.zeros((2, 3)))


def test_apply_function_power_on_support():
    a = np.diag([4.0, 0.0])
    np.testing.assert_allclose(
        spectrum(a).fn(lambda x: x**0.5), np.diag([2.0, 0.0]), atol=1e-12
    )


def test_apply_function_generalized_inverse():
    a = np.diag([2.0, 0.0])
    inv = spectrum(a).fn(lambda x: 1.0 / x)
    np.testing.assert_allclose(inv, np.diag([0.5, 0.0]), atol=1e-12)
    np.testing.assert_allclose(a @ inv, spectrum(a).proj, atol=1e-12)


def test_apply_function_nlog_convention():
    import math

    rho = np.diag([math.e, 1.0, 0.0])
    out = spectrum(rho).fn(math.log)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0, 0.0]), atol=1e-12)


def test_apply_function_matches_polynomial():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = sample_state(3, 3, rng) * 2
        p = lambda x: 0.3 + 1.2 * x - 0.7 * x * x
        direct = 0.3 * np.eye(3) + 1.2 * a - 0.7 * a @ a
        np.testing.assert_allclose(
            spectrum(a).fn(p, on_support_only=False), direct, atol=1e-9
        )


# (eigenvalues of the compression to a 2-dim Q, rank, whether the zero test
# decomposes it): Q's coordinates are rotated by 45 degrees against them, so
# the diagonal and the trace bound the top eigenvalue only apart
_COMPRESSIONS = [
    ((1e-12, 0.0), 0, False),  # trace below the cutoff
    ((0.6e-9, 0.6e-9), 0, True),  # diagonal below it, trace above
    ((1.5e-9, 0.0), 1, True),
    ((3e-9, 1e-12), 1, False),  # a diagonal entry above it
    ((0.5, 0.2), 2, False),
]


@pytest.mark.parametrize("lams, rank, band", _COMPRESSIONS)
def test_compressed_rank_against_the_cutoff_of_a(eigvalsh_calls, lams, rank, band):
    w = sample_unitary(3, 9)
    r = np.eye(3, dtype=complex)
    r[1:, 1:] = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
    a = w @ r @ np.diag([1.0, *lams]) @ r.conj().T @ w.conj().T
    q = w[:, 1:]
    sp = spectrum(a)
    assert compressed_rank(sp, q) == rank
    eigvalsh_calls.clear()
    zero = compressed_rank(sp, q, zero_test=True)
    assert (zero == 0) == (rank == 0)
    assert len(eigvalsh_calls) == band
    # the inclusion rule: ran(a) <= ran(b) iff a's compression to ker b is 0
    b = w @ np.diag([1.0, 0.0, 0.0]) @ w.conj().T
    assert support_leq(sp, b) == (rank == 0)


def test_support_leq_takes_no_decomposition_against_full_rank(eigh_calls, eigvalsh_calls):
    rho, sig = sample_state(3, 2, 4), sample_state(3, 3, 5)
    sr, ss = spectrum(rho), spectrum(sig)
    eigh_calls.clear()
    assert support_leq(sr, ss) and not support_leq(ss, sr)
    assert len(eigvalsh_calls) == 0 and len(eigh_calls) == 0


def test_projection_meet_identity():
    eye = np.eye(3, dtype=complex)
    b, c = meet_bases(eye, eye)
    np.testing.assert_allclose(b @ b.conj().T, eye, atol=1e-12)
    assert c.shape == (3, 0)


def test_projection_meet_distinct_lines():
    p = np.diag([1.0, 0.0]).astype(complex)
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    q = np.outer(v, v).astype(complex)
    b, c = meet_bases(p, q)
    assert b.shape == (2, 0) and c.shape == (2, 2)


def test_projection_meet_random_vs_kernel_oracle():
    # oracle: the meet of k projections is the kernel of (kI - sum P_i)
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = spectrum(sample_state(4, 2, rng)).proj
        q = spectrum(sample_state(4, 3, rng)).proj
        r = spectrum(sample_state(4, 3, rng)).proj
        for projs in ((p, q), (q, r), (p, q, r), (q, r, q)):
            b, c = meet_bases(*projs)
            m = b @ b.conj().T
            w, u = spectral_decompose(len(projs) * np.eye(4) - sum(projs))
            kernel = u[:, w < 1e-9]
            np.testing.assert_allclose(m, kernel @ kernel.conj().T, atol=1e-8)
            # meet properties: below every argument
            for x in projs:
                assert np.min(np.linalg.eigvalsh(x - m)) > -1e-9
            # the meet's basis and its complement's form one unitary
            bc = np.hstack([b, c])
            np.testing.assert_allclose(bc.conj().T @ bc, np.eye(4), atol=1e-12)
        # generic ranks 2 and 3 in d = 4 meet in a line
        assert meet_bases(p, q)[0].shape[1] == 1


def test_projection_meet_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        meet_bases(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        meet_bases(np.eye(2), np.eye(2), np.eye(3))


def test_pinch_eigenbasis_gives_diagonal():
    rng = np.random.default_rng(3)
    a = sample_state(3, 3, rng)
    w, u = spectral_decompose(a)
    blocks = [np.outer(u[:, i], u[:, i].conj()) for i in range(3)]
    out = pinch(a, blocks)
    np.testing.assert_allclose(out, a, atol=1e-10)


def test_pinch_identity_and_masking():
    rng = np.random.default_rng(4)
    a = sample_state(3, 3, rng)
    np.testing.assert_allclose(pinch(a, [np.eye(3)]), a, atol=1e-12)
    blocks = [np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    out = pinch(a, blocks)
    masked = a.copy()
    masked[0, 2] = masked[1, 2] = masked[2, 0] = masked[2, 1] = 0.0
    np.testing.assert_allclose(out, masked, atol=1e-12)
    assert abs(np.trace(out) - np.trace(a)) < 1e-10


def test_pinch_requires_resolution():
    with pytest.raises(NotAResolution):
        pinch(np.eye(2), [np.diag([1.0, 0.0])])


def test_pinch_is_contraction_and_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = sample_state(4, 4, rng)
        p = spectrum(sample_state(4, 2, rng)).proj
        blocks = [p, np.eye(4) - p]
        out = pinch(a, blocks)
        np.testing.assert_allclose(pinch(out, blocks), out, atol=1e-10)
        assert np.linalg.norm(out, 2) <= np.linalg.norm(a, 2) + 1e-9


def test_partial_trace_product_rule():
    rng = np.random.default_rng(6)
    x = sample_state(2, 2, rng)
    y = sample_state(3, 3, rng) * 0.7
    np.testing.assert_allclose(
        partial_trace(tensor(x, y), (2, 3), keep=0), x * np.trace(y).real, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(np.eye(4) / 4, (2, 2), keep=0), np.eye(2) / 2, atol=1e-12
    )


def test_partial_trace_vs_index_sum():
    rng = np.random.default_rng(7)
    a = sample_state(4, 4, rng)
    t = a.reshape(2, 2, 2, 2)
    oracle = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for k in range(2):
            oracle[i, k] = sum(t[i, j, k, j] for j in range(2))
    np.testing.assert_allclose(partial_trace(a, (2, 2), 0), oracle, atol=1e-12)
    with pytest.raises(BadFactorization):
        partial_trace(a, (3, 2), 0)


def test_partial_trace_keeps_the_second_factor():
    rng = np.random.default_rng(6)
    x = sample_state(2, 2, rng) * 0.7
    y = sample_state(3, 3, rng)
    np.testing.assert_allclose(
        partial_trace(tensor(x, y), (2, 3), keep=1), 0.7 * y, atol=1e-12
    )
    with pytest.raises(BadFactorization):
        partial_trace(tensor(x, y), (2, 3), keep=2)


def test_sample_cptp_needs_an_isometry():
    with pytest.raises(BadRank):
        sample_cptp(2, 2, 0)
    with pytest.raises(BadRank):
        sample_cptp(4, 1, 2)


def test_sample_state_properties():
    rho = sample_state(2, 1, 0)
    w, _ = spectral_decompose(rho)
    assert abs(np.trace(rho) - 1) < 1e-12
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-10)
    with pytest.raises(BadRank):
        sample_state(2, 3, 0)


def test_sample_unitary():
    u = sample_unitary(4, 1)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_sample_cptp_trace_preserving_on_basis():
    ch = sample_cptp(2, 2, 2, 3)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            assert abs(np.trace(ch(e)) - np.trace(e)) < 1e-10
    out = ch(np.eye(2) / 2)
    assert abs(np.trace(out) - 1) < 1e-10
    assert np.min(np.linalg.eigvalsh(out)) > -1e-12


def test_sample_cptp_env1_is_unitary_conjugation():
    ch = sample_cptp(2, 2, 1, 4)
    rho = sample_state(2, 2, 5)
    win, _ = spectral_decompose(rho)
    wout, _ = spectral_decompose(ch(rho))
    np.testing.assert_allclose(win, wout, atol=1e-10)


def test_spectrum():
    rho = sample_state(3, 2, 8)
    sp = spectrum(rho)
    assert spectrum(sp) is sp
    assert sp.basis.shape == (3, 2)
    np.testing.assert_allclose((sp.u * sp.w) @ sp.u.conj().T, rho, atol=1e-10)
    np.testing.assert_allclose(sp.proj @ sp.proj, sp.proj, atol=1e-12)
    # f fails at the retained top eigenvalue: DomainError
    with pytest.raises(DomainError):
        sp.fn(lambda x: math.log(sp.w[0] - x))
    # f fails only at the kernel eigenvalue, which fn skips
    assert np.all(np.isfinite(sp.fn(lambda x: math.log(x - sp.w[-1]))))


def test_derived_spectrum_takes_its_rank_from_the_caller():
    # eigenvalues 1e8, 1, -1 and 0, with an asymmetry of 1e-6 that
    # check_hermitian rejects: the support is the top `rank` of them,
    # clamped at 0, whatever their size relative to the largest
    u = sample_unitary(4, 3)
    m = (u * np.array([1e8, 1.0, -1.0, 0.0])) @ u.conj().T
    m[0, 1] += 1e-6
    with pytest.raises(NonHermitian):
        spectrum(m)
    for rank, support in ((0, 0), (1, 1), (2, 2), (3, 2)):
        sp = _derived_spectrum(m, rank)
        assert sp.cut == 0.0 and np.all(sp.w[rank:] == 0.0) and np.all(sp.w >= 0.0)
        assert sp.basis.shape == (4, support)
    np.testing.assert_allclose(_derived_spectrum(m, 2).w[:2], [1e8, 1.0], rtol=1e-6)


@pytest.mark.parametrize("rank", [4, 3])
def test_graded_congruence_is_the_congruence_on_the_support(rank):
    # X = S^{-1/2} A S^{-1/2} restricted to supp S, in the coordinates of
    # S's support eigenbasis V; ungraded maps it back to A compressed there
    rng = np.random.default_rng(4)
    ss = spectrum(sample_state(4, rank, rng))
    a = sample_state(4, 4, rng)
    v = ss.basis
    x = ss.graded(v.conj().T @ a @ v, rank)
    assert x.cut == 0.0 and x.u.shape == (rank, rank)
    xm = (x.u * x.w) @ x.u.conj().T
    shi = ss.power(-0.5)
    np.testing.assert_allclose(v @ xm @ v.conj().T, shi @ a @ shi, atol=1e-10)
    np.testing.assert_allclose(ss.ungraded(xm), ss.proj @ a @ ss.proj, atol=1e-12)


def _spectrum_cases():
    """Spectra with a cluster, eigenvalues just above and below the support
    cutoff, and trace scales from 1e-6 to 1e6."""
    rng = np.random.default_rng(17)
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        cut = 1e-9 * max(1.0, scale)
        for w in ([1.0, 1.0 + 1e-10, 1.0 - 1e-9, 0.3],
                  [1.0, 0.2, 1.001 * cut / scale, 0.999 * cut / scale],
                  [1.0, 1.0, 2.0 * cut / scale, 0.0, 0.25]):
            u = sample_unitary(len(w), rng)
            yield spectrum((u * (scale * np.array(w))) @ u.conj().T)


def _scalar_or_error(sp, f):
    """sp.fn(f), or DomainError where that raises."""
    try:
        with np.errstate(all="ignore"):
            return sp.fn(f)
    except DomainError as exc:
        return exc


@pytest.mark.parametrize("x", [-1.0, -0.5, 0.5, 1.5, "log"])
def test_spectrum_power_and_log_match_scalar_definition(x):
    # power and log take one numpy call over the support eigenvalues; each
    # agrees with the scalar fn definition to 1e-15 relative, and raises
    # DomainError where that does (0, a negative eigenvalue, or overflow
    # kept on the support)
    call = (lambda sp: sp.log()) if x == "log" else (lambda sp: sp.power(x))
    f = math.log if x == "log" else (lambda t: t**x)
    for sp in _spectrum_cases():
        ref, out = sp.fn(f), call(sp)
        assert np.linalg.norm(out - ref, 2) <= 1e-15 * np.linalg.norm(ref, 2)
    eye = np.eye(2, dtype=complex)
    for w, cut in (([2.0, 0.0], -1.0), ([2.0, -1.0], -2.0), ([2.0, 1e-310], 0.0)):
        sp = Spectrum(np.array(w), eye, cut)
        ref = _scalar_or_error(sp, f)
        if isinstance(ref, DomainError):
            with pytest.raises(DomainError):
                call(sp)
        else:
            assert np.linalg.norm(call(sp) - ref, 2) <= 1e-15 * np.linalg.norm(ref, 2)


_UM, _BS = Umegaki(), BelavkinStaszewski()


def _q3(kind, r, s, options=None):
    """barycentric_q over (r, s, (r + s)/2) with weights (0.5, 0.25, 0.25)."""
    ch = GcqChannel(("a", "b", "c"), (r, s, (r + s) / 2))
    return barycentric_q((kind,) * 3, ch, (0.5, 0.25, 0.25), options)


# a full-rank d = 3 channel for signed weights
_SIGNED = GcqChannel(("a", "b"), (sample_state(3, 3, 21), sample_state(3, 3, 22)))
# a d = 3 family whose last two supports meet properly: W1 on e1, W2 on
# (e1, e2) and W3 on (e1, e3), after one unitary
_U3 = sample_unitary(3, 23)
_NESTED = GcqChannel(("a", "b", "c"), tuple(
    (_U3 * np.array(w)) @ _U3.conj().T for w in ([1.0, 0, 0], [0.6, 0.4, 0], [0.7, 0, 0.3])))


# a rank-2 sigma at d = 4, against which a full-rank rho has a part outside
# supp sigma
_SIG_RANK2 = sample_state(4, 2, 12)


# each operand is decomposed once per call; the count when every helper
# re-decomposed its input is on the right. bs_rel_entropy works in supp rho's
# eigenbasis (rho, sigma and Y = rho_c^{1/2} V* sigma^+ V rho_c^{1/2}); the
# reverse test behind max_renyi decomposes rho too, whose rank decides that
# of rho_ac (2 when the cutoff decided it): the one bound that rose
_EIGH_BOUNDS = [
    ("umegaki", lambda r, s: umegaki(r, s), 2),  # 4
    ("bs_rel_entropy", lambda r, s: bs_rel_entropy(r, s), 3),  # 6
    # rho, sigma and the log-Euclidean exponent: the meet is supp rho, as
    # supp rho <= supp sigma (4 when the meet was decomposed)
    ("renyi_alpha_z(1.5, inf)", lambda r, s: renyi_alpha_z(1.5, math.inf, r, s), 3),  # 9
    ("max_renyi(0.5)", lambda r, s: max_renyi(0.5, r, s), 3),  # 6
    # rho, sigma and the graded sigma^{-1/2} rho sigma^{-1/2}; geom adds the
    # mean (5 and 7 when the meet, sigma_ac and, for geom, rho were
    # decomposed again)
    ("max_q_alpha_mean_route(0.5)", lambda r, s: max_q_alpha_mean_route(0.5, r, s), 3),  # 12
    ("geom:um:0.5", lambda r, s: rel_entropy(parse_kind("geom:um:0.5"), r, s), 4),  # 19
    # rho, sigma and H: supp rho lies in supp sigma, so it is the support
    # meet, and no meet is decomposed (4 when it was)
    ("bary um,um 0.5", lambda r, s: barycentric_renyi_full(0.5, (_UM, _UM), r, s), 3),  # 10
    ("measured 2rho, 3sigma",
     lambda r, s: measured_lower_bound(2 * r, 3 * s, restarts=2, iters=0), 3),  # 5
    # the relative entropy's identity start is certified within 1e-9 (one
    # eigvalsh), and no further start is drawn (190 when all eight ran)
    ("measured restarts=8",
     lambda r, s: measured_lower_bound(r, s, restarts=8, iters=50), 29),  # 190
    # the three operators and H, and for BS one X per term: the meet is the
    # first operator's support, and each B* W^+ B is read off W's spectrum
    # (8 and 14 when the meet and each B* W^+ B were decomposed)
    ("bary_q um", lambda r, s: _q3(_UM, r, s), 4),  # 11
    ("bary_q bs iters=0",
     lambda r, s: _q3(_BS, r, s, SolverOptions(iters=0, restarts=0)), 7),  # 21
    # rho, sigma, H, and per BS term X (8 when the meet and each B* W^+ B were
    # decomposed, 11 when the meet and sig_eff were decomposed twice)
    ("bary bs,bs 0.5 iters=0", lambda r, s: barycentric_renyi_full(
        0.5, (_BS, _BS), r, s, SolverOptions(iters=0, restarts=0)), 5),
    # a convex solve at default options runs its warm start alone, the count
    # of restarts=0 (266 when the four random starts ran too)
    ("bary bs,bs 0.5", lambda r, s: barycentric_renyi_full(0.5, (_BS, _BS), r, s), 53),
    # x^1.5 has an infinite slope at infinity, and rho a part outside
    # supp sigma: rho, sigma and C* rho C, raising before the graded X is
    # decomposed (4 when X was decomposed and thrown away)
    ("max_fdivergence(pow 1.5) rank-2 sigma",
     lambda r, s: max_fdivergence(power_fn(1.5), r, _SIG_RANK2), 3),
    # alpha = inf: rho, sigma and one more (4 each when the meet was
    # decomposed); ~10^4 when the solver ran to its iteration cap
    ("bary um,um inf", lambda r, s: barycentric_renyi_full(math.inf, (_UM, _UM), r, s), 3),
    ("renyi_alpha_z(inf, inf)", lambda r, s: renyi_alpha_z(math.inf, math.inf, r, s), 3),
    ("bary bs,bs inf", lambda r, s: barycentric_renyi_full(math.inf, (_BS, _BS), r, s), 3),
    # two spectra and one eigh per safeguarded Newton step of the dual (4
    # here; 14 and one more on a near-degenerate top, 17 in all, when each
    # step bisected); the bracket is read off sigma's spectrum (7 and an
    # eigvalsh when the meet and the bracket were decomposed); about 1.6e4
    # when the solver ran
    ("bary um,bs inf", lambda r, s: barycentric_renyi_full(math.inf, (_UM, _BS), r, s), 6),
    # the channel's spectra are taken when it is built, the +inf gate reads
    # them by the inclusion rule, and the um closed form decomposes H (3 when
    # the two meet projections were decomposed for the test)
    ("bary_q um signed", lambda r, s: barycentric_q((_UM, _UM), _SIGNED, (1.5, -0.5)), 1),
    # supp W1 lies in the other two, so it is the meet, and the proper meet
    # of the negative-weight supports is never formed (2 when it was)
    ("bary_q um signed, proper meet",
     lambda r, s: barycentric_q((_UM,) * 3, _NESTED, (1.5, -0.25, -0.25)), 1),
    # a measured-term solve converging at its 10th iteration under mirror
    # steps, each trial's ascent on omega and B M B* with no decomposition
    # for a support gate (532 when each ascent decomposed both to pass one;
    # 408 when its H-coordinate steps stopped unconverged at the cap)
    ("bary geom:meas,um 0.5 iters=10", lambda r, s: barycentric_renyi_full(
        0.5, (parse_kind("geom:meas:r2:i20:0.5"), _UM), r, s,
        SolverOptions(restarts=0, iters=10)), 444),
    # a convex solve with a measured term takes mirror steps: 7 iterations
    # (1091 in 32 iterations of H-coordinate steps)
    ("bary meas,um 0.5", lambda r, s: barycentric_renyi_full(
        0.5, (parse_kind("meas:r2:i20"), _UM), r, s), 229),
]


@pytest.mark.parametrize("name, call, bound", _EIGH_BOUNDS, ids=[b[0] for b in _EIGH_BOUNDS])
def test_eigh_count_per_call(eigh_calls, name, call, bound):
    rng = np.random.default_rng(11)
    rho, sig = sample_state(4, 4, rng), sample_state(4, 4, rng)
    eigh_calls.clear()
    call(rho, sig)
    assert 0 < len(eigh_calls) <= bound


# each input is checked once per call, by its one decomposition; the count
# when each helper re-checked its inputs, or checked a derived product, is
# on the right. A derived matrix is decomposed by the unchecked eigh_desc:
# C* rho C of the part of rho outside a rank-2 sigma, the joint start of the
# measured ascent, and the projection sum of the support meet
_CHECK_CALLS = [
    ("umegaki", lambda r, s: umegaki(r, s)),  # 2
    ("bs_rel_entropy", lambda r, s: bs_rel_entropy(r, s)),  # 2
    ("geom:um:0.5", lambda r, s: rel_entropy(parse_kind("geom:um:0.5"), r, s)),  # 5
    ("kubo_ando_mean", lambda r, s: kubo_ando_mean(0.5, r, s)),  # 3
    ("renyi_alpha_z(1.5, inf)", lambda r, s: renyi_alpha_z(1.5, math.inf, r, s)),  # 4
    ("max_renyi(0.5)", lambda r, s: max_renyi(0.5, r, s)),  # 2
    ("max_relative_entropy", lambda r, s: max_relative_entropy(r, s)),  # 2
    ("kubo_ando_mean rank-2 sigma", lambda r, s: kubo_ando_mean(0.5, r, _SIG_RANK2)),  # 3
    ("max_renyi(0.5) rank-2 sigma", lambda r, s: max_renyi(0.5, r, _SIG_RANK2)),  # 3
    ("measured rho, rho", lambda r, s: measured_lower_bound(r, r, restarts=2, iters=0)),  # 3
    ("bary um,um 0.5", lambda r, s: barycentric_renyi_full(0.5, (_UM, _UM), r, s)),  # 3
    # the measured term's ascent reads omega and B M B* unchecked, and W by
    # the Spectrum the solve read once: 24 when every iterate re-checked them
    ("bary meas,um 0.5 iters=10", lambda r, s: barycentric_renyi_full(
        0.5, (parse_kind("meas:r2:i20"), _UM), r, s, SolverOptions(restarts=0, iters=10))),
    ("bary geom:meas,um 0.5 iters=10", lambda r, s: barycentric_renyi_full(
        0.5, (parse_kind("geom:meas:r2:i20:0.5"), _UM), r, s,
        SolverOptions(restarts=0, iters=10))),
    # the other public readers of a pair
    ("abs_cont_part", lambda r, s: abs_cont_part(r, s)),
    ("perspective", lambda r, s: perspective(x_log_x(), r, s)),
    ("kubo_ando_mean_real(1.5)", lambda r, s: kubo_ando_mean_real(1.5, r, s)),
    ("optimal_reverse_test", lambda r, s: optimal_reverse_test(r, s)),
    ("max_fdivergence", lambda r, s: max_fdivergence(x_log_x(), r, s)),
    ("reg_measured_renyi(0.5)", lambda r, s: reg_measured_renyi(0.5, r, s)),
    ("renyi_alpha_z(0.5, 0.5)", lambda r, s: renyi_alpha_z(0.5, 0.5, r, s)),
    ("dual_renyi um,bs", lambda r, s: dual_renyi(0.5, (_UM, _BS), r, s)),
]


@pytest.mark.parametrize("name, call", _CHECK_CALLS, ids=[c[0] for c in _CHECK_CALLS])
def test_hermitian_checks_per_call(herm_checks, name, call):
    rng = np.random.default_rng(11)
    rho, sig = sample_state(4, 4, rng), sample_state(4, 4, rng)
    herm_checks.clear()
    call(rho, sig)
    assert 0 < len(herm_checks) <= 2


# each public call decides its supports once (relent._support_value, one
# compressed_rank), and the kernels behind it take no gate; the count when
# geom re-gated against its mean, each mixture component and the measured
# bound re-gated, and alpha = 1 of barycentric_renyi_full gated again inside
# its kind, is on the right
_GATE_CALLS = [
    ("umegaki", lambda r, s: umegaki(r, s)),  # 1
    ("bs_rel_entropy", lambda r, s: bs_rel_entropy(r, s)),  # 1
    ("geom:um:0.5", lambda r, s: rel_entropy(parse_kind("geom:um:0.5"), r, s)),  # 2
    ("mix:0.5*um+0.5*bs", lambda r, s: rel_entropy(parse_kind("mix:0.5*um+0.5*bs"), r, s)),  # 2
    ("geom:mix:0.5*um+0.5*bs:0.5",
     lambda r, s: rel_entropy(parse_kind("geom:mix:0.5*um+0.5*bs:0.5"), r, s)),  # 3
    ("meas", lambda r, s: rel_entropy(parse_kind("meas:r2:i5"), r, s)),  # 2
    ("bary um,geom:um:0.5 1", lambda r, s: barycentric_renyi_full(
        1.0, (_UM, parse_kind("geom:um:0.5")), r, s)),  # 2
    ("max_relative_entropy", lambda r, s: max_relative_entropy(r, s)),  # 1
    ("max_renyi(inf)", lambda r, s: max_renyi(math.inf, r, s)),  # 1
    ("renyi_alpha_z(1, 2)", lambda r, s: renyi_alpha_z(1.0, 2.0, r, s)),  # 1
]


@pytest.mark.parametrize("name, call", _GATE_CALLS, ids=[c[0] for c in _GATE_CALLS])
def test_one_support_gate_per_call(rank_calls, name, call):
    rng = np.random.default_rng(3)
    rho, sig = sample_state(3, 3, rng), sample_state(3, 3, rng)
    rank_calls.clear()
    call(rho, sig)
    assert len(rank_calls) == 1


def test_a_measured_term_decomposes_its_operator_once_per_solve(lapack):
    # W's Spectrum is taken when the operands are read and serves every
    # iterate's ascent; omega and B M B* change with the iterate
    rng = np.random.default_rng(11)
    rho, sig = sample_state(3, 3, rng), sample_state(3, 3, rng)
    inputs, eigh_lo = [], lapack.eigh_lo

    def recording(m):
        inputs.append(np.array(m))
        return eigh_lo(m)

    lapack.eigh_lo = recording
    res = barycentric_renyi_full(0.5, (parse_kind("meas:r2:i20"), _UM), rho, sig,
                                 SolverOptions(restarts=0, iters=10))
    assert res["iterations"] > 1
    w = hermitian.herm_part(rho)
    assert sum(np.array_equal(m, w) for m in inputs) == 1


def test_matrix_json_roundtrip(tmp_path):
    rho = sample_state(3, 3, 9)
    obj = matrix_to_json(rho)
    np.testing.assert_allclose(matrix_from_json(obj), rho, atol=1e-12)
    bad = matrix_to_json(rho)
    bad["re"][0][1] += 1.0  # break hermiticity
    with pytest.raises(NonHermitian):
        matrix_from_json(bad)
    # rank-deficient states load: kernel eigenvalues of about +-1e-17 lie
    # within the support cutoff of the PSD check
    for dim, rank in ((2, 1), (3, 1), (4, 2)):
        low = sample_state(dim, rank, dim + rank)
        np.testing.assert_allclose(matrix_from_json(matrix_to_json(low)), low, atol=1e-15)


@pytest.mark.parametrize("part, entry", [("re", float("nan")), ("im", float("inf")),
                                         ("re", -float("inf"))])
def test_matrix_json_rejects_non_finite(part, entry):
    # a NaN entry passes the asymmetry test, since every comparison with NaN
    # is False
    bad = matrix_to_json(sample_state(2, 2, 3))
    bad[part][0][1] = entry
    bad[part][1][0] = entry
    with pytest.raises(BadParameter):
        matrix_from_json(bad)


_HALF = np.eye(2, dtype=complex) / 2
_NON_FINITE = {"nan": np.diag([math.nan, 1.0]), "+inf": np.diag([math.inf, 1.0]),
               "-inf": np.diag([-math.inf, 1.0]), "nan-im": np.diag([complex(1.0, math.nan), 1.0])}
# every public entry point that reads a pair of operators, each once
_PUBLIC_PAIR_CALLS = {
    "bs_rel_entropy": bs_rel_entropy,
    "umegaki": umegaki,
    "max_renyi(0.5)": lambda r, s: max_renyi(0.5, r, s),
    "barycentric_renyi um,bs": lambda r, s: barycentric_renyi(0.5, (_UM, _BS), r, s),
    "measured_lower_bound": lambda r, s: measured_lower_bound(r, s, restarts=2, iters=5),
    "rel_entropy um": lambda r, s: rel_entropy(_UM, r, s),
    "rel_entropy bs": lambda r, s: rel_entropy(_BS, r, s),
    "rel_entropy meas": lambda r, s: rel_entropy(parse_kind("meas:r2:i5"), r, s),
    "rel_entropy geom": lambda r, s: rel_entropy(parse_kind("geom:um:0.5"), r, s),
    "rel_entropy mix": lambda r, s: rel_entropy(parse_kind("mix:0.5*um+0.5*bs"), r, s),
    "renyi_alpha_z(0.5, 1)": lambda r, s: renyi_alpha_z(0.5, 1.0, r, s),
    "renyi_alpha_z(0.5, inf)": lambda r, s: renyi_alpha_z(0.5, math.inf, r, s),
    "max_relative_entropy": max_relative_entropy,
    "max_renyi(inf)": lambda r, s: max_renyi(math.inf, r, s),
    "optimal_reverse_test": optimal_reverse_test,
    "max_q_alpha_mean_route(0.5)": lambda r, s: max_q_alpha_mean_route(0.5, r, s),
    "max_q_alpha_mean_route(1.5)": lambda r, s: max_q_alpha_mean_route(1.5, r, s),
    "max_fdivergence": lambda r, s: max_fdivergence(x_log_x(), r, s),
    "reg_measured_renyi(0.5)": lambda r, s: reg_measured_renyi(0.5, r, s),
    "abs_cont_part": abs_cont_part,
    "perspective": lambda r, s: perspective(x_log_x(), r, s),
    "kubo_ando_mean(0)": lambda r, s: kubo_ando_mean(0.0, r, s),
    "kubo_ando_mean(0.5)": lambda r, s: kubo_ando_mean(0.5, r, s),
    "kubo_ando_mean(1)": lambda r, s: kubo_ando_mean(1.0, r, s),
    "kubo_ando_mean_real": lambda r, s: kubo_ando_mean_real(0.5, r, s),
    "barycentric_renyi_full um,um": lambda r, s: barycentric_renyi_full(0.5, (_UM, _UM), r, s),
    "dual_renyi um,bs": lambda r, s: dual_renyi(0.5, (_UM, _BS), r, s),
    "GcqChannel": lambda r, s: GcqChannel(("r", "s"), (r, s)),
}


@pytest.mark.parametrize("which", ["rho", "sigma"])
@pytest.mark.parametrize("entry", list(_NON_FINITE))
@pytest.mark.parametrize("name", list(_PUBLIC_PAIR_CALLS))
def test_a_non_finite_entry_fails_at_the_boundary(name, entry, which):
    # a NaN asymmetry never compares above the tolerance: without the
    # finiteness test these returned 0.693, -0.347 (bs), 0.0 with warnings
    # (um at +inf), +inf (max_renyi) and nan (barycentric). The operands are
    # read before any trace, so a -inf in rho is not reported as a zero one
    bad = _NON_FINITE[entry].astype(complex)
    args = (bad, _HALF) if which == "rho" else (_HALF, bad)
    with pytest.raises(BadParameter, match="matrix entries must be finite"):
        _PUBLIC_PAIR_CALLS[name](*args)


@pytest.mark.parametrize("which", ["rho", "sigma"])
@pytest.mark.parametrize("name", list(_PUBLIC_PAIR_CALLS))
def test_a_non_psd_operand_fails_at_the_boundary(name, which):
    # spectrum() rejects an eigenvalue below minus the support cutoff, for
    # the library and the CLI loader alike: without it rho = diag(0.9, -0.3)
    # against I/2 gave 0.321 (um), 0.529 (bs), -0.223 (renyi_alpha_z and
    # barycentric at alpha = 0.5) and 0.588 (max_renyi)
    bad = np.diag([0.9, -0.3]).astype(complex)
    args = (bad, _HALF) if which == "rho" else (_HALF, bad)
    with pytest.raises(BadParameter, match="matrix must be PSD"):
        _PUBLIC_PAIR_CALLS[name](*args)


# operands numpy cannot read as one complex matrix, and an empty pair:
# each raised a bare ValueError, from np.asarray or from the asymmetry's max
_TEXT, _RAGGED, _EMPTY = [["a", "b"], ["c", "d"]], [[1, 2], [3]], np.zeros((0, 0))
_UNREADABLE = {
    "non-numeric rho": ((_TEXT, _HALF), "matrix entries must be numbers"),
    "non-numeric sigma": ((_HALF, _TEXT), "matrix entries must be numbers"),
    "ragged rho": ((_RAGGED, _HALF), "matrix entries must be numbers"),
    "ragged sigma": ((_HALF, _RAGGED), "matrix entries must be numbers"),
    "empty pair": ((_EMPTY, _EMPTY), "matrix must not be empty"),
}


@pytest.mark.parametrize("case", list(_UNREADABLE))
@pytest.mark.parametrize("name", list(_PUBLIC_PAIR_CALLS))
def test_an_unreadable_operand_fails_at_the_boundary(name, case):
    args, message = _UNREADABLE[case]
    with pytest.raises(BadParameter, match=message):
        _PUBLIC_PAIR_CALLS[name](*args)


# the helpers that take a raw matrix read it through check_hermitian, as the
# entry points do: each raised a bare ValueError from np.asarray
_RAW_HELPERS = {
    "spectrum": spectrum,
    "check_hermitian": check_hermitian,
    "compressed_rank": lambda a: compressed_rank(a, np.eye(2)),
    "support_leq": lambda a: support_leq(a, _HALF),
    "support_meet": lambda a: support_meet(_HALF, a),
}


@pytest.mark.parametrize("bad", [_TEXT, _RAGGED], ids=["non-numeric", "ragged"])
@pytest.mark.parametrize("name", list(_RAW_HELPERS))
def test_an_unreadable_matrix_fails_in_every_raw_helper(name, bad):
    with pytest.raises(BadParameter, match="matrix entries must be numbers"):
        _RAW_HELPERS[name](bad)


@pytest.mark.parametrize("sigma, error", [(np.diag([math.nan, 1.0]), BadParameter),
                                          (np.array([[0.5, 0.1], [0.0, 0.5]]), NonHermitian)],
                         ids=["nan", "non-hermitian"])
def test_max_renyi_reads_sigma_below_the_support_cutoff(sigma, error):
    # a rho below the cutoff has an empty meet, but sigma is read first:
    # the shortcut returned +inf for either sigma
    with pytest.raises(error):
        max_renyi(0.5, 1e-12 * np.eye(2), sigma)


def _symmetric(d, complex_, rng):
    a = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if complex_ else 0.0)
    return a + a.conj().T


@pytest.mark.parametrize("complex_", [True, False], ids=["complex", "real"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 32, 64])
def test_eigh_entry_point_is_numpys_bitwise(d, complex_):
    rng = np.random.default_rng(d)
    a = _symmetric(d, complex_, rng)
    # the reversed view Spectrum.graded decomposes, and a general lower triangle
    for m in (a, a[::-1, ::-1], a + np.triu(rng.normal(size=(d, d)), 1)):
        w, u = hermitian.eigh(m)
        w0, u0 = np.linalg.eigh(m)
        assert w.dtype == w0.dtype and u.dtype == u0.dtype
        assert w.tobytes() == w0.tobytes() and u.tobytes() == u0.tobytes()
        assert hermitian.eigvalsh(m).tobytes() == np.linalg.eigvalsh(m).tobytes()


def test_eigh_entry_point_passes_nan_and_raises_on_a_lapack_failure(lapack):
    # NaN in gives NaN out, with no exception: the solver rejects an
    # overflowing trial by its value
    a = np.array([[1.0, math.nan], [math.nan, 1.0]], dtype=complex)
    w, u = hermitian.eigh(a)
    assert np.isnan(w).all() and np.isnan(u).all()
    assert np.isnan(hermitian.eigvalsh(a)).all()
    assert hermitian.eigh(np.zeros((0, 0), dtype=complex))[0].shape == (0,)
    # LAPACK reports a failure by NaN outputs: on finite input, an error
    lapack.eigh_lo = lambda m: (np.full(len(m), math.nan), np.full(m.shape, math.nan + 0j))
    lapack.eigvalsh_lo = lambda m: np.full(len(m), math.nan)
    with pytest.raises(np.linalg.LinAlgError):
        hermitian.eigh(np.eye(2, dtype=complex))
    with pytest.raises(np.linalg.LinAlgError):
        hermitian.eigvalsh(np.eye(2, dtype=complex))
    assert np.isnan(hermitian.eigh(a)[0]).all()


@pytest.mark.parametrize(
    "bad, error",
    [
        ({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}, BadParameter),
        ({"dim": 2, "re": [[0.5, 0.0], [0.0]], "im": [[0, 0], [0, 0]]}, BadParameter),
        ({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0, 0, 0]]}, DimensionMismatch),
        ([[0.5, 0.0], [0.0, 0.5]], BadParameter),
        ({"dim": 2, "re": [[0.6, 0.0], [0.0, -0.4]], "im": [[0, 0], [0, 0]]}, BadParameter),
    ],
    ids=["missing-im", "ragged", "im-shape", "not-an-object", "not-psd"],
)
def test_matrix_json_rejects_malformed(bad, error):
    with pytest.raises(error):
        matrix_from_json(bad)


@pytest.mark.parametrize(
    "fn",
    [umegaki, bs_rel_entropy, lambda r, s: rel_entropy(Umegaki(), r, s),
     lambda r, s: measured_lower_bound(r, s, restarts=0, iters=1), abs_cont_part,
     lambda r, s: perspective(x_log_x(), r, s), lambda r, s: kubo_ando_mean(0.5, r, s),
     lambda r, s: kubo_ando_mean_real(0.5, r, s),
     lambda r, s: barycentric_renyi_full(0.5, (Umegaki(), BelavkinStaszewski()), r, s),
     lambda r, s: renyi_alpha_z(0.5, 1.0, r, s), max_relative_entropy,
     lambda r, s: max_renyi(0.5, r, s), optimal_reverse_test,
     lambda r, s: max_q_alpha_mean_route(1.5, r, s), lambda r, s: max_fdivergence(x_log_x(), r, s),
     lambda r, s: reg_measured_renyi(0.5, r, s), lambda r, s: dual_renyi(0.5, (_UM, _BS), r, s),
     lambda r, s: GcqChannel(("r", "s"), (r, s))],
    ids=["umegaki", "bs", "rel_entropy", "measured", "abs_cont_part", "perspective",
         "kubo_ando_mean", "kubo_ando_mean_real", "barycentric", "renyi_alpha_z",
         "max_relative_entropy", "max_renyi", "optimal_reverse_test", "mean_route",
         "max_fdivergence", "reg_measured_renyi", "dual_renyi", "GcqChannel"],
)
def test_operand_shapes_checked(fn):
    with pytest.raises(DimensionMismatch):
        fn(sample_state(2, 2, 1), sample_state(3, 3, 2))
