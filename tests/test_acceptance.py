"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with: pytest tests/test_acceptance.py -v -s
Desk scale throughout: dims 2-4, fixed seeds, full run under ten minutes.
"""

import math

import numpy as np
import pytest

from qrdiv.barycentric import (
    GcqChannel,
    SolverOptions,
    barycentric_q,
    barycentric_renyi,
    barycentric_renyi_full,
)
from qrdiv.classical import classical_rel_entropy, classical_renyi
from qrdiv.hermitian import (
    meet_bases,
    partial_trace,
    pinch,
    sample_cptp,
    sample_state,
    sample_unitary,
    spectral_decompose,
    spectrum,
    tensor,
)
from qrdiv.oracles import fd_derivative
from qrdiv.relent import (
    BelavkinStaszewski,
    GeomWeighted,
    MeasuredProjective,
    Mixture,
    Umegaki,
    bs_rel_entropy,
    measured_lower_bound,
    rel_entropy,
    umegaki,
)
from qrdiv.renyi import (
    max_renyi,
    optimal_reverse_test,
    reg_measured_renyi,
    renyi_alpha_z,
)
from qrdiv.supports import (
    abs_cont_part,
    kubo_ando_mean,
    power_fn,
    perspective,
)
from support_reference import abs_cont_part_kernel_formula

INF = float("inf")
UM = (Umegaki(), Umegaki())
BS = (BelavkinStaszewski(), BelavkinStaszewski())
UMBS = (Umegaki(), BelavkinStaszewski())
FAST = SolverOptions(restarts=0, warm_start=True)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def commuting_pair(rng, d, allow_zeros=False):
    p = rng.random(d) + 0.05
    q = rng.random(d) + 0.05
    if allow_zeros and rng.random() < 0.4:
        q[rng.integers(d)] = 0.0
        p = p * (q > 0) + 1e-12 * (q == 0)  # keep supp p inside supp q
        p[q > 0] += 0.05
    u = sample_unitary(d, rng)
    return p, q, u @ np.diag(p) @ u.conj().T, u @ np.diag(q) @ u.conj().T


def noncommuting_qubits(rng, floor=1e-2):
    while True:
        rho = sample_state(2, 2, rng)
        sig = sample_state(2, 2, rng)
        if np.max(np.abs(rho @ sig - sig @ rho)) > floor:
            return rho, sig


@pytest.fixture(scope="module")
def qubit_pairs_300():
    # the strict-separation margins scale with the squared commutator, so
    # the sampled family is kept bounded away from commuting pairs
    rng = np.random.default_rng(42)
    return [noncommuting_qubits(rng, floor=0.1) for _ in range(300)]


def test_criterion_01_classical_reduction():
    # every implemented divergence equals its classical counterpart on
    # commuting inputs within 1e-8; >= 500 instances, dims 2-4
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in range(500):
        d = 2 + n % 3
        p, q, rho, sig = commuting_pair(rng, d)

        def check(x, y):
            nonlocal worst
            worst = max(worst, abs(x - y))

        check(umegaki(rho, sig), classical_rel_entropy(p, q))
        check(bs_rel_entropy(rho, sig), classical_rel_entropy(p, q))
        check(
            rel_entropy(GeomWeighted(Umegaki(), 0.5), rho, sig).value,
            classical_rel_entropy(p, q),
        )
        check(
            rel_entropy(Mixture(((0.5, Umegaki()), (0.5, BelavkinStaszewski()))),
                        rho, sig).value,
            classical_rel_entropy(p, q),
        )
        a = (0.25, 0.5, 0.9, 1.5, 2.0)[n % 5]
        z = (0.5, 1.0, 2.0, INF)[n % 4]
        check(renyi_alpha_z(a, z, rho, sig), classical_renyi(a, p, q))
        check(max_renyi(a, rho, sig).value, classical_renyi(a, p, q))
        check(reg_measured_renyi(a, rho, sig), classical_renyi(a, p, q))
        if a < 1:
            check(barycentric_renyi(a, UM, rho, sig), classical_renyi(a, p, q))
        if n % 10 == 0:
            check(
                rel_entropy(MeasuredProjective(restarts=2, iters=40), rho, sig,
                            seed=n).value,
                classical_rel_entropy(p, q),
            )
            aa = 0.5
            check(barycentric_renyi(aa, BS, rho, sig, FAST),
                  classical_renyi(aa, p, q))
            check(barycentric_renyi(aa, UMBS, rho, sig, FAST),
                  classical_renyi(aa, p, q))
    report(1, "classical reduction on commuting inputs", worst < 1e-8,
           f"max deviation {worst:.2e} over 500 instances")


def test_criterion_02_umegaki_closed_form():
    # independent solver runs match the closed form and the log-Euclidean
    # family within 1e-6 on 200 invertible pairs, dims 2-3
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in range(200):
        d = 2 + n % 2
        rho, sig = sample_state(d, d, rng), sample_state(d, d, rng)
        for a in (0.25, 0.5, 0.75):
            closed = barycentric_renyi(a, UM, rho, sig)
            solved = barycentric_renyi(
                a, UM, rho, sig,
                SolverOptions(use_closed_form=False, warm_start=False,
                              restarts=3, seed=n),
            )
            log_euc = renyi_alpha_z(a, INF, rho, sig)
            worst = max(worst, abs(solved - closed), abs(closed - log_euc))
    report(2, "all-Umegaki closed form vs solver vs log-Euclidean",
           worst < 1e-6, f"max deviation {worst:.2e} over 200 pairs x 3 alphas")


def test_criterion_03_gamma_interpolation():
    # gamma -> D^{Um,#gamma} nondecreasing on an 11-point grid; endpoint
    # extrapolations land within 5e-2 of D^Um and D^max
    rng = np.random.default_rng(3)
    grid = np.linspace(0.05, 0.95, 11)
    ok = True
    worst_lo = worst_hi = 0.0
    for _ in range(200):
        rho, sig = sample_state(2, 2, rng), sample_state(2, 2, rng)
        vals = [
            rel_entropy(GeomWeighted(Umegaki(), g), rho, sig).value for g in grid
        ]
        if any(vals[i + 1] < vals[i] - 1e-10 for i in range(len(vals) - 1)):
            ok = False
        um, bs = umegaki(rho, sig), bs_rel_entropy(rho, sig)
        lo = [rel_entropy(GeomWeighted(Umegaki(), g), rho, sig).value
              for g in (0.01, 0.005)]
        hi = [rel_entropy(GeomWeighted(Umegaki(), g), rho, sig).value
              for g in (0.99, 0.995)]
        if not (lo[1] <= lo[0] + 1e-10 and hi[0] <= hi[1] + 1e-10):
            ok = False  # trend toward the endpoints must be monotone
        worst_lo = max(worst_lo, abs(lo[1] - um))
        worst_hi = max(worst_hi, abs(hi[1] - bs))
    report(3, "gamma interpolation between Umegaki and maximal",
           ok and worst_lo < 5e-2 and worst_hi < 5e-2,
           f"endpoint gaps {worst_lo:.2e} / {worst_hi:.2e} on 200 qubit pairs")


def test_criterion_04_bs_fixed_point():
    rng = np.random.default_rng(4)
    worst = 0.0
    for n in range(500):
        d = 2 + n % 3
        rho = sample_state(d, d, rng)
        sig = sample_state(d, int(rng.integers(1, d + 1)), rng)
        base = bs_rel_entropy(rho, sig)
        for g in (0.2, 0.5, 0.8):
            v = rel_entropy(GeomWeighted(BelavkinStaszewski(), g), rho, sig).value
            if math.isfinite(base):
                worst = max(worst, abs(v - base))
            else:
                assert v == INF
    report(4, "maximal relative entropy is a geometric fixed point",
           worst < 1e-8, f"max |D^max#g - D^max| {worst:.2e} over 500 instances")


def test_criterion_05_composition_law():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in range(500):
        d = 2 + n % 2
        rho, sig = sample_state(d, d, rng), sample_state(d, d, rng)
        g1, g2 = rng.uniform(0.05, 0.95, size=2)
        nested = GeomWeighted(GeomWeighted(Umegaki(), g1), g2)
        flat = GeomWeighted(Umegaki(), 1 - (1 - g1) * (1 - g2))
        assert nested == flat  # normalization at construction
        worst = max(
            worst,
            abs(rel_entropy(nested, rho, sig).value
                - rel_entropy(flat, rho, sig).value),
        )
        # mean-level composition on invertible inputs
        inner = kubo_ando_mean(g2, rho, sig)
        lhs = kubo_ando_mean(g1, rho, inner)
        rhs = kubo_ando_mean(1 - (1 - g1) * (1 - g2), rho, sig)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(5, "geometric-weighting composition collapse", worst < 1e-9,
           f"max deviation {worst:.2e} over 500 instances")


def test_criterion_06_dpi_and_witness():
    # non-increase under 300 sampled pinchings / partial traces / CPTP maps
    # with slack 1e-7 for relative entropies (alpha = 1.0) and barycentric
    # divergences at alpha in {0.3, 0.7}; plus a no-DPI witness for the
    # all-Umegaki family at alpha in {1.5, 2} within 5000 qubit trials
    rng = np.random.default_rng(6)
    rel_kinds = [Umegaki(), BelavkinStaszewski(), GeomWeighted(Umegaki(), 0.5)]
    geom_pair = (GeomWeighted(Umegaki(), 0.5), GeomWeighted(Umegaki(), 0.5))
    violations = 0
    checks = 0

    def channel_cases():
        for k in range(100):  # pinchings on qubits
            u = sample_unitary(2, rng)
            p1 = np.outer(u[:, 0], u[:, 0].conj())
            blocks = [p1, np.eye(2) - p1]
            yield 2, (lambda x, b=blocks: pinch(x, b)), True
        for k in range(100):  # CPTP maps on qubits
            ch = sample_cptp(2, 2, 2, int(rng.integers(2**31)))
            yield 2, ch, True
        for k in range(100):  # partial traces on two qubits
            yield 4, (lambda x: partial_trace(x, (2, 2), 0)), False

    for dim, channel, with_geom in channel_cases():
        rho = sample_state(dim, dim, rng)
        sig = sample_state(dim, dim, rng)
        rout, sout = channel(rho), channel(sig)
        for kind in rel_kinds:
            checks += 1
            if rel_entropy(kind, rout, sout).value > rel_entropy(
                kind, rho, sig
            ).value + 1e-7:
                violations += 1
        pairs = [UM, BS, UMBS] + ([geom_pair] if with_geom else [])
        for kinds in pairs:
            for a in (0.3, 0.7):
                checks += 1
                vin = barycentric_renyi(a, kinds, rho, sig, FAST)
                vout = barycentric_renyi(a, kinds, rout, sout, FAST)
                if vout > vin + 1e-7:
                    violations += 1

    from qrdiv.cli import find_no_dpi_witness

    hit = find_no_dpi_witness(seed=0, trials=5000)
    report(6, "DPI suite plus no-DPI witness above alpha = 1",
           violations == 0 and hit is not None,
           f"{checks} monotonicity checks, witness at trial "
           f"{hit[5] if hit else 'none'} with increase "
           f"{hit[4]:.3f}" if hit else "no witness")


def _lambda_factor(alpha, li, lj):
    if abs(li - lj) < 1e-14:
        return 1.0
    return (alpha * (1 - alpha) * (math.log(li) - math.log(lj)) * (li - lj)
            / ((li**alpha - lj**alpha) * (li ** (1 - alpha) - lj ** (1 - alpha))))


def _center_derivative(alpha, rho, sig):
    d = rho.shape[0]
    shi = spectrum(sig).power(-0.5)
    w, u = spectral_decompose(shi @ rho @ shi)
    sinv = spectrum(sig).power(-1.0)
    total = 0.0
    for i in range(d):
        for j in range(d):
            pi = np.outer(u[:, i], u[:, i].conj())
            pj = np.outer(u[:, j], u[:, j].conj())
            total += np.trace(pi @ sig @ pj @ sinv).real * _lambda_factor(
                alpha, w[i], w[j]
            )
    return -1.0 + total / d


def test_criterion_07_dim2_strict_separation(qubit_pairs_300):
    worst_margin = INF
    worst_fd = 0.0
    lambda_ok = True
    deriv_neg = True
    for idx, (rho, sig) in enumerate(qubit_pairs_300):
        for a in (0.25, 0.5, 0.75):
            v_bs = barycentric_renyi(a, BS, rho, sig, FAST)
            v_max = max_renyi(a, rho, sig).value
            worst_margin = min(worst_margin, v_max - v_bs)
        if idx < 60:  # derivative cross-check on a subsample
            a = (0.25, 0.5, 0.75)[idx % 3]
            mean = kubo_ando_mean(a, rho, sig)
            m_hat = mean / np.trace(mean).real
            pi_state = np.eye(2, dtype=complex) / 2

            def g(t):
                w = (1 - t) * m_hat + t * pi_state
                return a * bs_rel_entropy(w, rho) + (1 - a) * bs_rel_entropy(w, sig)

            ana = _center_derivative(a, rho, sig)
            worst_fd = max(worst_fd, abs(fd_derivative(g, 0.0) - ana))
            if ana >= 0:
                deriv_neg = False
            w, _ = spectral_decompose(spectrum(sig).power(-0.5) @ rho @ spectrum(sig).power(-0.5))
            if _lambda_factor(a, w[0], w[1]) <= 1.0:
                lambda_ok = False
    report(7, "dim-2 strict separation below the maximal Renyi divergence",
           worst_margin > 1e-6 and worst_fd < 1e-5 and deriv_neg and lambda_ok,
           f"min margin {worst_margin:.2e}, max |analytic - fd| {worst_fd:.2e}")


def test_criterion_08_ordering_chain(qubit_pairs_300):
    rng = np.random.default_rng(8)
    chain_ok = True
    for n in range(1000):
        d = 2 + n % 3
        rho, sig = sample_state(d, d, rng), sample_state(d, d, rng)
        lb, _ = measured_lower_bound(rho, sig, restarts=2, iters=50, seed=n)
        um = umegaki(rho, sig)
        ge = rel_entropy(GeomWeighted(Umegaki(), 0.5), rho, sig).value
        bs = bs_rel_entropy(rho, sig)
        if not (lb <= um + 1e-8 and um <= ge + 1e-8 and ge <= bs + 1e-8):
            chain_ok = False
    min_margin = INF
    for rho, sig in qubit_pairs_300:
        for a in (0.25, 0.5, 0.75):
            v_um = barycentric_renyi(a, UM, rho, sig)
            v_mix = barycentric_renyi(a, UMBS, rho, sig, FAST)
            v_bs = barycentric_renyi(a, BS, rho, sig, FAST)
            min_margin = min(min_margin, v_mix - v_um, v_bs - v_mix)
    report(8, "ordering chain and strict barycentric orderings",
           chain_ok and min_margin > 1e-6,
           f"1000 chain instances, min barycentric margin {min_margin:.2e}")


def test_criterion_09_variational_and_reverse_test():
    rng = np.random.default_rng(9)
    worst_var = 0.0
    worst_rt = 0.0
    n = 0
    while n < 300:
        d = 2 + n % 3
        rho = sample_state(d, int(rng.integers(1, d + 1)), rng)
        sig = sample_state(d, int(rng.integers(1, d + 1)), rng)
        if not meet_bases(spectrum(rho).proj, spectrum(sig).proj)[0].size:
            continue
        n += 1
        rt = optimal_reverse_test(rho, sig)
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(rt.apply(rt.p) - rho))),
            float(np.max(np.abs(rt.apply(rt.q) - sig))),
        )
        for a in (0.25, 0.5, 0.75):
            mean = kubo_ando_mean(a, rho, sig)
            q = np.trace(mean).real
            m_hat = mean / q
            lhs = max_renyi(a, rho, sig).value
            rhs = ((a / (1 - a)) * bs_rel_entropy(m_hat, rho)
                   + bs_rel_entropy(m_hat, sig)
                   - math.log(np.trace(rho).real) / (a - 1))
            if math.isfinite(lhs):
                worst_var = max(worst_var, abs(lhs - rhs))
    report(9, "maximal-Renyi variational identity and reverse test",
           worst_var < 1e-7 and worst_rt < 1e-8,
           f"variational {worst_var:.2e}, reverse-test identity {worst_rt:.2e}")


def test_criterion_10_scaling_and_floors():
    rng = np.random.default_rng(10)
    worst_scale = 0.0
    floor_ok = True
    eq_ok = True
    for n in range(500):
        d = 2 + n % 3
        rho = sample_state(d, d, rng) * (0.4 + rng.random())
        sig = sample_state(d, d, rng) * (0.4 + rng.random())
        t, s = 0.3 + rng.random(), 0.3 + rng.random()
        a = (0.3, 0.7, 1.5, 2.0)[n % 4]
        for val in (
            lambda r, g: renyi_alpha_z(a, 1.0, r, g),
            lambda r, g: max_renyi(a, r, g).value,
            lambda r, g: barycentric_renyi(a, UM, r, g),
        ):
            base = val(rho, sig)
            worst_scale = max(
                worst_scale,
                abs(val(t * rho, s * sig) - (base + math.log(t) - math.log(s))),
            )
        floor = math.log(np.trace(rho).real) - math.log(np.trace(sig).real)
        for a2 in (0.0, 0.5, 1.0, 2.0):
            if barycentric_renyi(a2, UM, rho, sig) < floor - 1e-9:
                floor_ok = False
        if n % 5 == 0:
            # equality analysis on proportional pairs
            for a2 in (0.0, 0.5, 1.0, 2.0):
                v = barycentric_renyi(a2, UM, t * rho, s * rho)
                if abs(v - (math.log(t) - math.log(s))) > 1e-8:
                    eq_ok = False
            if barycentric_renyi(0.5, UMBS, rho, sig, FAST) < floor - 1e-9:
                floor_ok = False
    report(10, "scaling laws and trace floors", worst_scale < 1e-8
           and floor_ok and eq_ok,
           f"max scaling deviation {worst_scale:.2e} over 500 instances")


def test_criterion_11_support_infinity_table():
    # exhaustive table of support relations vs finiteness, dim 4
    e = [np.zeros((4, 4), dtype=complex) for _ in range(4)]
    for i in range(4):
        e[i][i, i] = 1.0
    haar = sample_unitary(4, 11)
    tilt = haar @ (e[0] + e[1]) @ haar.conj().T  # rank-2, generic position

    def state(p):
        return p / np.trace(p).real

    cases = {
        "equal": (state(e[0] + e[1]), state(0.3 * e[0] + 0.7 * e[1])),
        "rho_strictly_below": (state(e[0]), state(e[0] + e[1])),
        "rho_strictly_above": (state(e[0] + e[1]), state(e[1])),
        "incomparable_meet": (state(e[0] + e[1]), state(e[1] + e[2])),
        "incomparable_no_meet": (state(e[0] + e[1]), state(tilt)),
        "orthogonal": (state(e[0] + e[1]), state(e[2] + e[3])),
    }
    expected_meet_zero = {"incomparable_no_meet", "orthogonal"}
    expected_dominated = {"equal", "rho_strictly_below"}
    table_ok = True
    for name, (rho, sig) in cases.items():
        meet_zero = not meet_bases(spectrum(rho).proj, spectrum(sig).proj)[0].size
        if meet_zero != (name in expected_meet_zero):
            table_ok = False
        for a in (0.0, 0.5):
            inf_here = barycentric_renyi(a, UM, rho, sig) == INF
            if inf_here != meet_zero:
                table_ok = False
        for a in (1.0, 1.5, 2.0):
            inf_here = barycentric_renyi(a, UM, rho, sig, FAST) == INF
            if inf_here != (name not in expected_dominated):
                table_ok = False
        vinf = barycentric_renyi(INF, UM, rho, sig, FAST)
        if (vinf == INF) != (name not in expected_dominated):
            table_ok = False
    # multi-variate fast paths: probability weights need S_+ != 0,
    # signed weights need S_+ <= S_-
    ch = GcqChannel(("a", "b"), (e[0] + e[1], e[2] + e[3]))
    res = barycentric_q([Umegaki()] * 2, ch, (0.5, 0.5))
    if not (res.q_value == 0.0 and res.radius == INF):
        table_ok = False
    ch2 = GcqChannel(("a", "b"), (np.eye(4, dtype=complex), e[0] + e[1]))
    if barycentric_q([Umegaki()] * 2, ch2, (2.0, -1.0)).q_value != INF:
        table_ok = False
    ch3 = GcqChannel(("a", "b"), (e[0], np.eye(4, dtype=complex)))
    if not math.isfinite(barycentric_q([Umegaki()] * 2, ch3, (2.0, -1.0)).radius):
        table_ok = False
    report(11, "support and infinity logic table", table_ok,
           "6 two-variable cases x alpha classes + 3 weighted fast paths")


def test_criterion_12_appendix_numerics():
    rng = np.random.default_rng(12)
    worst_ac = worst_mult = worst_holder = worst_tensor = worst_trans = 0.0
    for n in range(500):
        d = 2 + n % 3
        rho = sample_state(d, d, rng)
        sig = sample_state(d, int(rng.integers(1, d + 1)), rng)
        a1 = abs_cont_part(rho, sig)
        a2 = abs_cont_part_kernel_formula(rho, sig)
        worst_ac = max(worst_ac, float(np.max(np.abs(a1 - a2))))
        g = rng.uniform(0.05, 0.95)
        tr_mean = np.trace(kubo_ando_mean(g, rho, sig)).real
        holder = (np.trace(rho).real ** g) * (np.trace(sig).real ** (1 - g))
        worst_holder = max(worst_holder, tr_mean - holder)
        fn = power_fn(g)
        worst_trans = max(
            worst_trans,
            float(np.max(np.abs(perspective(fn, rho, sig)
                                - perspective(fn.transpose(), sig, rho)))),
        )
        if n % 5 == 0:
            r2 = sample_state(2, int(rng.integers(1, 3)), rng)
            s2 = sample_state(2, 2, rng)
            worst_mult = max(
                worst_mult,
                float(np.max(np.abs(
                    abs_cont_part(tensor(rho, r2), tensor(sig, s2))
                    - tensor(abs_cont_part(rho, sig), abs_cont_part(r2, s2))
                ))),
            )
            worst_tensor = max(
                worst_tensor,
                float(np.max(np.abs(
                    kubo_ando_mean(g, tensor(rho, r2), tensor(sig, s2))
                    - tensor(kubo_ando_mean(g, rho, sig),
                             kubo_ando_mean(g, r2, s2))
                ))),
            )
    ok = (worst_ac < 1e-8 and worst_mult < 1e-8 and worst_holder < 1e-10
          and worst_tensor < 1e-8 and worst_trans < 1e-9)
    report(12, "absolutely continuous part and Kubo-Ando identities", ok,
           f"ac {worst_ac:.1e}, mult {worst_mult:.1e}, holder "
           f"{worst_holder:.1e}, tensor {worst_tensor:.1e}, transpose "
           f"{worst_trans:.1e}")


def test_criterion_13_non_example():
    # smoothed neighborhood of a zero-meet, non-orthogonal pair: the
    # barycentric solver value strictly exceeds D_{alpha,z} for z in {1, alpha}
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    eps = 1e-3
    rho = rho0 + eps * np.eye(2)
    sig = plus + eps * np.eye(2)
    ok = True
    min_gap = INF
    for a in (0.3, 0.5, 0.7):
        vb = barycentric_renyi(
            a, UM, rho, sig,
            SolverOptions(use_closed_form=False, warm_start=False, restarts=3),
        )
        if not math.isfinite(vb):
            ok = False
        for z in (1.0, a):
            gap = vb - renyi_alpha_z(a, z, rho, sig)
            min_gap = min(min_gap, gap)
            if gap <= 0:
                ok = False
    report(13, "barycentric family differs from the (alpha,z) family",
           ok and min_gap > 1e-3, f"min gap {min_gap:.3f} at eps = 1e-3")
