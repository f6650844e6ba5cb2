import math
import re

import numpy as np
import pytest

from qrdiv.classical import classical_rel_entropy
from qrdiv.errors import BadParameter
from qrdiv.hermitian import pinch, sample_state, sample_unitary
from qrdiv.relent import (
    Barycentric,
    BelavkinStaszewski,
    GeomWeighted,
    MaxRenyi,
    MeasuredProjective,
    Mixture,
    RenyiAlphaZ,
    Umegaki,
    axioms_check,
    bs_rel_entropy,
    kind_is_exact,
    measured_lower_bound,
    parse_alpha,
    parse_grid,
    parse_kind,
    parse_kinds,
    rel_entropy,
    umegaki,
)
from qrdiv.relent import _measured_point, _newton_system, _riemannian_gradient
from qrdiv.renyi import max_renyi, optimal_reverse_test, renyi_alpha_z

INF = float("inf")
ALL_KINDS = [
    Umegaki(),
    BelavkinStaszewski(),
    GeomWeighted(Umegaki(), 0.5),
    Mixture(((0.5, Umegaki()), (0.5, BelavkinStaszewski()))),
]


def test_kind_strings_roundtrip():
    for s in ("um", "bs", "meas:r8:i200", "geom:um:0.5", "mix:0.5*um+0.5*bs",
              "geom:bs:0.25", "mix:0.25*um+0.75*geom:um:0.3"):
        assert str(parse_kind(s)) == s
    assert parse_kind("meas") == MeasuredProjective()
    with pytest.raises(BadParameter):
        parse_kind("nope")
    with pytest.raises(BadParameter):
        parse_kind("geom:um:1.5")



_UM, _BS = Umegaki(), BelavkinStaszewski()
# nested mixtures and geometric weights, a long gamma, exponent-form and
# non-terminating weights, and measured counts of zero
ROUNDTRIP_KINDS = [
    MeasuredProjective(0, 0),
    GeomWeighted(_UM, 0.123456789),
    GeomWeighted(GeomWeighted(_BS, 0.1), 1 / 3),
    GeomWeighted(MeasuredProjective(3, 7), 0.5),
    Mixture(((1e-20, _UM), (1 - 1e-20, _BS))),
    Mixture(((1 / 3, _UM), (2 / 3, GeomWeighted(_BS, 0.7)))),
    Mixture(((0.5, _UM), (0.5, Mixture(((0.5, _UM), (0.5, _BS)))))),
    Mixture(((0.25, Mixture(((0.1, _BS), (0.9, GeomWeighted(_UM, 0.3))))),
             (0.75, GeomWeighted(Mixture(((0.5, _UM), (0.5, _BS))), 0.123456789)))),
    Mixture(((0.0, MeasuredProjective()), (1.0, _UM))),
]


@pytest.mark.parametrize("kind", ROUNDTRIP_KINDS, ids=str)
def test_kind_str_roundtrip(kind):
    assert parse_kind(str(kind)) == kind
    assert str(parse_kind(str(kind))) == str(kind)


def test_nested_mixture_flattens_and_prints_flat():
    inner = Mixture(((0.5, _UM), (0.5, _BS)))
    nested = Mixture(((0.5, _UM), (0.5, inner)))
    assert nested.components == ((0.5, _UM), (0.25, _UM), (0.25, _BS))
    assert str(nested) == "mix:0.5*um+0.25*um+0.25*bs"
    # a nested mix: reads every component after it
    assert parse_kind("mix:0.5*um+0.5*mix:0.5*um+0.5*bs") == nested
    assert parse_kind("geom:mix:0.5*um+0.5*bs:0.7") == GeomWeighted(inner, 0.7)


def test_number_rule():
    # FLOAT takes a signed exponent, INT only digits; inf only where allowed
    assert parse_kind("mix:1e+0*um") == Mixture(((1.0, _UM),))
    assert parse_kind("mix:5E-1*um+.5*bs") == Mixture(((0.5, _UM), (0.5, _BS)))
    assert parse_kind("az:1.5:inf") == RenyiAlphaZ(1.5, math.inf)
    assert parse_kind("max:inf") == MaxRenyi(math.inf)
    assert parse_alpha("inf") == math.inf and parse_alpha("2.5e-1") == 0.25
    assert parse_grid("0:1e0:3") == [0.0, 0.5, 1.0]
    # a FLOAT beyond the float range is no number; only the token is inf
    for bad in ("-1", "+inf", "nan", "1_0", "0.5x", "1e999", "1.8e308"):
        with pytest.raises(BadParameter):
            parse_alpha(bad)
    # a count numpy cannot build (rejected before any allocation)
    for bad in ("0:1", "0:1:2.5", "0:1:-2", "0:inf:3", "0:1e999:3", "0:1:100000000000000000000"):
        with pytest.raises(BadParameter):
            parse_grid(bad)
    for bad in ("meas:r2:i-3", "meas:r-1:i5", "meas:r2.5:i5", "geom:um:inf", "mix:inf*um",
                "mix:1e999*um", "az:1e999:1",
                "mix:-0.5*um+1.5*bs", "bary:um", "az:0.5", "max:", "um:0.3", "meas-lb:3"):
        with pytest.raises(BadParameter):
            parse_kind(bad)


def test_eval_forms():
    assert parse_kind("meas-lb") == MeasuredProjective()
    assert parse_kind("bary:geom:um:0.5,mix:0.5*um+0.5*bs") == Barycentric(
        (GeomWeighted(_UM, 0.5), Mixture(((0.5, _UM), (0.5, _BS)))))
    assert parse_kind("az:inf:inf") == RenyiAlphaZ(math.inf, math.inf)
    assert parse_kind("max:0.5") == MaxRenyi(0.5)
    # an eval form is no entropy kind: it cannot be nested or evaluated as one
    with pytest.raises(BadParameter):
        parse_kind("geom:max:0.5:0.5")
    with pytest.raises(BadParameter):
        rel_entropy(parse_kind("max:0.5"), np.eye(2) / 2, np.eye(2) / 2)


def test_kind_list():
    # a bary: item reads its own comma
    items = parse_kinds("bary:um,bs,bary:bs,bs,um")
    assert items == [("bary:um,bs", Barycentric((_UM, _BS))),
                     ("bary:bs,bs", Barycentric((_BS, _BS))), ("um", _UM)]
    assert [t for t, _ in parse_kinds(" meas-lb , geom:um:0.5,bs ")] == [
        "meas-lb", "geom:um:0.5", "bs"]
    # a suffix is read at the end of every item (a gamma sweep)
    assert parse_kinds("geom:um,az:0.5", ":0.25") == [
        ("geom:um", GeomWeighted(_UM, 0.25)), ("az:0.5", RenyiAlphaZ(0.5, 0.25))]
    assert parse_kind("geom:mix:0.5*um+0.5*bs", ":0.3") == parse_kind(
        "geom:mix:0.5*um+0.5*bs:0.3")
    for bad in ("um,,bs", "um,", ",um", "geom:um:0.5"):
        with pytest.raises(BadParameter):
            parse_kinds(bad, ":0.5" if bad == "geom:um:0.5" else "")


def test_measured_counts_validated():
    assert MeasuredProjective(0, 0).iters == 0
    assert MeasuredProjective(np.int64(3), 5) == MeasuredProjective(3, 5)
    rho, sigma = sample_state(2, 2, 0), sample_state(2, 2, 1)
    for restarts, iters in ((2, -3), (-1, 5), (2.5, 5), (2, "5")):
        with pytest.raises(BadParameter):
            MeasuredProjective(restarts, iters)
        with pytest.raises(BadParameter):
            measured_lower_bound(rho, sigma, restarts=restarts, iters=iters)

def test_geom_nesting_normalizes():
    inner = GeomWeighted(Umegaki(), 0.3)
    outer = GeomWeighted(inner, 0.5)
    assert isinstance(outer.base, Umegaki)
    assert abs(outer.gamma - (1 - (1 - 0.3) * (1 - 0.5))) < 1e-15


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_zero_on_equal_states(kind):
    rho = sample_state(3, 3, 0)
    assert abs(rel_entropy(kind, rho, rho).value) < 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS + [MeasuredProjective(restarts=4, iters=80)],
                         ids=str)
def test_classical_reduction(kind):
    rng = np.random.default_rng(1)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        p = rng.random(d) + 0.05
        q = rng.random(d) + 0.05
        u = sample_unitary(d, rng)
        dp = u @ np.diag(p) @ u.conj().T
        dq = u @ np.diag(q) @ u.conj().T
        v = rel_entropy(kind, dp, dq).value
        assert abs(v - classical_rel_entropy(p, q)) < 1e-8


def test_umegaki_and_bs_support_condition():
    full = sample_state(3, 3, 2)
    low = sample_state(3, 2, 3)
    assert umegaki(full, low) == INF
    assert bs_rel_entropy(full, low) == INF
    assert math.isfinite(umegaki(low, full))
    assert math.isfinite(bs_rel_entropy(low, low))
    # zero-argument conventions
    z = np.zeros((3, 3))
    assert umegaki(z, full) == 0.0
    assert umegaki(full, z) == INF
    # every eigenvalue below the support cutoff: rho counts as zero
    tiny_r, tiny_s = 1e-9 * sample_state(3, 3, 1), 1e-9 * sample_state(3, 3, 2)
    assert bs_rel_entropy(tiny_r, tiny_s) == umegaki(tiny_r, tiny_s) == 0.0
    # a below-cutoff rho against a state still counts as zero
    sigma = sample_state(3, 3, 2)
    assert umegaki(tiny_r, sigma) == 0.0
    chain = [rel_entropy(parse_kind(k), tiny_r, sigma).value
             for k in ("meas", "um", "geom:um:0.5", "bs")]
    assert chain == sorted(chain)


def test_below_cutoff_rho_follows_the_empty_meet_rule():
    # log Q_alpha = -inf: +inf below alpha = 1, 0.0 at alpha = 1, -inf above
    # it, for every Renyi route
    from qrdiv.barycentric import barycentric_renyi_full
    from qrdiv.renyi import max_relative_entropy

    tiny_r, um = 1e-9 * sample_state(3, 3, 1), Umegaki()
    for sigma in (sample_state(3, 3, 2), 1e-9 * sample_state(3, 3, 2)):
        for alpha, expect in ((0.5, INF), (1.0, 0.0), (2.0, -INF), (INF, -INF)):
            values = [max_renyi(alpha, tiny_r, sigma).value,
                      measured_lower_bound(tiny_r, sigma, alpha=alpha)[0],
                      barycentric_renyi_full(alpha, (um, um), tiny_r, sigma)["value"]]
            if alpha != INF:
                values.append(renyi_alpha_z(alpha, 1.0, tiny_r, sigma))
            values.append(renyi_alpha_z(alpha, INF, tiny_r, sigma))
            assert values == [expect] * len(values), alpha
        assert max_relative_entropy(tiny_r, sigma) == -INF


def test_below_cutoff_rho_is_zero_for_every_kind():
    # rho counts as zero for every kind, so meas <= um <= geom <= bs holds:
    # geom:um had given +inf (the mean vanishes under the cutoff) and meas
    # 4.45e-10 (the ascent ran on the rescaled pair), above um's 0.0
    tiny_r, tiny_s = 1e-9 * sample_state(3, 3, 1), 1e-9 * sample_state(3, 3, 2)
    chain = [rel_entropy(parse_kind(k), tiny_r, tiny_s).value
             for k in ("meas", "um", "geom:um:0.5", "bs")]
    assert chain == [0.0] * 4


def test_bs_equals_reverse_test_value():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho, sigma = sample_state(2, 2, rng), sample_state(2, 2, rng)
        rt = optimal_reverse_test(rho, sigma)
        assert abs(bs_rel_entropy(rho, sigma) - classical_rel_entropy(rt.p, rt.q)) < 1e-8


def test_bs_on_singular_support_uses_compression():
    # rho supported strictly inside sigma's support: finite value, no
    # spurious +inf from zero-padding
    z = np.zeros((2, 2))
    rho = np.block([[sample_state(2, 2, 5), z], [z, z]])
    sigma = np.block([[sample_state(2, 2, 6) * 0.7, z], [z, np.eye(2) * 0.15]])
    v = bs_rel_entropy(rho, sigma)
    assert math.isfinite(v)
    # against the reverse-test route
    rt = optimal_reverse_test(rho, sigma)
    assert abs(v - classical_rel_entropy(rt.p, rt.q)) < 1e-8


def test_geom_weighted_pure_state_example():
    psi = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = np.outer(psi, psi).astype(complex)
    sigma = np.diag([0.6, 0.4]).astype(complex)
    expect = math.log(25.0 / 12.0)
    for g in (0.2, 0.5, 0.8):
        v = rel_entropy(GeomWeighted(Umegaki(), g), rho, sigma).value
        assert abs(v - expect) < 1e-9
    assert abs(bs_rel_entropy(rho, sigma) - expect) < 1e-9


def test_geom_weighted_orthogonalish_supports_infinite():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert rel_entropy(GeomWeighted(Umegaki(), 0.5), rho, sigma).value == INF


def test_bs_fixed_point_of_geom():
    # D^{max,#gamma} = D^{max}
    rng = np.random.default_rng(7)
    for _ in range(10):
        rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
        base = bs_rel_entropy(rho, sigma)
        for g in (0.2, 0.5, 0.8):
            v = rel_entropy(GeomWeighted(BelavkinStaszewski(), g), rho, sigma).value
            assert abs(v - base) < 1e-8


def test_composition_collapse_value_level():
    rng = np.random.default_rng(8)
    rho, sigma = sample_state(2, 2, rng), sample_state(2, 2, rng)
    g1, g2 = 0.3, 0.6
    nested = GeomWeighted(GeomWeighted(Umegaki(), g1), g2)
    flat = GeomWeighted(Umegaki(), 1 - (1 - g1) * (1 - g2))
    v1 = rel_entropy(nested, rho, sigma).value
    v2 = rel_entropy(flat, rho, sigma).value
    assert abs(v1 - v2) < 1e-9


def test_geom_interpolation_monotone_and_endpoints():
    rng = np.random.default_rng(9)
    rho, sigma = sample_state(2, 2, rng), sample_state(2, 2, rng)
    grid = np.linspace(0.05, 0.95, 10)
    vals = [rel_entropy(GeomWeighted(Umegaki(), g), rho, sigma).value for g in grid]
    assert all(vals[i + 1] >= vals[i] - 1e-10 for i in range(len(vals) - 1))
    um = umegaki(rho, sigma)
    bs = bs_rel_entropy(rho, sigma)
    lo = rel_entropy(GeomWeighted(Umegaki(), 0.005), rho, sigma).value
    hi = rel_entropy(GeomWeighted(Umegaki(), 0.995), rho, sigma).value
    assert abs(lo - um) < 5e-2 and abs(hi - bs) < 5e-2


def test_geom_sum_expression():
    # D^{q,#g} = Tr rho [ D^q(rho_hat || mean_hat)/(1-g) + D^max_g(rho||sigma) ]
    rng = np.random.default_rng(10)
    rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
    from qrdiv.supports import kubo_ando_mean

    g = 0.4
    mean = kubo_ando_mean(g, rho, sigma)
    tr_m = np.trace(mean).real
    dmax_g = max_renyi(g, rho, sigma).value
    expect = umegaki(rho, mean / tr_m) / (1 - g) + dmax_g
    got = rel_entropy(GeomWeighted(Umegaki(), g), rho, sigma).value
    assert abs(got - expect) < 1e-8


def test_mixture_between_components():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
        um = umegaki(rho, sigma)
        bs = bs_rel_entropy(rho, sigma)
        mix = rel_entropy(Mixture(((0.5, Umegaki()), (0.5, BelavkinStaszewski()))),
                          rho, sigma).value
        assert um - 1e-10 <= mix <= bs + 1e-10
        assert abs(mix - 0.5 * (um + bs)) < 1e-10


def test_measured_lower_bound_certificate():
    rng = np.random.default_rng(12)
    for n in range(5):
        rho, sigma = sample_state(2, 2, rng), sample_state(2, 2, rng)
        dv = rel_entropy(MeasuredProjective(restarts=4, iters=100), rho, sigma, seed=n)
        up = umegaki(rho, sigma)
        assert dv.value <= up + 1e-8
        assert dv.certificate_gap is not None and dv.certificate_gap >= -1e-12
        assert abs((up - dv.value) - dv.certificate_gap) < 1e-12
        # pushforward of the optimal basis reproduces the certified value
        u = dv.optimizer_artifacts["basis"]
        a = np.real(np.diag(u.conj().T @ rho @ u))
        b = np.real(np.diag(u.conj().T @ sigma @ u))
        assert abs(classical_rel_entropy(np.clip(a, 0, None), np.clip(b, 0, None))
                   - dv.value) < 1e-9


def test_measured_renyi_lower_bound_below_sandwiched():
    # certified lower bound <= D_{1/2,1/2} = measured Renyi at alpha = 1/2
    rng = np.random.default_rng(13)
    for n in range(5):
        rho, sigma = sample_state(2, 2, rng), sample_state(2, 2, rng)
        lb, _ = measured_lower_bound(rho, sigma, alpha=0.5, restarts=4, iters=120, seed=n)
        target = renyi_alpha_z(0.5, 0.5, rho, sigma)
        assert lb <= target + 1e-9
        assert target - lb < 5e-3  # ascent gets close at qubit scale


def test_measured_infinite_cases():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert measured_lower_bound(rho, sigma)[0] == INF  # support violation
    v, _ = measured_lower_bound(rho, np.diag([0.5, 0.5]).astype(complex), alpha=0.5)
    assert math.isfinite(v)
    assert measured_lower_bound(rho, sigma, alpha=0.5)[0] == INF  # orthogonal


def test_measured_restarts_count_all_starts_with_floor_two():
    # restarts = 0, 1 and 2 all run the identity and joint-diagonalizer starts
    rng = np.random.default_rng(71)
    rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
    (v0, u0), (v1, u1), (v2, u2) = (
        measured_lower_bound(rho, sigma, restarts=r, iters=30) for r in (0, 1, 2))
    assert v0 == v1 == v2 and np.array_equal(u0, u1) and np.array_equal(u0, u2)
    assert measured_lower_bound(rho, sigma, restarts=3, iters=30)[0] >= v2


def test_measured_early_exits_return_complex_identity():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    # support violation, orthogonal supports, rho below the support cutoff
    for r, s, alpha in ((rho, sigma, None), (rho, sigma, 0.5), (1e-12 * rho, sigma, None)):
        _, u = measured_lower_bound(r, s, alpha=alpha)
        assert u.dtype == complex
        assert np.array_equal(u, np.eye(2))


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e3])
def test_measured_orthogonality_test_is_scale_invariant(scale):
    rho, sigma = sample_state(3, 3, 1), sample_state(3, 3, 2)
    v, _ = measured_lower_bound(scale * rho, scale * sigma, alpha=0.5)
    assert abs(v - 0.2044549) < 1e-6
    e0, e1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    assert measured_lower_bound(scale * e0, scale * e1, alpha=0.5)[0] == INF


def _pinned_pair(d):
    rng = np.random.default_rng(80 + d)
    return sample_state(d, d, rng), sample_state(d, d, rng)


# measured_lower_bound(rho, sigma, alpha, restarts=2, iters=50, seed=1) on
# sample_state pairs drawn from default_rng(80 + d), as a line search that
# scores one trial step at a time returns them; scoring the trial steps in
# stacks must keep them within 1e-12. The relative entropy (alpha = None
# and 1) at d = 3 and 4 comes from Newton steps, which stop at the local
# maximum that 50 gradient steps fell short of: _PINNED_MEASURED_FLOORS
# holds the gradient steps' values, which the Newton values must not fall below
_PINNED_MEASURED = {
    2: {None: 0.15217661063113788, 0: 0.0, 0.5: 0.08474140095273723,
        1: 0.15217661063113927, 2: 0.24576332760075625, INF: 0.4911006744300362},
    3: {None: 1.1505360769291508, 0: 0.0, 0.5: 0.3662672040183882,
        1: 1.1505360769291488, 2: 2.8385720206356546, INF: 3.842969016011957},
    4: {None: 0.5505710546249643, 0: 1.110223024625157e-16, 0.5: 0.3400264186621337,
        1: 0.5505710546249639, 2: 0.8292259210334013, INF: 1.4485683024544496},
    8: {None: 0.961535144815228, 0: 1.1102230246251565e-16, 0.5: 0.48955411269656546,
        1: 0.9615351448152345, 2: 2.8916705874125297, INF: 5.737255032825517},
}
_PINNED_MEASURED_FLOORS = {
    (3, None): 1.136681234155778, (3, 1): 1.136681234155779,
    (4, None): 0.5492958472338316, (4, 1): 0.5492958472338373,
}


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("alpha", [None, 0, 0.5, 1, 2, INF])
def test_measured_ascent_pinned_values(alpha, d):
    rho, sigma = _pinned_pair(d)
    v, _ = measured_lower_bound(rho, sigma, alpha=alpha, restarts=2, iters=50, seed=1)
    assert abs(v - _PINNED_MEASURED[d][alpha]) < 1e-12
    assert v >= _PINNED_MEASURED_FLOORS.get((d, alpha), -INF) - 1e-12


def _branch_pair(case):
    """The pairs of _PINNED_MEASURED_BRANCHES and their restart counts."""
    rng = np.random.default_rng({"zero-diagonal": 90, "unnormalized": 91, "restarts": 128}[case])
    if case == "zero-diagonal":
        # block-diagonal rho: a_2 = 0 exactly at the identity start
        rho = np.zeros((3, 3), dtype=complex)
        rho[:2, :2] = sample_state(2, 2, rng)
        return rho, sample_state(3, 3, rng), 2
    rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
    if case == "unnormalized":
        return 2 * rho, 3 * sigma, 2
    # both random starts raise the alpha = None value, the second the alpha = 2 one
    return rho, sigma, 4


# measured_lower_bound(rho, sigma, alpha, restarts, iters=400, seed=1) on the
# _branch_pair cases, as a kernel that forms u* rho u and u* sigma u in full
# for every trial basis returns them; scoring trial bases on their diagonals
# alone must keep them within 1e-12. The "restarts" relative entropy comes
# from Newton steps, and must not fall below the gradient steps' value in
# _PINNED_MEASURED_BRANCH_FLOORS
_PINNED_MEASURED_BRANCHES = {
    "zero-diagonal": {None: 0.7660211129233705, 0.5: 0.49911173898857575,
                      2: 1.3823294844922003, INF: 2.3252133784885},
    "unnormalized": {None: 0.9649146559395287, 0.5: -0.02956626650005134,
                     2: 1.5730705595120587, INF: 2.9212536516313996},
    "restarts": {None: 0.5545489633149858, 0.5: 0.16384847831794047,
                 2: 2.728434443721326, INF: 4.795164964621388},
}
_PINNED_MEASURED_BRANCH_FLOORS = {("restarts", None): 0.5545242571305637}


@pytest.mark.parametrize("case", list(_PINNED_MEASURED_BRANCHES))
@pytest.mark.parametrize("alpha", [None, 0.5, 2, INF])
def test_measured_ascent_pinned_branches(alpha, case):
    rho, sigma, restarts = _branch_pair(case)
    v, u = measured_lower_bound(rho, sigma, alpha=alpha, restarts=restarts, iters=400, seed=1)
    assert abs(v - _PINNED_MEASURED_BRANCHES[case][alpha]) < 1e-12
    assert v >= _PINNED_MEASURED_BRANCH_FLOORS.get((case, alpha), -INF) - 1e-12
    assert u.dtype == complex


def test_measured_line_search_chunks(monkeypatch):
    # the pinned d = 2, alpha = 0.5 case, on the gradient path, accepts a
    # trial step past the first stack of four, and ends a start with all 25
    # trials failing
    from qrdiv import relent

    events = []

    def spy(owner, name, tag):
        f = getattr(owner, name)

        def call(*args, **kwargs):
            events.append(tag(args))
            return f(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    spy(relent, "_measured_point", lambda args: str(len(args[2])))
    spy(relent, "_riemannian_gradient", lambda args: "G")
    spy(np.linalg, "eigh", lambda args: "E")
    rho, sigma = _pinned_pair(2)
    v, _ = measured_lower_bound(rho, sigma, alpha=0.5, restarts=2, iters=50, seed=1)
    assert abs(v - _PINNED_MEASURED[2][0.5]) < 1e-12
    # after each eigh: the stack sizes scored, then the next iteration's
    # gradient G, or the next start's first point 1 and its gradient
    iterations = "".join(events).split("E")[1:]
    assert any(re.fullmatch("4{2,5}G", s) for s in iterations)
    assert any(re.fullmatch("4{6}1(1G)?", s) for s in iterations)


def _expm_skew(k):
    w, v = np.linalg.eigh(k / 1j)
    return (v * np.exp(1j * w)) @ v.conj().T


def _point(alpha, rho, sigma, u):
    """The (pu, ab, diff, 0) of a one-basis ``_measured_point`` stack."""
    _, *point = _measured_point(alpha, np.stack((rho, sigma))[:, None], u[None])
    return (*point, 0)


def _skew_generators(d):
    """E_jk - E_kj and i(E_jk + E_kj) for j < k, in ``_newton_system``'s order."""
    out = []
    for j, k in zip(*np.triu_indices(d, 1)):
        e = np.zeros((d, d), dtype=complex)
        e[j, k] = 1.0
        out += [e - e.T, 1j * (e + e.T)]
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("alpha", [None, 1])
def test_newton_hessian_matches_central_difference(alpha, d):
    # column p of the central difference F of g along K_p is H's column plus
    # the antisymmetric term g([K_p, K_q]) / 2 from e^{hK_p} e^{tK_q}, so H
    # is compared with (F + F^T) / 2; g itself is Re Tr(M K_p)
    rng = np.random.default_rng(30 + d)
    gens, h = _skew_generators(d), 1e-5
    for _ in range(3):
        rho, sigma, u = sample_state(d, d, rng), sample_state(d, d, rng), sample_unitary(d, rng)

        def system(v):
            return _newton_system(alpha, v, *_point(alpha, rho, sigma, v))

        g, hess = system(u)
        m = _riemannian_gradient(alpha, u, *_point(alpha, rho, sigma, u))
        assert np.allclose(g, [np.trace(m @ k).real for k in gens], rtol=0, atol=1e-12)
        fd = np.array([(system(u @ _expm_skew(h * k))[0] - system(u @ _expm_skew(-h * k))[0]) / (2 * h)
                       for k in gens]).T
        assert np.abs(hess - (fd + fd.T) / 2).max() < 1e-6 * max(1.0, np.abs(hess).max())


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("alpha", [None, 1])
def test_newton_ascent_ends_stationary(alpha, d):
    # a Newton step from slope norm |g| gains about |g|^2 / (2 |lambda|),
    # which the 1e-14 acceptance margin no longer sees below |g| ~ 1e-7:
    # the d = 2 pair stops at 2.2e-8, the d = 3 and 4 pairs below 1e-10
    rho, sigma = _pinned_pair(d)
    _, u = measured_lower_bound(rho, sigma, alpha=alpha, restarts=2, iters=50, seed=1)
    m = _riemannian_gradient(alpha, u, *_point(alpha, rho, sigma, u))
    assert math.sqrt(2.0) * np.linalg.norm(m) <= 1e-7


def test_measured_ascent_on_pure_rho_is_stable():
    # on a pure rho the gradient steps crept along a flat ridge, and a
    # rounding-level change of rho moved their 50-iteration values by 6e-5;
    # pair 17 reaches 0.767791 only after 10 000 gradient steps
    rng = np.random.default_rng(5)
    for n in range(60):
        d = 2 + n % 3
        rho, sigma = sample_state(d, 1, rng), sample_state(d, d, rng)
        v, _ = measured_lower_bound(rho, sigma, restarts=2, iters=50, seed=n)
        w, _ = measured_lower_bound(rho * (1 + 4e-16), sigma, restarts=2, iters=50, seed=n)
        assert abs(v - w) <= 1e-10
        if n == 17:
            assert v >= 0.767790


def _gradient_vs_central_difference(alpha, rho, sigma, u, rng, h=1e-6):
    """(Re Tr(M K), central difference of f(u e^{tK})) along a random skew K."""
    d = rho.shape[0]
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    k = (g - g.conj().T) / 2
    pair = np.stack((rho, sigma))[:, None]
    m = _riemannian_gradient(alpha, u, *_point(alpha, rho, sigma, u))
    assert np.allclose(m, -m.conj().T, atol=1e-12)
    (fp, fm), *_ = _measured_point(
        alpha, pair, np.stack([u @ _expm_skew(h * k), u @ _expm_skew(-h * k)]))
    return np.trace(m @ k).real, (fp - fm) / (2 * h)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("alpha", [None, 0, 0.5, 1, 2, INF])
def test_measured_gradient_matches_central_difference(alpha, d):
    rng = np.random.default_rng(40 + d)
    for _ in range(3):
        rho, sigma = sample_state(d, d, rng), sample_state(d, d, rng)
        ana, fd = _gradient_vs_central_difference(
            alpha, rho, sigma, sample_unitary(d, rng), rng
        )
        assert abs(ana - fd) < 1e-7 * max(1.0, abs(ana))


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("alpha", [None, 0.5, 1, 2, INF])
def test_measured_gradient_rank_deficient(alpha, d):
    # rho has a zero last row in the identity basis, so a_{d-1} = 0 exactly.
    # alpha = 0 is left out: its objective jumps when supp a grows. For
    # alpha < 1 the a_{d-1} term of the central difference is O(h).
    rng = np.random.default_rng(50 + d)
    for _ in range(3):
        rho = np.zeros((d, d), dtype=complex)
        rho[: d - 1, : d - 1] = sample_state(d - 1, d - 1, rng)
        sigma = sample_state(d, d, rng)
        ana, fd = _gradient_vs_central_difference(alpha, rho, sigma, np.eye(d), rng)
        assert abs(ana - fd) < 1e-5 * max(1.0, abs(ana))


@pytest.mark.parametrize("d", [8, 16])
def test_measured_lower_bound_larger_dims(d):
    rng = np.random.default_rng(60 + d)
    p, q = rng.random(d) + 0.05, rng.random(d) + 0.05
    p, q = p / p.sum(), q / q.sum()
    u = sample_unitary(d, rng)
    rho, sigma = u @ np.diag(p) @ u.conj().T, u @ np.diag(q) @ u.conj().T
    lb, _ = measured_lower_bound(rho, sigma, restarts=2, iters=50)
    assert abs(lb - classical_rel_entropy(p, q)) < 1e-8
    for n in range(3):
        rho, sigma = sample_state(d, d, rng), sample_state(d, d, rng)
        lb, _ = measured_lower_bound(rho, sigma, restarts=2, iters=50, seed=n)
        assert 0.0 < lb <= umegaki(rho, sigma) + 1e-8


def test_measured_ascent_one_eigh_per_iteration(monkeypatch):
    from qrdiv import relent

    calls = {np.linalg: 0, relent: 0}

    def counting(owner, name):
        f = getattr(owner, name)

        def call(*args, **kwargs):
            calls[owner] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    counting(np.linalg, "eigh")
    counting(relent, "_riemannian_gradient")
    rng = np.random.default_rng(70)
    rho, sigma = sample_state(4, 4, rng), sample_state(4, 4, rng)
    measured_lower_bound(rho, sigma, restarts=2, iters=50)
    # one gradient per iteration and one at each start's end; at most two
    # eighs per iteration (a Newton step's Hessian and generator), plus the
    # support check and the joint-diagonalizer start
    assert 0 < calls[np.linalg] <= 2 * calls[relent] + 5


def test_scaling_laws():
    rng = np.random.default_rng(14)
    rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
    for kind in ALL_KINDS:
        v = rel_entropy(kind, rho, sigma).value
        t, s = 0.7, 1.9
        # scaling1: D(t rho || sigma) = t log t Tr rho + t D
        v1 = rel_entropy(kind, t * rho, sigma).value
        assert abs(v1 - (t * math.log(t) + t * v)) < 1e-8
        # scaling2: D(rho || s sigma) = D - log s Tr rho
        v2 = rel_entropy(kind, rho, s * sigma).value
        assert abs(v2 - (v - math.log(s))) < 1e-8
        # combined law
        v3 = rel_entropy(kind, t * rho, s * sigma).value
        assert abs(v3 - (t * v + t * math.log(t) - t * math.log(s))) < 1e-8


def test_strict_positivity_of_geom_kinds():
    rng = np.random.default_rng(15)
    for _ in range(20):
        rho, sigma = sample_state(2, 2, rng), sample_state(2, 2, rng)
        if np.max(np.abs(rho - sigma)) < 1e-6:
            continue
        v = rel_entropy(GeomWeighted(Umegaki(), 0.5), rho, sigma).value
        assert v > 1e-10


def test_ordering_chain_meas_um_geom_max():
    rng = np.random.default_rng(16)
    for n in range(30):
        d = int(rng.integers(2, 5))
        rho, sigma = sample_state(d, d, rng), sample_state(d, d, rng)
        lb = rel_entropy(MeasuredProjective(restarts=3, iters=60), rho, sigma, seed=n)
        um = umegaki(rho, sigma)
        ge = rel_entropy(GeomWeighted(Umegaki(), 0.5), rho, sigma).value
        bs = bs_rel_entropy(rho, sigma)
        assert lb.value <= um + 1e-8
        assert um <= ge + 1e-8
        assert ge <= bs + 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_axioms_report(kind):
    report = axioms_check(kind, samples=12, rng_seed=0)
    assert report["all_pass"], report


def test_axioms_report_measured():
    report = axioms_check(MeasuredProjective(restarts=3, iters=60), samples=6, rng_seed=0)
    assert report["all_pass"], report
    assert report["checks"]["dpi_partial_trace"] is None  # only pinchings asserted


def test_measured_dpi_under_pinchings_via_pushforward():
    # measuring the pinched pair projectively equals measuring the input
    # with the pushforward POVM, so the certified bound for the pinched
    # pair is also a certified bound for the input pair
    rng = np.random.default_rng(17)
    for n in range(5):
        rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
        p = np.zeros((3, 3), dtype=complex)
        p[0, 0] = 1.0
        blocks = [p, np.eye(3) - p]
        lb_out, u = measured_lower_bound(
            pinch(rho, blocks), pinch(sigma, blocks), restarts=3, iters=60, seed=n
        )
        povm = [sum(b @ np.outer(u[:, i], u[:, i].conj()) @ b for b in blocks)
                for i in range(3)]
        a = np.array([np.trace(rho @ m).real for m in povm])
        b = np.array([np.trace(sigma @ m).real for m in povm])
        pushforward = classical_rel_entropy(np.clip(a, 0, None), np.clip(b, 0, None))
        assert abs(pushforward - lb_out) < 1e-9
        assert lb_out <= umegaki(rho, sigma) + 1e-9


def test_kind_is_exact():
    assert kind_is_exact(Umegaki())
    assert not kind_is_exact(MeasuredProjective())
    assert not kind_is_exact(GeomWeighted(MeasuredProjective(), 0.5))
    assert kind_is_exact(Mixture(((1.0, BelavkinStaszewski()),)))
