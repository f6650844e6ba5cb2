import inspect
import json
import math
import os
import sys

import numpy as np
import pytest

from qrdiv.barycentric import (
    GcqChannel,
    SolverOptions,
    barycentric_q,
    barycentric_renyi,
    barycentric_renyi_full,
    dual_renyi,
)
from qrdiv.classical import WeightedFamily, classical_renyi, multivariate_q
from qrdiv.errors import BadParameter, DimensionMismatch, UnsupportedWeights
from qrdiv.hermitian import (
    matrix_from_json,
    partial_trace,
    pinch,
    sample_cptp,
    sample_hermitian,
    sample_state,
    sample_unitary,
    spectrum,
    tensor,
)
from qrdiv.oracles import (
    batch_bs_term,
    batch_umegaki_term,
    bloch_grid_min,
    fd_derivative,
    make_batch_objective,
)
from qrdiv.relent import (
    BelavkinStaszewski,
    GeomWeighted,
    MeasuredProjective,
    Mixture,
    Umegaki,
    bs_rel_entropy,
    rel_entropy,
    umegaki,
)
from qrdiv.renyi import max_renyi, renyi_alpha_z

INF = float("inf")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
UM = (Umegaki(), Umegaki())
BS = (BelavkinStaszewski(), BelavkinStaszewski())


def noncommuting_qubits(rng, floor=1e-2):
    while True:
        rho = sample_state(2, 2, rng)
        sig = sample_state(2, 2, rng)
        if np.max(np.abs(rho @ sig - sig @ rho)) > floor:
            return rho, sig


# ---------------------------------------------------------------------------
# multi-variate barycentric Q


def test_equal_states_zero_radius():
    rho = sample_state(3, 3, 0)
    ch = GcqChannel(("a", "b", "c"), (rho, rho, rho))
    res = barycentric_q([Umegaki()] * 3, ch, (0.2, 0.5, 0.3))
    assert abs(res.radius) < 1e-9
    np.testing.assert_allclose(res.center, rho, atol=1e-7)


def test_commuting_channel_center_formula():
    # center is the normalized entrywise weighted geometric mean
    w = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
    weights = (0.5, 0.25, 0.25)
    ops = tuple(np.diag(r).astype(complex) for r in w)
    ch = GcqChannel(("a", "b", "c"), ops)
    res = barycentric_q([BelavkinStaszewski()] * 3, ch, weights)
    prod = np.prod(w ** np.array(weights)[:, None], axis=0)
    assert abs(res.q_value - prod.sum()) < 1e-7
    np.testing.assert_allclose(np.diag(res.center).real, prod / prod.sum(), atol=1e-6)


def test_all_umegaki_closed_form_vs_independent_solver():
    rng = np.random.default_rng(1)
    for k in range(5):
        ops = tuple(sample_state(2, 2, rng) for _ in range(3))
        ch = GcqChannel(("a", "b", "c"), ops)
        weights = (0.5, 0.25, 0.25)
        closed = barycentric_q([Umegaki()] * 3, ch, weights)
        opts = SolverOptions(use_closed_form=False, warm_start=False, restarts=3, seed=k)
        solved = barycentric_q([Umegaki()] * 3, ch, weights, opts)
        assert abs(closed.radius - solved.radius) < 1e-6
        np.testing.assert_allclose(closed.center, solved.center, atol=1e-4)


def test_result_invariants_and_json():
    rng = np.random.default_rng(2)
    ops = tuple(sample_state(2, 2, rng) for _ in range(2))
    ch = GcqChannel(("x", "y"), ops)
    kinds = [BelavkinStaszewski(), Umegaki()]
    res = barycentric_q(kinds, ch, (0.4, 0.6))
    np.testing.assert_allclose(res.q_value * res.center, res.geo_mean, atol=1e-7)
    # the geometric mean zeroes the weighted divergence sum
    total = 0.4 * rel_entropy(kinds[0], res.geo_mean, ops[0]).value
    total += 0.6 * rel_entropy(kinds[1], res.geo_mean, ops[1]).value
    assert abs(total) < 1e-6
    blob = json.dumps(res.to_json())
    back = json.loads(blob)
    np.testing.assert_allclose(matrix_from_json(back["center"]), res.center, atol=1e-12)


def test_channel_below_every_cutoff_is_rejected():
    # each W_x counts as zero: every eigenvalue is below its support cutoff
    with pytest.raises(BadParameter):
        GcqChannel(("a", "b"), (1e-12 * np.eye(2), np.diag([1e-13, 0.0])))


def test_bad_input_fails_at_the_boundary():
    rho, sig = sample_state(2, 2, 43), sample_state(2, 2, 44)
    with pytest.raises(BadParameter):
        barycentric_renyi_full(0.5, (Umegaki(), Umegaki()), np.zeros((2, 2)), sig)
    with pytest.raises(BadParameter):
        barycentric_renyi_full(-0.5, (Umegaki(), Umegaki()), rho, sig)
    # one operator per label, all of one dimension
    with pytest.raises(DimensionMismatch):
        GcqChannel(("a",), (rho, sig))
    with pytest.raises(DimensionMismatch):
        GcqChannel(("a", "b"), (rho, sample_state(3, 3, 45)))
    # one kind and one weight per operator
    ch = GcqChannel(("a", "b"), (rho, sig))
    with pytest.raises(DimensionMismatch):
        barycentric_q([Umegaki()], ch, (0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        barycentric_q([Umegaki()] * 2, ch, (1.0,))


def test_fast_paths_support_logic():
    # probability weights with S_+ = 0: Q = 0
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    ch = GcqChannel(("a", "b"), (p0, p1))
    res = barycentric_q([Umegaki()] * 2, ch, (0.5, 0.5))
    assert res.q_value == 0.0 and res.radius == INF
    # signed weights with S_+ not below S_-: Q = +inf
    full = np.eye(2, dtype=complex) / 2
    ch2 = GcqChannel(("a", "b"), (full, p1))
    res2 = barycentric_q([Umegaki()] * 2, ch2, (2.0, -1.0))
    assert res2.q_value == INF
    # signed weights with S_+ <= S_-: finite
    ch3 = GcqChannel(("a", "b"), (p1, full))
    res3 = barycentric_q([Umegaki()] * 2, ch3, (2.0, -1.0))
    assert math.isfinite(res3.radius)
    # unsupported signed class with unequal supports
    ch4 = GcqChannel(("a", "b", "c"), (full, p0, p1))
    with pytest.raises(UnsupportedWeights):
        barycentric_q([Umegaki()] * 3, ch4, (0.8, 0.8, -0.6))


# ---------------------------------------------------------------------------
# two-variable barycentric Renyi


def test_commuting_classical_reduction():
    rng = np.random.default_rng(3)
    p = rng.random(3) + 0.05
    q = rng.random(3) + 0.05
    u = sample_unitary(3, rng)
    rho = u @ np.diag(p) @ u.conj().T
    sig = u @ np.diag(q) @ u.conj().T
    for kinds in (UM, BS, (Umegaki(), BelavkinStaszewski())):
        for a in (0.25, 0.5, 0.75):
            v = barycentric_renyi(a, kinds, rho, sig)
            assert abs(v - classical_renyi(a, p, q)) < 1e-7


_GEOM = GeomWeighted(Umegaki(), 0.5)
_COMMUTING_GEOM_KINDS = {"geom,geom": (_GEOM, _GEOM), "um,geom:um:0.5": (Umegaki(), _GEOM),
                         "geom:um:0.5,um": (_GEOM, Umegaki())}
_COMMUTING_BS_KINDS = {"bs,um": (BelavkinStaszewski(), Umegaki()),
                       "um,bs": (Umegaki(), BelavkinStaszewski()), "bs,bs": BS}


def _reaches_the_classical_value(d, kinds):
    # a commuting pair at alpha in (0, 1) has a diagonal optimal center, and
    # every kind gives the classical Renyi divergence
    rng = np.random.default_rng(d)
    p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
    u = sample_unitary(d, rng)
    rho, sig = (u * p) @ u.conj().T, (u * q) @ u.conj().T
    for a in (0.25, 0.5, 0.75):
        res = barycentric_renyi_full(a, kinds, rho, sig, SolverOptions(restarts=0))
        assert res["converged"]
        assert abs(res["value"] - classical_renyi(a, p, q)) < 1e-10, a


@pytest.mark.parametrize("label", list(_COMMUTING_GEOM_KINDS))
@pytest.mark.parametrize("d", [4, 8, 16])
def test_commuting_geom_pairs_reach_the_classical_value(d, label):
    # mirror descent lands within 3e-14 of the classical value in 2
    # iterations; the H-coordinate steps these solves took before stopped
    # up to 6.3e-8 high, flagged converged
    _reaches_the_classical_value(d, _COMMUTING_GEOM_KINDS[label])


@pytest.mark.parametrize("label", list(_COMMUTING_BS_KINDS))
@pytest.mark.parametrize("d", [4, 8, 16])
def test_commuting_bs_pairs_reach_the_classical_value(d, label):
    _reaches_the_classical_value(d, _COMMUTING_BS_KINDS[label])


@pytest.mark.parametrize("label", ["um", "bs", "geom:um:0.5"])
@pytest.mark.parametrize("n", [3, 4])
def test_commuting_families_reach_multivariate_q(n, label):
    # a commuting family W_x = U diag(w_x) U* with probability weights has
    # a diagonal optimal center, and every kind gives the classical
    # multivariate Q = sum_i prod_x w_x(i)^P(x)
    kind = {"um": Umegaki(), "bs": BelavkinStaszewski(), "geom:um:0.5": _GEOM}[label]
    rng = np.random.default_rng(40 + n)
    for d in (2, 4):
        w = rng.dirichlet(np.ones(d), size=n)
        weights = tuple(rng.dirichlet(np.ones(n)))
        u = sample_unitary(d, rng)
        labels = tuple(range(n))
        ch = GcqChannel(labels, tuple((u * row) @ u.conj().T for row in w))
        res = barycentric_q((kind,) * n, ch, weights, SolverOptions(restarts=0))
        assert res.converged
        assert abs(res.q_value - multivariate_q(WeightedFamily(labels, weights, w))) < 1e-10, d


def test_all_umegaki_equals_log_euclidean():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        rho, sig = sample_state(d, d, rng), sample_state(d, d, rng)
        for a in (0.25, 0.5, 0.75, 1.5, 2.0):
            vb = barycentric_renyi(a, UM, rho, sig)
            vz = renyi_alpha_z(a, INF, rho, sig)
            assert abs(vb - vz) < 1e-6


def test_alpha_one_no_solver():
    rng = np.random.default_rng(5)
    rho, sig = sample_state(3, 3, rng), sample_state(3, 3, rng)
    res = barycentric_renyi_full(1.0, (Umegaki(), BelavkinStaszewski()), rho, sig)
    assert res["iterations"] == 0
    assert abs(res["value"] - bs_rel_entropy(rho, sig)) < 1e-10
    # psi_1 = log Tr rho exactly: D_1 uses only the q1 relative entropy
    res2 = barycentric_renyi_full(1.0, (BelavkinStaszewski(), Umegaki()), rho, sig)
    assert abs(res2["value"] - umegaki(rho, sig)) < 1e-10


def test_scaling_law():
    rng = np.random.default_rng(6)
    rho, sig = noncommuting_qubits(rng)
    for kinds in (UM, BS, (Umegaki(), BelavkinStaszewski())):
        for a in (0.0, 0.3, 0.8, 1.0, 1.5):
            base = barycentric_renyi(a, kinds, rho, sig)
            scaled = barycentric_renyi(a, kinds, 0.6 * rho, 1.7 * sig)
            assert abs(scaled - (base + math.log(0.6) - math.log(1.7))) < 1e-8


def test_nonnegativity_floor():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rho = sample_state(3, 3, rng) * (0.5 + rng.random())
        sig = sample_state(3, 3, rng) * (0.5 + rng.random())
        floor = math.log(np.trace(rho).real) - math.log(np.trace(sig).real)
        for a in (0.0, 0.4, 1.0, 1.8):
            assert barycentric_renyi(a, UM, rho, sig) >= floor - 1e-9
    # equality analysis on proportional pairs (same kind both slots)
    rho = sample_state(3, 3, 8)
    for a in (0.0, 0.4, 1.0, 1.8):
        v = barycentric_renyi(a, UM, 0.7 * rho, 1.4 * rho)
        assert abs(v - (math.log(0.7) - math.log(1.4))) < 1e-8


def test_alpha_monotone_and_psi_convex():
    rng = np.random.default_rng(9)
    rho, sig = noncommuting_qubits(rng)
    grid = np.arange(0.1, 2.05, 0.1)
    kinds = (Umegaki(), BelavkinStaszewski())
    psis, ds = [], {}
    for a in grid:
        res = barycentric_renyi_full(a, kinds, rho, sig)
        if abs(a - 1.0) > 1e-12:
            ds[round(float(a), 2)] = res["value"]
        psis.append((a - 1.0) * res["value"] + math.log(1.0))  # psi from D, Tr rho = 1
    # psi convex on the grid
    for i in range(1, len(grid) - 1):
        assert psis[i] <= 0.5 * (psis[i - 1] + psis[i + 1]) + 1e-7
    # D nondecreasing on [0,1) and (1,inf)
    keys = sorted(ds)
    below = [ds[k] for k in keys if k < 1.0]
    above = [ds[k] for k in keys if k > 1.0]
    assert all(below[i + 1] >= below[i] - 1e-7 for i in range(len(below) - 1))
    assert all(above[i + 1] >= above[i] - 1e-7 for i in range(len(above) - 1))


_A0_KINDS = [
    (GeomWeighted(Umegaki(), 0.5), GeomWeighted(Umegaki(), 0.5)),
    (Umegaki(), GeomWeighted(Mixture(((0.5, Umegaki()), (0.5, BelavkinStaszewski()))), 0.4)),
]


@pytest.mark.parametrize("kinds", _A0_KINDS, ids=["geom,geom", "um,geom:mix"])
def test_alpha_zero_exact_when_sigma_inside_rho(kinds):
    # supp sigma <= supp rho: the radius is -log Tr sigma, attained at
    # sigma / Tr sigma, for every kind, and the solver agrees
    rng = np.random.default_rng(21)
    rho = sample_state(3, 3, 1)
    for sig in (sample_state(3, 3, 2), 0.6 * sample_state(3, 2, rng)):
        tr_sig = np.trace(sig).real
        res = barycentric_renyi_full(0.0, kinds, rho, sig)
        assert (res["iterations"], res["gap"], res["converged"]) == (0, 0.0, True)
        assert abs(res["value"] + math.log(tr_sig)) < 1e-14
        np.testing.assert_allclose(res["center"], sig / tr_sig, atol=1e-14)
        solved = barycentric_renyi_full(
            0.0, kinds, rho, sig, SolverOptions(restarts=0, use_closed_form=False))
        assert solved["iterations"] > 0 and abs(solved["value"] - res["value"]) < 1e-7


@pytest.mark.parametrize("kinds", _A0_KINDS, ids=["geom,geom", "um,geom:mix"])
def test_alpha_zero_proper_meet_runs_solver(kinds):
    # rank(rho) = 2 < rank(sigma): sigma / Tr sigma lies outside the meet,
    # so the solver runs and the radius stays above -log Tr sigma
    rho, sig = sample_state(3, 2, 1), sample_state(3, 3, 2)
    res = barycentric_renyi_full(0.0, kinds, rho, sig, SolverOptions(restarts=0))
    assert res["iterations"] > 0 and res["converged"]
    assert res["value"] > 1e-3


def test_limits_at_zero_and_one():
    rng = np.random.default_rng(10)
    rho, sig = noncommuting_qubits(rng)
    kinds = (Umegaki(), BelavkinStaszewski())
    # alpha -> 0 equals the direct alpha = 0 evaluation
    v0 = barycentric_renyi(0.0, kinds, rho, sig)
    v_small = barycentric_renyi(0.01, kinds, rho, sig)
    assert v_small >= v0 - 1e-9
    assert abs(v_small - v0) < 5e-2
    # alpha -> 1 from below reaches D^{q1}/Tr rho
    v1 = barycentric_renyi(1.0, kinds, rho, sig)
    v_near = barycentric_renyi(0.999, kinds, rho, sig)
    assert v_near <= v1 + 1e-9
    assert abs(v_near - v1) < 5e-3
    # alpha = inf dominates every finite alpha
    vinf = barycentric_renyi(INF, kinds, rho, sig)
    assert vinf >= barycentric_renyi(2.0, kinds, rho, sig) - 1e-7


def test_dual_renyi():
    rng = np.random.default_rng(11)
    rho, sig = noncommuting_qubits(rng)
    # self-duality for equal kinds
    for a in (0.3, 0.5, 0.7):
        assert abs(dual_renyi(a, UM, rho, sig) - barycentric_renyi(a, UM, rho, sig)) < 1e-6
    # (um, bs) dual evaluates to the (bs, um) primal
    kinds = (Umegaki(), BelavkinStaszewski())
    swapped = (BelavkinStaszewski(), Umegaki())
    for a in (0.3, 0.6):
        assert abs(
            dual_renyi(a, kinds, rho, sig) - barycentric_renyi(a, swapped, rho, sig)
        ) < 1e-6
    # commuting inputs: classical duality Q_a(p||q) = Q_{1-a}(q||p)
    p = np.diag([0.3, 0.7]).astype(complex)
    q = np.diag([0.6, 0.4]).astype(complex)
    for a in (0.25, 0.75):
        assert abs(dual_renyi(a, UM, p, q) - barycentric_renyi(a, UM, p, q)) < 1e-9


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
def test_dual_renyi_needs_alpha_in_the_open_unit_interval(alpha):
    p = np.diag([0.3, 0.7]).astype(complex)
    with pytest.raises(BadParameter):
        dual_renyi(alpha, UM, p, p)


def test_support_infinity_characterization():
    # alpha in [0,1): +inf iff the support meet vanishes
    p0 = np.diag([1.0, 0.0]).astype(complex)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    assert barycentric_renyi(0.5, UM, p0, plus) == INF
    assert barycentric_renyi(0.0, UM, p0, plus) == INF
    # alpha > 1: +inf iff rho not dominated
    full = np.eye(2, dtype=complex) / 2
    assert barycentric_renyi(1.5, UM, full, p0) == INF
    assert math.isfinite(barycentric_renyi(1.5, UM, p0, full))


# ---------------------------------------------------------------------------
# solver cross-checks against oracles


def test_solver_matches_bloch_oracle_umegaki():
    rng = np.random.default_rng(12)
    rho, sig = noncommuting_qubits(rng)
    a = 0.5
    res = barycentric_renyi_full(
        a, UM, rho, sig, SolverOptions(use_closed_form=False, warm_start=False, seed=1)
    )
    radius = a * umegaki(res["center"], rho) + (1 - a) * umegaki(res["center"], sig)
    obj = make_batch_objective(
        [(a, batch_umegaki_term(rho)), (1 - a, batch_umegaki_term(sig))]
    )
    _, oracle_val = bloch_grid_min(None, resolution=(60, 120, 30), batch_objective=obj)
    assert abs(radius - oracle_val) < 2e-4


def test_solver_matches_bloch_oracle_bs():
    rng = np.random.default_rng(13)
    rho, sig = noncommuting_qubits(rng)
    a = 0.4
    res = barycentric_renyi_full(a, BS, rho, sig)
    radius = a * bs_rel_entropy(res["center"], rho) + (1 - a) * bs_rel_entropy(
        res["center"], sig
    )
    obj = make_batch_objective(
        [(a, batch_bs_term(rho)), (1 - a, batch_bs_term(sig))]
    )
    _, oracle_val = bloch_grid_min(None, resolution=(60, 120, 30), batch_objective=obj)
    assert abs(radius - oracle_val) < 2e-4


def _batch_fn(a, f):
    """f applied to each Hermitian matrix of a stack."""
    w, u = np.linalg.eigh(a)
    return np.einsum("nij,nj,nkj->nik", u, f(w), u.conj())


def _batch_geom_term(kind, w_op):
    """Vectorized omega -> D^{base,#gamma}(omega || W)
    = D^base(omega || omega #_{1-gamma} W) / (1 - gamma) on qubit batches;
    the pure boundary, where rounding swamps omega^{-1/2}, counts as +inf."""
    g = kind.gamma

    def term(states):
        with np.errstate(divide="ignore", invalid="ignore"):
            oh, ohi = _batch_fn(states, np.sqrt), _batch_fn(states, lambda x: x**-0.5)
            mean = oh @ _batch_fn(ohi @ w_op @ ohi, lambda x: x ** (1.0 - g)) @ oh
            if isinstance(kind.base, Umegaki):
                inner = _batch_fn(states, np.log) - _batch_fn(mean, np.log)
            else:
                inner = _batch_fn(oh @ _batch_fn(mean, lambda x: 1.0 / x) @ oh, np.log)
            val = np.einsum("nij,nji->n", states, inner).real / (1.0 - g)
        return np.where(np.linalg.eigvalsh(states)[:, 0] > 1e-9, val, INF)

    return term


@pytest.mark.parametrize(
    "kinds",
    [
        # a geom term keeps the H-coordinate direction: its exact gradient
        # and the um term's go through _dexp_push
        (Umegaki(), GeomWeighted(Umegaki(), 0.5)),
        # geom:bs builds a plain bs term (D^{bs,#g} = D^bs); the oracle
        # evaluates the geom composition itself
        (GeomWeighted(BelavkinStaszewski(), 0.5), BelavkinStaszewski()),
    ],
    ids=["um,geom:um:0.5-exact-grad", "geom:bs:0.5,bs-fixed-point"],
)
def test_solver_matches_bloch_oracle_mixed_geom(kinds):
    rho, sig = sample_state(2, 2, 7), sample_state(2, 2, 8)
    a = 0.5
    res = barycentric_renyi_full(a, kinds, rho, sig)
    c = res["center"]
    radius = a * rel_entropy(kinds[0], c, rho).value + (1 - a) * rel_entropy(kinds[1], c, sig).value
    terms = []
    for w, k, op in ((a, kinds[0], rho), (1 - a, kinds[1], sig)):
        if isinstance(k, GeomWeighted):
            terms.append((w, _batch_geom_term(k, op)))
        else:
            terms.append((w, (batch_umegaki_term if k == Umegaki() else batch_bs_term)(op)))
    obj = make_batch_objective(terms)
    _, oracle_val = bloch_grid_min(None, resolution=(40, 80, 20), batch_objective=obj)
    assert res["converged"]
    assert -1e-9 <= oracle_val - radius < 2e-5


def test_geom_solver_eigh_count(eigh_calls):
    # each candidate decomposes H, and per geom term X and the mean (5 eighs
    # for geom,geom; log omega comes from H's eigh); the gradient takes no
    # further eigh
    geom = GeomWeighted(Umegaki(), 0.5)
    for d, iters, bound in ((2, 5, 35), (4, 12, 70)):
        rng = np.random.default_rng(11)
        rho, sig = sample_state(d, d, rng), sample_state(d, d, rng)
        eigh_calls.clear()
        res = barycentric_renyi_full(0.5, (geom, geom), rho, sig, SolverOptions(restarts=0))
        assert res["iterations"] == iters and res["converged"]
        assert 0 < len(eigh_calls) <= bound


@pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_geom_term_exact_gradient(d, gamma):
    # on a proper subspace of a full-rank W, the geom:um term's value is
    # rel_entropy's on the full space (its setup's sig_eff is W's
    # absolutely continuous part there), and its omega-gradient pushed to H
    # matches a Richardson central difference along random H directions
    from qrdiv.barycentric import _dexp_push, _Iterate, _Term

    rng = np.random.default_rng(100 * d + round(10 * gamma))
    w_op = sample_state(d + 1, d + 1, rng)
    basis = sample_unitary(d + 1, rng)[:, :d]
    term = _Term(1.0, GeomWeighted(Umegaki(), gamma), w_op, basis)
    assert term.mode == "geom"
    h = sample_hermitian(d, rng)
    pt = _Iterate(h)
    full = rel_entropy(term.kind, basis @ pt.omega @ basis.conj().T, w_op).value
    assert abs(term.value(pt) - full) < 1e-10
    grad = _dexp_push(pt, term.grad_omega(pt))
    for _ in range(3):
        e = sample_hermitian(d, rng)
        fd = fd_derivative(lambda t: term.value(_Iterate(h + t * e)), 0.0)
        exact = float(np.trace(grad @ e).real)
        assert abs(fd - exact) <= 1e-7 * abs(exact)


@pytest.mark.parametrize("meet", ["full", "proper"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_bs_term_exact_gradient(d, meet):
    # on the full space and on a proper subspace of a full-rank W, the bs
    # term's value is Tr sig_eff eta(sig_eff^{-1/2} omega sig_eff^{-1/2}),
    # eta(x) = x log x, for sig_eff = (B* W^{-1} B)^{-1} taken densely, and
    # its omega-gradient pushed to H matches a Richardson central
    # difference of the value along random H directions
    from qrdiv.barycentric import _dexp_push, _Iterate, _Term

    n = d + (meet == "proper")
    rng = np.random.default_rng(200 * d + n)
    w_op = sample_state(n, n, rng)
    basis = sample_unitary(n, rng)[:, :d]
    term = _Term(1.0, BelavkinStaszewski(), w_op, basis)
    assert term.mode == "bs"
    h = sample_hermitian(d, rng)
    pt = _Iterate(h)
    sig = np.linalg.inv(basis.conj().T @ np.linalg.inv(w_op) @ basis)
    s, v = np.linalg.eigh((sig + sig.conj().T) / 2)
    isqrt = (v / np.sqrt(s)) @ v.conj().T
    x, u = np.linalg.eigh(isqrt @ pt.omega @ isqrt)
    dense = float(np.trace(sig @ (u * (x * np.log(x))) @ u.conj().T).real)
    assert abs(term.value(pt) - dense) < 1e-12
    grad = _dexp_push(pt, term.grad_omega(pt))
    for _ in range(3):
        e = sample_hermitian(d, rng)
        fd = fd_derivative(lambda t: term.value(_Iterate(h + t * e)), 0.0)
        exact = float(np.trace(grad @ e).real)
        assert abs(fd - exact) <= 1e-7 * abs(exact)


_MEAS = MeasuredProjective(4, 300)


@pytest.mark.parametrize("kind", [_MEAS, GeomWeighted(_MEAS, 0.4)], ids=["meas", "geom:meas:0.4"])
@pytest.mark.parametrize("d", [2, 3])
def test_measured_term_danskin_gradient(d, kind):
    # on a square basis, the measured term's value is rel_entropy's on the
    # full space, and its Danskin omega-gradient at the ascent's best basis,
    # pushed to H, matches a Richardson central difference along random H
    # directions. Both are exact only at the ascent's maximum: on a proper
    # subspace omega is rank-deficient in the full space and the ascent
    # converges slowly, and at d = 4 (geom:meas:0.4, default_rng(404)) 300
    # ascent iterations stop 6e-4 below the 3000-iteration value, where the
    # two disagree by up to 6e-2 relative (5e-7 at 3000 iterations)
    from qrdiv.barycentric import _dexp_push, _Iterate, _Term

    rng = np.random.default_rng(100 * d + (0 if kind == _MEAS else 4))
    w_op = sample_state(d, d, rng)
    basis = sample_unitary(d, rng)
    term = _Term(1.0, kind, w_op, basis)
    h = sample_hermitian(d, rng)
    pt = _Iterate(h)
    full = rel_entropy(kind, basis @ pt.omega @ basis.conj().T, w_op).value
    assert abs(term.value(pt) - full) < 1e-10
    grad = _dexp_push(pt, term.grad_omega(pt))
    for _ in range(3):
        e = sample_hermitian(d, rng)
        fd = fd_derivative(lambda t: term.value(_Iterate(h + t * e)), 0.0)
        exact = float(np.trace(grad @ e).real)
        assert abs(fd - exact) <= 1e-5 * abs(exact)


_GEOM_MIX = GeomWeighted(Mixture(((0.5, Umegaki()), (0.5, BelavkinStaszewski()))), 0.7)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
def test_closed_form_kinds_solve_finite_without_warnings(alpha):
    # every closed-form generator solves to a finite value. Run to the
    # default iteration count, the step-size cap keeps every trial iterate
    # finite; no gradient here overflows (test_solver_guards_end_a_run_cleanly
    # reaches that guard)
    rho, sig = sample_state(2, 2, 7), sample_state(2, 2, 8)
    opts = SolverOptions(restarts=0, use_closed_form=False)
    kinds = [Umegaki(), BelavkinStaszewski(), _GEOM, GeomWeighted(BelavkinStaszewski(), 0.5),
             _GEOM_MIX, Mixture(((0.5, Umegaki()), (0.5, GeomWeighted(Umegaki(), 0.3))))]
    for k in kinds:
        assert math.isfinite(barycentric_renyi(alpha, (k, k), rho, sig, opts))


def _reaches(marker, call):
    """(whether the first statement after the line of center_solver that
    contains ``marker`` runs during ``call()``, by a line trace; its result)."""
    from qrdiv.barycentric import center_solver

    lines, first = inspect.getsourcelines(center_solver)
    at = next(i for i, line in enumerate(lines) if marker in line) + 1
    while lines[at].strip().startswith("#"):
        at += 1
    target, path, seen = first + at, center_solver.__code__.co_filename, []

    def trace(frame, event, arg):
        if frame.f_code.co_filename != path:
            return None
        if event == "line" and frame.f_lineno == target:
            seen.append(target)
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(outer)
    return bool(seen), result


def _ill_conditioned_pair():
    # rho with eigenvalues 1, 1e-4 and 1e-8 against a full-rank sigma
    u = sample_unitary(3, 1)
    return (u * np.array([1.0, 1e-4, 1e-8])) @ u.conj().T, sample_state(3, 3, 101)


@pytest.mark.parametrize("kinds, marker", [
    # the geom gradient's g x^(g - 1) overflows near the boundary at g = 0.02
    ((Umegaki(), GeomWeighted(Umegaki(), 0.02)), "if not math.isfinite(gn):"),
    # the mirror step at a negative weight shrinks below H's rounding
    ((Umegaki(), BelavkinStaszewski()), "if (h_new == cur.h).all():"),
], ids=["non-finite gradient", "vanishing step"])
def test_solver_guards_end_a_run_cleanly(kinds, marker):
    # each guard ends its run with the lowest finite iterate, flagged not
    # converged, with no RuntimeWarning (an error under pyproject.toml)
    rho, sig = _ill_conditioned_pair()
    opts = SolverOptions(restarts=0, iters=200)
    reached, res = _reaches(marker, lambda: barycentric_renyi_full(1.5, kinds, rho, sig, opts))
    assert reached
    assert math.isfinite(res["value"]) and not res["converged"] and res["gap"] == opts.tol


def test_solver_skips_a_start_whose_objective_is_not_finite():
    # no public input reaches this guard: the feasible subspace lies in every
    # support. A measured term on W = diag(1, 0) over all of C^2 is -inf at
    # omega = I/2, whose identity and joint-diagonalizer bases both put
    # weight on ker W: the warm start is skipped, and a random start runs
    from qrdiv.barycentric import _Term, center_solver

    basis = np.eye(2, dtype=complex)
    term = _Term(1.0, MeasuredProjective(0, 0), np.diag([1.0, 0.0]).astype(complex), basis)
    reached, (center, value, gap, iters, conv) = _reaches(
        "if not math.isfinite(start_val):",
        lambda: center_solver([term], basis, SolverOptions(restarts=0)))
    assert reached
    assert value == INF and iters == 0 and not conv and gap == 1e-8
    np.testing.assert_array_equal(center, basis / 2)
    assert math.isfinite(center_solver([term], basis, SolverOptions(restarts=1))[1])


def test_center_solver_takes_terms():
    # two um terms passed straight to the solver reach the all-Umegaki
    # closed form
    from qrdiv.barycentric import _Term, center_solver

    rho, sig = sample_state(3, 3, 1), sample_state(3, 3, 2)
    a = 0.5
    basis = np.eye(3, dtype=complex)
    terms = [_Term(a, Umegaki(), rho, basis), _Term(1 - a, Umegaki(), sig, basis)]
    center, value, _, _, conv = center_solver(terms, basis, SolverOptions(restarts=0))
    res = barycentric_renyi_full(a, UM, rho, sig)
    exact = a * umegaki(res["center"], rho) + (1 - a) * umegaki(res["center"], sig)
    assert conv and abs(value - exact) < 1e-6
    np.testing.assert_allclose(center, res["center"], atol=1e-3)


@pytest.mark.parametrize(
    "alpha, kinds, floor",
    [(1.5, (Umegaki(), _GEOM), None), (INF, (Umegaki(), _GEOM), 2.11),
     (1.5, (_GEOM_MIX, _GEOM_MIX), None)],
    ids=["um,geom@1.5", "um,geom@inf", "geom-mix@1.5"],
)
def test_negative_weight_geom_finite(alpha, kinds, floor):
    # the second term carries weight 1 - alpha < 0 (-1 at alpha = inf);
    # mirror descent stalls here (at 1.908 for um,geom@inf) or raises
    rho, sig = sample_state(3, 3, 1), sample_state(3, 3, 2)
    value = barycentric_renyi(alpha, kinds, rho, sig, SolverOptions(restarts=0))
    assert math.isfinite(value)
    assert floor is None or value >= floor


def test_objective_midpoint_convexity():
    rng = np.random.default_rng(14)
    rho, sig = noncommuting_qubits(rng)
    a = 0.5
    for _ in range(20):
        w1 = sample_state(2, 2, rng)
        w2 = sample_state(2, 2, rng)

        def f(w):
            return a * bs_rel_entropy(w, rho) + (1 - a) * bs_rel_entropy(w, sig)

        assert f((w1 + w2) / 2) <= 0.5 * (f(w1) + f(w2)) + 1e-9


# ---------------------------------------------------------------------------
# DPI and the recorded no-DPI witness


def test_dpi_alpha_below_one():
    rng = np.random.default_rng(15)
    kinds_list = [UM, BS, (Umegaki(), BelavkinStaszewski())]
    for n in range(6):
        rho, sig = sample_state(2, 2, rng), sample_state(2, 2, rng)
        u = sample_unitary(2, rng)
        p1 = np.outer(u[:, 0], u[:, 0].conj())
        blocks = [p1, np.eye(2) - p1]
        ch = sample_cptp(2, 2, 2, n)
        for kinds in kinds_list:
            for a in (0.3, 0.7, 1.0):
                vin = barycentric_renyi(a, kinds, rho, sig)
                assert barycentric_renyi(a, kinds, pinch(rho, blocks), pinch(sig, blocks)) <= vin + 1e-7
                assert barycentric_renyi(a, kinds, ch(rho), ch(sig)) <= vin + 1e-7
        # partial trace on correlated dim-4 inputs, Umegaki kinds
        r4, s4 = sample_state(4, 4, rng), sample_state(4, 4, rng)
        for a in (0.3, 0.7):
            vin = barycentric_renyi(a, UM, r4, s4)
            vout = barycentric_renyi(
                a, UM, partial_trace(r4, (2, 2), 0), partial_trace(s4, (2, 2), 0)
            )
            assert vout <= vin + 1e-7


def test_no_dpi_witness_fixture_replays():
    with open(os.path.join(FIXTURES, "no_dpi_witness.json")) as fh:
        w = json.load(fh)
    rho = matrix_from_json(w["rho"])
    sig = matrix_from_json(w["sigma"])
    blocks = [matrix_from_json(b) for b in w["blocks"]]
    a = w["alpha"]
    vin = barycentric_renyi(a, UM, rho, sig)
    vout = barycentric_renyi(a, UM, pinch(rho, blocks), pinch(sig, blocks))
    assert vout > vin + 1e-9
    assert abs((vout - vin) - w["increase"]) < 1e-8


def test_smoothing_monotone_and_zero_counterexample():
    rng = np.random.default_rng(16)
    rho, sig = sample_state(3, 2, rng), sample_state(3, 3, rng)
    for a in (0.0, 0.5, 1.0):
        prev = None
        for eps in (1e-2, 1e-3, 1e-4):
            q = math.exp(
                (a - 1.0)
                * barycentric_renyi(a, UM, rho + eps * np.eye(3), sig + eps * np.eye(3))
                + math.log(np.trace(rho + eps * np.eye(3)).real)
            )
            if prev is not None and a < 1.0:
                assert q <= prev + 1e-9  # Q increases with eps
            prev = q
    # alpha = 0 irregularity: commuting rho, sigma with ran(rho) not
    # containing ran(sigma): lim Q_0(rho+eps||sigma+eps) = Tr sigma
    # while Q_0(rho||sigma) = Tr(rho^0 sigma)
    rho = np.diag([0.6, 0.4, 0.0]).astype(complex)
    sig = np.diag([0.3, 0.3, 0.4]).astype(complex)
    q0 = math.exp(-barycentric_renyi(0.0, UM, rho, sig) + math.log(1.0))
    assert abs(q0 - 0.6) < 1e-8  # Tr rho^0 sigma
    eps = 1e-6
    q_eps = math.exp(
        -barycentric_renyi(0.0, UM, rho + eps * np.eye(3), sig + eps * np.eye(3))
        + math.log(np.trace(rho + eps * np.eye(3)).real)
    )
    assert abs(q_eps - 1.0) < 1e-3  # tends to Tr sigma = 1, not 0.6


# ---------------------------------------------------------------------------
# strict separation (dim 2) and the derivative check


def test_strict_ordering_chain_qubits():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho, sig = noncommuting_qubits(rng)
        for a in (0.25, 0.5, 0.75):
            v_um = barycentric_renyi(a, UM, rho, sig)
            v_mix = barycentric_renyi(a, (Umegaki(), BelavkinStaszewski()), rho, sig)
            v_bs = barycentric_renyi(a, BS, rho, sig)
            v_max = max_renyi(a, rho, sig).value
            assert v_um < v_mix - 1e-6
            assert v_mix < v_bs - 1e-6
            assert v_bs < v_max - 1e-6


def _lambda_factor(alpha, li, lj):
    if abs(li - lj) < 1e-14:
        return 1.0
    return (
        alpha
        * (1 - alpha)
        * (math.log(li) - math.log(lj))
        * (li - lj)
        / ((li**alpha - lj**alpha) * (li ** (1 - alpha) - lj ** (1 - alpha)))
    )


def analytic_center_derivative(alpha, rho, sig):
    """Directional derivative at the normalized alpha-mean toward the
    maximally mixed state of the weighted maximal-divergence objective."""
    from qrdiv.hermitian import spectral_decompose, spectrum

    d = rho.shape[0]
    shi = spectrum(sig).power(-0.5)
    w, u = spectral_decompose(shi @ rho @ shi)
    total = 0.0
    for i in range(d):
        for j in range(d):
            pi = np.outer(u[:, i], u[:, i].conj())
            pj = np.outer(u[:, j], u[:, j].conj())
            s_ij = np.trace(pi @ sig @ pj @ spectrum(sig).power(-1.0)).real
            total += s_ij * _lambda_factor(alpha, w[i], w[j])
    return -1.0 + total / d


def test_dmax_derivative_analytic_vs_fd_and_negative():
    from qrdiv.supports import kubo_ando_mean

    rng = np.random.default_rng(18)
    for _ in range(5):
        rho, sig = noncommuting_qubits(rng)
        for a in (0.25, 0.5, 0.75):
            mean = kubo_ando_mean(a, rho, sig)
            m_hat = mean / np.trace(mean).real
            pi = np.eye(2, dtype=complex) / 2

            def g(t):
                w = (1 - t) * m_hat + t * pi
                return a * bs_rel_entropy(w, rho) + (1 - a) * bs_rel_entropy(w, sig)

            fd = fd_derivative(g, 0.0)
            ana = analytic_center_derivative(a, rho, sig)
            assert abs(fd - ana) < 1e-5
            assert ana < 0.0
            # Lambda factors exceed 1 off the diagonal
            from qrdiv.hermitian import spectral_decompose, spectrum

            w, _ = spectral_decompose(spectrum(sig).power(-0.5) @ rho @ spectrum(sig).power(-0.5))
            assert _lambda_factor(a, w[0], w[1]) > 1.0


def test_bloch_oracle_beats_alpha_mean_value():
    # the grid oracle finds strictly better centers than the normalized
    # alpha-mean for the maximal-kind objective (dim-2 strictness)
    from qrdiv.supports import kubo_ando_mean

    rng = np.random.default_rng(19)
    rho, sig = noncommuting_qubits(rng)
    a = 0.5
    mean = kubo_ando_mean(a, rho, sig)
    m_hat = mean / np.trace(mean).real
    at_mean = a * bs_rel_entropy(m_hat, rho) + (1 - a) * bs_rel_entropy(m_hat, sig)
    obj = make_batch_objective([(a, batch_bs_term(rho)), (1 - a, batch_bs_term(sig))])
    _, oracle_val = bloch_grid_min(None, resolution=(60, 120, 30), batch_objective=obj)
    assert oracle_val < at_mean - 1e-6


def test_notbary_neighborhood_instance():
    # smoothed pair around (|0><0|, |+><+|): barycentric values exceed
    # D_{alpha,z} for z in {1, alpha}
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    eps = 1e-3
    rho = rho0 + eps * np.eye(2)
    sig = plus + eps * np.eye(2)
    for a in (0.3, 0.5, 0.7):
        vb = barycentric_renyi(a, UM, rho, sig)
        assert math.isfinite(vb)
        for z in (1.0, a):
            assert vb > renyi_alpha_z(a, z, rho, sig) + 1e-6


def test_products_are_subadditive_below_alpha_one():
    # for alpha in (0, 1) and probability weights, product centers are
    # feasible and every generator is additive, so
    # D^b(rho1 x rho2 || sigma1 x sigma2) <= D^b(rho1 || sigma1) + D^b(rho2 || sigma2)
    def value(alpha, kinds, rho, sig):
        res = barycentric_renyi_full(alpha, kinds, rho, sig)
        assert res["converged"]
        return res["value"]

    rng = np.random.default_rng(20)
    # two copies of three pairs at alpha = 0.5 (defects -9.7e-5, -8.9e-4, -6.0e-3)
    cases = [(0.5, (Umegaki(), BelavkinStaszewski()), pair, pair)
             for pair in (noncommuting_qubits(rng) for _ in range(3))]
    # mixed products of independent pairs
    geom = GeomWeighted(Umegaki(), 0.5)
    kind_pairs = ((Umegaki(), BelavkinStaszewski()), BS, (BelavkinStaszewski(), Umegaki()),
                  (geom, geom))
    for _ in range(5):
        p1, p2 = noncommuting_qubits(rng), noncommuting_qubits(rng)
        cases += [(a, kinds, p1, p2) for kinds in kind_pairs for a in (0.3, 0.7)]
    for a, kinds, (r1, s1), (r2, s2) in cases:
        product = value(a, kinds, tensor(r1, r2), tensor(s1, s2))
        assert product <= value(a, kinds, r1, s1) + value(a, kinds, r2, s2) + 1e-7


def test_geom_kind_barycentric_between_um_and_bs():
    rng = np.random.default_rng(21)
    rho, sig = noncommuting_qubits(rng)
    g = (GeomWeighted(Umegaki(), 0.5), GeomWeighted(Umegaki(), 0.5))
    a = 0.5
    v_g = barycentric_renyi(a, g, rho, sig)
    assert barycentric_renyi(a, UM, rho, sig) - 1e-7 <= v_g
    assert v_g <= barycentric_renyi(a, BS, rho, sig) + 1e-7


def test_mixture_kind_between_components():
    rng = np.random.default_rng(22)
    rho, sig = noncommuting_qubits(rng)
    mix = Mixture(((0.5, Umegaki()), (0.5, BelavkinStaszewski())))
    a = 0.5
    v = barycentric_renyi(a, (mix, mix), rho, sig)
    assert barycentric_renyi(a, UM, rho, sig) - 1e-7 <= v
    assert v <= barycentric_renyi(a, BS, rho, sig) + 1e-7


def test_alpha_inf_all_umegaki_closed_form():
    # sup of D^Um(w||sigma) - D^Um(w||rho) over states is the top
    # eigenvalue of log rho - log sigma, attained on the boundary; the
    # solver approaches it and reports non-convergence honestly
    from qrdiv.hermitian import spectral_decompose, spectrum

    rng = np.random.default_rng(23)
    rho, sig = noncommuting_qubits(rng)
    res = barycentric_renyi_full(INF, UM, rho, sig, SolverOptions(use_closed_form=False))
    w, _ = spectral_decompose(spectrum(rho).log() - spectrum(sig).log())
    assert abs(res["value"] - w[0]) < 1e-4
    assert res["value"] <= w[0] + 1e-12
    assert not res["converged"]  # supremum sits on the state-space boundary
    # the default path returns the top eigenvalue itself, at a pure center
    res = barycentric_renyi_full(INF, UM, rho, sig)
    assert abs(res["value"] - w[0]) < 1e-10
    assert res["converged"] and res["iterations"] == 0 and res["gap"] == 0.0


def _inf_pair(d, case, rng):
    """(rho, sigma) at dimension d: both full rank, or a rank-deficient rho
    inside a rank-deficient ran(sigma), each also scaled to (2 rho, 3 sigma)."""
    k = d if case.startswith("full") else max(2, d - 1)
    v = sample_unitary(d, rng)[:, :k]
    sig = v @ sample_state(k, k, rng) @ v.conj().T
    rho = v @ sample_state(k, k if case.startswith("full") else k // 2, rng) @ v.conj().T
    if case.endswith("scaled"):
        return 2 * rho, 3 * sig
    return rho, sig


@pytest.mark.parametrize("case", ["full", "full-scaled", "deficient", "deficient-scaled"])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_alpha_inf_closed_form_equal_generators(d, case):
    # um,um: sup_omega Tr omega (log rho - log sigma); bs,bs: D_max(rho || sigma).
    # Both are attained at the returned pure center.
    from qrdiv.renyi import max_relative_entropy

    rng = np.random.default_rng(100 * d + len(case))
    rho, sig = _inf_pair(d, case, rng)
    solver = SolverOptions(use_closed_form=False, restarts=0, iters=100)
    objectives = {
        "um": lambda c: umegaki(c, sig) - umegaki(c, rho),
        "bs": lambda c: bs_rel_entropy(c, sig) - bs_rel_entropy(c, rho),
    }
    vals = {}
    for name, kinds in (("um", UM), ("bs", BS)):
        res = barycentric_renyi_full(INF, kinds, rho, sig)
        assert res["converged"] and res["iterations"] == 0 and res["gap"] == 0.0
        c = res["center"]
        assert abs(np.trace(c).real - 1.0) < 1e-12
        assert np.linalg.matrix_rank(c, tol=1e-10) == 1
        obj = objectives[name]
        assert abs(res["value"] - obj(c)) < 1e-10
        assert res["value"] >= barycentric_renyi(INF, kinds, rho, sig, solver) - 1e-12
        # mixed states in ran(rho), where the objective is finite
        b = spectrum(rho).basis
        for _ in range(10):
            omega = b @ sample_state(b.shape[1], b.shape[1], rng) @ b.conj().T
            assert obj(omega) <= res["value"] + 1e-10
        vals[name] = res["value"]
    assert abs(vals["bs"] - max_relative_entropy(rho, sig)) < 1e-12
    assert vals["um"] <= vals["bs"] + 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.5, INF])
def test_rho_below_support_cutoff(alpha):
    # an empty meet: log Q_alpha = -inf, so the value is -inf above alpha = 1
    # and +inf below it, on the barycentric and the (alpha, inf) paths alike
    rho, sig = 1e-12 * np.eye(2, dtype=complex), np.eye(2, dtype=complex) / 2
    want = -INF if alpha > 1 else INF
    for kinds in (UM, BS, (Umegaki(), BelavkinStaszewski()), (BelavkinStaszewski(), Umegaki())):
        assert barycentric_renyi(alpha, kinds, rho, sig) == want
    assert renyi_alpha_z(alpha, INF, rho, sig) == want


UM_BS = (Umegaki(), BelavkinStaszewski())
UM_MIX = (Umegaki(), Mixture(((0.5, BelavkinStaszewski()), (0.5, Umegaki()))))


@pytest.mark.parametrize("case", ["full", "full-scaled", "deficient", "deficient-scaled"])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_alpha_inf_um_first_dual(d, case):
    # q0 = um, q1 = t bs + (1 - t) um: the sup is attained at a pure state and
    # the 1-D dual brackets it within the returned gap
    from qrdiv.renyi import max_relative_entropy

    rng = np.random.default_rng(300 * d + len(case))
    rho, sig = _inf_pair(d, case, rng)
    b = spectrum(rho).basis
    omegas = [b @ sample_state(b.shape[1], b.shape[1], rng) @ b.conj().T for _ in range(10)]
    solver = SolverOptions(use_closed_form=False, restarts=0, iters=100)
    vals = {}
    for name, kinds, t in (("um,bs", UM_BS, 1.0), ("um,mix", UM_MIX, 0.5)):

        def obj(c):
            return (t * bs_rel_entropy(c, sig) + (1 - t) * umegaki(c, sig)
                    - umegaki(c, rho))

        for tol in (1e-8, 1e-12):
            res = barycentric_renyi_full(INF, kinds, rho, sig, SolverOptions(tol=tol))
            assert 0.0 <= res["gap"] <= tol and res["converged"]
            assert 0 < res["iterations"] < 64
            c = res["center"]
            assert abs(np.trace(c).real - 1.0) < 1e-12
            assert np.linalg.matrix_rank(c, tol=1e-10) == 1
            assert abs(res["value"] - obj(c)) < 1e-10
            # the lemma: no mixed state in ran(rho) beats the pure center
            for omega in omegas:
                assert obj(omega) <= res["value"] + 1e-10
        assert res["value"] >= barycentric_renyi(INF, kinds, rho, sig, solver) - 1e-12
        vals[name] = res["value"]
    assert vals["um,bs"] >= max_relative_entropy(rho, sig) - 1e-12
    um_um = barycentric_renyi(INF, UM, rho, sig)
    assert um_um - 1e-12 <= vals["um,mix"] <= vals["um,bs"] + 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_alpha_inf_dual_newton_steps(d):
    # safeguarded Newton steps from phi' and phi'' of the same eigh: at
    # most 7 steps at tol = 1e-8 (3 to 5 here), where bisecting log s took 9
    # to 15. The qubit pairs are the six non-commuting pairs of the
    # bary-qubit benchmark family (seed 20220728, commutator entries above
    # 0.1)
    if d == 2:
        rng = np.random.default_rng(20220728)
        pairs = [noncommuting_qubits(rng, floor=0.1) for _ in range(6)]
    else:
        rng = np.random.default_rng(700 + d)
        pairs = [(sample_state(d, d, rng), sample_state(d, d, rng)) for _ in range(3)]
    for rho, sig in pairs:
        for kinds in (UM_BS, UM_MIX):
            res = barycentric_renyi_full(INF, kinds, rho, sig, SolverOptions(tol=1e-8))
            assert 0.0 <= res["gap"] <= 1e-8 and res["converged"]
            assert 0 < res["iterations"] <= 7


@pytest.mark.parametrize("case", ["full", "full-scaled", "deficient", "deficient-scaled"])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_alpha_inf_orderings(d, case):
    # U <= BS pointwise gives um,um <= um,bs and bs,bs <= um,bs; the
    # log-Euclidean limit is at most D_max, so um,um <= bs,bs
    rho, sig = _inf_pair(d, case, np.random.default_rng(400 * d + len(case)))
    um_um, um_bs, bs_bs = (barycentric_renyi(INF, k, rho, sig) for k in (UM, UM_BS, BS))
    assert um_um <= um_bs + 1e-12
    assert bs_bs <= um_bs + 1e-12
    assert um_um <= bs_bs + 1e-12


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_alpha_inf_um_bs_matches_bloch_grid(seed):
    # the grid maximizes BS(w||sigma) - U(w||rho) over the Bloch ball; value
    # + gap bounds the supremum, so the grid may not exceed it
    rho, sig = noncommuting_qubits(np.random.default_rng(seed))
    res = barycentric_renyi_full(INF, UM_BS, rho, sig)
    neg = make_batch_objective([(1.0, batch_umegaki_term(rho)), (-1.0, batch_bs_term(sig))])
    _, oracle_val = bloch_grid_min(None, resolution=(60, 120, 30), batch_objective=neg)
    assert -oracle_val <= res["value"] + res["gap"] + 1e-10
    assert res["value"] + oracle_val < 1e-5


def test_alpha_inf_um_bs_commuting_degenerate_top():
    # rho = sigma = diag(l): the objective over pure psi is
    # log sum_i p_i / l_i + sum_i p_i log l_i with p_i = |psi_i|^2, maximal
    # at a superposition, where the dual's top eigenvalue is degenerate
    lam = np.array([0.9, 0.1])
    p = np.linspace(0.0, 1.0, 1_000_001)
    exact = np.max(np.log(p / lam[0] + (1 - p) / lam[1]) + p * np.log(lam[0])
                   + (1 - p) * np.log(lam[1]))
    rho = np.diag(lam).astype(complex)
    u = sample_unitary(2, 3)
    for r in (rho, u @ rho @ u.conj().T):
        res = barycentric_renyi_full(INF, UM_BS, r, r, SolverOptions(tol=1e-12))
        assert 0.0 <= res["gap"] <= 1e-12 and res["converged"]
        assert abs(res["value"] - exact) < 1e-10


def test_alpha_inf_um_um_unchanged_through_dual():
    # t = 0 of the dual is the top eigenvalue of B*(log rho - log sigma)B,
    # computed with the same arithmetic as before the dual existed
    from qrdiv.hermitian import support_meet
    from qrdiv.renyi import _log_euclidean_h

    for d, case in ((2, "full"), (3, "deficient"), (4, "full-scaled"), (8, "deficient-scaled")):
        rho, sig = _inf_pair(d, case, np.random.default_rng(500 + d))
        b = support_meet(spectrum(rho), spectrum(sig))
        h = _log_euclidean_h((1.0, -1.0), (rho, sig), b)
        top = float(np.linalg.eigh((h + h.conj().T) / 2)[0][-1])
        res = barycentric_renyi_full(INF, UM, rho, sig)
        assert res["value"] == top == renyi_alpha_z(INF, INF, rho, sig)
        assert res["gap"] == 0.0 and res["iterations"] == 0 and res["converged"]


def test_measured_kind_barycentric_generic_path():
    # measured terms evaluate on the full space and step along Danskin
    # gradients at the ascent's best basis; values pinned from central
    # finite differences on the H coordinates, full rank (a) and on a
    # proper support meet (b)
    meas = MeasuredProjective(2, 200)
    um, bs = Umegaki(), BelavkinStaszewski()
    cases = [
        ((3, 3, 3), (3, 3, 4), 300, [((meas, bs), 0.7666907910), ((um, meas), 0.7091368526),
                                     ((meas, meas), 0.6798518634)]),
        ((3, 2, 4), (3, 3, 5), 200, [((meas, bs), 1.6213651954), ((um, meas), 1.2316584620),
                                     ((meas, meas), 1.2308053739),
                                     ((um, GeomWeighted(meas, 0.5)), 1.6203113804)]),
    ]
    for r, s, iters, pins in cases:
        rho, sig = sample_state(*r), sample_state(*s)
        opts = SolverOptions(restarts=0, iters=iters)
        for kinds, pin in pins:
            assert abs(barycentric_renyi(0.5, kinds, rho, sig, opts) - pin) < 1e-8


def test_center_solver_decomposes_each_iterate_once(eigh_calls):
    rng = np.random.default_rng(5)
    rho, sig = sample_state(4, 4, rng), sample_state(4, 4, rng)
    # one eigh of H per line-search candidate (which also gives log omega)
    # and one per bs decomposition, shared by that term's value and
    # gradient, plus the setup (62 and 32 calls)
    for kinds, iters, bound in ((BS, 16, 62), ((Umegaki(), BelavkinStaszewski()), 13, 32)):
        eigh_calls.clear()
        res = barycentric_renyi_full(0.5, kinds, rho, sig, SolverOptions(restarts=0))
        assert res["iterations"] == iters and res["converged"]
        assert 0 < len(eigh_calls) <= bound


@pytest.mark.parametrize("d", [2, 4, 16])
def test_solver_iteration_budget(d):
    # convex solves with the Barzilai-Borwein trial step: each converges
    # within its pinned count; um,um (solved, from one random start) meets
    # the log-Euclidean closed form and the qubit radii the Bloch-ball grid.
    # The unit first step is um,um's exact mirror step, so it converges in 2
    # iterations
    rho, sig = sample_state(d, d, 1), sample_state(d, d, 2)
    budget = {2: (6, 4, 2), 4: (36, 11, 2), 16: (66, 36, 2)}[d]
    um, bs = Umegaki(), BelavkinStaszewski()
    cases = [(0.75, (bs, bs), SolverOptions(restarts=0)),
             (0.5, (um, bs), SolverOptions(restarts=0)),
             (0.5, (um, um), SolverOptions(restarts=1, warm_start=False, use_closed_form=False))]
    for (a, kinds, opts), iters in zip(cases, budget):
        res = barycentric_renyi_full(a, kinds, rho, sig, opts)
        assert res["converged"] and res["iterations"] == iters, (kinds, res["iterations"])
        if kinds == (um, um):
            assert abs(res["value"] - renyi_alpha_z(a, INF, rho, sig)) < 1e-9
        elif d == 2:
            terms = [(w, (batch_umegaki_term if k == um else batch_bs_term)(op))
                     for w, k, op in ((a, kinds[0], rho), (1 - a, kinds[1], sig))]
            _, oracle_val = bloch_grid_min(
                None, resolution=(60, 120, 30), batch_objective=make_batch_objective(terms))
            assert abs((1 - a) * res["value"] - oracle_val) < 2e-4


@pytest.mark.parametrize("rank, kinds, seed, alpha, bb_iters, iters, value", [
    (2, BS, 8, 3.0, 15, 45, 3.7992354053344997),
    (2, (Umegaki(), BelavkinStaszewski()), 147, 2.0, 4, 15, 3.6412660835965798)],
    ids=["bs,bs@3", "um,bs@2"])
def test_unconverged_bb_run_is_redone_with_doubling_steps(rank, kinds, seed, alpha, bb_iters,
                                                          iters, value):
    # the Barzilai-Borwein run stops unconverged after 15 and 4 iterations,
    # where no step lowers the value; the doubling trial step alone
    # converges from the same start in 30 and 11 more. Capped at the BB
    # run's iterations, no rerun is left and the stopped run is returned: in
    # the second its objective is 4.4e-5 higher, and the converged run is kept
    rho, sig = sample_state(3, rank, seed), sample_state(3, 3, seed + 100)
    res = barycentric_renyi_full(alpha, kinds, rho, sig, SolverOptions(restarts=0))
    assert res["converged"] and res["iterations"] == iters
    assert abs(res["value"] - value) < 1e-10
    stopped = barycentric_renyi_full(alpha, kinds, rho, sig,
                                     SolverOptions(restarts=0, iters=bb_iters))
    assert not stopped["converged"] and stopped["iterations"] == bb_iters
    assert stopped["value"] <= res["value"] + 1e-12


def test_the_doubling_rerun_starts_from_the_first_runs_start(monkeypatch, lapack):
    # the bs,bs@3 pair above: the rerun takes the first run's start iterate
    # and value, so the start H is decomposed once (twice when the rerun
    # rebuilt it)
    import qrdiv.barycentric as bary

    hs, sym = [], []
    iterate, eigh_lo = bary._Iterate, lapack.eigh_lo

    class Recording(iterate):
        def __init__(self, h):
            hs.append(h)
            super().__init__(h)

    def recording_eigh(m):
        sym.append(m.tobytes())
        return eigh_lo(m)

    monkeypatch.setattr(bary, "_Iterate", Recording)
    lapack.eigh_lo = recording_eigh
    rho, sig = sample_state(3, 2, 8), sample_state(3, 3, 108)
    res = barycentric_renyi_full(3.0, BS, rho, sig, SolverOptions(restarts=0))
    assert res["converged"] and res["iterations"] == 45  # 15 BB, 30 doubling
    start = (hs[0] + hs[0].conj().T) / 2
    assert sum(b == start.tobytes() for b in sym) == 1
    assert sum(h.tobytes() == hs[0].tobytes() for h in hs) == 1


def _window_pairs(count):
    for i in range(count):
        d = 2 + i % 3
        rng = np.random.default_rng(300 + i)
        yield sample_state(d, d, rng), sample_state(d, d, rng)


_WINDOW_KINDS = {"um,bs": (Umegaki(), BelavkinStaszewski()), "bs,bs": BS,
                 "geom,geom": (GeomWeighted(Umegaki(), 0.5),) * 2}


@pytest.mark.parametrize("label", list(_WINDOW_KINDS))
def test_nonmonotone_window_keeps_convex_values(monkeypatch, label):
    # the window of 10 accepted values and the monotone rule (window 1)
    # converge to one value within 1e-9. This holds for geom runs too, as
    # they take mirror descent: in H coordinates the stop test left a geom
    # run up to 3.4e-9 above the optimum
    import qrdiv.barycentric as bary

    for rho, sig in _window_pairs(12):
        for a in (0.25, 0.5, 0.75):
            runs = []
            for window in (10, 1):
                monkeypatch.setattr(bary, "_NM_WINDOW", window)
                runs.append(barycentric_renyi_full(a, _WINDOW_KINDS[label], rho, sig,
                                                   SolverOptions(restarts=0)))
            assert runs[0]["converged"] and runs[1]["converged"]
            assert abs(runs[0]["value"] - runs[1]["value"]) < 1e-9


def test_windowed_rise_does_not_end_a_run(monkeypatch):
    # on this pair the window accepts a step that raises the value where the
    # direction norm is below 1e-5; counted as a small decrease it ended the
    # run 4.3e-9 above the optimum, where the monotone run stops 5e-11 above
    import qrdiv.barycentric as bary

    rho, sig = list(_window_pairs(6))[5]
    runs = []
    for window in (10, 1):
        monkeypatch.setattr(bary, "_NM_WINDOW", window)
        runs.append(barycentric_renyi_full(0.75, _WINDOW_KINDS["geom,geom"], rho, sig,
                                           SolverOptions(restarts=0)))
    assert runs[0]["converged"] and runs[1]["converged"]
    assert abs(runs[0]["value"] - runs[1]["value"]) < 1e-9


@pytest.mark.parametrize("label", list(_WINDOW_KINDS))
def test_negative_weight_solves_ignore_the_window(monkeypatch, label):
    # above alpha = 1 the second weight is negative: the monotone rule runs
    # whatever the window, iteration for iteration
    import qrdiv.barycentric as bary

    for rho, sig in _window_pairs(4):
        for a in (1.5, 2.0):
            runs = []
            for window in (10, 1):
                monkeypatch.setattr(bary, "_NM_WINDOW", window)
                res = barycentric_renyi_full(a, _WINDOW_KINDS[label], rho, sig,
                                             SolverOptions(restarts=0))
                runs.append((res["value"], res["iterations"], res["converged"]))
            assert runs[0] == runs[1]


def test_nonmonotone_window_eigh_count(eigh_calls):
    # a d = 16 full-rank um,bs solve from the warm start and 4 restarts, at
    # its eigh count under the window (the monotone rule took 500 where the
    # window took 384)
    rho, sig = sample_state(16, 16, 1), sample_state(16, 16, 2)
    eigh_calls.clear()
    res = barycentric_renyi_full(0.5, (Umegaki(), BelavkinStaszewski()), rho, sig)
    assert res["converged"]
    assert 0 < len(eigh_calls) <= 400


def test_solver_needs_a_start():
    # no warm start and no restarts leaves the solver nothing to descend from
    rho, sig = sample_state(2, 2, 7), sample_state(2, 2, 8)
    with pytest.raises(BadParameter):
        barycentric_renyi_full(0.5, BS, rho, sig, SolverOptions(restarts=0, warm_start=False))


@pytest.mark.parametrize("options", [
    dict(iters=2.5), dict(restarts=1.5), dict(seed=0.5), dict(iters="10"),
    dict(iters=-3), dict(restarts=-2), dict(seed=-1),
    dict(tol=-1.0), dict(tol=0.0), dict(tol=float("nan")), dict(tol=INF), dict(tol="1e-8"),
    dict(tol=True),
    dict(restarts=0, warm_start=False)],
    ids=lambda o: ",".join(f"{k}={v!r}" for k, v in o.items()))
def test_solver_options_validated_at_construction(options):
    # counts whole and >= 0 (the measured kind's rule), tol finite and > 0,
    # and at least one start: each fails when the options are built
    with pytest.raises(BadParameter):
        SolverOptions(**options)


def test_solver_options_keep_legal_values():
    opts = SolverOptions(iters=np.int64(0), restarts=0, seed=np.int64(3), tol=1e-300)
    assert (opts.iters, opts.restarts, opts.seed) == (0, 0, 3)
    assert all(type(n) is int for n in (opts.iters, opts.restarts, opts.seed))


def test_solver_options_tol_takes_any_real():
    # a finite positive real of any numeric type is a tol, stored as a float
    for tol in (np.float32(1e-6), np.float64(1e-8), np.int64(1), 2, 1e-300):
        opts = SolverOptions(tol=tol)
        assert type(opts.tol) is float and opts.tol == float(tol)


def _trial_counts(monkeypatch):
    """Spy on the solver's iterates: returns a function listing, for each
    iteration of the solves run since, how many trial iterates its line
    search built. An iteration starts where the terms' gradients are taken;
    a start (whose H is the first start's, on a rerun) is no trial."""
    import qrdiv.barycentric as bary

    events = []

    class Spy(bary._Iterate):
        def __init__(self, h):
            super().__init__(h)
            events.append(self)

    grad = bary._Term.grad_omega
    monkeypatch.setattr(bary, "_Iterate", Spy)
    monkeypatch.setattr(bary._Term, "grad_omega",
                        lambda self, pt: events.append(None) or grad(self, pt))

    def counts():
        out, in_grad = [], False
        for e in events:
            if e is None and not in_grad:
                out.append(0)
            elif e is not None and out and not np.array_equal(e.h, events[0].h):
                out[-1] += 1
            in_grad = e is None
        return out

    return counts


@pytest.mark.parametrize("d", [2, 3, 4])
def test_start_trace_does_not_move_the_solve(monkeypatch, d):
    # omega = exp(H)/Tr exp(H) does not see the trace of H, and the solver
    # puts every start at trace zero: a random start H and H + 3.7 I give
    # the same run
    import qrdiv.barycentric as bary

    rho, sig = sample_state(d, d, 1), sample_state(d, d, 2)
    h = sample_hermitian(d, np.random.default_rng(9))
    um, bs, geom = Umegaki(), BelavkinStaszewski(), GeomWeighted(Umegaki(), 0.5)
    for a, kinds in ((0.5, (um, bs)), (0.75, (bs, bs)), (0.5, (geom, geom))):
        runs = []
        for shift in (0.0, 3.7):
            monkeypatch.setattr(bary, "sample_hermitian",
                                lambda m, rng, shift=shift: h + shift * np.eye(m))
            runs.append(barycentric_renyi_full(a, kinds, rho, sig,
                                               SolverOptions(restarts=1, warm_start=False)))
        assert runs[0]["converged"] and runs[1]["converged"]
        assert runs[0]["iterations"] == runs[1]["iterations"], kinds
        assert abs(runs[0]["value"] - runs[1]["value"]) < 1e-13


def test_line_search_stops_after_20_halvings(monkeypatch):
    # a qubit bs,bs solve at alpha = 1.5 on which line searches fail: none
    # scores more than 20 trials (45 under the former cap of 60 halvings)
    counts = _trial_counts(monkeypatch)
    rho, sig = sample_state(2, 2, 25), sample_state(2, 2, 125)
    res = barycentric_renyi_full(1.5, BS, rho, sig, SolverOptions(restarts=0))
    assert not res["converged"]
    assert max(counts()) == 20


def test_warm_start_second_iteration_takes_the_bb_step(monkeypatch):
    # the warm start at trace zero: the first Barzilai-Borwein step, on the
    # second iteration, is accepted as it stands (it was halved four times
    # when the start's trace entered <s,s>)
    counts = _trial_counts(monkeypatch)
    rng = np.random.default_rng(5)
    rho, sig = sample_state(4, 4, rng), sample_state(4, 4, rng)
    res = barycentric_renyi_full(0.5, (Umegaki(), BelavkinStaszewski()), rho, sig,
                                 SolverOptions(restarts=0))
    assert res["converged"]
    assert counts()[1] == 1


def _divided_diff_loop(w, f, fprime):
    from qrdiv.hermitian import CLUSTER_RTOL

    tol = CLUSTER_RTOL * max(1.0, float(np.max(np.abs(w))))
    fw = f(w)
    out = np.empty((len(w), len(w)))
    for i in range(len(w)):
        for j in range(len(w)):
            if abs(w[i] - w[j]) > tol:
                out[i, j] = (fw[i] - fw[j]) / (w[i] - w[j])
            else:
                out[i, j] = fprime(0.5 * (w[i] + w[j]))
    return out


@pytest.mark.parametrize("m", [1, 2, 8, 32])
def test_divided_diff_matches_scalar_definition(m):
    from qrdiv.barycentric import _divided_diff

    rng = np.random.default_rng(m)
    w = np.sort(rng.uniform(0.05, 3.0, size=m))
    if m > 1:
        w[1] = w[0] * (1.0 + 1e-10)  # inside CLUSTER_RTOL: derivative branch
    for f, fprime in (
        (lambda x: x * np.log(x), lambda x: np.log(x) + 1.0),
        (np.exp, np.exp),
    ):
        assert np.array_equal(_divided_diff(w, f, fprime), _divided_diff_loop(w, f, fprime))


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_alpha_inf_reads_generators(d, gamma):
    # geom over BS is BS, so um,geom:bs takes um,bs's 1-D dual and
    # geom:bs,geom:bs is D_max; both had run the solver to its cap
    from qrdiv.renyi import max_relative_entropy

    rho, sig = sample_state(d, d, 1), sample_state(d, d, 2)
    gbs = GeomWeighted(BelavkinStaszewski(), gamma)
    res = barycentric_renyi_full(INF, (Umegaki(), gbs), rho, sig)
    ref = barycentric_renyi_full(INF, UM_BS, rho, sig)
    assert res["converged"] and ref["converged"]
    assert (res["value"], res["gap"]) == (ref["value"], ref["gap"])
    assert np.array_equal(res["center"], ref["center"])
    res = barycentric_renyi_full(INF, (gbs, GeomWeighted(BelavkinStaszewski(), 0.6)), rho, sig)
    assert res["value"] == max_relative_entropy(rho, sig)
    assert res["converged"] and res["iterations"] == 0


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_umegaki_mixture_takes_closed_form(alpha):
    # a mixture of um generators is all Umegaki: no solver iteration
    rho, sig = sample_state(3, 3, 1), sample_state(3, 3, 2)
    mix = Mixture(((0.5, Umegaki()), (0.5, Umegaki())))
    res = barycentric_renyi_full(alpha, (mix, Umegaki()), rho, sig)
    assert res["iterations"] == 0 and res["converged"]
    assert abs(res["value"] - barycentric_renyi(alpha, UM, rho, sig)) < 1e-12


def test_um_gradient_exact_at_near_pure_iterate():
    # log omega = H - log Tr exp(H) exactly, also where omega's eigenvalues
    # (down to e^-40) sit below the rounding of an eigh of omega
    from qrdiv.barycentric import _Iterate, _Term

    rng = np.random.default_rng(40)
    d = 4
    w_op = sample_state(d, d, rng)
    term = _Term(1.0, Umegaki(), w_op, np.eye(d, dtype=complex))
    v = sample_unitary(d, rng)
    h = v @ np.diag([0.0, 12.0, 25.0, 40.0]) @ v.conj().T
    diff = term.grad_omega(_Iterate(h)) - (h - term.logw)
    diff = diff - (np.trace(diff) / d) * np.eye(d)
    assert np.max(np.abs(diff)) < 1e-9
