import math

import numpy as np
import pytest

from qrdiv.classical import (
    ONE_POSITIVE_SIGNED,
    OTHER,
    PROBABILITY,
    WeightMeasure,
    WeightedFamily,
    classical_q_alpha,
    classical_rel_entropy,
    classical_renyi,
    classify_weights,
    hellinger_arc_point,
    multivariate_q,
)
from qrdiv.errors import (
    AmbiguousDefinition,
    BadParameter,
    DisjointSupports,
    LengthMismatch,
)

INF = float("inf")


def test_rel_entropy_basics():
    assert classical_rel_entropy([0.5, 0.5], [0.5, 0.5]) == 0.0
    v = classical_rel_entropy([0.5, 0.5], [0.25, 0.75])
    assert abs(v - 0.5 * math.log(4.0 / 3.0)) < 1e-12
    assert classical_rel_entropy([1, 0], [0, 1]) == INF
    assert classical_rel_entropy([0, 0], [1, 0]) == 0.0
    assert classical_rel_entropy([1, 0], [0, 0]) == INF
    with pytest.raises(LengthMismatch):
        classical_rel_entropy([1, 0], [1, 0, 0])


def test_renyi_values():
    v = classical_renyi(2, [0.5, 0.5], [0.125, 0.875])
    assert abs(v - math.log(0.25 / 0.125 + 0.25 / 0.875)) < 1e-12
    assert abs(v - 0.826679) < 1e-5
    assert classical_renyi(0, [0.5, 0.5], [0.3, 0.7]) == 0.0
    assert abs(classical_renyi(INF, [0.5, 0.5], [0.25, 0.75]) - math.log(2)) < 1e-12
    # alpha = 1 is normalized relative entropy
    p, q = [0.4, 0.8], [0.3, 0.9]
    assert abs(classical_renyi(1, p, q) - classical_rel_entropy(p, q) / 1.2) < 1e-12


def test_renyi_support_rules():
    # alpha in (0,1): finite iff overlapping supports
    assert classical_renyi(0.5, [1, 0], [0, 1]) == INF
    assert math.isfinite(classical_renyi(0.5, [1, 0], [0.5, 0.5]))
    # alpha > 1: +inf iff supp p not inside supp q
    assert classical_renyi(2, [0.5, 0.5], [1, 0]) == INF
    assert classical_renyi(2, [1, 0], [0.5, 0.5]) < INF
    # alpha = inf: +inf iff supp p not inside supp q; alpha = 0: +inf iff
    # q vanishes on supp p
    assert classical_renyi(INF, [0.5, 0.5], [1, 0]) == INF
    assert classical_renyi(0, [1, 0], [0, 1]) == INF
    assert abs(classical_renyi(0, [1, 0], [0.5, 0.5]) - math.log(2)) < 1e-15
    # zero second argument
    assert classical_renyi(0.5, [1, 0], [0, 0]) == INF


def test_renyi_alpha_monotone():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.random(4) + 0.01
        q = rng.random(4) + 0.01
        p, q = p / p.sum(), q / q.sum()
        grid = [0.1, 0.3, 0.5, 0.9, 1.0, 1.3, 2.0, 4.0]
        vals = [classical_renyi(a, p, q) for a in grid]
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))


def test_renyi_dpi_under_stochastic_maps():
    rng = np.random.default_rng(1)
    for _ in range(30):
        p = rng.random(4)
        q = rng.random(4)
        t = rng.random((4, 3))
        t = t / t.sum(axis=1, keepdims=True)  # row-stochastic
        for a in (0.3, 0.8, 1.0, 2.0, INF):
            before = classical_renyi(a, p, q)
            after = classical_renyi(a, p @ t, q @ t)
            assert after <= before + 1e-10


@pytest.mark.parametrize("call, error", [
    (lambda: classical_renyi(0.5, [1.0, 0.0], [0.5, 0.5, 0.0]), LengthMismatch),
    (lambda: classical_renyi(0.5, [1.0, -0.5], [0.5, 0.5]), BadParameter),
    (lambda: classical_q_alpha(1.0, [0.5, 0.5], [0.5, 0.5]), BadParameter),
    (lambda: classical_q_alpha(0.0, [0.5, 0.5], [0.5, 0.5]), BadParameter),
    (lambda: classical_renyi(-0.5, [0.5, 0.5], [0.5, 0.5]), BadParameter),
    (lambda: classical_renyi(0.5, [0.0, 0.0], [0.5, 0.5]), BadParameter),
    (lambda: WeightMeasure(("a", "b"), (1.0,)), LengthMismatch),
    (lambda: WeightedFamily(("a", "b"), (0.5, 0.5), [[1.0, 0.0]]), LengthMismatch),
    (lambda: WeightedFamily(("a",), (1.0,), [[1.0, -0.5]]), BadParameter),
    (lambda: WeightedFamily(("a", "b"), (1.0,), [[1.0], [0.5]]), LengthMismatch),
], ids=["length", "sign", "q_alpha at 1", "q_alpha at 0", "renyi alpha < 0", "renyi zero p",
        "measure length", "family rows", "family sign", "family weights"])
def test_bad_input_fails_at_the_boundary(call, error):
    with pytest.raises(error):
        call()


def test_classify_weights():
    assert classify_weights([0.3, 0.7]) == PROBABILITY
    assert classify_weights([1.5, -0.5]) == ONE_POSITIVE_SIGNED
    assert classify_weights([1.2, 0.3, -0.5]) == OTHER
    with pytest.raises(BadParameter):
        classify_weights([0.3, 0.3])
    assert WeightMeasure(("a", "b"), (0.4, 0.6)).kind_class == PROBABILITY


def test_multivariate_q_two_labels_matches_q_alpha():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w0 = rng.random(4)
        w1 = rng.random(4)
        a = rng.uniform(0.1, 0.9)
        fam = WeightedFamily(("0", "1"), (a, 1 - a), np.array([w0, w1]))
        assert abs(multivariate_q(fam) - classical_q_alpha(a, w0, w1)) < 1e-12


def test_multivariate_q_equal_vectors_give_one():
    w = np.array([0.2, 0.3, 0.5])
    fam = WeightedFamily(("x", "y"), (0.25, 0.75), np.array([w, w]))
    assert abs(multivariate_q(fam) - 1.0) < 1e-12


def test_multivariate_q_three_labels_direct_formula():
    rng = np.random.default_rng(3)
    w = rng.random((3, 5)) + 0.1
    fam = WeightedFamily(("a", "b", "c"), (1 / 3, 1 / 3, 1 / 3), w)
    direct = float(np.sum(np.exp(np.mean(np.log(w), axis=0))))
    assert abs(multivariate_q(fam) - direct) < 1e-12


def test_multivariate_q_zero_pattern_gate():
    # positive weight on a zero entry kills the index; negative weight blows up
    w = np.array([[0.0, 1.0], [1.0, 1.0]])
    fam = WeightedFamily(("a", "b"), (0.5, 0.5), w)
    assert abs(multivariate_q(fam) - 1.0) < 1e-12
    fam = WeightedFamily(("a", "b"), (2.0, -1.0), np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert multivariate_q(fam) == INF


def test_multivariate_q_ambiguous_class_rejected():
    w = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    fam = WeightedFamily(("a", "b", "c"), (0.8, 0.8, -0.6), w)
    with pytest.raises(AmbiguousDefinition):
        multivariate_q(fam)
    # same class but equal supports is fine
    w2 = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, 1.0]])
    fam2 = WeightedFamily(("a", "b", "c"), (0.8, 0.8, -0.6), w2)
    assert math.isfinite(multivariate_q(fam2))


def test_multivariate_q_smoothing_identity():
    # Q_P(w + eps) -> Q_P(w); at eps = 1e-7 the gap is below 1e-6 whenever
    # the zero pattern carries full unit weight (convergence rate eps^mass)
    rng = np.random.default_rng(4)
    eps = 1e-7
    for _ in range(10):
        w = rng.random((3, 4)) + 0.05
        w[:, 0] = 0.0  # shared zero column: weight mass 1, linear rate
        fam = WeightedFamily(("a", "b", "c"), (0.5, 0.25, 0.25), w)
        fam_eps = WeightedFamily(("a", "b", "c"), (0.5, 0.25, 0.25), w + eps)
        assert abs(multivariate_q(fam) - multivariate_q(fam_eps)) < 1e-6
    # partial zero patterns converge at rate eps^(positive mass on zeros):
    # the ladder limit still recovers Q_P(w)
    from qrdiv.oracles import eps_ladder_limit

    w = rng.random((3, 4)) + 0.05
    w[0, 1] = 0.0
    fam = WeightedFamily(("a", "b", "c"), (0.5, 0.25, 0.25), w)
    lad = eps_ladder_limit(
        lambda e: multivariate_q(
            WeightedFamily(("a", "b", "c"), (0.5, 0.25, 0.25), w + e)
        ),
        eps=(1e-4, 1e-6, 1e-8, 1e-10),
    )
    assert abs(lad.value - multivariate_q(fam)) < 1e-4


def test_joint_convexity_of_signed_q():
    # s(P) Q_P jointly convex in the two admissible classes; no violation
    # witness among random midpoints
    rng = np.random.default_rng(5)
    for weights, sign in (((0.3, 0.7), -1.0), ((1.4, -0.4), 1.0)):
        for _ in range(500):
            w_a = rng.random((2, 3)) + 0.05
            w_b = rng.random((2, 3)) + 0.05
            fam_a = WeightedFamily(("x", "y"), weights, w_a)
            fam_b = WeightedFamily(("x", "y"), weights, w_b)
            fam_m = WeightedFamily(("x", "y"), weights, (w_a + w_b) / 2)
            lhs = sign * multivariate_q(fam_m)
            rhs = (sign * multivariate_q(fam_a) + sign * multivariate_q(fam_b)) / 2
            assert lhs <= rhs + 1e-10


def test_hellinger_arc():
    p = np.array([0.5, 0.5])
    q = np.array([0.125, 0.875])
    np.testing.assert_allclose(hellinger_arc_point(0.5, p, p), p)
    np.testing.assert_allclose(
        hellinger_arc_point(0.4, np.array([1.0, 0.0]), np.array([0.5, 0.5])),
        [1.0, 0.0],
    )
    a = 0.3
    raw = p**a * q ** (1 - a)
    np.testing.assert_allclose(hellinger_arc_point(a, p, q), raw / raw.sum())
    with pytest.raises(DisjointSupports):
        hellinger_arc_point(0.5, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_hellinger_arc_is_variational_minimizer():
    # -log Q_alpha = min over the simplex of alpha D(w||p) + (1-alpha) D(w||q),
    # attained on the arc; checked against Dirichlet samples
    rng = np.random.default_rng(6)
    p = rng.random(3) + 0.1
    q = rng.random(3) + 0.1
    for a in (0.3, 0.6):
        target = -math.log(classical_q_alpha(a, p, q))
        arc = hellinger_arc_point(a, p, q)
        at_arc = a * classical_rel_entropy(arc, p) + (1 - a) * classical_rel_entropy(
            arc, q
        )
        assert abs(at_arc - target) < 1e-10
        best = INF
        for _ in range(4000):
            w = rng.dirichlet(np.ones(3))
            best = min(
                best,
                a * classical_rel_entropy(w, p)
                + (1 - a) * classical_rel_entropy(w, q),
            )
        assert best >= target - 1e-12
        assert best - target < 1e-4
