"""50-digit mpmath references for the closed forms on full-rank inputs
(d <= 8), for tests that measure float64 error against them.

Each function takes numpy matrices, reads them as exact binary values
(Hermitian part taken at 50 digits) and returns an ``mpmath.mpf``.
"""

import mpmath

# a context of its own, so that the precision is not set for other mpmath users
mp = mpmath.MPContext()
mp.dps = 50


def _mat(a):
    m = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in a])
    return (m + m.H) / 2


def _fn(m, f):
    """U f(Lambda) U* for Hermitian m."""
    e, q = mp.eigh(m)
    return q * mp.diag([f(x) for x in e]) * q.H


def _tr(m):
    return mp.re(sum(m[i, i] for i in range(m.rows)))


def _mean(gamma, s, r):
    """s #_gamma r = s^{1/2} (s^{-1/2} r s^{-1/2})^gamma s^{1/2}."""
    sh, shi = _fn(s, mp.sqrt), _fn(s, lambda x: 1 / mp.sqrt(x))
    return sh * _fn(shi * r * shi, lambda x: x**gamma) * sh


def _umegaki(r, s):
    return _tr(r * (_fn(r, mp.log) - _fn(s, mp.log)))


def bs(rho, sigma):
    """Tr rho log(rho^{1/2} sigma^{-1} rho^{1/2})."""
    r, s = _mat(rho), _mat(sigma)
    rh = _fn(r, mp.sqrt)
    return _tr(r * _fn(rh * _fn(s, lambda x: 1 / x) * rh, mp.log))


def geom_um(gamma, rho, sigma):
    """D^um(rho || sigma #_gamma rho) / (1 - gamma)."""
    r = _mat(rho)
    return _umegaki(r, _mean(gamma, _mat(sigma), r)) / (1 - gamma)


def q_mean(alpha, rho, sigma):
    """Tr sigma #_alpha rho."""
    return _tr(_mean(alpha, _mat(sigma), _mat(rho)))


def max_renyi(alpha, rho, sigma):
    """log(Tr sigma #_alpha rho / Tr rho) / (alpha - 1), alpha in (0, 1)."""
    return mp.log(q_mean(alpha, rho, sigma) / _tr(_mat(rho))) / (alpha - 1)


def alpha_z(alpha, z, rho, sigma):
    """log(Tr (rho^{a/2z} sigma^{(1-a)/z} rho^{a/2z})^z / Tr rho) / (a - 1)."""
    r, s = _mat(rho), _mat(sigma)
    a = _fn(r, lambda x: x ** (mp.mpf(alpha) / (2 * z)))
    m = a * _fn(s, lambda x: x ** ((1 - mp.mpf(alpha)) / z)) * a
    return mp.log(_tr(_fn(m, lambda x: x**z)) / _tr(r)) / (alpha - 1)


def dmax(rho, sigma):
    """log lambda_max(sigma^{-1/2} rho sigma^{-1/2})."""
    s = _mat(sigma)
    shi = _fn(s, lambda x: 1 / mp.sqrt(x))
    return mp.log(max(mp.eigh(shi * _mat(rho) * shi)[0]))
