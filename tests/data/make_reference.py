"""Regenerate the frozen reference values used by the test suite.

Every number in reference.json is produced by an mpmath computation that is
independent of the library's own evaluation paths:

* ``ml``        -- E_kappa(z) by the exact power series summed with enough
                   guard digits to absorb all cancellation, or (only where the
                   series would need more than ~30000 terms) the algebraic
                   asymptotic expansion truncated at its smallest pair of
                   terms, accepted only when that pair bounds the remainder
                   below 1e-16 relative.
* ``ml_pos``    -- positive arguments, series or exponential+algebraic form.
* ``mixing``    -- the mixing density by its power series at high precision.
* ``mixing_high_kappa`` -- the same series at kappa 0.95 and 0.99, where
                   the terms decay slowest.
* ``nml``       -- the mixture integral of a normal kernel against the mixing
                   density, by mpmath adaptive quadrature.
* ``comp_logh`` -- brute-force truncated sums of the normalizing series.
* ``ml_pos_small_kappa`` -- positive arguments by the series oracle at
                   kappa 0.05 to 0.2, on both sides of the points where the
                   library's double-precision series stops converging and
                   of x**(1/k) = 15, plus points at x**(1/k) = 15 -+ 0.5 for
                   kappa 0.3, 0.7 and 0.99.
* ``fp_pmf``    -- the fractional Poisson pmf by its alternating series,
                   with guard digits for the cancellation.
* ``fp_pmf_near_one`` -- the same series at kappa 0.99 to 0.999, where the
                   mixing density spikes; at nu**(1/k) > 25 the library has
                   no series of its own to check the mixture against.
* ``nml_tail``  -- log f(y) of the standard NML law at |y| 10 to 40, by the
                   mixture integral over its Laplace window, where the
                   mixing series stays feasible there.
* ``nml_high_kappa`` -- f(y) at kappa 0.9 and 0.95: the closed form
                   1/(sqrt(2) Gamma(1 - k/2)) at y = 0, the Laplace-window
                   integral of ``nml_tail`` at y = 1 and 3.
* ``mixing_near_one`` -- the mixing density at kappa 0.99 to 0.999, where
                   its series is infeasible past u ~ 1, by the stable
                   integral split at its spike (``mixing_density_split_mp``).
* ``nml_near_one`` -- log f(y) at kappa 0.995 and 0.999: the closed form at
                   y = 0, and at y = 1, 3 and 10 a double integral over the
                   representation sqrt(U) Z, U = (W/A(Theta))**(1-k)
                   (``nml_density_split_mp``), which needs no mixing density.
* ``ml_seams``  -- E_k on both sides of each seam of the library's branch
                   dispatch, at z placed from its module constants, by the
                   ``ml`` oracle.
* ``fp_pmf_long`` -- the fractional Poisson series at counts 96 to 2978,
                   with guard digits set from its largest term
                   (``fp_pmf_long_mp``); ~20 s.
* ``mixing_seams`` -- the mixing density on both sides of the exponent
                   budget where the library leaves its series for the
                   stable integral, by ``mixing_density_split_mp``.
* ``near_one_tight`` -- the mixing density at 1 - k = 1e-7 and 1e-9, in and
                   next to its spike by the split integral and at u 0.1 to
                   0.9 by the series, with kappa and u read as exact binary
                   values, not their decimal repr.
* ``ml_near_one`` -- E_k(-x) at kappa 0.995 to 1 - 1e-9 by the ``ml``
                   series, from past the series budget to x = 150, with
                   kappa and z read as their exact binary values.
* ``h_inverse`` -- roots of h(k) = Gamma(k+1)^2 / Gamma(2k+1) = omega by
                   ``mp.findroot`` at 40 digits, for omega the double h at
                   60 kappas from 1e-5 to 1 and at four points near
                   omega = 1/2 and 1, each read as its exact binary value.

Run:  python tests/data/make_reference.py  (writes reference.json next to it)
      python tests/data/make_reference.py fp_pmf fp_pmf_near_one ml_seams fp_pmf_long mixing_seams near_one_tight h_inverse ml_near_one
      (recomputes only those sections of ``SECTIONS`` and keeps the others
      as they are; CI checks that these eight reproduce the frozen file).
      ``ml_seams``, ``ml_near_one`` and ``mixing_seams`` read the seams
      from the library's constants, so fpsum must be importable (installed,
      or ``PYTHONPATH=src``).
"""

import functools
import json
import math
import pathlib
import sys

import mpmath as mp


def _read(x):
    """x as an mpf: a float by its shortest decimal repr, as the older
    sections were made, and an mpf as it is, which lets a caller pass the
    exact binary value of a double (mp.mpf(x)).  Near kappa 1 the decimal
    misstates 1 - k: that of 1 - 1e-9 by 2.8e-8 relative."""
    return x if isinstance(x, mp.mpf) else mp.mpf(repr(x))


def ml_series_mp(kappa, z, rel_dps=25):
    """Power series with cancellation-proof precision."""
    x = abs(z)
    peak_log = x ** (1.0 / kappa)  # ~log of the largest term
    guard = int(0.45 * peak_log) + 60
    with mp.workdps(rel_dps + guard):
        k = _read(kappa)
        zz = _read(z)
        s = mp.mpf(0)
        m = 0
        peak_m = peak_log / kappa
        while True:
            t = zz**m / mp.gamma(k * m + 1)
            s += t
            m += 1
            if m > peak_m + 40 and abs(t) < mp.mpf(10) ** (-(rel_dps + 30)) * abs(s):
                return s
            if m > 3 * peak_m + 200000:
                raise RuntimeError("series oracle stalled")


def ml_asymptotic_mp(kappa, z):
    """Optimally truncated algebraic expansion for large negative z."""
    assert z < 0
    x = abs(mp.mpf(repr(z)))
    k = mp.mpf(repr(kappa))
    partial = mp.mpf(0)
    best = None
    terms = []
    for m in range(1, 402):
        terms.append((-1) ** (m - 1) * x ** (-m) * mp.rgamma(1 - k * m))
    for m in range(1, 400):
        partial += terms[m - 1]
        bound = abs(terms[m]) + abs(terms[m + 1])
        if best is None or bound < best[1]:
            best = (partial, bound)
    val, bound = best
    if bound > mp.mpf(10) ** (-16) * abs(val):
        raise RuntimeError(f"asymptotic oracle bound too weak: {bound}")
    return val


def ml_oracle(kappa, z):
    if z == 0:
        return mp.mpf(1)
    if kappa == 1.0:
        return mp.exp(mp.mpf(repr(z)))
    feasible_series = math.log(abs(z)) / kappa <= math.log(700.0)
    if feasible_series:
        return ml_series_mp(kappa, z)
    if z < 0:
        return ml_asymptotic_mp(kappa, z)
    # large positive: exponential plus algebraic part
    with mp.workdps(60):
        k = mp.mpf(repr(kappa))
        x = mp.mpf(repr(z))
        val = mp.exp(x ** (1 / k)) / k
        for m in range(1, 13):
            val -= x ** (-m) * mp.rgamma(1 - k * m)
        return val


def mixing_density_mp(kappa, u, dps=30):
    """Mixing density by its series, f(u) = (1/(pi*k)) sum_j (-1)^(j-1)/j!
    sin(pi k j) Gamma(k j + 1) u^(j-1), with guard digits for the growth.

    The alternating sum cancels down from terms of size ~exp(2*a0*u**(1/(1-k)))
    relative to the result, and needs ~u**(1/(1-k)) terms, which bounds the
    feasible arguments.
    """
    a0 = (1.0 - kappa) * kappa ** (kappa / (1.0 - kappa))
    stretch = u ** (1.0 / (1.0 - kappa))
    if stretch > 20000:
        raise RuntimeError(f"mixing oracle infeasible at kappa={kappa}, u={u}")
    guard = int(0.9 * a0 * stretch) + 60
    with mp.workdps(dps + guard):
        k = _read(kappa)
        uu = _read(u)
        s = mp.mpf(0)
        j = 1
        small = 0
        while j < 200000:
            t = (
                (-1) ** (j - 1)
                / mp.factorial(j)
                * mp.sin(mp.pi * k * j)
                * mp.gamma(k * j + 1)
                * uu ** (j - 1)
            )
            s += t
            small = small + 1 if abs(t) < mp.mpf(10) ** (-dps - 25) * (abs(s) + 1e-300) else 0
            if small >= 5 and j > 10:
                break
            j += 1
        else:
            raise RuntimeError("mixing oracle series stalled")
        return s / (mp.pi * k)


def nml_density_mp(kappa, y, dps=20):
    """Normal variance mixture integral against the mixing density.

    The u-range is cut where the mixing weight falls below ~exp(-46), which
    also keeps every density evaluation inside the series-feasible zone.
    """
    a0 = (1.0 - kappa) * kappa ** (kappa / (1.0 - kappa))
    u_hi = (46.0 / a0) ** (1.0 - kappa)
    # tanh-sinh quadrature absorbs the u**-1/2 kernel singularity at zero
    points = [mp.mpf(0)] + [
        u_hi * f for f in (0.02, 0.06, 0.15, 0.3, 0.5, 0.7, 1.0)
    ]
    with mp.workdps(dps + 15):
        yy = mp.mpf(repr(y))

        def integrand(u):
            return (
                mp.exp(-yy * yy / (2 * u))
                / mp.sqrt(2 * mp.pi * u)
                * mixing_density_mp(kappa, float(u), dps=dps + 10)
            )

        return mp.quad(integrand, points)


def nml_log_tail_mp(kappa, y, dps=20):
    """log f(y) by the mixture integral over its Laplace window.

    The window is where shape(u) = -y**2/(2u) - log(u)/2 - a0*u**(1/(1-k)),
    the integrand's log with the mixing density's leading decay, lies within
    50 of its peak, widened until the integrand at both ends is below 1e-20
    of its value at that peak.  Panels start two Laplace standard deviations
    wide, and a panel is halved until its 16- and 24-node Gauss-Legendre
    sums agree to 1e-15 of (integrand at the peak) * (starting panel width).
    Returns None where the series at the window's right end would be
    infeasible.
    """
    a0 = (1.0 - kappa) * kappa ** (kappa / (1.0 - kappa))

    def shape(x):
        decay = a0 * math.exp(min(math.log(x) / (1.0 - kappa), 700.0))
        return -y * y / (2 * x) - 0.5 * math.log(x) - decay

    grid = [math.exp(t / 400.0) for t in range(-3000, 3001)]
    values = [shape(x) for x in grid]
    top = max(values)
    inside = [x for x, s in zip(grid, values) if s >= top - 50.0]
    lo, hi = inside[0], inside[-1]
    peak = grid[values.index(top)]
    step = 1e-3 * peak
    curvature = (shape(peak + step) - 2 * top + shape(peak - step)) / step**2
    if hi ** (1.0 / (1.0 - kappa)) > 20000:
        return None
    with mp.workdps(dps + 5):
        rules = [mp.gauss_quadrature(n, "legendre") for n in (16, 24)]
        yy = mp.mpf(repr(y))

        def integrand(x):
            return (
                mp.exp(-yy * yy / (2 * x))
                / mp.sqrt(2 * mp.pi * x)
                * mixing_density_mp(kappa, float(x), dps=dps + 10)
            )

        top_val = integrand(mp.mpf(repr(peak)))
        floor = mp.mpf(10) ** -20 * top_val
        while integrand(mp.mpf(repr(lo))) > floor:
            lo *= 0.9
        while integrand(mp.mpf(repr(hi))) > floor:
            hi *= 1.02
            if hi ** (1.0 / (1.0 - kappa)) > 20000:
                return None
        n_panels = math.ceil((hi - lo) * math.sqrt(-curvature) / 2.0)
        a, b = mp.mpf(repr(lo)), mp.mpf(repr(hi))
        tol = mp.mpf(10) ** -15 * top_val * (b - a) / n_panels
        panels = [(a + (b - a) * i / n_panels, a + (b - a) * (i + 1) / n_panels)
                  for i in range(n_panels)]
        total = mp.mpf(0)
        while panels:
            left, right = panels.pop()
            mid, half = (left + right) / 2, (right - left) / 2
            coarse, fine = (
                half * mp.fsum(w * integrand(mid + half * x) for x, w in zip(xg, wg))
                for xg, wg in rules
            )
            if abs(fine - coarse) <= tol:
                total += fine
            else:
                panels += [(left, mid), (mid, right)]
        return mp.log(total)


def nml_tail_section():
    """[kappa, y, log f(y)] rows.  Every kappa 0.99 point is skipped: its
    window, once widened, needs the series at u**100 > 20000."""
    rows = []
    for kap in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]:
        for y in [10.0, 20.0, 40.0]:
            val = nml_log_tail_mp(kap, y)
            if val is not None:
                rows.append([kap, y, float(val)])
    return rows


def nml_high_kappa_section():
    """[kappa, y, f(y)] rows in the body, where g peaks sharply."""
    rows = []
    for kap in [0.9, 0.95]:
        with mp.workdps(30):
            rows.append([kap, 0.0, float(1 / (mp.sqrt(2) * mp.gamma(1 - mp.mpf(repr(kap)) / 2)))])
        for y in [1.0, 3.0]:
            rows.append([kap, y, float(mp.exp(nml_log_tail_mp(kap, y)))])
    return rows


def gl_adaptive_mp(f, edges, rel_tol):
    """int f over [edges[0], edges[-1]] by 16- and 24-node Gauss-Legendre
    sums per panel between consecutive edges.  A panel is halved until its
    two sums agree to rel_tol times the first pass's total; its 24-node sum
    is kept.  Tanh-sinh (``mp.quad``) is not used: it misjudges its error
    on integrands that fall steeply from an endpoint, which these do."""
    rules = [mp.gauss_quadrature(n, "legendre") for n in (16, 24)]

    def both(a, b):
        mid, half = (a + b) / 2, (b - a) / 2
        return [half * mp.fsum(w * f(mid + half * x) for x, w in zip(xs, ws))
                for xs, ws in rules]

    panels = [(a, b, both(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    tol = rel_tol * abs(mp.fsum(fine for _, _, (_, fine) in panels))
    total = mp.mpf(0)
    while panels:
        a, b, (coarse, fine) = panels.pop()
        if abs(fine - coarse) <= tol:
            total += fine
        else:
            mid = (a + b) / 2
            panels += [(a, mid, both(a, mid)), (mid, b, both(mid, b))]
    return total


def kanter_log_mp(k, theta):
    """log A(theta) at mp precision: through sinc up to pi/2, so nothing
    cancels near 0, and through phi = pi - theta above, so phi stays exact
    near pi."""
    c = 1 - k
    if theta <= mp.pi / 2:
        return (c * mp.log(c) + k * mp.log(k) + k * mp.log(mp.sinc(k * theta))
                + c * mp.log(mp.sinc(c * theta)) - mp.log(mp.sinc(theta))) / c
    phi = mp.pi - theta
    return (k / c * mp.log(mp.sin(c * mp.pi + k * phi)) + mp.log(mp.sin(c * theta))
            - mp.log(mp.sin(phi)) / c)


def mixing_density_split_mp(kappa, u, dps=20):
    """Mixing density by its stable integral,
    g(u) = u**(k/(1-k)) / (pi (1-k)) * int_0^pi A e^(-y A) dtheta, y = u**(1/(1-k)).

    In z = y A(theta) the integrand is z e^(-z) / y, a spike in theta that
    narrows as kappa -> 1 (Nolan 1997 splits the stable integral at its
    peak).  The panels break where z crosses z0 + 40 e^(-j), z0 = y A(0+),
    down to the larger of e^(-36) and min(z0, 1/4)/e, at crossings found by
    bisection; ``gl_adaptive_mp`` then refines them.  The working precision
    grows with log10(z0), since z0 + t must be resolved.  Valid for every u
    > 0; the cost does not grow with u**(1/(1-k)) as the series' does.
    """
    with mp.workdps(30):
        k = _read(kappa)
        z0 = _read(u) ** (1 / (1 - k)) * (1 - k) * k ** (k / (1 - k))
    with mp.workdps(dps + 10 + max(0, int(mp.log10(z0)))):
        k = _read(kappa)
        uu = _read(u)
        c = 1 - k
        log_y = mp.log(uu) / c
        z0 = mp.exp(log_y) * c * k ** (k / c)
        levels = []
        t = mp.mpf(40)
        while t >= max(mp.exp(-36), min(z0, mp.mpf(0.25)) / mp.e):
            levels.append(t)
            t /= mp.e
        edges = [mp.mpf(0)]
        for t in reversed(levels):
            target = mp.log(z0 + t) - log_y
            lo, hi = edges[-1], mp.pi
            for _ in range(80):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if kanter_log_mp(k, mid) < target else (lo, mid)
            edges.append((lo + hi) / 2)
        edges.append(mp.pi)

        log_cut = mp.log(z0 + 10000)

        def integrand(theta):
            log_a = kanter_log_mp(k, theta)
            log_z = log_y + log_a
            # past z = z0 + 1e4 the integrand z exp(-z) / y is below ~e^-9990
            # of its peak, and mp.exp(-z) would take ln 2 to ~log2(z) bits
            if log_z > log_cut:
                return mp.mpf(0)
            return mp.exp(log_a - mp.exp(log_z))

        total = gl_adaptive_mp(integrand, edges, mp.mpf(10) ** -(dps - 2))
        return uu ** (k / c) / (mp.pi * c) * total


def nml_density_split_mp(kappa, y, dps=20):
    """f(y) of the standard NML law from X = sqrt(U) Z with U = (W/A(Theta))**(1-k),
    W unit exponential and Theta uniform on (0, pi):

        f(y) = (1/pi) int_0^pi G(log A(theta)) dtheta,
        G(lam) = int e^(s - e^s) k_y(e^((1-k)(s - lam))) ds,

    with w = e^s and k_y(u) = exp(-y^2/(2u)) / sqrt(2 pi u).  No mixing
    density enters.  G uses 16-node panels on s in [-45, 4.5], where the
    Gumbel weight e^(s - e^s) lives (past 4.5 it is below e^-85); the outer
    integral runs in theta up to pi/2 and in pi - theta, on panels halving
    toward pi down to 2^-30 pi/2, through ``gl_adaptive_mp``.  For y != 0
    only: at y = 0, G grows like A**((1-k)/2) toward pi.
    """
    with mp.workdps(dps + 10):
        k = mp.mpf(repr(kappa))
        yy = mp.mpf(repr(y))
        c = 1 - k
        xs, ws = mp.gauss_quadrature(16, "legendre")
        cuts = [-45, -30, -20, -12, -7, -4, -2, -1, 0, 1, 2, 3, 4.5]
        nodes, weights = [], []
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid, half = mp.mpf(a + b) / 2, mp.mpf(b - a) / 2
            for x, w in zip(xs, ws):
                s = mid + half * x
                nodes.append(s)
                weights.append(half * w * mp.exp(s - mp.exp(s)))

        def big_g(lam):
            total = mp.mpf(0)
            for s, w in zip(nodes, weights):
                u = mp.exp(c * (s - lam))
                total += w * mp.exp(-yy * yy / (2 * u)) / mp.sqrt(2 * mp.pi * u)
            return total

        rel = mp.mpf(10) ** -(dps - 4)
        half = mp.pi / 2
        phis = [half * mp.mpf(2) ** -j for j in range(30, -1, -1)]
        left = gl_adaptive_mp(lambda t: big_g(kanter_log_mp(k, t)), [mp.mpf(0), half / 2, half], rel)
        right = gl_adaptive_mp(lambda p: big_g(kanter_log_mp(k, mp.pi - p)), [mp.mpf(0)] + phis, rel)
        return (left + right) / mp.pi


def mixing_near_one_section():
    """[kappa, u, g(u)] rows at the mean + {0, +-1, +-3, +-6} sd of U, where
    g is a normal double, and at u = 0.01, 0.3, 0.8."""
    rows = []
    for kap in [0.99, 0.995, 0.999]:
        mean = 1.0 / math.gamma(1.0 + kap)
        sd = math.sqrt(2.0 / math.gamma(1.0 + 2.0 * kap) - mean * mean)
        a0 = (1.0 - kap) * kap ** (kap / (1.0 - kap))
        for u in [mean + j * sd for j in (-6, -3, -1, 0, 1, 3, 6)] + [0.01, 0.3, 0.8]:
            # past z0 = 800, g < e^-800 is no double at all
            if math.log(a0) + math.log(u) / (1.0 - kap) > math.log(800.0):
                continue
            val = float(mixing_density_split_mp(kap, u))
            if val >= sys.float_info.min:
                rows.append([kap, u, val])
    return rows


def mixing_near_one_tight_section():
    """[kappa, u, g(u)] rows at 1 - k = 1e-7 and 1e-9, with kappa and u read
    as their exact binary values (``_read``): the split integral at u = 1,
    1 -+ 3(1-k) and the mean, inside the spike, whose right flank falls
    like exp(-u**(1/(1-k))), and at u = 0.999 and 0.9999 on its left flank;
    the series at 50 digits at u = 0.1, 0.5 and 0.9.  log A ~ 1/(1-k) ~ 1e9
    costs the split integral 9 of its 30 working digits."""
    rows = []
    for kap in [1.0 - 1e-7, 1.0 - 1e-9]:
        c = 1.0 - kap
        mean = 1.0 / math.gamma(1.0 + kap)
        for u in [1.0 - 3.0 * c, 1.0, 1.0 + 3.0 * c, mean, 0.999, 0.9999]:
            rows.append([kap, u, float(mixing_density_split_mp(mp.mpf(kap), mp.mpf(u)))])
        for u in [0.1, 0.5, 0.9]:
            rows.append([kap, u, float(mixing_density_mp(mp.mpf(kap), mp.mpf(u), dps=50))])
    return rows


def nml_near_one_section():
    """[kappa, y, log f(y)] rows: the closed form at y = 0, the
    representation integral at y = 1, 3 and 10."""
    rows = []
    for kap in [0.995, 0.999]:
        with mp.workdps(30):
            k = mp.mpf(repr(kap))
            rows.append([kap, 0.0, float(-mp.log(mp.sqrt(2) * mp.gamma(1 - k / 2)))])
        for y in [1.0, 3.0, 10.0]:
            rows.append([kap, y, float(mp.log(nml_density_split_mp(kap, y)))])
    return rows


def fp_pmf_mp(nu, kappa, n, rel_dps=25):
    """P(N = n) = nu^n/n! sum_i (-nu)^i (i+n)! / (i! Gamma(k(i+n) + 1)).

    The terms grow to roughly exp(nu**(1/k)) before the sum cancels, so the
    working precision carries 0.45 * nu**(1/k) + 40 guard digits.  At large
    n the terms grow further, and the largest one then sets how many digits
    cancel: when they use up the guard, this raises RuntimeError
    (``fp_pmf_long_mp`` sets its guard from the largest term instead).
    """
    peak_log = nu ** (1.0 / kappa)
    guard = int(0.45 * peak_log) + 40
    with mp.workdps(rel_dps + guard):
        k = mp.mpf(repr(kappa))
        v = mp.mpf(repr(nu))
        s = mp.mpf(0)
        largest = mp.mpf(0)
        # the sum is at most n!/nu^n, since P(N = n) <= 1: a term above
        # 10**guard times that has used up the guard before the sum ends
        cap = mp.mpf(10) ** guard * mp.factorial(n) / v**n
        i = 0
        peak_i = peak_log / kappa
        while True:
            t = (-v) ** i * mp.factorial(i + n) / (mp.factorial(i) * mp.gamma(k * (i + n) + 1))
            s += t
            largest = max(largest, abs(t))
            i += 1
            done = i > peak_i + 40 and abs(t) < mp.mpf(10) ** (-(rel_dps + 30)) * abs(s)
            if largest > cap or done and largest > mp.mpf(10) ** guard * abs(s):
                raise RuntimeError(f"fp pmf oracle lost its guard digits at ({nu}, {kappa}, {n})")
            if done:
                return v**n / mp.factorial(n) * s
            if i > 3 * peak_i + 200000:
                raise RuntimeError("fp pmf oracle stalled")


def ml_pos_small_kappa():
    """[kappa, z, E_k(z)] rows.  At kappa 0.05, 0.08 and 0.1 the library's
    series stops converging near z = 1.0667, 1.1972 and 1.3037; the points
    straddle those, and x**(1/k) = 15 (z = 15**kappa).  There dlog E/dlog z
    is ~ z**(1/k)/k, up to ~1e4, so the z are dyadic: their decimal repr,
    which the oracle reads, is then the double the library is given."""
    grid = {
        0.05: [1.0, 1.0625, 1.0703125, 1.1015625, 1.12890625, 1.140625, 1.1484375,
               1.203125, 1.359375],
        0.08: [1.1484375, 1.1953125, 1.19921875, 1.21875, 1.240234375, 1.25, 1.34375],
        0.1: [1.25, 1.30078125, 1.3046875, 1.30859375, 1.3125, 1.3203125, 1.453125],
        0.15: [1.40625, 1.5, 1.50390625, 1.703125],
        0.2: [1.59375, 1.71484375, 1.72265625, 2.0],
    }
    rows = [[kap, z, float(ml_oracle(kap, z))] for kap, zs in grid.items() for z in zs]
    for kap in [0.3, 0.7, 0.99]:
        for expo in [14.5, 15.5]:
            z = expo**kap
            rows.append([kap, z, float(ml_oracle(kap, z))])
    return rows


def fp_pmf_section():
    """[nu, kappa, n, P(N = n)] rows, at laws with nu**(1/k) <= ~60."""
    laws = [(3.0, 0.95), (30.0, 0.95), (12.0, 0.9), (1.0, 0.6), (5.0, 0.5), (6.0, 0.45)]
    return [
        [nu, kap, n, float(fp_pmf_mp(nu, kap, n))]
        for nu, kap in laws
        for n in [0, 1, 5, 10, 20, 40]
    ]


def fp_pmf_near_one_section():
    """[nu, kappa, n, P(N = n)] rows at kappa 0.99 to 0.999; nu**(1/k) > 25
    except at (5, 0.999), where a mixture on uniform u-panels was 2 % off."""
    laws = [(5.0, 0.999), (30.0, 0.999), (10.0, 0.995), (50.0, 0.995), (30.0, 0.99)]
    return [
        [nu, kap, n, float(fp_pmf_mp(nu, kap, n))]
        for nu, kap in laws
        for n in [0, 1, 5, 20, 40, 79]
    ]


def _fp_long_peak(nu, kappa, n):
    """(i, log10 |T_i|) at the largest term of ``fp_pmf_long_mp``'s series,
    in double precision: log |T_i| is concave in i, so climb to its peak."""

    def log10_term(i):
        m = n + i
        return (m * math.log(nu) + math.lgamma(m + 1.0) - math.lgamma(n + 1.0)
                - math.lgamma(i + 1.0) - math.lgamma(kappa * m + 1.0)) / math.log(10.0)

    i = 0
    while log10_term(i + 1) >= log10_term(i):
        i += 1
    return i, log10_term(i)


def _fp_long_dps(nu, kappa, n, rel_dps):
    """Working precision: the largest term's digits, and 340 more for values
    down to 1e-300 and the rounding of a few thousand terms."""
    return rel_dps + max(0, int(_fp_long_peak(nu, kappa, n)[1])) + 340


# the precision of the gammas that fp_pmf_long_mp starts from, above that of
# every point: mp.gamma builds its tables once per precision, at seconds a time
_FP_LONG_GAMMA_DPS = 2000


@functools.lru_cache(maxsize=None)
def _gamma_one_plus(r, q):
    """Gamma(1 + r/q), at _FP_LONG_GAMMA_DPS digits."""
    with mp.workdps(_FP_LONG_GAMMA_DPS):
        return mp.gamma(mp.mpf(r) / q + 1)


def fp_pmf_long_mp(nu, kappa, n, rel_dps=25):
    """P(N = n) by the series of ``fp_pmf_mp``, sum_i T_i with
    T_i = (-1)^i nu^(n+i) (n+i)!/(n! i! Gamma(k(n+i) + 1)), at counts in the
    hundreds to thousands.

    There the terms grow far past exp(nu**(1/k)), so the guard comes from
    the largest |T_i| and from the smallest value kept, 1e-300
    (``_fp_long_dps``).  kappa must be p/q exactly with a small q, and nu an
    integer: then Gamma(k m + 1) steps from m to m + q by exact integer
    factors, from q gammas Gamma(1 + r/q) that all counts share.
    """
    p, q = float(kappa).as_integer_ratio()
    assert q <= 64 and nu == int(nu), (nu, kappa)
    nu = int(nu)
    peak_i = _fp_long_peak(nu, kappa, n)[0]
    dps = _fp_long_dps(nu, kappa, n, rel_dps)
    assert dps <= _FP_LONG_GAMMA_DPS, (nu, kappa, n, dps)
    with mp.workdps(dps):
        # gam[i % q] holds Gamma(k(n + i) + 1) for the next q values of i.
        # With k m = j + r/q, Gamma(k m + 1) = Gamma(1 + r/q) times the
        # integers r + q, r + 2q, ..., r + jq over q**j, and
        # Gamma(k(m + q) + 1) = Gamma(k m + 1) times p m + q, ..., p m + pq
        # over q**p: all but the first factor are exact integers
        gam = []
        for m in range(n, n + q):
            j, r = divmod(p * m, q)
            gam.append(_gamma_one_plus(r, q) * math.prod(range(r + q, r + j * q + 1, q)) / q**j)
        a = mp.mpf(nu) ** n  # (-nu)^i nu^n (n+i)!/(n! i!)
        s = mp.mpf(0)
        i = 0
        while True:
            t = a / gam[i % q]
            s += t
            m = n + i
            gam[i % q] *= mp.mpf(math.prod(range(p * m + q, p * m + p * q + 1, q))) / q**p
            a = a * (-nu * (m + 1)) / (i + 1)
            i += 1
            if i > peak_i and abs(t) < mp.mpf(10) ** (-(rel_dps + 30)) * abs(s):
                assert s > mp.mpf(10) ** -300, (nu, kappa, n, s)
                return s


def fp_pmf_long_section():
    """[nu, kappa, n, P(N = n)] rows at counts on levels 3 to 5 of the
    library's mixture (n 96 to 6143), out into g's flank where the value
    stays above 1e-300; kappa is dyadic, as ``fp_pmf_long_mp`` needs."""
    counts = {
        (30.0, 0.5): [96, 383, 384, 1000, 1535, 1536, 2000],
        (200.0, 0.75): [100, 383, 384, 700, 1535, 1536, 2000, 2500],
        (1000.0, 0.9375): [383, 384, 1000, 1382, 1535, 1536, 2000, 2500, 2978],
    }
    return [
        [nu, kap, n, float(fp_pmf_long_mp(nu, kap, n))]
        for (nu, kap), ns in counts.items()
        for n in ns
    ]


def _exact_repr(z, bits=12):
    """z rounded to ``bits`` significant bits: its short decimal repr, which
    ``ml_oracle`` reads, is then exactly the double the library is given."""
    mant, expo = math.frexp(z)
    z = math.ldexp(round(mant * 2**bits), expo - bits)
    with mp.workdps(50):
        assert mp.mpf(repr(z)) == mp.mpf(z), z
    return z


def ml_seams_section():
    """[kappa, z, E_k(z)] rows 2 % to either side of each seam of
    ``mittag_leffler``'s dispatch, placed from the library's constants:
    the series budget |z|**(1/k) on the negative axis and its bound on the
    positive one, the cut integral's smallest |z|, the asymptotic
    threshold, and kappa on both sides of 0.35, where the cut integral
    once switched rules.  Rounding z to 12 bits moves it by < 1.3e-4 relative, well
    inside the 2 % (0.1 % in z at kappa 0.05 for the exponent seams)."""
    from fpsum import special_functions as sf

    points = []
    for kap in [0.05, 0.2, 0.5, 0.8, 0.99]:
        for f in (0.98, 1.02):
            points += [
                (kap, -(f * sf._SERIES_EXPONENT_BUDGET) ** kap),
                (kap, (f * sf._POSITIVE_SERIES_EXPONENT_MAX) ** kap),
                (kap, -f * sf._SPECTRAL_X_MIN),
                (kap, -f * sf._ASYMPTOTIC_THRESHOLD),
            ]
    switch = 0.35  # the retired switch from the log-step rule to the theta form
    for kap in (round(switch - 0.01, 2), switch, round(switch + 0.01, 2)):
        points += [(kap, z) for z in (-2.0, -5.0, -20.0)]
    return [[kap, z, float(ml_oracle(kap, z))]
            for kap, z in ((kap, _exact_repr(z)) for kap, z in points)]


def ml_near_one_section():
    """[kappa, z, E_k(z)] rows at kappa 0.995 to 1 - 1e-9, where 1/D in the
    cut integral has a pole narrower than its shared panels: 16 x from 2 %
    past the series budget to 60, 2 % to either side of the asymptotic
    threshold, and x = 150, where the expansion takes over.  kappa and z
    are read as their exact binary values (z rounded to 12 bits); ~3 s."""
    from fpsum import special_functions as sf

    rows = []
    for kap in [0.995, 0.999, 0.9999, 1 - 1e-6, 1 - 1e-9]:
        lo = 1.02 * sf._SERIES_EXPONENT_BUDGET**kap
        xs = [lo * (60.0 / lo) ** (i / 15) for i in range(16)]
        xs += [0.98 * sf._ASYMPTOTIC_THRESHOLD, 1.02 * sf._ASYMPTOTIC_THRESHOLD, 150.0]
        for x in xs:
            z = _exact_repr(-x)
            rows.append([kap, z, float(ml_series_mp(mp.mpf(kap), mp.mpf(z)))])
    return rows


def mixing_seams_section():
    """[kappa, u, g(u)] rows 2 % to either side of the seam where
    ``MittagLefflerLaw.density`` hands the mixing density from its series
    to the stable integral: the exponent (1-k) k**(k/(1-k)) u**(1/(1-k)) at
    ``_ML_SERIES_EXPONENT_BUDGET`` (1 -+ 0.02), placed from the library's
    constant, by the split-integral oracle.  Rounding u to 12 bits moves the
    exponent by < 1.3e-4/(1-k) relative, < 0.3 % at kappa 0.95."""
    from fpsum import distributions as dist

    rows = []
    for kap in [0.2, 0.5, 0.8, 0.95]:
        a0 = (1 - kap) * kap ** (kap / (1 - kap))
        for f in (0.98, 1.02):
            u = _exact_repr((f * dist._ML_SERIES_EXPONENT_BUDGET / a0) ** (1 - kap))
            rows.append([kap, u, float(mixing_density_split_mp(kap, u))])
    return rows


def h_inverse_section():
    """[omega, kappa] rows with h(kappa) = omega: omega is h at 60
    log-spaced kappas from 1e-5 to 1, rounded to a double, and 1/2 + 2**-52,
    3/4, 1 - 1e-9 and 1 - 2**-40 (whose root lies below the estimator's
    1e-6 floor).  Each omega is read as its exact binary value: near 1 its
    decimal repr misstates 1 - omega, and so the root."""
    with mp.workdps(40):
        def h(k):
            return mp.gamma(k + 1) ** 2 / mp.gamma(2 * k + 1)

        omegas = [float(h(mp.mpf(10.0 ** (-5 + 5 * i / 59)))) for i in range(60)]
        omegas += [0.5 + 2.0**-52, 0.75, 1.0 - 1e-9, 1.0 - 2.0**-40]
        rows = []
        for omega in omegas:
            w = mp.mpf(omega)
            # h ~ 1 - (pi^2/6) k^2 near 0; the secant steps from there
            start = min(mp.sqrt((1 - w) / mp.zeta(2)), mp.mpf(1))
            rows.append([omega, float(mp.findroot(lambda k: h(k) - w, start))])
    return rows


# sections that can be recomputed on their own, by name on the command line
SECTIONS = {
    "fp_pmf": fp_pmf_section,
    "mixing_near_one": mixing_near_one_section,
    "nml_near_one": nml_near_one_section,
    "fp_pmf_near_one": fp_pmf_near_one_section,
    "ml_seams": ml_seams_section,
    "ml_near_one": ml_near_one_section,
    "fp_pmf_long": fp_pmf_long_section,
    "mixing_seams": mixing_seams_section,
    "near_one_tight": mixing_near_one_tight_section,
    "h_inverse": h_inverse_section,
}


def comp_log_normalizer_mp(lam, eta, dps=40):
    with mp.workdps(dps + 20):
        l, e = mp.mpf(repr(lam)), mp.mpf(repr(eta))
        s = mp.mpf(0)
        i = 0
        while i < 200000:
            t = l**i / mp.factorial(i) ** e
            s += t
            if i > 5 and t < mp.mpf(10) ** (-dps - 10) * s:
                break
            i += 1
        return mp.log(s)


def all_sections():
    out = {"ml": [], "ml_pos": [], "mixing": [], "nml": [], "comp_logh": [],
           "mixing_high_kappa": []}

    kappas = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]
    zs = [-50.0, -35.0, -20.0, -12.0, -8.0, -5.0, -3.0, -2.0, -1.4, -1.0,
          -0.6, -0.3, -0.1, -0.01]
    for kap in kappas:
        for z in zs:
            val = ml_oracle(kap, z)
            out["ml"].append([kap, z, float(val)])
        for z in [0.5, 1.1, 2.0, 5.0]:
            if math.log(z) / kap > math.log(700.0):
                continue  # overflows double; tested separately
            val = ml_oracle(kap, z)
            out["ml_pos"].append([kap, z, float(val)])

    mixing_grid = {
        0.2: [0.05, 0.3, 1.0, 2.0, 3.5, 6.0, 10.0],
        0.3: [0.05, 0.3, 1.0, 2.0, 3.5, 6.0, 10.0],
        0.5: [0.05, 0.3, 1.0, 2.0, 3.5, 6.0],
        0.6: [0.05, 0.3, 1.0, 2.0, 3.5, 6.0],
        0.8: [0.05, 0.3, 1.0, 2.0, 3.5, 4.5],
        0.9: [0.05, 0.3, 1.0, 1.5, 2.0, 2.4],
    }
    for kap, us in mixing_grid.items():
        for u in us:
            out["mixing"].append([kap, u, float(mixing_density_mp(kap, u))])

    for kap in [0.3, 0.5, 0.8]:
        for y in [0.0, 0.5, 1.0, 2.0, 4.0, 6.0]:
            out["nml"].append([kap, y, float(nml_density_mp(kap, y))])

    for lam, eta in [(2.0, 1.0), (1.5, 0.5), (3.0, 1.5), (100.0, 2.0), (400.0, 2.0),
                     (2.0, 1.5), (10.0, 0.8)]:
        out["comp_logh"].append([lam, eta, float(comp_log_normalizer_mp(lam, eta))])

    for kap in [0.95, 0.99]:
        for u in [1e-3, 0.05, 0.2, 0.5, 0.8, 1.0]:
            out["mixing_high_kappa"].append([kap, u, float(mixing_density_mp(kap, u))])

    out["ml_pos_small_kappa"] = ml_pos_small_kappa()
    out["fp_pmf"] = fp_pmf_section()
    out["nml_tail"] = nml_tail_section()
    out["nml_high_kappa"] = nml_high_kappa_section()
    for name, section in SECTIONS.items():
        if name not in out:
            out[name] = section()
    return out


def main(names):
    path = pathlib.Path(__file__).with_name("reference.json")
    if names:
        out = json.loads(path.read_text())
        for name in names:
            out[name] = SECTIONS[name]()
    else:
        out = all_sections()
    path.write_text(json.dumps(out, indent=1))
    print(f"wrote {path}: " + ", ".join(f"{k}={len(v)}" for k, v in out.items()))


if __name__ == "__main__":
    main(sys.argv[1:])
