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

Run:  python tests/data/make_reference.py  (writes reference.json next to it)
"""

import json
import math
import pathlib

import mpmath as mp


def ml_series_mp(kappa, z, rel_dps=25):
    """Power series with cancellation-proof precision."""
    x = abs(z)
    peak_log = x ** (1.0 / kappa)  # ~log of the largest term
    guard = int(0.45 * peak_log) + 60
    with mp.workdps(rel_dps + guard):
        k = mp.mpf(repr(kappa))
        zz = mp.mpf(repr(z))
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
        k = mp.mpf(repr(kappa))
        uu = mp.mpf(repr(u))
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


def fp_pmf_mp(nu, kappa, n, rel_dps=25):
    """P(N = n) = nu^n/n! sum_i (-nu)^i (i+n)! / (i! Gamma(k(i+n) + 1)).

    The terms grow to roughly exp(nu**(1/k)) before the sum cancels, so the
    working precision carries 0.45 * nu**(1/k) + 40 guard digits.
    """
    peak_log = nu ** (1.0 / kappa)
    guard = int(0.45 * peak_log) + 40
    with mp.workdps(rel_dps + guard):
        k = mp.mpf(repr(kappa))
        v = mp.mpf(repr(nu))
        s = mp.mpf(0)
        i = 0
        peak_i = peak_log / kappa
        while True:
            t = (-v) ** i * mp.factorial(i + n) / (mp.factorial(i) * mp.gamma(k * (i + n) + 1))
            s += t
            i += 1
            if i > peak_i + 40 and abs(t) < mp.mpf(10) ** (-(rel_dps + 30)) * abs(s):
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


def main():
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

    path = pathlib.Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(out, indent=1))
    print(f"wrote {path}: " + ", ".join(f"{k}={len(v)}" for k, v in out.items()))


if __name__ == "__main__":
    main()
