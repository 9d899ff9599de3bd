"""Lattice invariants and the Weierstrass functions on <1, i tau>."""
from __future__ import annotations

import numpy as np
import pytest

import mzl.elliptic as elliptic_module
import oracles
from mzl.domains import _LINE_OFFSET
from mzl.elliptic import (_tail_bound, lattice, reduce_to_cell, wp_analytic,
                          wp_error_bound, wp_invariants, wp_on_line,
                          wp_pair)
from mzl.errors import DomainError, InvalidSpecError, PoleProximityError
from mzl.qseries import UNIT_ROUNDOFF


# ---------------------------------------------------------------------------
# invariants


def test_square_lattice_g2_closed_form(lat1):
    assert abs(lat1.g2 - oracles.g2_square_lattice()) < 1e-9 * lat1.g2


def test_square_lattice_g3_vanishes(lat1):
    assert abs(lat1.g3) < 1e-10


def test_invariant_homogeneity():
    # i * (Z + 0.5i Z) = 0.5 * (Z + 2i Z); g2 has weight -4, g3 weight -6,
    # and multiplying the lattice by i flips the sign of g3 only
    half, two = lattice(0.5), lattice(2.0)
    assert abs(two.g2 - half.g2 / 16.0) < 1e-10 * abs(half.g2)
    assert abs(two.g3 + half.g3 / 64.0) < 1e-10 * (1.0 + abs(half.g3))


def test_series_term_count_follows_the_tail_bound():
    # tau < 1 is summed on the swapped lattice <1, i/tau>
    counts = {tau: lattice(tau).terms for tau in (8.0, 3.0, 1.0, 0.3)}
    assert counts == {8.0: 1, 3.0: 2, 1.0: 6, 0.3: 2}
    for tau, M in counts.items():
        t = max(tau, 1.0 / tau)
        assert _tail_bound(t, M) <= UNIT_ROUNDOFF / 12.0
        assert _tail_bound(t, M - 1) > UNIT_ROUNDOFF / 12.0  # the smallest


def test_tau_range_guard():
    with pytest.raises(DomainError):
        wp_invariants(0.05)
    with pytest.raises(DomainError):
        wp_invariants(12.0)


def test_half_period_values_sum_to_zero(lat15):
    e1, e2, e3 = lat15.half_period_values
    assert e1 > e2 > e3
    assert abs(e1 + e2 + e3) < 1e-9 * e1


def test_half_period_values_match_cubic_oracle(lat15):
    got = lat15.half_period_values
    want = oracles.cubic_real_roots(lat15.g2, lat15.g3)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-9 * (1.0 + abs(w))


# ---------------------------------------------------------------------------
# pointwise values


def test_wp_at_half_periods(lat1, lat15):
    for L in (lat1, lat15):
        e1, e2, e3 = L.half_period_values
        assert abs(wp_pair(0.5, L)[0] - e1) < 1e-8 * (1.0 + abs(e1))
        assert abs(wp_pair(0.5 + 0.5j * L.tau, L)[0] - e2) < 1e-8 * (1.0 + abs(e2))
        assert abs(wp_pair(0.5j * L.tau, L)[0] - e3) < 1e-8 * (1.0 + abs(e3))
        # critical points of wp
        assert abs(wp_pair(0.5, L)[1]) < 1e-8
        assert abs(wp_pair(0.5j * L.tau, L)[1]) < 1e-8


@pytest.mark.parametrize("tau", [0.3, 1.0, 8.0])
def test_wp_next_to_the_pole_follows_the_laurent_expansion(tau):
    # p - z^-2 = (g2/20) z^2 + (g3/28) z^4 + (g2^2/1200) z^6 + ...; a
    # 1 - e^{2 pi i z} formed by subtraction costs 1e-14 of z^-2 at
    # |z| = 1e-3, against 6e-16 with expm1
    L = lattice(tau)
    c3 = L.g2**2 / 1200.0
    for r in (1e-3, 1e-2):
        z = r * np.exp(2j * np.pi * np.arange(16) / 16)
        p, dp = wp_pair(z, L)
        err = np.abs(p - z**-2 - (L.g2 / 20.0 * z**2 + L.g3 / 28.0 * z**4))
        derr = np.abs(dp + 2.0 * z**-3
                      - (L.g2 / 10.0 * z + L.g3 / 7.0 * z**3))
        assert np.all(err <= 3e-15 * r**-2 + 2.0 * c3 * r**6)
        assert np.all(derr <= 8e-15 * r**-3 + 12.0 * c3 * r**5)


def test_square_lattice_symmetry(lat1):
    # for the square lattice e2 = 0 and e3 = -e1
    e1, e2, e3 = lat1.half_period_values
    assert abs(e2) < 1e-9 * e1
    assert abs(e3 + e1) < 1e-9 * e1


def test_wp_matches_row_sum_oracle(lat1, lat15, rng):
    for L in (lat1, lat15):
        for _ in range(12):
            z = complex(rng.uniform(0.1, 0.9),
                        L.tau * rng.uniform(0.1, 0.9))
            p, dp = wp_pair(z, L)
            p_ref = oracles.wp_rowsum(z, L.tau)
            dp_ref = oracles.wp_prime_rowsum(z, L.tau)
            assert abs(p - p_ref) < 1e-11 * (1.0 + abs(p_ref))
            assert abs(dp - dp_ref) < 1e-11 * (1.0 + abs(dp_ref))


def test_wp_parity(lat15, rng):
    for _ in range(10):
        z = complex(rng.uniform(0.05, 0.45), lat15.tau * rng.uniform(0.05, 0.45))
        p_plus, dp_plus = wp_pair(z, lat15)
        p_minus, dp_minus = wp_pair(-z, lat15)
        assert abs(p_plus - p_minus) < 1e-10 * (1.0 + abs(p_plus))
        assert abs(dp_plus + dp_minus) < 1e-10 * (1.0 + abs(dp_plus))


def test_wp_periodicity(lat1, lat15, rng):
    for L in (lat1, lat15):
        for _ in range(8):
            z = complex(rng.uniform(0.1, 0.9), L.tau * rng.uniform(0.1, 0.9))
            base = wp_pair(z, L)[0]
            for shift in (1.0, 1j * L.tau, 3.0 - 2j * L.tau):
                moved = wp_pair(z + shift, L)[0]
                assert abs(moved - base) < 1e-9 * (1.0 + abs(base))


def test_differential_equation_residual(lat1, rng):
    # |wp'^2 - (4 wp^3 - g2 wp - g3)| stays below 1e-8 with a 0.12 margin
    # from the lattice in each coordinate
    x = rng.uniform(0.12, 0.88, 1000)
    y = rng.uniform(0.12, 0.88, 1000)
    z = x + 1j * lat1.tau * y
    p, dp = wp_pair(z, lat1)
    resid = np.abs(dp**2 - (4.0 * p**3 - lat1.g2 * p - lat1.g3))
    assert float(resid.max()) < 1e-8


def test_wp_real_on_symmetry_lines(lat15, rng):
    L = lat15
    t = rng.uniform(0.1, 0.9, 25)
    lines = [t + 0j,                          # real axis
             0.5 + 1j * L.tau * t,            # Re z = 1/2
             1j * L.tau * t,                  # imaginary axis
             t + 0.5j * L.tau]                # Im z = tau/2
    for zs in lines:
        p = wp_pair(np.asarray(zs, dtype=complex), L)[0]
        assert float(np.abs(p.imag).max()) < 1e-9 * (1.0 + float(np.abs(p).max()))


# ---------------------------------------------------------------------------
# domain handling


def test_pole_proximity_guard(lat1):
    with pytest.raises(PoleProximityError):
        wp_pair(1e-9 + 0j, lat1)[0]
    with pytest.raises(PoleProximityError):
        wp_pair(1.0 + 1j * lat1.tau + 1e-10, lat1)[0]
    # the error carries the offending distance
    try:
        wp_pair(1e-9 + 0j, lat1)[0]
    except PoleProximityError as exc:
        assert exc.distance < 1e-8


def test_reduce_to_cell_lands_in_cell(lat15, rng):
    tau = lat15.tau
    z = rng.uniform(-8, 8, 40) + 1j * tau * rng.uniform(-8, 8, 40)
    w = reduce_to_cell(z, tau)
    assert float(np.abs(w.real).max()) <= 0.5 + 1e-12
    assert float(np.abs(w.imag).max()) <= 0.5 * tau + 1e-12
    # reduction never changes the function value
    keep = (np.abs(w) > 1e-3) & (np.abs(w - 0.5) > 1e-3)
    p_orig = wp_pair(z[keep], lat15)[0]
    p_red = wp_pair(w[keep], lat15)[0]
    assert float(np.abs(p_orig - p_red).max()) < 1e-9 * (1.0 + float(np.abs(p_red).max()))


def test_wp_vectorized_matches_scalar(lat1, rng):
    z = rng.uniform(0.15, 0.85, 20) + 1j * rng.uniform(0.15, 0.85, 20)
    p_vec, dp_vec = wp_pair(z, lat1)
    for i in range(z.size):
        p_s, dp_s = wp_pair(complex(z[i]), lat1)
        assert p_s == pytest.approx(p_vec[i], rel=1e-14, abs=1e-14)
        assert dp_s == pytest.approx(dp_vec[i], rel=1e-14, abs=1e-14)


def test_wp_analytic_is_one_pair_per_lattice(monkeypatch):
    # each lattice has one pair callable, so it can key a memo, and the
    # pair looks wp_pair up by name: a wrapper installed after its first
    # call, as bench/tracer.py installs one, sees every later call
    f = wp_analytic(lattice(1.0))
    z = np.array([0.3 + 0.2j, 0.6 + 0.7j])
    want = f(z)
    assert wp_analytic(lattice(1.0)) is f
    assert wp_analytic(lattice(1.5)) is not f
    assert wp_analytic(lattice(1.5)) is wp_analytic(lattice(1.5))
    calls = []

    def recording(z, L):
        calls.append(L)
        return wp_pair(z, L)
    monkeypatch.setattr(elliptic_module, "wp_pair", recording)
    for _ in range(2):
        got = wp_analytic(lattice(1.0))(z)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert calls == [lattice(1.0)] * 2


# ---------------------------------------------------------------------------
# batches and an independent theta-function oracle


def _cell_points(rng, n, tau, margin=0.05):
    """n points of the cell [0, 1] x [0, tau], margin * min(1, tau) away
    from its corner poles."""
    out = []
    while len(out) < n:
        z = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, tau))
        if min(abs(z - c) for c in (0, 1, 1j * tau, 1 + 1j * tau)) \
                >= margin * min(1.0, tau):
            out.append(z)
    return np.array(out)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1025])
def test_wp_pair_batch_matches_per_point(rng, lat1, n):
    z = _cell_points(rng, n, 1.0)
    p, dp = wp_pair(z, lat1)
    single = np.array([wp_pair(v, lat1) for v in z])
    scale = np.sqrt(abs(lat1.g2))
    assert np.all(np.abs(p - single[:, 0]) <= 1e-14 * (np.abs(p) + scale))
    assert np.all(np.abs(dp - single[:, 1])
                  <= 1e-14 * (np.abs(dp) + scale**1.5))


def _cell_grid(tau):
    """The 7 x 31 grid of the cell [0, 1] x [0, tau], its four corner
    poles left out."""
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 7), np.linspace(0.0, tau, 31))
    z = (x + 1j * y).ravel()
    return np.delete(z, [0, 6, z.size - 7, z.size - 1])


def _theta_oracle(z, tau, derivative=False):
    """p (or p') from (pi th2 th3 th4(pi z)/th1(pi z))^2
    - pi^2/3 (th2^4 + th3^4), nome e^{-pi tau}, at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    out = []
    with mpmath.workdps(30):
        pi, nome = mpmath.pi, mpmath.exp(-mpmath.pi * tau)
        t2, t3 = mpmath.jtheta(2, 0, nome), mpmath.jtheta(3, 0, nome)
        const = pi**2 / 3 * (t2**4 + t3**4)
        for zi in z:
            u = pi * mpmath.mpc(zi.real, zi.imag)
            th1, th4 = mpmath.jtheta(1, u, nome), mpmath.jtheta(4, u, nome)
            a = pi * t2 * t3 * th4 / th1
            if derivative:
                d1 = mpmath.jtheta(1, u, nome, 1)
                d4 = mpmath.jtheta(4, u, nome, 1)
                out.append(complex(2 * a * pi**2 * t2 * t3
                                   * (d4 * th1 - th4 * d1) / th1**2))
            else:
                out.append(complex(a**2 - const))
    return np.array(out)


@pytest.mark.parametrize("tau", [0.3, 1.0, 8.0])
def test_half_period_values_match_theta_oracle(tau):
    # wp at the three half-periods; at tau = 8, e2 and e3 differ by
    # 1.9e-9, which the roots of 4t^3 - g2 t - g3 lose in rounding
    L = lattice(tau)
    half = np.array([0.5, 0.5 + 0.5j * tau, 0.5j * tau])
    got = np.array(L.half_period_values)
    assert np.array_equal(got, wp_pair(half, L)[0].real)
    assert got[0] > got[1] > got[2]
    ref = _theta_oracle(half, tau).real
    assert np.all(np.abs(got - ref) <= 4e-16 * np.abs(ref).max())
    if tau == 8.0:
        assert got[1] - got[2] == pytest.approx(1.92e-9, rel=0.01)


@pytest.mark.parametrize("tau", [0.3, 1.0, 8.0])
def test_wp_error_bound_covers_the_theta_oracle(tau):
    # on the cell grid and on circles of radius 1e-5 to 0.1 around the
    # four corner poles, where |wp| and |wp'| span many decades
    L = lattice(tau)
    r = np.array([1e-5, 1e-3, 0.1])[:, None, None]
    ring = np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)[:, None]
    corners = np.array([0.0, 1.0, 1j * tau, 1.0 + 1j * tau])
    z = np.concatenate([_cell_grid(tau), (corners + r * ring).ravel()])
    p, dp = wp_pair(z, L)
    bound = wp_error_bound(z, p, dp, L)
    assert np.all(np.abs(p - _theta_oracle(z, tau)) <= bound)
    # away from the poles it stays a small multiple of the rounding of
    # |wp|; next to them it follows |wp'| times the rounding of z
    grid = slice(0, _cell_grid(tau).size)
    assert np.all(bound[grid] <= 2e-13 * (np.abs(p[grid])
                                          + np.abs(L.g2) ** 0.5))


@pytest.mark.parametrize("tau", [0.3, 1.0, 1.5, 3.0, 8.0])
def test_wp_matches_theta_oracle(tau):
    L = lattice(tau)
    z = _cell_grid(tau)
    p, _ = wp_pair(z, L)
    ref = _theta_oracle(z, tau)
    assert np.all(np.abs(p - ref) <= 1e-12 * (np.abs(ref)
                                              + np.sqrt(abs(L.g2))))


def test_wp_prime_matches_theta_oracle_in_a_tall_cell():
    L = lattice(8.0)
    z = _cell_grid(8.0)
    _, dp = wp_pair(z, L)
    ref = _theta_oracle(z, 8.0, derivative=True)
    assert np.all(np.abs(dp - ref) <= 1e-12 * (np.abs(ref)
                                               + abs(L.g2) ** 0.75))


# ---------------------------------------------------------------------------
# real p on the lattice lines


def _line_samples(end):
    """The first and last 6 points and 6 middle points of the 4096-point
    grid that line_im_zero_count starts from on (0, end)."""
    t = np.linspace(_LINE_OFFSET, end - _LINE_OFFSET, 4096)
    return np.concatenate([t[:6], t[2045:2051], t[-6:]])


@pytest.mark.parametrize("line", ["horizontal", "vertical"])
@pytest.mark.parametrize("tau", [0.3, 1.0, 1.5, 8.0])
def test_wp_on_line_matches_theta_oracle(tau, line):
    # 2e-15 fails a tau < 1 point reduced after the swap instead of
    # before it, which loses digits next to the far pole
    L = lattice(tau)
    end, direction = (1.0, 1.0) if line == "horizontal" else (tau, 1j)
    t = _line_samples(end)
    p = wp_on_line(t, L, line)
    ref = _theta_oracle(direction * t + 0j, tau)
    assert p.dtype == np.float64 and p.shape == t.shape
    assert np.all(np.abs(p - ref) <= 2e-15 * (np.abs(ref)
                                              + np.sqrt(abs(L.g2))))
    assert isinstance(wp_on_line(float(t[7]), L, line), float)


@pytest.mark.parametrize("tau", [0.3, 1.0, 1.5])
def test_wp_on_line_pole_guard(tau):
    L = lattice(tau)
    for t, line in ((0.0, "horizontal"), (1.0, "horizontal"),
                    (0.0, "vertical"), (tau, "vertical")):
        for off in (0.0, 5e-9):
            with pytest.raises(PoleProximityError) as exc:
                wp_on_line(np.array([0.25, t + off]), L, line)
            assert exc.value.distance < 1e-8
        # wp_pair's guard distance
        assert np.isfinite(wp_on_line(t + 2e-8, L, line))
    with pytest.raises(InvalidSpecError):
        wp_on_line(0.5, L, "diagonal")
