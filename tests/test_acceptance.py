"""Acceptance suite: one test per release criterion.

Each test pins the exact sizes, tolerances and runtime budgets of the
corresponding criterion; `pytest -v` therefore reports one pass/fail
line per criterion.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

from superkdv.exactcore import (
    Truncation,
    euler_characteristic_constant,
)
from superkdv.kappa import (
    _k_m_terms,
    k_m_integral,
    vanishing_check,
    zk_free_energy,
)
from superkdv.spectral import (
    compare_to_tables,
    eta_spin_compare,
    eta_reexpand,
    cns_laplace_check,
    spectral_curve,
    tr_correlators,
)
from superkdv.spincorr import (
    _spin_genus0,
    alpha_coefficient,
    genus0_closed_form,
    spin_correlators,
    spin_free_energy,
    triple_route_compare,
    unstable_series,
)
from superkdv.supervol import translated_virasoro_check
from superkdv.swnumeric import recursion_residual_orders
from superkdv.virasoro import (
    check_homogeneity,
    free_energy,
    kdv_residual,
    virasoro_oracle_residual,
)


def test_c01_triple_route_exact_agreement():
    # Z^BGW (Virasoro solve), Z^Omega (spin assembly) and the operator
    # image of Z^K agree exactly at gmax=2, dmax=4, smax=6; >= 100
    # nonzero coefficients; runtime < 60 s
    start = time.monotonic()
    report = triple_route_compare(Truncation(gmax=2, kmax=6, dmax=4, smax=6))
    elapsed = time.monotonic() - start
    assert report["mismatches"] == []
    assert report["nonzero"] >= 100
    assert elapsed < 60, elapsed


def test_c02_genus_zero_closed_form():
    # closed form 2^{-|m|-1} * 2(2|m|+n-1)!/(2|m|+2)! * prod 1/m_i!
    # against the TRR route for n <= 5, |m| <= 4, plus spot values
    def closed(m):
        a = sum(m)
        n = len(m)
        v = Fraction(2, 2 ** (a + 1)) * Fraction(
            factorial(2 * a + n - 1), factorial(2 * a + 2)
        )
        for mi in m:
            v /= factorial(mi)
        return v

    assert closed((0, 0, 0)) == 1
    assert closed((1, 0, 0)) == Fraction(1, 2)
    assert closed((0,)) == Fraction(1, 2)
    assert closed((1, 0)) == Fraction(1, 8)
    checked = 0
    for n in range(1, 6):
        for m in combinations_with_replacement(range(5), n):
            if sum(m) > 4:
                continue
            assert genus0_closed_form(m) == closed(m), m
            if n >= 3:
                assert _spin_genus0(tuple(sorted(m))) == closed(m), m
            checked += 1
    assert checked >= 40


def test_c03_literature_constants():
    # one-point Theta integral
    table = spin_correlators(Truncation(1, 1, 1, 2))
    assert table.get(1, (0,)) == Fraction(1, 8)
    # one-point and two-point genus-0 coefficient families, m <= 5
    for m in range(6):
        assert alpha_coefficient(m) / (2 * m + 1) == genus0_closed_form((m,))
    unstable = unstable_series(Truncation(0, 5, 2, 22))
    for m1 in range(6):
        for m2 in range(m1, 6):
            a = m1 + m2 + 1
            aut = 2 if m1 == m2 else 1
            assert unstable.terms.get((-1, a, (m1, m2))) == genus0_closed_form(
                (m1, m2)
            ) / aut, (m1, m2)
        # spot family: <tau_m tau_0>_0 = 1 / (2^{m+1} (m+1)!)
        assert genus0_closed_form((m1, 0)) == Fraction(
            1, 2 ** (m1 + 1) * factorial(m1 + 1)
        )
    # the displayed combination polynomials K_1..K_4, one coefficient per
    # partition of m (kappa_1^2 kappa_2 is (1, 1, 2))
    K = {m: dict(_k_m_terms(m)) for m in range(1, 5)}
    assert K[1] == {(1,): 3}
    assert K[2] == {(1, 1): Fraction(3, 2) * 3, (2,): Fraction(3, 2) * -7}
    assert K[3] == {
        (1, 1, 1): Fraction(3, 2) * 3,
        (1, 2): Fraction(3, 2) * -21,
        (3,): Fraction(3, 2) * 46,
    }
    assert K[4] == {
        (1, 1, 1, 1): Fraction(9, 8) * 3,
        (1, 1, 2): Fraction(9, 8) * -42,
        (2, 2): Fraction(9, 8) * 49,
        (1, 3): Fraction(9, 8) * 184,
        (4,): Fraction(9, 8) * -562,
    }
    # genus-2 vacuum value
    assert k_m_integral(2, 0, 3) == Fraction(-1, 240)
    assert k_m_integral(2, 0, 3) == euler_characteristic_constant(2)


def test_c04_vanishing_theorem():
    assert vanishing_check(2, 1, 4, psi_exponents=(0,)) == 0
    assert vanishing_check(3, 0, 5, companion_kappa=(1,)) == 0
    from superkdv.exactcore import ExactCoreError

    with pytest.raises(ExactCoreError):
        vanishing_check(2, 0, 3)  # the exceptional pair (3g-3, 0)
    assert k_m_integral(2, 0, 3) == Fraction(-1, 240)


def test_c05_kdv_residuals():
    # zero KdV residual for all four tau functions at gmax=2, dmax=5;
    # runtime < 60 s for the whole set
    start = time.monotonic()
    builders = {
        "kw": lambda: free_energy("KW", Truncation(2, 6, 5, 0)).restrict(
            Truncation(2, 6, 5, 0)
        ),
        "bgw": lambda: free_energy("gBGW", Truncation(2, 6, 5, 6)).restrict(
            Truncation(2, 6, 5, 6)
        ),
        "zk": lambda: zk_free_energy(Truncation(2, 6, 5, 0), graded=False),
        "spin": lambda: spin_free_energy(Truncation(2, 2, 5, 6)),
    }
    for name, build in builders.items():
        res, deg = kdv_residual(build())
        assert deg == 0, name
        assert res.is_zero(), name
    elapsed = time.monotonic() - start
    assert elapsed < 60, elapsed


def test_c06_virasoro_and_homogeneity():
    kw_trunc = Truncation(2, 6, 4, 0)
    bgw_trunc = Truncation(2, 4, 3, 4)
    for m, res in virasoro_oracle_residual("KW", kw_trunc, range(-1, 5)).items():
        assert res.is_zero(), m
    for m, res in virasoro_oracle_residual("gBGW", bgw_trunc, range(0, 5)).items():
        assert res.is_zero(), m
    assert check_homogeneity(free_energy("gBGW", bgw_trunc).restrict(bgw_trunc)).is_zero()
    assert check_homogeneity(spin_free_energy(Truncation(2, 3, 3, 6))).is_zero()
    assert not check_homogeneity(free_energy("KW", kw_trunc).restrict(kw_trunc)).is_zero()


def test_c07_spectral_cross_checks():
    # airy <-> psi, bessel <-> Theta, ck <-> kappa entries for all
    # 2g-2+n <= 4; eta re-expansion vs spin correlators for
    # 2g-2+n <= 3 including the worked value 5/48 s^2; runtime < 120 s
    start = time.monotonic()
    for label in ("airy", "bessel", "ck"):
        rep = compare_to_tables(spectral_curve(label), chi_bound=4)
        assert rep["mismatches"] == [], label
        assert rep["compared"] > 0, label
    rep = eta_spin_compare(spectral_curve("ck"), chi_bound=3, smax=4)
    assert rep["mismatches"] == []
    eta = eta_reexpand(tr_correlators(spectral_curve("ck"), 1, 1), smax=2)
    assert eta.entries[(1, (1,))] == {1: Fraction(5, 48)}  # 5 s^2/48
    elapsed = time.monotonic() - start
    assert elapsed < 120, elapsed


def test_c08_laplace_identity():
    for g, n in [(1, 1), (0, 3), (1, 2)]:
        rep = cns_laplace_check(g, n)
        assert rep["mismatches"] == [], (g, n)


def test_c09_stanford_witten_recursion():
    # exact form: translated Virasoro residuals identically zero
    report = translated_virasoro_check(Truncation(2, 2, 3, 6))
    assert report["all_zero"]
    # numeric form, the unstable V_{0,1} and V_{0,2} factors included
    orders = recursion_residual_orders(0, 1, [1.3], smax=2)
    assert abs(orders[1]) < 1e-9
    orders = recursion_residual_orders(1, 1, [1.0], smax=4)
    assert abs(orders[0]) < 1e-9
    assert all(abs(v) < 1e-8 for v in orders.values())
    orders = recursion_residual_orders(0, 3, [1.0, 0.7, 1.3], smax=4)
    assert all(abs(v) < 1e-8 for v in orders.values())


def test_c10_determinism_and_cache(cli_child_env):
    # byte-identical artifacts across two separate processes and a
    # cache round trip (computation is single-threaded by construction,
    # so thread count cannot influence the artifact bytes)
    args = [
        sys.executable,
        "-m",
        "superkdv.cli",
        "volume",
        "--g",
        "1",
        "--n",
        "1",
        "--smax",
        "2",
        "--format",
        "json",
    ]
    # minimal environment, so the artifact cannot depend on the parent's
    env = cli_child_env
    first = subprocess.run(args, capture_output=True, env=env)
    assert first.returncode == 0, first.stderr.decode(errors="replace")
    second = subprocess.run(args, capture_output=True, env=env)
    assert second.returncode == 0, second.stderr.decode(errors="replace")
    assert first.stdout == second.stdout
    assert b"# cache fresh" in first.stderr
    assert b"# cache hit" in second.stderr
    data = json.loads(first.stdout)
    assert data["g"] == 1 and data["n"] == 1
