import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from wavelab import (
    ClassicalWave,
    Electromagnetic,
    Grid1D,
    KleinGordon,
    PhysicalConstants,
    PlaneWaveMode,
    SchrodingerFree,
    SchrodingerPotential,
    dft,
    group_velocity,
    kinematic_map,
    nr_expansion_error,
    omega_of_k,
    planewave_residual,
    planewave_sample,
)
from wavelab.exceptions import DispersionUndefined, NonCommensurateWavenumber

NATURAL = PhysicalConstants()

# the gap m c^2/hbar + hbar k^2/2m - sqrt(k^2 c^2 + m^2 c^4/hbar^2) at m = hbar = k = 1,
# correctly rounded from 60 digits: with decimal.getcontext().prec = 60 and
# gap = lambda c: c * c + Decimal("0.5") - (c * c + c ** 4).sqrt(),
# float(gap(Decimal(10))) and float(gap(Decimal(10)) / gap(Decimal(20)))
GAP_M1_C10_K1 = 1.2437887910972977e-3
GAP_RATIO_C10_OVER_C20 = 3.985097733880142


def all_families(grid=None):
    families = [ClassicalWave(2.0), Electromagnetic(), KleinGordon(1.0), SchrodingerFree(1.0)]
    if grid is not None:
        families.append(SchrodingerPotential(1.0, np.full(grid.n_points, 0.5)))
    return families


# ---------------------------------------------------------------------------
# omega_of_k
# ---------------------------------------------------------------------------

def test_omega_closed_forms():
    assert omega_of_k(ClassicalWave(2.0), 3.0) == pytest.approx(6.0, abs=1e-15)
    assert omega_of_k(KleinGordon(1.0), 0.0) == pytest.approx(1.0, abs=1e-15)
    assert omega_of_k(SchrodingerFree(1.0), 2.0) == pytest.approx(2.0, abs=1e-15)
    assert omega_of_k(KleinGordon(1.0), 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_omega_positive_for_negative_k():
    for eq in all_families():
        assert omega_of_k(eq, -3.0) >= 0.0


def test_omega_uses_constants():
    consts = PhysicalConstants(hbar=2.0, c=3.0)
    assert omega_of_k(Electromagnetic(), 2.0, consts) == pytest.approx(6.0)
    # rest frequency m c^2 / hbar
    assert omega_of_k(KleinGordon(4.0), 0.0, consts) == pytest.approx(4.0 * 9.0 / 2.0)
    assert omega_of_k(SchrodingerFree(1.0), 2.0, consts) == pytest.approx(2.0 * 4.0 / 2.0)


def test_constant_potential_shifts_dispersion():
    eq = SchrodingerPotential(1.0, np.full(16, 0.75))
    assert omega_of_k(eq, 2.0) == pytest.approx(2.0 + 0.75, abs=1e-14)


def test_non_constant_potential_has_no_dispersion():
    v = np.linspace(0.0, 1.0, 16)
    eq = SchrodingerPotential(1.0, v)
    with pytest.raises(DispersionUndefined):
        omega_of_k(eq, 1.0)
    with pytest.raises(DispersionUndefined):
        group_velocity(eq, 1.0)
    with pytest.raises(DispersionUndefined):
        planewave_residual(eq, PlaneWaveMode(1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# group velocity
# ---------------------------------------------------------------------------

def test_group_velocity_closed_forms():
    assert group_velocity(SchrodingerFree(1.0), 2.0) == pytest.approx(2.0, abs=1e-15)
    assert group_velocity(KleinGordon(1.0), 0.0) == 0.0
    assert group_velocity(Electromagnetic(), 5.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("k", [0.7, 2.3, -3.1, 5.0])
def test_group_velocity_matches_finite_difference(k):
    grid = Grid1D(16, 8.0)
    for eq in all_families(grid):
        h = 1e-6 * abs(k)
        fd = (omega_of_k(eq, k + h) - omega_of_k(eq, k - h)) / (2 * h)
        g = group_velocity(eq, k)
        assert g == pytest.approx(fd, rel=1e-6, abs=1e-12)


# ---------------------------------------------------------------------------
# kinematic map
# ---------------------------------------------------------------------------

def test_kinematic_map_examples():
    assert kinematic_map(2.0, 3.0) == (2.0, 3.0)
    assert kinematic_map(0.0, 0.0) == (0.0, 0.0)
    pair = kinematic_map(1.5, 0.25, PhysicalConstants(hbar=2.0))
    assert pair.p == pytest.approx(3.0)
    assert pair.E == pytest.approx(0.5)


def test_kinematic_map_roundtrip():
    consts = PhysicalConstants(hbar=0.7)
    for k, w in [(3.2, 1.1), (-4.0, 0.0), (1e-9, 17.0)]:
        pair = kinematic_map(k, w, consts)
        assert pair.p / consts.hbar == pytest.approx(k, rel=1e-15)
        assert pair.E / consts.hbar == pytest.approx(w, rel=1e-15)


# ---------------------------------------------------------------------------
# plane-wave sampling and residuals
# ---------------------------------------------------------------------------

def test_planewave_sample_constant_and_zero():
    grid = Grid1D(16, 4.0)
    ones = planewave_sample(PlaneWaveMode(1.0, 0.0, 0.0), grid, 12.3)
    assert np.max(np.abs(ones.samples - 1.0)) == 0.0
    zero = planewave_sample(PlaneWaveMode(0.0, 2 * np.pi / 4.0, 1.0), grid, 0.5)
    assert np.max(np.abs(zero.samples)) == 0.0


def test_planewave_sample_hits_single_mode():
    grid = Grid1D(32, 8.0)
    fld = planewave_sample(PlaneWaveMode(1.0, 2 * np.pi / 8.0, 0.0), grid, 0.0)
    from oracles import dft_bruteforce

    amps = dft_bruteforce(fld.samples)
    assert abs(amps[1]) == pytest.approx(np.sqrt(32), rel=1e-12)
    assert np.max(np.abs(np.delete(amps, 1))) < 1e-12


def test_planewave_sample_rejects_leaky_wavenumber():
    grid = Grid1D(16, 4.0)
    with pytest.raises(NonCommensurateWavenumber):
        planewave_sample(PlaneWaveMode(1.0, 1.1, 0.0), grid, 0.0)


def test_mode_rejects_negative_omega():
    with pytest.raises(ValueError):
        PlaneWaveMode(1.0, 1.0, -0.5)


def test_residual_zero_on_dispersion_curve():
    grid = Grid1D(16, 8.0)
    for eq in all_families(grid):
        for n in (-5, -1, 0, 2, 7):
            k = 2 * np.pi * n / grid.length
            mode = PlaneWaveMode(1.0, k, omega_of_k(eq, k))
            assert planewave_residual(eq, mode) <= 1e-12


def test_residual_detects_wrong_frequency():
    # free-particle guess omega = 1 at k = 1 misses by the kinetic factor
    res = planewave_residual(SchrodingerFree(1.0), PlaneWaveMode(1.0, 1.0, 1.0))
    assert res == pytest.approx(0.5, abs=1e-15)
    # massless guess under the massive equation leaves exactly the mass term
    res = planewave_residual(KleinGordon(1.0), PlaneWaveMode(1.0, 1.0, 1.0))
    assert res == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("eq, consts", [
    (KleinGordon(1.0), PhysicalConstants(hbar=1e-200)),  # hbar^2 underflows
    (Electromagnetic(), PhysicalConstants(c=1e-200)),    # c^2 underflows
], ids=["kg_tiny_hbar", "em_tiny_c"])
def test_residual_with_underflowing_square_is_a_float(eq, consts):
    # the mode misses the curve by ~1e400: the residual overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = planewave_residual(eq, PlaneWaveMode(1.0, 1.0, 1.0), consts)
    assert type(res) is float
    assert res == math.inf


def test_massless_reduction_to_electromagnetic():
    length = 16.0
    for n in range(1, 9):
        k = 2 * np.pi * n / length
        w_small_mass = omega_of_k(KleinGordon(1e-8), k)
        w_massless = omega_of_k(Electromagnetic(), k)
        assert abs(w_small_mass - w_massless) / w_massless <= 1e-7


def test_closed_forms_keep_their_bits():
    # each family's omega, v_g and residual (at an off-shell omega) against the
    # closed forms written out term by term, compared with ==: a reordered
    # operand changes the last bit and fails here
    hbar, c, m, v, v0, w = 1.7, 2.9, 0.37, 1.3, 0.25, 2.3
    consts = PhysicalConstants(hbar=hbar, c=c)
    ks = [-5.0, -0.7, 0.0, 1e-300, 3.1]

    def expected(k):
        kg_w = np.hypot(k * c, m * c * c / hbar)
        return [
            (ClassicalWave(v), v * abs(k), v * np.sign(k), abs(-k * k + w * w / (v * v))),
            (Electromagnetic(), c * abs(k), c * np.sign(k), abs(-k * k + w * w / (c * c))),
            (KleinGordon(m), kg_w, k * c * c / kg_w,
             abs(-k * k + w * w / (c * c) - m * m * c * c / (hbar * hbar))),
            (SchrodingerFree(m), hbar * k * k / (2.0 * m), hbar * k / m,
             abs(w - hbar * k * k / (2.0 * m))),
            (SchrodingerPotential(m, np.full(8, v0)), hbar * k * k / (2.0 * m) + v0 / hbar,
             hbar * k / m, abs(w - hbar * k * k / (2.0 * m) - v0 / hbar)),
        ]

    cases = {k: expected(k) for k in ks}
    for k in ks:
        for eq, omega, vg, residual in cases[k]:
            name = f"{type(eq).__name__} at k = {k!r}"
            assert omega_of_k(eq, k, consts) == omega, name
            assert group_velocity(eq, k, consts) == vg, name
            assert planewave_residual(eq, PlaneWaveMode(1.0, k, w), consts) == residual, name
    for i, (eq, *_) in enumerate(cases[0.0]):  # the same bits from one array call
        assert np.array_equal(omega_of_k(eq, np.array(ks), consts), [cases[k][i][1] for k in ks])
        assert np.array_equal(group_velocity(eq, np.array(ks), consts),
                              [cases[k][i][2] for k in ks])

    # m c^2/hbar underflows to 0: still the massive law, so v_g(0) = 0/0, not
    # the massless c sign(0) = 0
    with np.errstate(invalid="ignore"):
        assert math.isnan(group_velocity(KleinGordon(5e-324), 0.0, PhysicalConstants(1.0, 0.1)))


# ---------------------------------------------------------------------------
# non-relativistic expansion error
# ---------------------------------------------------------------------------

def test_nr_expansion_exact_at_rest():
    gap, bound = nr_expansion_error(1.0, 0.0)
    assert gap == 0.0
    assert bound == 0.0


def test_nr_expansion_frozen_example():
    consts = PhysicalConstants(1.0, 10.0)
    gap, bound = nr_expansion_error(1.0, 1.0, consts)
    assert gap == pytest.approx(GAP_M1_C10_K1, rel=1e-12, abs=0)
    assert bound == pytest.approx(1.25e-3, rel=1e-15)
    assert gap <= bound


def test_nr_expansion_shrinks_with_c():
    gap10, _ = nr_expansion_error(1.0, 1.0, PhysicalConstants(1.0, 10.0))
    gap20, _ = nr_expansion_error(1.0, 1.0, PhysicalConstants(1.0, 20.0))
    ratio = gap10 / gap20
    assert 3.8 < ratio < 4.2
    assert ratio == pytest.approx(GAP_RATIO_C10_OVER_C20, rel=1e-12, abs=0)


def test_nr_expansion_overflow_gives_inf_not_exception():
    # k ** 4 and 1/c^2 leave float64 range: the bound is inf, nothing is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning either
        assert nr_expansion_error(1.0, 1e100).next_term_bound == np.inf
        assert nr_expansion_error(1.0, 1.0, PhysicalConstants(1.0, 5e-324)).next_term_bound \
            == np.inf


def _nr_reference(m, k, c, hbar):
    """(gap, bound) in Decimal from the definitions, hbar^3 k^4 / 8 m^3 c^2 for the bound, at
    60 digits past the cancellation of omega_r + hbar k^2/2m - omega_KG (about the digits of
    (omega_r / (hbar k^2/2m))^2)."""
    m, k, c, hbar = (Decimal(float(v)) for v in (m, k, c, hbar))
    with localcontext() as ctx:
        ctx.prec = 60
        ctx.prec += 2 * max(0, (m * c * c / hbar / (hbar * k * k / (2 * m))).adjusted()) + 10
        rest, kinetic = m * c * c / hbar, hbar * k * k / (2 * m)
        gap = rest + kinetic - (k * k * c * c + rest * rest).sqrt()
        ctx.prec = 60
        return +gap, hbar ** 3 * k ** 4 / (8 * m ** 3 * c * c)


def test_nr_expansion_accurate_to_a_few_ulp_at_any_c():
    # the gap was omega_KG - m c^2/hbar - hbar k^2/2m, a difference of two numbers of size
    # m c^2/hbar, off by up to 1.5e24 (relative) already at c <= 1e3
    rng = np.random.default_rng(20261019)
    worst = [0.0, 0.0]
    for c in (1.0, 3.0, 10.0, 1e3, 1e4, 1e6, 1e8, 1e20, 1e50, 1e100, 1e150):
        for m in (0.3, 1.0, 2.7):
            for hbar in (1.0, 0.37):
                consts = PhysicalConstants(hbar, c)
                ks = np.exp(rng.uniform(math.log(1e-8), math.log(m * c / hbar), 12))
                for k in ks.tolist():
                    got = nr_expansion_error(m, k, consts)
                    for j, want in enumerate(_nr_reference(m, k, c, hbar)):
                        value = got[j]
                        if sys.float_info.min <= value < math.inf:  # a normal float
                            err = float(abs(Decimal(value) - want) / want)
                            worst[j] = max(worst[j], err)
                            assert err <= 2e-15, (c, m, hbar, k, j, err)
    assert 0.0 < worst[0] and 0.0 < worst[1]


def test_nr_expansion_bounded_in_validity_region():
    consts = PhysicalConstants(1.0, 3.0)
    for k in np.linspace(0.05, 2.9, 40):  # hbar k < m c = 3
        gap, bound = nr_expansion_error(1.0, float(k), consts)
        assert gap <= bound


def test_nr_expansion_fourth_order_scaling():
    consts = PhysicalConstants(1.0, 10.0)
    ks = np.geomspace(0.1, 1.0, 10)
    gaps = np.array([nr_expansion_error(1.0, float(k), consts).exact_gap for k in ks])
    slope = np.polyfit(np.log(ks), np.log(gaps), 1)[0]
    assert abs(slope - 4.0) <= 0.1


# ---------------------------------------------------------------------------
# duality between residual and spectral layout
# ---------------------------------------------------------------------------

def test_nyquist_mode_is_negative_and_dispersion_symmetric():
    grid = Grid1D(16, 4.0)
    k = grid.wavenumbers
    nyquist = k[8]
    assert nyquist < 0
    for eq in all_families(grid):
        assert omega_of_k(eq, nyquist) == pytest.approx(omega_of_k(eq, -nyquist), rel=1e-14)


def test_planewave_matches_spectral_mode_layout():
    grid = Grid1D(16, 4.0)
    n = -5
    k = 2 * np.pi * n / grid.length
    fld = planewave_sample(PlaneWaveMode(1.0, k, 0.0), grid, 0.0)
    amps = dft(fld).mode_amplitudes
    idx = int(np.argmax(np.abs(amps)))
    assert grid.wavenumbers[idx] == pytest.approx(k)
