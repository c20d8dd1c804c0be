import warnings

import numpy as np
import pytest

from wavelab import (
    GaussianPacketSpec,
    Grid1D,
    KleinGordon,
    PhysicalConstants,
    PlaneWaveMode,
    TimeSpec,
    WaveField,
    dominance_terms_mode,
    evolve_schrodinger_spectral,
    evolve_second_order_spectral,
    gaussian_packet,
    kg_vs_schrodinger,
    l2_norm,
    nr_expansion_error,
    nr_limit_report,
    omega_of_k,
    planewave_sample,
    positive_branch_init,
)
from wavelab.dispersion import _envelope_frequency
from wavelab.exceptions import NumericalFailure

from oracles import central_difference_dominance, rest_phase_envelope

C10 = PhysicalConstants(1.0, 10.0)

# frozen from the exact bracket modulus with Omega = omega_KG(1) - c^2 at c = 10
DOMINANCE_RATIO_M1_C10_K1 = 2.4630087638103165e-05
DOMINANCE_SHRINK_C10_TO_C20 = 15.822386763593977


def factored(fld, t, m=1.0, consts=C10):
    """The envelope samples of the lab-frame field `fld` at time t."""
    return rest_phase_envelope(fld.samples, m, consts.hbar, consts.c, t)


def dominance(series, dt, grid, m=1.0, consts=C10):
    """(small, big, ratio) of the central-difference oracle on an envelope series."""
    small, big = central_difference_dominance(series, dt, grid.spacing, m, consts.hbar, consts.c)
    return small, big, small / big


def normalized_mode(grid, n, consts=C10):
    k = 2 * np.pi * n / grid.length
    fld = planewave_sample(PlaneWaveMode(1.0, k, 0.0), grid, 0.0)
    return k, WaveField(grid, fld.samples / l2_norm(fld))


def factored_mode_series(grid, n, dt, count, m=1.0, consts=C10):
    k, psi0 = normalized_mode(grid, n, consts)
    eq = KleinGordon(m)
    state = positive_branch_init(psi0, eq, consts)
    series = []
    for i in range(count):
        t = i * dt
        fld = psi0.copy() if t == 0 else evolve_second_order_spectral(state, eq, consts, t).psi
        series.append(factored(fld, t, m, consts))
    return k, psi0, series


# ---------------------------------------------------------------------------
# rest-phase factoring
# ---------------------------------------------------------------------------

def test_factor_identity_at_t0():
    grid = Grid1D(32, 8.0)
    rng = np.random.default_rng(1)
    psi = WaveField(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert np.array_equal(factored(psi, 0.0), psi.samples)


def test_rest_mode_envelope_is_static():
    # the k = 0 positive-branch mode oscillates at exactly the rest frequency,
    # so factoring cancels all time dependence
    grid = Grid1D(32, 8.0)
    _, psi0 = normalized_mode(grid, 0)
    eq = KleinGordon(1.0)
    state = positive_branch_init(psi0, eq, C10)
    for t in (0.7, 2.0, 11.0):
        fld = evolve_second_order_spectral(state, eq, C10, t).psi
        assert np.max(np.abs(factored(fld, t) - psi0.samples)) <= 1e-11


def test_mode_identity_phase_advance():
    grid = Grid1D(64, 16.0)
    k, psi0 = normalized_mode(grid, 4)
    eq = KleinGordon(1.0)
    state = positive_branch_init(psi0, eq, C10)
    big_omega = omega_of_k(eq, k, C10) - C10.c ** 2 / C10.hbar
    t = 7.0
    fld = evolve_second_order_spectral(state, eq, C10, t).psi
    want = psi0.samples * np.exp(-1j * big_omega * t)
    assert np.max(np.abs(factored(fld, t) - want)) <= 1e-10


# ---------------------------------------------------------------------------
# dominance condition, exact per mode
# ---------------------------------------------------------------------------

def test_dominance_mode_zero_at_rest():
    terms = dominance_terms_mode(0.0, 1.0, C10)
    assert terms.small_term == 0.0
    assert terms.ratio == 0.0


def test_dominance_mode_frozen_example():
    terms = dominance_terms_mode(1.0, 1.0, C10)
    assert terms.ratio == pytest.approx(DOMINANCE_RATIO_M1_C10_K1, rel=1e-12)


def test_dominance_mode_shrinks_16x_per_c_doubling():
    r10 = dominance_terms_mode(1.0, 1.0, PhysicalConstants(1.0, 10.0)).ratio
    r20 = dominance_terms_mode(1.0, 1.0, PhysicalConstants(1.0, 20.0)).ratio
    shrink = r10 / r20
    assert shrink == pytest.approx(DOMINANCE_SHRINK_C10_TO_C20, rel=1e-12)
    assert 14.0 < shrink < 17.0


def test_dominance_mode_c_scaling_exponent():
    cs = np.array([5.0, 10.0, 20.0, 40.0])
    ratios = np.array([
        dominance_terms_mode(1.0, 1.0, PhysicalConstants(1.0, c)).ratio for c in cs
    ])
    assert np.all(np.diff(ratios) < 0)  # falls monotonically toward 0
    slope = np.polyfit(np.log(cs), np.log(ratios), 1)[0]
    assert abs(slope + 4.0) <= 0.2


def test_envelope_frequency_keeps_precision_at_large_c():
    # at c = 1e6 the rest frequency is 1e12, so omega_KG - m c^2/hbar would
    # lose ~4 digits to cancellation; the non-relativistic series is exact here
    c = 1e6
    consts = PhysicalConstants(1.0, c)
    k, psi0 = normalized_mode(Grid1D(64, 16.0), 4, consts)
    omega_rest = c * c
    big_omega = k ** 2 / 2.0 - k ** 4 / (8.0 * c * c)  # next term is ~1e-24 relative
    want = big_omega ** 2 / (omega_rest ** 2 + 2.0 * omega_rest * big_omega)
    assert dominance_terms_mode(k, 1.0, consts).ratio == pytest.approx(want, rel=1e-12)

    rep = nr_limit_report(psi0, 1.0, consts, TimeSpec(0.05, 100), snapshot_every=10)
    gap = -big_omega ** 2 / (2.0 * omega_rest)
    for t, dev in zip(rep.times, rep.deviation):
        assert dev == pytest.approx(2.0 * abs(np.sin(gap * t / 2.0)), rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# dominance condition, against finite differences on fields
# ---------------------------------------------------------------------------

def test_dominance_field_matches_mode_oracle():
    grid = Grid1D(64, 16.0)
    k, _, series = factored_mode_series(grid, 4, dt=0.01, count=5)
    got = dominance(series, 0.01, grid)[2]
    want = dominance_terms_mode(k, 1.0, C10).ratio
    assert abs(got - want) / want <= 0.01


def test_dominance_field_static_envelope():
    grid = Grid1D(32, 8.0)
    small, _, ratio = dominance([np.ones(32, dtype=complex)] * 4, 0.1, grid)
    assert small == 0.0
    assert ratio == 0.0


def test_dominance_field_second_order_in_dt():
    grid = Grid1D(64, 16.0)
    k, psi0, _ = factored_mode_series(grid, 4, dt=0.04, count=5)
    exact_small = (omega_of_k(KleinGordon(1.0), k, C10) - 100.0) ** 2 * l2_norm(psi0)

    def err(dt):
        _, _, series = factored_mode_series(grid, 4, dt=dt, count=5)
        return abs(dominance(series, dt, grid)[0] - exact_small)

    ratio = err(0.04) / err(0.02)
    assert 3.0 <= ratio <= 5.0


# ---------------------------------------------------------------------------
# the full comparison pipeline
# ---------------------------------------------------------------------------

def test_report_starts_at_zero_deviation():
    grid = Grid1D(256, 64.0)
    rep = kg_vs_schrodinger(GaussianPacketSpec(16.0, 1.0, 2.0), grid, 1.0, C10,
                            TimeSpec(0.1, 10), snapshot_every=2)
    assert rep.deviation[0] == 0.0
    assert len(rep.times) == len(rep.deviation) == len(rep.dominance_ratio)
    assert rep.times[0] == 0.0
    assert all(np.isfinite(rep.dominance_ratio))


def test_final_deviation_falls_4x_when_c_doubles():
    grid = Grid1D(512, 64.0)
    spec = GaussianPacketSpec(16.0, 1.0, 2.0)
    time = TimeSpec(0.1, 200)
    final = {}
    for c in (10.0, 20.0):
        rep = kg_vs_schrodinger(spec, grid, 1.0, PhysicalConstants(1.0, c),
                                time, snapshot_every=50)
        final[c] = rep.deviation[-1]
    assert 3.0 <= final[10.0] / final[20.0] <= 5.0


def test_broad_rest_packet_stays_schrodinger_like():
    # k0 = 0 and a wide envelope keep every populated mode near rest energy
    grid = Grid1D(512, 160.0)
    consts = PhysicalConstants(1.0, 20.0)
    psi0_spec = GaussianPacketSpec(80.0, 0.0, 8.0)
    rep = kg_vs_schrodinger(psi0_spec, grid, 1.0, consts, TimeSpec(0.1, 100),
                            snapshot_every=20)
    assert max(rep.deviation) <= 1e-6


def test_single_mode_deviation_matches_frequency_gap():
    grid = Grid1D(64, 16.0)
    k, psi0 = normalized_mode(grid, 4)
    rep = nr_limit_report(psi0, 1.0, C10, TimeSpec(0.05, 100), snapshot_every=10)
    gap = nr_expansion_error(1.0, k, C10).exact_gap
    for t, dev in zip(rep.times, rep.deviation):
        assert abs(dev - 2.0 * abs(np.sin(gap * t / 2.0))) <= 1e-10


def test_report_tolerates_off_cadence_final_snapshot():
    # 25 steps at cadence 10 puts the last snapshot off the uniform ladder;
    # the series must still come back aligned and finite
    grid = Grid1D(64, 16.0)
    _, psi0 = normalized_mode(grid, 2)
    rep = nr_limit_report(psi0, 1.0, C10, TimeSpec(0.05, 25), snapshot_every=10)
    assert rep.times == pytest.approx([0.0, 0.5, 1.0, 1.25])
    assert len(rep.dominance_ratio) == 4
    assert all(np.isfinite(rep.dominance_ratio))
    assert rep.dominance_ratio[-1] == rep.dominance_ratio[-2]


def test_report_deviation_equals_full_mode_sum():
    # the report takes N/2 + 1 sines and mirrors the rest by k -> -k; it must
    # equal the plain sum over all N modes bit for bit
    rng = np.random.default_rng(20260601)
    time = TimeSpec(0.37, 23)  # cadence 5: the final snapshot is off the ladder
    for n in (8, 64, 2048):
        grid = Grid1D(n, 40.0)
        psi0 = WaveField(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        amps = np.fft.fft(psi0.samples, norm="ortho")
        power = np.abs(amps) ** 2
        power /= np.sum(power)
        assert power[0] > 0 and power[n // 2] > 0  # k = 0 and Nyquist both count
        for c in (10.0, 1e3, 1e6):
            consts = PhysicalConstants(1.0, c)
            _, big_omega, omega_rest = _envelope_frequency(1.0, consts, grid.wavenumbers)
            half_gap = -0.25 * big_omega * (big_omega / omega_rest)
            rep = nr_limit_report(psi0, 1.0, consts, time, snapshot_every=5)
            assert rep.times[-1] == 23 * 0.37 and len(rep.times) == 6
            want = [2.0 * float(np.sqrt(np.dot(power, np.sin(half_gap * t) ** 2)))
                    for t in rep.times]
            assert rep.deviation == want, (n, c)


def test_report_refuses_a_time_past_the_float_range():
    # t = 20 * 1.7e308 is inf: the report came back with inf times and nan deviations
    grid = Grid1D(64, 16.0)
    _, psi0 = normalized_mode(grid, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning either
        with pytest.raises(NumericalFailure, match=r"non-finite envelope phase \(t = inf\)"):
            nr_limit_report(psi0, 1.0, C10, TimeSpec(1.7e308, 20))


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_report_refuses_non_finite_envelope(c):
    # m c^2/hbar underflows to 0 (or overflows): no NaN series may come back
    grid = Grid1D(64, 16.0)
    _, psi0 = normalized_mode(grid, 2)
    with pytest.raises(NumericalFailure, match="non-finite"):
        nr_limit_report(psi0, 1.0, PhysicalConstants(1.0, c), TimeSpec(0.05, 10))


@pytest.mark.parametrize("c", [1e80, 1e200])
def test_mode_terms_refuse_overflow(c):
    # (m c^2/hbar)^2 overflows float64: a typed error, not an OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning either
        with pytest.raises(NumericalFailure, match="non-finite dominance terms"):
            dominance_terms_mode(1.0, 1.0, PhysicalConstants(1.0, c))


def test_relativistic_carrier_warns():
    grid = Grid1D(256, 64.0)
    slow_light = PhysicalConstants(1.0, 0.5)
    with pytest.warns(UserWarning):
        kg_vs_schrodinger(GaussianPacketSpec(16.0, 1.0, 2.0), grid, 1.0, slow_light,
                          TimeSpec(0.05, 4), snapshot_every=1)


# ---------------------------------------------------------------------------
# closed-form report against the lab-frame oracle
# ---------------------------------------------------------------------------

def lab_frame_envelope(psi0, m, consts, t):
    """Factored envelope samples of lab-frame Klein-Gordon evolution (accurate for small c)."""
    eq = KleinGordon(m)
    state = positive_branch_init(psi0, eq, consts)
    fld = psi0.copy() if t == 0 else evolve_second_order_spectral(state, eq, consts, t).psi
    return factored(fld, t, m, consts)


@pytest.mark.parametrize("c", [10.0, 20.0])
def test_report_deviation_matches_lab_frame_oracle(c):
    grid = Grid1D(512, 64.0)
    consts = PhysicalConstants(1.0, c)
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 2.0), grid)
    rep = nr_limit_report(psi0, 1.0, consts, TimeSpec(0.1, 200), snapshot_every=25)
    assert rep.deviation[0] == 0.0
    for t, dev in zip(rep.times[1:], rep.deviation[1:]):
        env = lab_frame_envelope(psi0, 1.0, consts, t)
        schro = evolve_schrodinger_spectral(psi0, 1.0, consts, t)
        want = l2_norm(WaveField(grid, env - schro.samples)) / l2_norm(psi0)
        assert abs(dev - want) <= 1e-9 * want


@pytest.mark.parametrize("c", [10.0, 20.0])
def test_report_dominance_matches_dense_field_series(c):
    grid = Grid1D(512, 64.0)
    consts = PhysicalConstants(1.0, c)
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 2.0), grid)
    rep = nr_limit_report(psi0, 1.0, consts, TimeSpec(0.1, 20), snapshot_every=5)
    assert len(set(rep.dominance_ratio)) == 1  # one value, constant in t
    series = [lab_frame_envelope(psi0, 1.0, consts, 1e-3 * i) for i in range(5)]
    want = dominance(series, 1e-3, grid, 1.0, consts)[2]
    assert abs(rep.dominance_ratio[0] - want) <= 0.01 * want


def test_final_deviation_follows_c_minus_2_to_large_c():
    # the benchmark-shaped ladder: a lab-frame rest phase m c^2 t / hbar
    # would bury the envelope in rounding long before c = 1e6
    grid = Grid1D(2048, 128.0)
    spec = GaussianPacketSpec(32.0, 1.0, 2.0)
    cs = np.array([1e1, 1e2, 1e3, 1e4, 1e5, 1e6])
    finals = [
        kg_vs_schrodinger(spec, grid, 1.0, PhysicalConstants(1.0, float(c)),
                          TimeSpec(0.1, 60), snapshot_every=1).deviation[-1]
        for c in cs
    ]
    slope = np.polyfit(np.log(cs), np.log(finals), 1)[0]
    assert abs(slope + 2.0) <= 0.05
