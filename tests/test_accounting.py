from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfota.accounting import PreferredLevel, cheaper_level, fronthaul_scalars

from oracles import total_per_block


def test_level3_counts():
    rep = fronthaul_scalars(3, tau_p=10, tau_u=190, n_ant=4, n_aps=16,
                            n_groups=2, n_devices=6)
    assert rep.pilot_data_scalars == 12_800
    assert rep.combiner_scalars == 0
    assert rep.statistics_scalars == Fraction(6 * 16 * 16, 2)


def test_level2_counts():
    rep = fronthaul_scalars(2, tau_p=10, tau_u=190, n_ant=4, n_aps=16,
                            n_groups=2, n_devices=6)
    assert rep.pilot_data_scalars == 10 * 4 * 16 + 190 * 2 * 16
    assert rep.combiner_scalars == 2 * 4 * 16
    assert rep.statistics_scalars == Fraction(768)


def test_level1_counts():
    rep = fronthaul_scalars(1, tau_p=10, tau_u=190, n_ant=4, n_aps=16,
                            n_groups=2, n_devices=6)
    assert rep.pilot_data_scalars == 6_080
    assert rep.combiner_scalars == 0
    assert rep.statistics_scalars == 0


def test_statistics_count_large_system():
    rep = fronthaul_scalars(3, tau_p=10, tau_u=190, n_ant=4, n_aps=64,
                            n_groups=3, n_devices=30)
    assert rep.statistics_scalars == 15_360


def test_statistics_fractional_for_odd_antennas():
    rep = fronthaul_scalars(3, tau_p=2, tau_u=10, n_ant=3, n_aps=4,
                            n_groups=1, n_devices=5)
    assert rep.statistics_scalars == Fraction(5 * 4 * 9, 2)
    assert rep.statistics_display() == 90  # ceil of 89.5? no: 180/2 = 90
    rep2 = fronthaul_scalars(3, tau_p=2, tau_u=10, n_ant=3, n_aps=1,
                             n_groups=1, n_devices=1)
    assert rep2.statistics_scalars == Fraction(9, 2)
    assert rep2.statistics_display() == 5


def test_rejects_non_positive_parameters():
    with pytest.raises(ValueError):
        fronthaul_scalars(3, tau_p=0, tau_u=1, n_ant=1, n_aps=1, n_groups=1,
                          n_devices=1)
    with pytest.raises(ValueError):
        fronthaul_scalars(4, tau_p=1, tau_u=1, n_ant=1, n_aps=1, n_groups=1,
                          n_devices=1)


def test_crossover_flips_at_threshold():
    # threshold = tau_u (N - G) / (N G) = 190 * 2 / 8 = 47.5
    assert cheaper_level(190, 4, 2, 47) is PreferredLevel.LEVEL2
    assert cheaper_level(190, 4, 2, 48) is PreferredLevel.LEVEL3
    assert cheaper_level(190, 4, 2, Fraction(95, 2)) is PreferredLevel.TIE


def test_equal_antennas_and_groups_prefers_level3():
    assert cheaper_level(190, 4, 4, 1) is PreferredLevel.LEVEL3
    assert cheaper_level(190, 2, 4, 1) is PreferredLevel.LEVEL3


@settings(max_examples=300, deadline=None)
@given(tau_p=st.integers(1, 50), tau_u=st.integers(1, 400),
       n_ant=st.integers(1, 8), n_aps=st.integers(1, 64),
       n_groups=st.integers(1, 8), n_devices=st.integers(1, 40),
       rounds=st.integers(1, 200))
def test_crossover_consistent_with_direct_count(tau_p, tau_u, n_ant, n_aps,
                                                n_groups, n_devices, rounds):
    two = fronthaul_scalars(2, tau_p, tau_u, n_ant, n_aps, n_groups, n_devices)
    three = fronthaul_scalars(3, tau_p, tau_u, n_ant, n_aps, n_groups,
                              n_devices)
    total2 = total_per_block(two, rounds)
    total3 = total_per_block(three, rounds)
    pick = cheaper_level(tau_u, n_ant, n_groups, rounds)
    if pick is PreferredLevel.LEVEL2:
        assert total2 < total3
    elif pick is PreferredLevel.TIE:
        assert total2 == total3
    else:
        assert total2 >= total3

