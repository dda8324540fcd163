"""Fronthaul signaling counts per AP-cooperation level.

Counts complex scalars crossing the fronthaul: pilot/data signals per
coherence block, combining vectors per block (or training round), and the
one-time Hermitian channel-statistics transfer.  Parameter statistics and
transmit coefficients ride on side channels and are excluded.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
import math


class PreferredLevel(Enum):
    LEVEL2 = 2
    LEVEL3 = 3
    TIE = 0


@dataclass(frozen=True)
class FronthaulReport:
    """Complex-scalar counts for one cooperation level.

    ``statistics_scalars`` counts Hermitian-matrix storage (K*L*N^2/2) and
    is kept exact as a rational; it is integral whenever N is even.
    """

    pilot_data_scalars: int
    combiner_scalars: int
    statistics_scalars: Fraction

    def statistics_display(self):
        return math.ceil(self.statistics_scalars)


def fronthaul_scalars(level, tau_p, tau_u, n_ant, n_aps, n_groups, n_devices):
    """Fronthaul complex-scalar counts for one cooperation level.

    Level 3 forwards raw pilot and data signals and needs the channel
    statistics centrally; level 2 forwards raw pilots but only per-group
    partial combines, and receives the centrally designed combiners back;
    level 1 forwards only per-group local estimates.
    """
    for name, value in (("tau_p", tau_p), ("tau_u", tau_u), ("n_ant", n_ant),
                        ("n_aps", n_aps), ("n_groups", n_groups),
                        ("n_devices", n_devices)):
        if int(value) != value or value <= 0:
            raise ValueError(f"{name} must be a positive integer, got {value}")
    stats = Fraction(n_devices * n_aps * n_ant**2, 2)
    if level == 3:
        return FronthaulReport((tau_p + tau_u) * n_ant * n_aps, 0, stats)
    if level == 2:
        return FronthaulReport(tau_p * n_ant * n_aps + tau_u * n_groups * n_aps,
                               n_groups * n_ant * n_aps, stats)
    if level == 1:
        return FronthaulReport(tau_u * n_groups * n_aps, 0, Fraction(0))
    raise ValueError(f"unknown cooperation level {level!r}")


def cheaper_level(tau_u, n_ant, n_groups, rounds_per_block):
    """Which of levels 2 and 3 needs less recurring fronthaul signaling.

    With N antennas per AP and G groups, level 2 compresses data signals
    from N to G scalars per AP but must ship G*N combiner scalars per AP
    every training round.  For N <= G the compression never pays off; for
    N > G the break-even number of rounds per coherence block is
    ``tau_u (N - G) / (N G)``.
    """
    if n_ant <= n_groups:
        return PreferredLevel.LEVEL3
    threshold = Fraction(tau_u * (n_ant - n_groups), n_ant * n_groups)
    rounds_per_block = Fraction(rounds_per_block)
    if rounds_per_block < threshold:
        return PreferredLevel.LEVEL2
    if rounds_per_block > threshold:
        return PreferredLevel.LEVEL3
    return PreferredLevel.TIE
