"""Simulator and solvers for multi-task over-the-air federated learning
in cell-free massive MIMO uplinks.

Subpackages by concern: ``topology`` (geometry), ``channel`` (fading),
``estimation`` (pilots and MMSE estimates), ``aggregation`` (combiners,
transmit coefficients, alternating solver), ``fl_engine`` (training and
over-the-air rounds), ``accounting`` (fronthaul counts), ``runner``
(scenario orchestration and CSV output).
"""


class CfotaError(ValueError):
    """A named error, which the CLI prints as one ``Name: message`` line; any
    other exception is a bug.  Defined ahead of the submodules that import it."""


from . import (accounting, aggregation, channel, estimation, fl_engine,  # noqa: E402
               rng, runner, topology)

__all__ = ["CfotaError", "accounting", "aggregation", "channel", "estimation",
           "fl_engine", "rng", "runner", "topology"]
