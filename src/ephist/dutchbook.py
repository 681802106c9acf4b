"""Settled bets at quoted prices, and why negative prices are sure losses.

A bettor pays price p_A per unit stake on "A occurs" and p_~A on the
complement; the bookie settles after the fact. Per-outcome gains:

    gain if A:  G_A  = S_A - p_A S_A - p_~A S_~A
    gain if ~A: G_~A = S_~A - p_~A S_~A - p_A S_A

Quoting a negative p_A invites S_A < 0 (the bettor "sells" the bet and
still collects the negative price); with S_~A = 0 both gains are then
negative, a Dutch book. Prices inside [0, 1] with complementary p_~A
never lose on both outcomes. Extended probabilities outside [0, 1] are
therefore not prices for settleable bets; only recorded (decoherent)
alternatives support them.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BetSpec", "GainReport", "dutch_book_gains", "exploit_negative_price", "gain_report"]


@dataclass(frozen=True)
class BetSpec:
    """Stakes and quoted prices for a two-outcome book."""

    p_a: float
    s_a: float
    s_not_a: float = 0.0
    p_not_a: float | None = None

    def __post_init__(self):
        if self.p_not_a is None:
            object.__setattr__(self, "p_not_a", 1.0 - self.p_a)


def dutch_book_gains(bet: BetSpec) -> tuple[float, float]:
    """(gain if A occurs, gain if ~A occurs) for the bettor."""
    outlay = bet.p_a * bet.s_a + bet.p_not_a * bet.s_not_a
    return bet.s_a - outlay, bet.s_not_a - outlay


@dataclass(frozen=True)
class GainReport:
    bet: BetSpec
    gain_a: float
    gain_not_a: float

    @property
    def sure_loss(self) -> bool:
        return self.gain_a < 0.0 and self.gain_not_a < 0.0


def gain_report(bet: BetSpec) -> GainReport:
    g_a, g_not_a = dutch_book_gains(bet)
    return GainReport(bet, g_a, g_not_a)


def exploit_negative_price(p_a: float, stake: float = -1.0) -> GainReport:
    """The canonical exploit: negative price, negative stake, no side bet.

    Both gains come out negative and the loss when A occurs is
    |S_A| (1 + |p_A|).
    """
    return gain_report(BetSpec(p_a=p_a, s_a=stake, s_not_a=0.0))
