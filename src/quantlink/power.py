"""Receiver power-consumption model and the energy-efficiency metric.

Only the receive chain is modeled: LNAs per antenna, a phase-shifter network
and RF chain per receive chain, two ADCs per chain (I and Q), and a baseband
processor.  ADC power follows the Walden figure of merit, so it doubles with
every added bit.  Units are carried exactly as configured (mW, fJ, Hz) with
conversions centralized in :func:`energy_efficiency`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .channel import _MAX_DOUBLE, _check_count, _check_positive, _is_integer

__all__ = [
    "PowerModelParams",
    "adc_power",
    "total_power",
    "energy_efficiency",
]


@dataclass(frozen=True)
class PowerModelParams:
    """Component powers (mW), ADC figure of merit (fJ/conversion-step),
    sampling rate and bandwidth (Hz); each must be positive and finite."""

    p_lna_mw: float = 20.0
    p_ps_mw: float = 10.0
    p_rf_chain_mw: float = 40.0
    p_bb_mw: float = 200.0
    fom_w_fj: float = 500.0
    f_s_hz: float = 1e9
    bandwidth_hz: float = 1e9

    def __post_init__(self):
        for f in fields(self):
            _check_positive(getattr(self, f.name), f.name)


def adc_power(params: PowerModelParams, bits: int) -> float:
    """Single ADC power in mW: FOM_W * f_s * 2^bits, for an integer ``bits`` >= 1."""
    _check_count(bits, "bits")
    # fJ * Hz = 1e-15 W; scale to mW
    return params.fom_w_fj * 1e-15 * params.f_s_hz * 2.0**bits * 1e3


def total_power(
    params: PowerModelParams,
    n_rx: int,
    n_rf_rx: int,
    bits: int,
    phase_shifters: bool = True,
) -> float:
    """Receiver power in mW:
    N_r P_LNA + N_rf (N_r P_PS + P_RFchain + 2 P_ADC) + P_BB.

    ``phase_shifters=False`` drops the P_PS term, modeling a fully-digital
    receiver (typically with n_rf_rx = n_rx) that has no analog combining
    network in front of the chains.
    """
    if not (_is_integer(n_rx) and _is_integer(n_rf_rx)) or n_rf_rx < 0 or n_rf_rx > n_rx:
        raise ValueError(f"need 0 <= n_rf_rx <= n_rx, got n_rf_rx={n_rf_rx}, n_rx={n_rx}")
    per_chain = (params.p_ps_mw * n_rx if phase_shifters else 0.0) + params.p_rf_chain_mw
    per_chain += 2.0 * adc_power(params, bits)
    return n_rx * params.p_lna_mw + n_rf_rx * per_chain + params.p_bb_mw


def energy_efficiency(rate_bpshz: float, bandwidth_hz: float, p_tot_mw: float) -> float:
    """Delivered bits per Joule: rate * bandwidth / total power (mW converted to W).

    The rate must be nonnegative and finite, the bandwidth and the power positive
    and finite."""
    _check_positive(p_tot_mw, "p_tot_mw")
    if rate_bpshz < 0:
        raise ValueError("rate must be nonnegative")
    if not rate_bpshz <= _MAX_DOUBLE:  # NaN and an integer beyond float range included
        raise ValueError(f"rate must be a finite number, got {rate_bpshz!r}")
    _check_positive(bandwidth_hz, "bandwidth_hz")
    return rate_bpshz * bandwidth_hz / (p_tot_mw * 1e-3)
