"""Single-stage analog behavior: comparator decisions, MDAC residue law, amplifier settling.

Everything here is a pure function of its arguments; the pipeline engine owns
all state. The comparator decisions take one float each; the engine decides
whole arrays by comparing against thresholds derived from these functions.
The residue and settling laws work elementwise on floats and numpy arrays
alike, and every engine path calls them, so each is written once.
"""

from __future__ import annotations

import math

from .config import OtaParams, StageParams


def settle_coefficients(ota: OtaParams, t: float) -> tuple[float, float]:
    """Return (g, e): the static fraction of the target reached, and exp(-t/tau).

    A single-pole feedback amplifier settles as

        v(t) = v_static + (v_init - v_static) * exp(-t / tau)

    with v_static = g * v_target, g = beta*a0 / (1 + beta*a0), and
    tau = 1 / (2*pi*beta*gbw). The static shortfall 1 - g = 1/(1 + beta*a0)
    is the gain error; the decaying term is the dynamic error. g is computed
    as 1/(1 + 1/(beta*a0)) so an infinite a0 gives exactly 1.0.
    """
    g = 1.0 / (1.0 + 1.0 / (ota.beta * ota.a0))
    e = math.exp(-t * (2.0 * math.pi * ota.beta * ota.gbw))
    return g, e


def settle_value(v_target, v_init, g: float, e: float):
    """Evaluate the settling expression with precomputed coefficients.

    Works elementwise on arrays. Kept as the single definition of the
    arithmetic so the scalar and vectorized simulation paths are bit-identical.
    """
    v_static = g * v_target
    return v_static + (v_init - v_static) * e


def comparator_diff(vr_p, vr_n, vi_p, vi_n):
    """Pre-amplifier differential voltage of the switched-capacitor comparator.

    The charge on the sampling capacitors is conserved between the two
    phases, so the voltage seen by the latch is exactly
    (vr_p - vr_n) - (vi_p - vi_n). The comparator trips on its sign.
    """
    return (vr_p - vr_n) - (vi_p - vi_n)


def sub_adc_decide(vin: float, stage: StageParams, vref: float) -> int:
    """Ternary 1.5-bit decision with thresholds +-vref/4 shifted by the offsets.

    The input is applied differentially (vi+ - vi- = 2*vin) against a
    reference pair straddling the threshold (vr+ - vr- = +-vref/2), so each
    comparison reduces to the sign of :func:`comparator_diff` plus the
    comparator's input-referred offset. Exact ties resolve to d = 0.
    """
    v_hi = comparator_diff(0.25 * vref, -0.25 * vref, vin, -vin)
    if v_hi < -2.0 * stage.cmp_offset_hi:
        return 1
    v_lo = comparator_diff(-0.25 * vref, 0.25 * vref, vin, -vin)
    if v_lo > -2.0 * stage.cmp_offset_lo:
        return -1
    return 0


def mdac_residue(vin, d, stage: StageParams, vref: float):
    """Ideal multiply-by-2 residue before settling: 2*(1+eps_g)*vin - d*(1+eps_d)*vref.

    d in {-1, 0, +1} is the decision on vin. Elementwise on arrays; every
    engine path calls it, so all share its float operations and their order.
    """
    return (2.0 * (1.0 + stage.gain_mismatch)) * vin - d * ((1.0 + stage.dac_mismatch) * vref)


def flash2b(vin: float, offsets, vref: float) -> int:
    """2-bit thermometer decision against {-vref/2, 0, +vref/2} plus per-threshold offsets.

    Returns the count of thresholds strictly exceeded, in {0..3}; an exact tie
    does not count, so boundary inputs take the lower code.
    """
    code = 0
    for thr, off in zip((-0.5 * vref, 0.0, 0.5 * vref), offsets):
        v_diff = comparator_diff(thr, -thr, vin, -vin)
        if v_diff < -2.0 * off:
            code += 1
    return code

