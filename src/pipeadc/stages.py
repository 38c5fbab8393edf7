"""Single-stage analog behavior: comparator decisions, MDAC residue law, amplifier settling.

Everything here is a pure function of its arguments; the pipeline engine owns
all state. Every law works elementwise on floats and numpy arrays alike, and
every engine path calls it, so each is written once. A comparator trips when
its input exceeds the real sum threshold + offset: the input is compared with
the smallest float on the far side of that sum, which makes the comparison
exact for every float input and offset.
"""

from __future__ import annotations

import math

import numpy as np

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
    (vr_p - vr_n) - (vi_p - vi_n). The comparator trips on its sign; for
    offsets within vref/8 that sign flips exactly where the decisions below
    compare the input with the real threshold.
    """
    return (vr_p - vr_n) - (vi_p - vi_n)


def _above(a: float, b: float, strict: bool) -> float:
    """Smallest float x with x > a + b (strict) or x >= a + b, the sum taken exactly.

    TwoSum (Knuth, TAOCP vol. 2, 4.2.2) gives the exact rounding error err of
    s = a + b, and |err| is at most half an ulp of s: the answer is s when the
    real sum lies below s, or on it when not strict, and the next float up
    otherwise. A sum that overflows gives +-inf, the right answer for it.
    """
    s = a + b
    b_part = s - a
    err = (a - (s - b_part)) + (b - b_part)
    return math.nextafter(s, math.inf) if err > 0.0 or (strict and err == 0.0) else s


def _flag(hit):
    """A comparison as 0/1: an int8 array elementwise, an int for a scalar."""
    return hit.view(np.int8) if isinstance(hit, np.ndarray) else int(hit)


def sub_adc_decide(vin, stage: StageParams, vref: float):
    """Ternary 1.5-bit decision: thresholds +-vref/4 shifted by the comparator offsets.

    d = +1 when vin > vref/4 + cmp_offset_hi, else -1 when
    vin < cmp_offset_lo - vref/4, else 0: an exact tie gives 0, and when
    offsets make the thresholds cross, +1 wins. Elementwise on arrays (int8).
    """
    q = 0.25 * vref
    hi = _above(q, stage.cmp_offset_hi, True)
    lo = min(_above(stage.cmp_offset_lo, -q, False), hi)
    return _flag(vin >= hi) - _flag(vin < lo)


def mdac_residue(vin, d, stage: StageParams, vref: float):
    """Ideal multiply-by-2 residue before settling: 2*(1+eps_g)*vin - d*(1+eps_d)*vref.

    d in {-1, 0, +1} is the decision on vin. Elementwise on arrays; every
    engine path calls it, so all share its float operations and their order.
    """
    return (2.0 * (1.0 + stage.gain_mismatch)) * vin - d * ((1.0 + stage.dac_mismatch) * vref)


def flash2b(vin, offsets, vref: float):
    """2-bit thermometer decision against {-vref/2, 0, +vref/2} plus per-threshold offsets.

    Returns the count of thresholds thr + offset strictly exceeded, in {0..3};
    an exact tie does not count, so boundary inputs take the lower code.
    Elementwise on arrays (int8).
    """
    off_lo, off_mid, off_hi = offsets
    return (_flag(vin >= _above(-0.5 * vref, off_lo, True))
            + _flag(vin >= _above(0.0, off_mid, True))
            + _flag(vin >= _above(0.5 * vref, off_hi, True)))
