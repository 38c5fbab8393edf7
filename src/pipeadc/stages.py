"""Single-stage analog behavior: comparator decisions, MDAC residue law, amplifier settling.

Everything here is a pure function of its arguments; the pipeline engine owns
all state. Every law works elementwise on floats and numpy arrays alike, and
every engine path calls it, so each is written once. A comparator trips when
its input exceeds the real sum threshold + offset: ``sub_adc_thresholds`` and
``flash_thresholds`` turn each sum into the smallest float on its far side,
once per config, and ``sub_adc_decide`` and ``flash2b`` compare the input
with those floats, which makes the comparison exact for every float input
and offset.
"""

from __future__ import annotations

import math

import numpy as np

from .config import OtaParams, StageParams


def settle_coefficients(ota: OtaParams, beta: float, t: float) -> tuple[float, float]:
    """Return (g, e): the static fraction of the target reached, and exp(-t/tau).

    With beta the feedback factor the circuit sets, a single-pole amplifier settles as

        v(t) = v_static + (v_init - v_static) * exp(-t / tau)

    with v_static = g * v_target, g = beta*a0 / (1 + beta*a0), and
    tau = 1 / (2*pi*beta*gbw). The static shortfall 1 - g = 1/(1 + beta*a0)
    is the gain error; the decaying term is the dynamic error. g is computed
    as 1/(1 + 1/(beta*a0)) so an infinite a0 gives exactly 1.0.
    """
    g = 1.0 / (1.0 + 1.0 / (beta * ota.a0))
    e = math.exp(-t * (2.0 * math.pi * beta * ota.gbw))
    return g, e


def settle_value(v_target, v_init, g: float, e: float):
    """Evaluate the settling expression with precomputed coefficients.

    Works elementwise on arrays. Kept as the single definition of the
    arithmetic so the scalar and vectorized simulation paths are bit-identical.
    It works in place in its own first temporary, never in an argument (the
    engine passes views of its residue buffer); IEEE addition commutes exactly.
    """
    v_static = g * v_target
    out = v_init - v_static
    out *= e
    out += v_static
    return out


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
    """A comparison as 0/1: an int for a Python bool, else its int8 view (elementwise on arrays).

    The class test is the cheap one: the group stepper pays it per comparator per sample.
    """
    return int(hit) if hit.__class__ is bool else hit.view(np.int8)


def sub_adc_thresholds(stage: StageParams, vref: float) -> tuple[float, float]:
    """The 1.5-bit comparators' thresholds (hi, lo): +-vref/4 shifted by the offsets.

    hi is the smallest float above vref/4 + cmp_offset_hi, lo the smallest
    float at or above cmp_offset_lo - vref/4, both sums taken exactly, so a
    tie at either real threshold decides 0. When offsets make the thresholds
    cross, lo is clamped to hi, so +1 wins.
    """
    q = 0.25 * vref
    hi = _above(q, stage.cmp_offset_hi, True)
    return hi, min(_above(stage.cmp_offset_lo, -q, False), hi)


def sub_adc_decide(vin, hi: float, lo: float):
    """Ternary 1.5-bit decision: +1 from hi up, else -1 below lo, else 0 (int8 on arrays)."""
    return _flag(vin >= hi) - _flag(vin < lo)


def mdac_residue(vin, d, gain: float, step: float):
    """Ideal multiply-by-2 residue before settling: gain*vin - d*step.

    A stage's gain 2*(1+eps_g) and DAC step (1+eps_d)*vref are fabrication
    constants, which the engine derives once per config. d in {-1, 0, +1} is
    the decision on vin. Elementwise on arrays; every engine path calls it,
    so all share its float operations and their order. It works in place in
    its own first temporary, never in vin or d.
    """
    out = gain * vin
    out -= d * step
    return out


def flash_thresholds(offsets, vref: float) -> tuple[float, float, float]:
    """The smallest floats above {-vref/2, 0, +vref/2} plus offsets: a tie takes the lower code."""
    return tuple(_above(level * vref, off, True) for level, off in zip((-0.5, 0.0, 0.5), offsets))


def flash2b(vin, thresholds):
    """2-bit flash code: how many of ``flash_thresholds`` vin reaches, 0..3 (int8 on arrays)."""
    t_lo, t_mid, t_hi = thresholds
    return _flag(vin >= t_lo) + _flag(vin >= t_mid) + _flag(vin >= t_hi)
