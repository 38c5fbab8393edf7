"""Sequential reference for the engine: the chain stepped one sample at a time.

It calls the stage laws but none of the engine's wiring: the amplifier each
stage uses comes from its own table below and the comparator thresholds from
its own calls of the threshold laws, so a fault in the engine's memory
sources, relaxation groups or thresholds shows up as a difference.
"""

import numpy as np

from pipeadc import SimulationResult, flash2b, mdac_residue, settle_coefficients, sub_adc_decide
from pipeadc.config import N_STAGES
from pipeadc.stages import flash_thresholds, settle_value, sub_adc_thresholds

# channel -> amplifier: the SHA has its own, stages (1,2), (3,4), (5,6) share one each
AMPLIFIER = (0, 1, 1, 2, 2, 3, 3)


def stepped(config, wave):
    """Run ``wave`` through SHA, stages 1-6 and flash one sample at a time, on floats.

    At each sample the SHA settles toward the input, stage k decides on and
    amplifies what stage k-1 settled one sample earlier, and the flash decides
    on what stage 6 settled. The stages amplify in order, and each amplifier
    keeps the last output put out on it: with the reset phase off, k_mem
    times that output is where its next amplification starts.
    """
    vref = config.reference.vref
    reset = config.clock.reset_enabled
    amps = [config.sha] + list(config.stages)
    coeffs = [settle_coefficients(amp.ota, config.clock.t_settle) for amp in amps]
    thresholds = [None] + [sub_adc_thresholds(st, vref) for st in config.stages]
    flash_thr = flash_thresholds(config.flash_offsets, vref)
    last = [0.0] * (max(AMPLIFIER) + 1)  # last output put out on each amplifier
    wave = np.asarray(wave, dtype=np.float64)
    n = wave.size
    decisions = np.empty((n, N_STAGES), dtype=np.int8)
    flash = np.empty(n, dtype=np.int8)
    residues = np.empty((n, N_STAGES + 1), dtype=np.float64)
    prev = [0.0] * (N_STAGES + 1)
    for i, vin in enumerate(wave.tolist()):
        flash[i] = flash2b(prev[N_STAGES], flash_thr)
        out = []
        for k, amp in enumerate(amps):
            if k == 0:
                target = vin
            else:
                d = sub_adc_decide(prev[k - 1], *thresholds[k])
                decisions[i, k - 1] = d
                target = mdac_residue(prev[k - 1], d, amp, vref)
            v_init = 0.0 if reset else amp.ota.k_mem * last[AMPLIFIER[k]]
            last[AMPLIFIER[k]] = settle_value(target, v_init, *coeffs[k])
            out.append(last[AMPLIFIER[k]])
        residues[i] = prev = out
    return SimulationResult(vin=wave, decisions=decisions, flash=flash, residues=residues)
