"""Two references for the engine: the chain stepped one sample at a time, and a certificate check.

Both call the stage laws but none of the engine's wiring: the amplifier each
stage uses and its feedback factor come from their own tables below, and the
comparator thresholds, MDAC gains and DAC steps from their own derivations
from the config, so a fault in the engine's memory sources, relaxation
groups, feedback factors, thresholds or coefficients shows up as a difference.
"""

import numpy as np

from pipeadc import SimulationResult, flash2b, mdac_residue, settle_coefficients, sub_adc_decide
from pipeadc.config import N_STAGES
from pipeadc.stages import flash_thresholds, settle_value, sub_adc_thresholds

# channel -> amplifier: the SHA has its own, stages (1,2), (3,4), (5,6) share one each
AMPLIFIER = (0, 1, 1, 2, 2, 3, 3)
# channel -> feedback factor: the SHA holds with unity feedback, each MDAC multiplies by 2
BETA = (1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)


def _hop(stage, vref):
    """A stage's thresholds (hi, lo), MDAC gain 2(1 + eps_g) and DAC step (1 + eps_d) vref."""
    return (*sub_adc_thresholds(stage, vref), 2.0 * (1.0 + stage.gain_mismatch),
            (1.0 + stage.dac_mismatch) * vref)


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
    coeffs = [settle_coefficients(amp.ota, beta, config.clock.t_settle)
              for amp, beta in zip(amps, BETA)]
    hops = [None] + [_hop(st, vref) for st in config.stages]
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
                hi, lo, gain, step = hops[k]
                d = sub_adc_decide(prev[k - 1], hi, lo)
                decisions[i, k - 1] = d
                target = mdac_residue(prev[k - 1], d, gain, step)
            v_init = 0.0 if reset else amp.ota.k_mem * last[AMPLIFIER[k]]
            last[AMPLIFIER[k]] = settle_value(target, v_init, *coeffs[k])
            out.append(last[AMPLIFIER[k]])
        residues[i] = prev = out
    return SimulationResult(vin=wave, decisions=decisions, flash=flash, residues=residues)


def certify(config, wave, result):
    """Check that ``result`` solves every per-sample equation of the chain, bit for bit.

    Each equation is the one ``stepped`` evaluates, with every earlier value
    read from ``result`` itself (zeros before the first sample): the flash
    code and each stage's decision on the sample before, and each channel's
    settled value, which starts from k_mem times the last output on its
    amplifier, an earlier channel's of the same sample or else the last
    channel's on it of the sample before. The chain is causal, so by
    induction on the sample index a result that passes is the sequential
    one. One array pass per channel; raises AssertionError naming the first
    sample of the first equation that fails.
    """
    vref = config.reference.vref
    amps = [config.sha] + list(config.stages)
    wave = np.asarray(wave, dtype=np.float64)
    res = result.residues

    def before(k):  # channel k's output of each sample's previous sample
        return np.concatenate(([0.0], res[:-1, k]))

    checks = [("flash", result.flash,
               flash2b(before(N_STAGES), flash_thresholds(config.flash_offsets, vref)))]
    for k, amp in enumerate(amps):
        if k == 0:
            target = wave
        else:
            hi, lo, gain, step = _hop(amp, vref)
            u = before(k - 1)
            d = sub_adc_decide(u, hi, lo)
            checks.append((f"stage {k} decision", result.decisions[:, k - 1], d))
            target = mdac_residue(u, d, gain, step)
        shared = [j for j in range(N_STAGES + 1) if AMPLIFIER[j] == AMPLIFIER[k]]
        earlier = [j for j in shared if j < k]
        last = res[:, earlier[-1]] if earlier else before(shared[-1])
        v_init = 0.0 if config.clock.reset_enabled else amp.ota.k_mem * last
        coeffs = settle_coefficients(amp.ota, BETA[k], config.clock.t_settle)
        settled = settle_value(target, v_init, *coeffs)
        checks.append((f"channel {k} residue", res[:, k].view(np.int64), settled.view(np.int64)))
    for name, got, want in checks:
        bad = np.flatnonzero(got != want)
        if bad.size:
            raise AssertionError(f"{name} fails at sample {bad[0]} of {wave.size}")
