"""Pipeline engine: drives samples through SHA -> six shared-OTA stages -> 2-bit flash.

Timing model
------------
The two-phase hardware schedule is collapsed to a per-sample dataflow with a
one-sample offset per slice: the decision a stage makes at sample n consumes
the residue its predecessor settled at sample n-1. A code therefore needs
``PIPELINE_LATENCY_SAMPLES`` steps to assemble, and the first that many
outputs of any run are warm-up.

Amplifier sharing
-----------------
Six stages ride on three shared amplifiers, paired (1,2), (3,4), (5,6) as
in the paper's converter; the SHA has its own. Within one sample the
stages amplify in stage order, so a shared amplifier's history alternates
between its two stages.
Without the reset phase, k_mem times the amplifier's previous settled
output is left as the starting point of its next amplification, which is the
memory effect the reset phase exists to kill; with it every amplification
starts from a discharged output, as if every k_mem were 0.

Blocks and relaxation
---------------------
``simulate`` runs the chain in blocks of ``BLOCK_SAMPLES`` samples; a block
starts from the residues the previous block settled last, which are also
what every amplifier last put out. The channels relax in amplifier groups,
{SHA}, {1,2}, {3,4}, {5,6}, in chain order, so a group's input is final and
its first stage decides once per block (waveform relaxation, Lelarasmee,
Ruehli & Sangiovanni-Vincentelli, IEEE TCAD 1(3), 1982). The second stage on
an amplifier takes its v_init from its partner's output in the same sweep,
the SHA and the first stage on each amplifier theirs from the previous
sweep, one sample earlier. That is all a sweep reads of the one before, so a
group whose first amplifier keeps no memory takes one sweep; any other
repeats its array sweep until its last channel's residues stop changing
bits. A bitwise fixed point satisfies each per-sample equation and, by
induction on the sample index, is the sequential result. A sample only
depends on earlier samples of the previous sweep, so the samples before the
first one that changed are final and later sweeps recompute only the suffix.
A group still unconverged from sample s on after ``MAX_SWEEPS`` sweeps is
finished from s one sample at a time on its own (``_step``); the groups
after it still relax over the whole block. The laws are written once,
``sub_adc_decide``, ``mdac_residue``, ``flash2b`` and ``settle_value``; the
sweeps and the group stepper call them, on arrays and floats, through one stage
hop, ``_target``, from one row per channel that the engine derives once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AdcConfig, ConfigError, MDAC_BETA, N_STAGES, SHA_BETA, validate
# comparator_diff is not called here; bench/tracer.py patches it in this module
from .stages import (comparator_diff, flash2b, flash_thresholds, mdac_residue,  # noqa: F401
                     settle_coefficients, settle_value, sub_adc_decide, sub_adc_thresholds)

# SHA, six stages, flash: seven one-sample hops from input to a complete code.
PIPELINE_LATENCY_SAMPLES = N_STAGES + 1

# Samples per block. A block's residue buffer and its few float64
# temporaries per stage (128 KB each) stay in cache: on a 2-core Xeon
# (2026-10), 16K and 32K blocks run 2^20 samples in the same time, 8K blocks
# take 1.15x as long, 2K blocks 2.5x and a single 2^20 block 3.5x.
BLOCK_SAMPLES = 16384

# Sweeps one amplifier group may take in a block before ``_step`` finishes
# the group. A stage pair's sweep over a full block costs about as much as
# stepping that pair over 45-51 samples (0.14-0.16 ms against 3.0-3.3 us a
# sample on a 2-core Xeon, 2026-10), so a group that stalls costs at most 1.2x
# stepping it outright; the degraded preset converges within the cap at
# every k_mem <= 1 from 250 MHz GBW up, and at k_mem <= 0.5 from 100 MHz up.
MAX_SWEEPS = 64

# Largest accepted |input| in units of vref. With |gain_mismatch| < 0.5,
# g <= 1 and k_mem <= 1 (all enforced by validate), one hop takes a residue
# bounded by r to less than 3r + 1.5 vref, so the seven hops of a memoryless
# sample stay below 3^7 (1e6 + 1) vref, about 2.2e9 vref, far from overflow.
# Amplifier memory compounds the hops from sample to sample and can still
# overflow; ``simulate`` then raises, naming the first non-finite sample.
INPUT_LIMIT_VREF = 1e6

@dataclass(frozen=True)
class SimulationResult:
    """Raw decision stream plus optional residue traces for one run.

    decisions has shape (n, 6) with values in {-1, 0, +1}; ``simulate``
    stores it column-major, one contiguous column per stage. flash has shape
    (n,) with values in {0..3}; residues has shape (n, 7) when recorded.
    sweeps is the most array sweeps any amplifier group of any block took (1
    when no group's first amplifier keeps memory). stepped_samples counts the
    samples each stalled group finished one at a time, summed over groups
    and blocks, so it can reach four times the run length (the SHA and three
    amplifier pairs).
    """

    vin: np.ndarray
    decisions: np.ndarray
    flash: np.ndarray
    residues: np.ndarray | None
    sweeps: int = 0
    stepped_samples: int = 0


def _target(u, hi, lo, gain, step):
    """One stage hop on inputs u, arrays or floats: (decisions, MDAC target)."""
    d = sub_adc_decide(u, hi, lo)
    return d, mdac_residue(u, d, gain, step)


class PipelineEngine:
    """Compiled form of one AdcConfig: one row per channel, the flash thresholds, the wiring.

    The engine is immutable after construction and keeps no run state, so
    one engine can serve many runs, and no run reads ``config``. ``_ch`` is
    indexed by channel, 0 the SHA and k stage k.
    """

    def __init__(self, config: AdcConfig):
        self.config = validate(config)
        c = self.config
        self.vref = vref = c.reference.vref
        self._flash_thr = flash_thresholds(c.flash_offsets, vref)
        # The amplifier sharing, stated once: one relaxation group per
        # amplifier, in chain order, as no amplifier feeds an earlier one.
        self._groups = [range(0, 1), range(1, 3), range(3, 5), range(5, 7)]
        # One row per channel: (g, e), at the feedback factor of the SHA or of a
        # stage; k_mem, 0.0 when the reset phase discharges every output; a stage's hop.
        amps = [c.sha] + list(c.stages)
        hops = [None] + [(*sub_adc_thresholds(st, vref), 2.0 * (1.0 + st.gain_mismatch),
                          (1.0 + st.dac_mismatch) * vref) for st in c.stages]
        t = c.clock.t_settle
        self._ch = [(*settle_coefficients(amp.ota, MDAC_BETA if ch else SHA_BETA, t),
                     0.0 if c.clock.reset_enabled else amp.ota.k_mem, hops[ch])
                    for ch, amp in enumerate(amps)]
        for ch, (_, e, *_) in enumerate(self._ch):
            if e == 1.0:  # t_settle so far below tau that the amplifier's output never moves
                key = f"stages[{ch - 1}].ota.gbw" if ch else "sha.ota.gbw"
                raise ConfigError(f"{key}, clock.settle_fraction / clock.fs: exp(-t_settle / tau) "
                                  "rounds to 1, so the amplifier never settles")

    # -- batch driver ----------------------------------------------------------

    def simulate(self, waveform, record_residues: bool = True) -> SimulationResult:
        """Run a whole waveform; output length equals input length.

        Bit-identical to stepping sample by sample. The waveform runs in
        blocks of ``BLOCK_SAMPLES``, relaxed one amplifier group at a time.
        A group whose first amplifier keeps no memory (reset enabled, or its
        k_mem zero) takes one array sweep; any other repeats its sweep until
        its residues reach a bitwise fixed point, and ``_step`` finishes what
        a group left unconverged after ``MAX_SWEEPS`` sweeps.
        Raises, naming the first bad sample, on non-finite input, input
        beyond ``INPUT_LIMIT_VREF`` times vref, and residues that overflow to
        non-finite values.
        """
        v = np.asarray(waveform, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"waveform must be a non-empty 1-D array, got shape {v.shape}")
        limit = INPUT_LIMIT_VREF * self.vref
        if not (-limit <= v.min() and v.max() <= limit):
            i = np.flatnonzero(~(np.abs(v) <= limit))[0]
            if not np.isfinite(v[i]):
                raise ValueError(f"non-finite input sample at index {i}: {v[i]}")
            raise ValueError(f"input sample at index {i} is out of range: "
                             f"|{v[i]}| > {INPUT_LIMIT_VREF:g} * vref")
        n = v.size
        # channel-major, so each stage's digits are one contiguous row for
        # ``_sweep`` to write and ``correct_stream`` to read
        decisions = np.empty((N_STAGES, n), dtype=np.int8).T
        flash = np.empty(n, dtype=np.int8)
        residues = np.empty((n, N_STAGES + 1), dtype=np.float64) if record_residues else None
        # channel-major: column 0 holds the residues of the sample before the
        # block (all zero before the first), column 1 + i those of sample i
        buf = np.zeros((N_STAGES + 1, min(n, BLOCK_SAMPLES) + 1), dtype=np.float64)
        sweeps = stepped = 0
        for b0 in range(0, n, BLOCK_SAMPLES):
            b1 = min(b0 + BLOCK_SAMPLES, n)
            cols = buf[:, :b1 - b0 + 1]
            block_sweeps, block_stepped = self._block(v[b0:b1], cols, decisions[b0:b1],
                                                      flash[b0:b1])
            # Only a group whose first amplifier keeps memory can overflow
            # (INPUT_LIMIT_VREF), growing from sample to sample; it and what it
            # drives stay non-finite: a finite last column means a finite block.
            if not np.isfinite(cols[:, -1]).all():
                i = b0 + int((~np.isfinite(cols[:, 1:])).any(axis=0).argmax())
                raise ValueError(f"residues overflow: non-finite residue at sample {i}")
            sweeps = max(sweeps, block_sweeps)
            stepped += block_stepped
            if residues is not None:
                residues[b0:b1] = cols[:, 1:].T
            buf[:, 0] = cols[:, -1]
        return SimulationResult(vin=v, decisions=decisions, flash=flash, residues=residues,
                                sweeps=sweeps, stepped_samples=stepped)

    def _block(self, v: np.ndarray, cols: np.ndarray, decisions: np.ndarray,
               flash: np.ndarray) -> tuple[int, int]:
        """Run one block; returns (most sweeps of any group, samples stepped).

        cols is laid out as in ``simulate``; its column 0 is final on entry,
        and with memory the rest, whatever it holds, is the first sweep's guess.
        """
        n, most, stepped = v.size, 0, 0
        for group in self._groups:  # its upstream is final: decide once, not per sweep
            k = group[0]
            target = v
            if k:  # a stage: its hop is the last field of its row
                decisions[:, k - 1], target = _target(cols[k - 1, :n], *self._ch[k][-1])
            start = sweeps = 0
            while start < n and sweeps < MAX_SWEEPS:
                # the first changed sample was computed from final inputs: it is final too
                start = min(self._sweep(group, target, start, decisions, cols) + 1, n)
                sweeps += 1
            most = max(most, sweeps)
            if start < n:
                self._step(group, target, start, decisions, cols)
                stepped += n - start
        flash[:] = flash2b(cols[N_STAGES, :n], self._flash_thr)
        return most, stepped

    def _sweep(self, group: range, target: np.ndarray, start: int, decisions: np.ndarray,
               cols: np.ndarray) -> int:
        """One array pass over the channels of ``group`` and block samples ``start:``.

        The group's first channel settles toward ``target``; the others
        decide on their predecessor. Writes decisions[start:] and
        cols[group, 1 + start:]. ``cols`` holds the previous pass, final
        before ``start``. v_init is k_mem times the amplifier's last output, the
        last channel's of the sample before for the first channel and the
        predecessor's of the same sample for any other, or 0.0 where k_mem is 0.
        Returns the first sample at which the last channel changed bits, as
        it feeds the first one sample later; the pass length when none did,
        or when the first channel keeps no memory.
        """
        first = cols.shape[1] - 1
        for ch in group:
            g, e, kmem, hop = self._ch[ch]
            if ch == group[0]:
                target, first_kmem = target[start:], kmem
                prev_out = cols[group[-1], start:-1]
            else:
                decisions[start:, ch - 1], target = _target(cols[ch - 1, start:-1], *hop)
                prev_out = cols[ch - 1, 1 + start:]
            settled = settle_value(target, kmem * prev_out if kmem else 0.0, g, e)
            if ch == group[-1] and first_kmem:
                diff = settled.view(np.int64) != cols[ch, 1 + start:].view(np.int64)
                i = int(diff.argmax())
                if diff[i]:
                    first = start + i
            cols[ch, 1 + start:] = settled
            del settled  # freed before the next channel allocates: 3% faster on 4K samples
        return first

    def _step(self, group: range, target: np.ndarray, start: int, decisions: np.ndarray,
              cols: np.ndarray) -> None:
        """Finish ``group`` from block sample ``start`` one sample at a time, on floats.

        Takes the arguments of ``_sweep`` and writes what its fixed point
        would: decisions[start:] and cols[group, 1 + start:]. Each sample
        runs the group's channels in order, so each amplifier output it reads,
        where ``_sweep`` reads it, is already final. v_init is
        k_mem times that output, +-0.0 where k_mem is 0, which settles as 0.0 does.
        """
        rows = {ch: cols[ch].tolist() for ch in group}
        targets = target.tolist()
        digits = {k: [] for k in group[1:]}
        for i in range(start, len(targets)):
            for ch in group:
                g, e, kmem, hop = self._ch[ch]
                if ch == group[0]:
                    t, prev_out = targets[i], rows[group[-1]][i]
                else:
                    d, t = _target(rows[ch - 1][i], *hop)
                    digits[ch].append(d)
                    prev_out = rows[ch - 1][i + 1]
                rows[ch][i + 1] = settle_value(t, kmem * prev_out, g, e)
        for ch in group:
            cols[ch, 1 + start:] = rows[ch][1 + start:]
        for k, ds in digits.items():
            decisions[start:, k - 1] = ds

