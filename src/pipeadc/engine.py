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
Six stages ride on three shared amplifiers, paired (1,2), (3,4), (5,6) by
default; the SHA has its own. Within one sample the stages amplify in stage
order, so a shared amplifier's history alternates between its two stages.
With the reset phase enabled every amplification starts from a discharged
output (v_init = 0); without it, k_mem times the amplifier's previous settled
output is left as the starting point, which is the memory effect the reset
phase exists to kill.

Blocks and relaxation
---------------------
``simulate`` runs the chain in blocks of ``BLOCK_SAMPLES`` samples; a block
starts from the residues the previous block settled last, which are also
what every amplifier last put out. With memory the channels relax in
amplifier groups, the strongly connected components of the graph with
edges from each channel to the next and from each v_init's source channel
to its user: {SHA}, {1,2}, {3,4}, {5,6} by default; a memoryless chain is
one group. Groups run in chain order, so a group's input is final and its
first stage decides once per block (waveform relaxation, Lelarasmee,
Ruehli & Sangiovanni-Vincentelli, IEEE TCAD 1(3), 1982). The second stage
on an amplifier takes its v_init from its partner's output in the same
sweep, the SHA and the first stage on each amplifier theirs from the
previous sweep, one sample earlier; a group repeats its array sweep until
none of its residues changes a bit (once when memoryless). A bitwise fixed
point satisfies each per-sample equation and, by induction on the sample
index, is the sequential result. A sample only depends on earlier samples
of the previous sweep, so the samples before the first one that changed
are final and later sweeps recompute only the suffix. A group still
unconverged from sample s on after ``MAX_SWEEPS`` sweeps is finished from s
one sample at a time on its own (``_step``); the groups after it still
relax over the whole block. The laws are written once, ``sub_adc_decide``,
``mdac_residue``, ``flash2b`` and ``settle_value``, and the sweeps call
them on arrays, the group stepper on floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AdcConfig, N_STAGES, validate
# comparator_diff is not called here; bench/tracer.py patches it in this module
from .stages import (comparator_diff, flash2b, mdac_residue, settle_coefficients,  # noqa: F401
                     settle_value, sub_adc_decide)

# SHA, six stages, flash: seven one-sample hops from input to a complete code.
PIPELINE_LATENCY_SAMPLES = 7

DEFAULT_PAIRING = ((1, 2), (3, 4), (5, 6))

# Samples per block. A block's residue buffer and its few float64
# temporaries per stage (128 KB each) stay in cache: 8K-32K blocks run 2^20
# samples in about the same time, 2K blocks take about 1.7x as long and a
# single 2^20 block about 3x.
BLOCK_SAMPLES = 16384

# Sweeps one amplifier group may take in a block before ``_step`` finishes
# the group. A stage pair's sweep over a full block costs about as much as
# stepping that pair over 190 samples, so a group that stalls costs at most
# about 1.75x stepping it outright; the degraded preset converges within the
# cap at every k_mem <= 1 from 250 MHz GBW up, and at k_mem <= 0.5 from
# 100 MHz up.
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
    when memoryless). stepped_samples counts the samples each stalled group
    finished one at a time, summed over groups and blocks, so it can reach
    four times the run length (the SHA and three amplifier pairs).
    """

    vin: np.ndarray
    decisions: np.ndarray
    flash: np.ndarray
    residues: np.ndarray | None
    fs: float
    sweeps: int = 0
    stepped_samples: int = 0


@dataclass(frozen=True)
class SettleRow:
    """One line of the step-settling report."""

    stage: str
    ideal_mv: float
    simulated_mv: float
    error_pct: float


class PipelineEngine:
    """Compiled form of one AdcConfig: per-amplifier settling coefficients and memory wiring.

    The engine is immutable after construction and keeps no run state, so
    one engine can serve many runs. Per-amplifier lists are indexed by
    channel: 0 is the SHA, k is stage k.
    """

    def __init__(self, config: AdcConfig, pairing: tuple[tuple[int, int], ...] = DEFAULT_PAIRING):
        self.config = validate(config)
        if sorted(a for pair in pairing for a in pair) != list(range(1, N_STAGES + 1)):
            raise ValueError("pairing must cover stages 1..6 exactly once")
        c = self.config
        t = c.clock.t_settle
        self.vref = c.reference.vref
        # channel -> (channel whose output sets its v_init, same sample?)
        self._mem_src = {0: (0, False)}
        for pair in pairing:
            for stage_no in pair:
                before = [other for other in pair if other < stage_no]
                self._mem_src[stage_no] = (max(before), True) if before else (max(pair), False)
        self._g = []
        self._e = []
        self._kmem = []
        for amp in [c.sha] + list(c.stages):
            g, e = settle_coefficients(amp.ota, t)
            self._g.append(g)
            self._e.append(e)
            self._kmem.append(amp.ota.k_mem)
        self._memoryless = c.clock.reset_enabled or all(k == 0.0 for k in self._kmem)
        # Relaxation groups in chain order: with memory, the strongly connected
        # components of the channel graph (edges k-1 -> k and each _mem_src ->
        # its channel). The chain edges make each a run of channels; a memory
        # edge back from a later channel joins every channel between to one
        # run. Without memory any grouping converges in one sweep: one group.
        starts, reach = [], -1
        for ch in range(N_STAGES + 1):
            if ch > reach:
                starts.append(ch)
            reach = max(reach, N_STAGES if self._memoryless else self._mem_src[ch][0])
        self._groups = [range(a, b) for a, b in zip(starts, starts[1:] + [N_STAGES + 1])]

    # -- batch driver ----------------------------------------------------------

    def simulate(self, waveform, record_residues: bool = True) -> SimulationResult:
        """Run a whole waveform; output length equals input length.

        Bit-identical to stepping sample by sample. The waveform runs in
        blocks of ``BLOCK_SAMPLES``, relaxed one amplifier group at a time.
        Without memory (reset enabled, or every k_mem zero) the chain is one
        group and takes one array sweep; with it a group repeats its sweep
        until its residues reach a bitwise fixed point, and ``_step``
        finishes what a group left unconverged after ``MAX_SWEEPS`` sweeps.
        Raises, naming the first bad sample, on non-finite input, input
        beyond ``INPUT_LIMIT_VREF`` times vref, and residues that overflow to
        non-finite values.
        """
        v = np.asarray(waveform, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("empty waveform")
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
            # Only memory runs can overflow (INPUT_LIMIT_VREF), and there a
            # non-finite output stays on its amplifier, since 0.0 * NaN is
            # NaN: a block with a finite last column is finite throughout.
            if not np.isfinite(cols[:, -1]).all():
                i = b0 + int((~np.isfinite(cols[:, 1:])).any(axis=0).argmax())
                raise ValueError(f"residues overflow: non-finite residue at sample {i}")
            sweeps = max(sweeps, block_sweeps)
            stepped += block_stepped
            if residues is not None:
                residues[b0:b1] = cols[:, 1:].T
            buf[:, 0] = cols[:, -1]
        return SimulationResult(vin=v, decisions=decisions, flash=flash, residues=residues,
                                fs=self.config.clock.fs, sweeps=sweeps, stepped_samples=stepped)

    def _block(self, v: np.ndarray, cols: np.ndarray, decisions: np.ndarray,
               flash: np.ndarray) -> tuple[int, int]:
        """Run one block; returns (most sweeps of any group, samples stepped).

        cols is laid out as in ``simulate``; its column 0 is final on entry.
        """
        if not self._memoryless:
            cols[:, 1:] = 0.0  # pass 0 guesses discharged amplifiers
        n, most, stepped = v.size, 0, 0
        for group in self._groups:  # its upstream is final: decide once, not per sweep
            k = group[0]
            target = v if k == 0 else self._target(k, cols[k - 1, :n], decisions)
            start = sweeps = 0
            while start < n and sweeps < MAX_SWEEPS:
                # the first changed sample was computed from final inputs: it is final too
                start = min(self._sweep(group, target, start, decisions, cols) + 1, n)
                sweeps += 1
            most = max(most, sweeps)
            if start < n:
                self._step(group, target, start, decisions, cols)
                stepped += n - start
        flash[:] = flash2b(cols[N_STAGES, :n], self.config.flash_offsets, self.vref)
        return most, stepped

    def _sweep(self, group: range, target: np.ndarray, start: int, decisions: np.ndarray,
               cols: np.ndarray) -> int:
        """One array pass over the channels of ``group`` and block samples ``start:``.

        The group's first channel settles toward ``target``; the others
        decide on their predecessor. Writes decisions[start:] and
        cols[group, 1 + start:]. With memory ``cols`` holds the previous
        pass, final before ``start``, and v_init is k_mem times the output
        the amplifier last put out in sample order (``_mem_src``).
        Returns the first sample at which a residue changed bits (the pass
        length when none did, or without memory).
        """
        first = self._amplify(group[0], target[start:], start, cols, cols.shape[1] - 1)
        for k in group[1:]:
            target = self._target(k, cols[k - 1, start:-1], decisions[start:])
            first = self._amplify(k, target, start, cols, first)
        return first

    def _target(self, k: int, u: np.ndarray, decisions: np.ndarray) -> np.ndarray:
        """Stage k's MDAC target for inputs u; stores its decisions in decisions[:, k - 1]."""
        st = self.config.stages[k - 1]
        d = sub_adc_decide(u, st, self.vref)
        decisions[:, k - 1] = d
        return mdac_residue(u, d, st, self.vref)

    def _amplify(self, ch: int, target: np.ndarray, start: int, cols: np.ndarray,
                 first: int) -> int:
        """Settle channel ``ch`` toward ``target`` over samples ``start:`` (see ``_sweep``).

        Stores the result in cols[ch, 1 + start:] and returns ``first``
        lowered to the first sample whose bits it changed.
        """
        if self._memoryless:
            cols[ch, 1 + start:] = settle_value(target, 0.0, self._g[ch], self._e[ch])
            return first
        src, same_step = self._mem_src[ch]
        prev_out = cols[src, 1 + start:] if same_step else cols[src, start:-1]
        settled = settle_value(target, self._kmem[ch] * prev_out, self._g[ch], self._e[ch])
        diff = settled.view(np.int64) != cols[ch, 1 + start:].view(np.int64)
        i = int(diff.argmax())
        if diff[i]:
            first = min(first, start + i)
        cols[ch, 1 + start:] = settled
        return first

    def _step(self, group: range, target: np.ndarray, start: int, decisions: np.ndarray,
              cols: np.ndarray) -> None:
        """Finish ``group`` from block sample ``start`` one sample at a time, on floats.

        Takes the arguments of ``_sweep`` and writes what its fixed point
        would: decisions[start:] and cols[group, 1 + start:]. Each sample
        runs the group's channels in order, so an amplifier's previous output
        is final when read from ``cols`` through ``_mem_src``. Only memory
        configs stall, so v_init is always k_mem times that output.
        """
        rows = {ch: cols[ch].tolist() for ch in group}
        targets = target.tolist()
        digits = {k: [] for k in group[1:]}
        for i in range(start, len(targets)):
            for ch in group:
                if ch == group[0]:
                    t = targets[i]
                else:
                    u, st = rows[ch - 1][i], self.config.stages[ch - 1]
                    d = sub_adc_decide(u, st, self.vref)
                    digits[ch].append(d)
                    t = mdac_residue(u, d, st, self.vref)
                src, same_step = self._mem_src[ch]
                prev_out = rows[src][i + 1 if same_step else i]
                rows[ch][i + 1] = settle_value(t, self._kmem[ch] * prev_out, self._g[ch],
                                               self._e[ch])
        for ch in group:
            cols[ch, 1 + start:] = rows[ch][1 + start:]
        for k, ds in digits.items():
            decisions[start:, k - 1] = ds


def settle_report(config: AdcConfig) -> list[SettleRow]:
    """Full-swing step experiment: settled level and percent error per slice.

    A -vref to +vref step is applied and held; once the pipe reaches steady
    state each slice's settled output is compared against its own input (the
    value a perfect full-scale pass would reproduce), which chains the report
    exactly like a bench measurement of the setup error: the ideal column of
    row k is the simulated column of row k-1.
    """
    eng = PipelineEngine(config)
    vref = config.reference.vref
    wave = np.concatenate([np.full(32, -vref), np.full(32, vref)])
    res = eng.simulate(wave).residues[-1]
    rows = []
    ideal = vref
    names = ["SHA"] + [f"Stage{k}" for k in range(1, N_STAGES + 1)]
    for i, name in enumerate(names):
        sim = float(res[i])
        if ideal == 0.0:
            raise ValueError(f"{name}: its input, the {names[i - 1]} output, settled to 0 V, "
                             "so its percent error is undefined")
        err_pct = (ideal - sim) / ideal * 100.0
        rows.append(SettleRow(stage=name, ideal_mv=ideal * 1e3,
                              simulated_mv=sim * 1e3, error_pct=err_pct))
        ideal = sim
    return rows
