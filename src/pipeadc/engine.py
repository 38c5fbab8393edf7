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
default; the SHA has its own. Within one step the stages amplify in stage
order, so a shared amplifier's history alternates between its two stages.
With the reset phase enabled every amplification starts from a discharged
output (v_init = 0); without it, k_mem times the amplifier's previous settled
output is left as the starting point, which is the memory effect the reset
phase exists to kill.

Blocks and relaxation
---------------------
``step`` is the sequential definition. ``simulate`` computes the same numbers
with array sweeps down the chain, one block of ``BLOCK_SAMPLES`` samples at a
time; a block starts from the residues the previous block settled last,
which are also what every amplifier last put out. A memoryless block needs
one sweep. With memory, the second stage on an amplifier takes its v_init
from its partner's output in the same sweep, while the SHA and the first
stage on each amplifier take theirs from the previous sweep, one sample
earlier; the sweep is repeated until no residue of the block changes a bit
(waveform relaxation, Lelarasmee, Ruehli & Sangiovanni-Vincentelli, IEEE
TCAD 1(3), 1982). Every sweep applies the same float operations per element
as ``step``, so a bitwise fixed point satisfies each per-sample equation
and, by induction on the sample index, is the sequential result. A sample
only depends on earlier samples of the previous sweep, so the samples
before the first one that changed are final and later sweeps recompute only
the suffix. After ``MAX_SWEEPS`` sweeps ``step`` finishes the unconverged
rest of the block. ``step`` and the sweeps call the same stage laws,
``sub_adc_decide``, ``mdac_residue``, ``flash2b`` and ``settle_value``, on
floats and on arrays respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import AdcConfig, N_STAGES, validate
# comparator_diff is not called here; bench/tracer.py patches it in this module
from .stages import (comparator_diff, flash2b, mdac_residue, settle_coefficients,  # noqa: F401
                     settle_value, sub_adc_decide)

# SHA, six stages, flash: seven one-sample hops from input to a complete code.
PIPELINE_LATENCY_SAMPLES = 7

DEFAULT_PAIRING = ((1, 2), (3, 4), (5, 6))

# Samples per block. A block's dozen temporaries per stage (128 KB each)
# stay in cache: 8K-32K blocks run 2^20 samples in about the same time,
# 2K blocks take about 1.7x as long and a single 2^20 block about 3x.
BLOCK_SAMPLES = 16384

# Sweeps a memory block may take before ``step`` finishes its unconverged
# suffix. One sweep over an 8K-sample block costs about as much as stepping
# 50 samples, so a block that hits the cap costs about 1.35x stepping it
# all; the degraded preset converges within the cap at every k_mem <= 1
# from 300 MHz GBW up, and at k_mem <= 0.5 from 100 MHz up.
MAX_SWEEPS = 64

# Largest accepted |input| in units of vref. With |gain_mismatch| < 0.5,
# g <= 1 and k_mem <= 1 (all enforced by validate), one hop takes a residue
# bounded by r to less than 3r + 1.5 vref, so the seven hops of a memoryless
# sample stay below 3^7 (1e6 + 1) vref, about 2.2e9 vref, far from overflow.
# Amplifier memory compounds the hops from sample to sample and can still
# overflow; ``simulate`` then raises, naming the first non-finite sample.
INPUT_LIMIT_VREF = 1e6

@dataclass
class PipelineState:
    """Mutable sequential state: in-flight residues and per-amplifier memory.

    residues[0] is the SHA output, residues[1..6] the stage residues settled
    at the previous step. ota_last[0] is the SHA amplifier, ota_last[1..]
    the shared amplifiers in pairing order. Single-threaded by design; run
    independent engines for parallelism.
    """

    residues: list[float] = field(default_factory=lambda: [0.0] * (N_STAGES + 1))
    ota_last: list[float] = field(default_factory=lambda: [0.0] * 4)
    n: int = 0


@dataclass(frozen=True)
class SimulationResult:
    """Raw decision stream plus optional residue traces for one run.

    decisions has shape (n, 6) with values in {-1, 0, +1}; flash has shape
    (n,) with values in {0..3}; residues has shape (n, 7) when recorded.
    sweeps is the most array sweeps any block took (1 when memoryless) and
    stepped_samples the samples finished one at a time by ``step``.
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

    The engine itself is immutable after construction; sequential state lives
    in PipelineState objects, so one engine can serve many runs. Per-amplifier
    lists are indexed by channel: 0 is the SHA, k is stage k.
    """

    def __init__(self, config: AdcConfig, pairing: tuple[tuple[int, int], ...] = DEFAULT_PAIRING):
        self.config = validate(config)
        if sorted(a for pair in pairing for a in pair) != list(range(1, N_STAGES + 1)):
            raise ValueError("pairing must cover stages 1..6 exactly once")
        c = self.config
        t = c.clock.t_settle
        self.vref = c.reference.vref
        self._reset = c.clock.reset_enabled
        # slot 0 is the SHA amplifier; _last_user[slot] is the channel that
        # amplifies last on it within a step, whose output the next step sees
        self._slot_of = {}
        self._last_user = [0]
        # channel -> (channel whose output sets its v_init, same step?)
        self._mem_src = {0: (0, False)}
        for slot, pair in enumerate(pairing, start=1):
            self._last_user.append(max(pair))
            for stage_no in pair:
                self._slot_of[stage_no] = slot
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
        self._memoryless = self._reset or all(k == 0.0 for k in self._kmem)

    def new_state(self) -> PipelineState:
        return PipelineState(ota_last=[0.0] * len(self._last_user))

    # -- scalar state machine ------------------------------------------------

    def step(self, vin: float, state: PipelineState) -> tuple[tuple[int, ...], int, tuple[float, ...]]:
        """Advance one sample; mutates state, returns (decisions, d_flash, residues).

        All stage decisions read the residues the previous step left behind,
        so the data for one input sample marches down the chain one slice per
        step. residues are the SHA and stage outputs this step settled.
        """
        c = self.config
        prev = state.residues
        new_res = [0.0] * (N_STAGES + 1)

        v_init = 0.0 if self._reset else self._kmem[0] * state.ota_last[0]
        sha_out = settle_value(vin, v_init, self._g[0], self._e[0])
        state.ota_last[0] = sha_out
        new_res[0] = sha_out

        decisions = []
        for k in range(1, N_STAGES + 1):
            st = c.stages[k - 1]
            u = prev[k - 1]
            d = sub_adc_decide(u, st, self.vref)
            target = mdac_residue(u, d, st, self.vref)
            slot = self._slot_of[k]
            v_init = 0.0 if self._reset else self._kmem[k] * state.ota_last[slot]
            out = settle_value(target, v_init, self._g[k], self._e[k])
            state.ota_last[slot] = out
            new_res[k] = out
            decisions.append(d)

        d_flash = flash2b(prev[N_STAGES], c.flash_offsets, self.vref)
        state.residues = new_res
        state.n += 1
        return tuple(decisions), d_flash, tuple(new_res)

    # -- batch driver ----------------------------------------------------------

    def simulate(self, waveform, record_residues: bool = True) -> SimulationResult:
        """Run a whole waveform; output length equals input length.

        Bit-identical to stepping sample by sample. The waveform runs in
        blocks of ``BLOCK_SAMPLES``. A memoryless block (reset enabled, or
        every k_mem zero) takes one array sweep; with amplifier memory a
        block repeats it until its residues reach a bitwise fixed point, and
        ``step`` finishes whatever has not converged after ``MAX_SWEEPS``
        sweeps (see the module docstring). Raises, naming the first bad
        sample, on non-finite input, input beyond ``INPUT_LIMIT_VREF`` times
        vref, and residues that overflow to non-finite values.
        """
        v = np.asarray(waveform, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("empty waveform")
        limit = INPUT_LIMIT_VREF * self.vref
        if not np.abs(v).max() <= limit:
            i = np.flatnonzero(~(np.abs(v) <= limit))[0]
            if not np.isfinite(v[i]):
                raise ValueError(f"non-finite input sample at index {i}: {v[i]}")
            raise ValueError(f"input sample at index {i} is out of range: "
                             f"|{v[i]}| > {INPUT_LIMIT_VREF:g} * vref")
        n = v.size
        decisions = np.empty((n, N_STAGES), dtype=np.int8)
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
        """Run one block; returns (sweeps, samples stepped).

        cols is laid out as in ``simulate``; its column 0 is final on entry.
        """
        if not self._memoryless:
            cols[:, 1:] = 0.0  # pass 0 guesses discharged amplifiers
        start = sweeps = 0
        while start < v.size and sweeps < MAX_SWEEPS:
            # the first changed sample was computed from final inputs: it is final too
            start = min(self._sweep(v, start, decisions, cols) + 1, v.size)
            sweeps += 1
        flash[:] = flash2b(cols[N_STAGES, :-1], self.config.flash_offsets, self.vref)
        if start < v.size:
            state = PipelineState(residues=[float(x) for x in cols[:, start]],
                                  ota_last=[float(cols[ch, start]) for ch in self._last_user],
                                  n=start)
            self._step_through(v, state, decisions, flash, cols.T[1:])
        return sweeps, v.size - start

    def _sweep(self, v: np.ndarray, start: int, decisions: np.ndarray, cols: np.ndarray) -> int:
        """One array pass down the chain over block samples ``start:``.

        Writes decisions[start:] and the residues cols[:, 1 + start:]. Without
        memory every amplification starts from v_init = 0.0. With memory
        ``cols`` holds the previous pass, whose samples before ``start`` are
        final, and v_init is k_mem times the amplifier's previous output as
        ``step`` sees it. Returns the first sample at which a residue changed
        bits (v.size when none did, or without memory).
        """
        first = self._amplify(0, v[start:], start, cols, v.size)
        for k, st in enumerate(self.config.stages, start=1):
            u = cols[k - 1, start:-1]
            d = sub_adc_decide(u, st, self.vref)
            target = mdac_residue(u, d, st, self.vref)
            first = self._amplify(k, target, start, cols, first)
            decisions[start:, k - 1] = d
        return first

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

    def _step_through(self, v, state, decisions, flash, residues) -> None:
        """Run ``step`` over samples state.n.. of v, writing each one's output row."""
        for i in range(state.n, v.size):
            decisions[i, :], flash[i], residues[i, :] = self.step(float(v[i]), state)

    def _simulate_stepped(self, v: np.ndarray) -> SimulationResult:
        """The sequential reference: ``step`` over every sample."""
        n = v.size
        decisions = np.empty((n, N_STAGES), dtype=np.int8)
        flash = np.empty(n, dtype=np.int8)
        residues = np.empty((n, N_STAGES + 1), dtype=np.float64)
        self._step_through(v, self.new_state(), decisions, flash, residues)
        return SimulationResult(vin=v, decisions=decisions, flash=flash, residues=residues,
                                fs=self.config.clock.fs, stepped_samples=n)


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
        err_pct = (ideal - sim) / ideal * 100.0
        rows.append(SettleRow(stage=name, ideal_mv=ideal * 1e3,
                              simulated_mv=sim * 1e3, error_pct=err_pct))
        ideal = sim
    return rows
