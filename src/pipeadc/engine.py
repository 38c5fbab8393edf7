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

Array sweeps and relaxation
---------------------------
``step`` is the sequential definition. ``simulate`` computes the same numbers
with whole-array sweeps down the chain. A memoryless config needs one sweep.
With memory, the second stage on an amplifier takes its v_init from its
partner's output in the same sweep, while the SHA and the first stage on each
amplifier take theirs from the previous sweep, one sample earlier; the sweep
is repeated until no residue changes a bit (waveform relaxation, Lelarasmee,
Ruehli & Sangiovanni-Vincentelli, IEEE TCAD 1(3), 1982). Every sweep applies
the same float operations per element as ``step``, so a bitwise fixed point
satisfies each per-sample equation and, by induction on the sample index, is
the sequential result. A sample only depends on earlier samples of the
previous sweep, so the samples before the first one that changed are final
and later sweeps recompute only the suffix. After ``MAX_SWEEPS`` sweeps the
unconverged suffix is finished by ``step`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import AdcConfig, N_STAGES, StageDecision, validate
from .stages import comparator_diff, settle_coefficients, settle_value, sub_adc_decide, flash2b

# SHA, six stages, flash: seven one-sample hops from input to a complete code.
PIPELINE_LATENCY_SAMPLES = 7

DEFAULT_PAIRING = ((1, 2), (3, 4), (5, 6))

# Sweeps a memory config may take before ``step`` finishes the unconverged
# suffix. One sweep over an 8K-sample capture costs about as much as stepping
# 50 samples, so a run that hits the cap costs about 1.4x stepping it
# all; the degraded preset converges within the cap at every k_mem <= 1 from
# 300 MHz GBW up, and at k_mem <= 0.5 from 100 MHz up.
MAX_SWEEPS = 64


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
class StageTrace:
    """Per-sample record: settled residues (SHA + 6 stages) and the raw decisions.

    decisions holds the six 1.5-bit entries; flash the 2-bit entry.
    """

    n: int
    vin: float
    residues: tuple[float, ...]
    decisions: tuple[StageDecision, ...]
    flash: StageDecision


@dataclass(frozen=True)
class SimulationResult:
    """Raw decision stream plus optional residue traces for one run.

    decisions has shape (n, 6) with values in {-1, 0, +1}; flash has shape
    (n,) with values in {0..3}; residues has shape (n, 7) when recorded.
    The first ``warmup`` entries were produced while the pipe was filling.
    sweeps counts the array sweeps the run took (1 when memoryless) and
    stepped_samples the samples finished one at a time by ``step``.
    """

    vin: np.ndarray
    decisions: np.ndarray
    flash: np.ndarray
    residues: np.ndarray | None
    fs: float
    warmup: int = PIPELINE_LATENCY_SAMPLES
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
    """Compiled form of one AdcConfig: per-amplifier settling coefficients and thresholds.

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
        self._two_g = [2.0 * (1.0 + st.gain_mismatch) for st in c.stages]
        self._dref = [(1.0 + st.dac_mismatch) * c.reference.vref for st in c.stages]
        self._memoryless = self._reset or all(k == 0.0 for k in self._kmem)

    def new_state(self) -> PipelineState:
        return PipelineState(ota_last=[0.0] * len(self._last_user))

    # -- scalar state machine ------------------------------------------------

    def step(self, vin: float, state: PipelineState) -> tuple[tuple[int, ...], int, StageTrace]:
        """Advance one sample; mutates state, returns this step's raw decisions.

        All stage decisions read the residues the previous step left behind,
        so the data for one input sample marches down the chain one slice per
        step.
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
            target = self._two_g[k - 1] * u - d * self._dref[k - 1]
            slot = self._slot_of[k]
            v_init = 0.0 if self._reset else self._kmem[k] * state.ota_last[slot]
            out = settle_value(target, v_init, self._g[k], self._e[k])
            state.ota_last[slot] = out
            new_res[k] = out
            decisions.append(d)

        d_flash = flash2b(prev[N_STAGES], c.flash_offsets, self.vref)
        state.residues = new_res
        n = state.n
        state.n += 1
        trace = StageTrace(n=n, vin=vin, residues=tuple(new_res),
                           decisions=tuple(StageDecision(d=d) for d in decisions),
                           flash=StageDecision(d_flash=d_flash))
        return tuple(decisions), d_flash, trace

    # -- batch driver ----------------------------------------------------------

    def simulate(self, waveform, record_residues: bool = True) -> SimulationResult:
        """Run a whole waveform; output length equals input length.

        Bit-identical to stepping sample by sample. Memoryless configs (reset
        enabled, or every k_mem zero) take one array sweep; configs with
        amplifier memory repeat it until the residues reach a bitwise fixed
        point, and finish with ``step`` whatever has not converged after
        ``MAX_SWEEPS`` sweeps (see the module docstring). Non-finite samples
        are rejected.
        """
        v = np.asarray(waveform, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("empty waveform")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"non-finite input sample at index {bad[0]}: {v[bad[0]]}")
        n = v.size
        decisions = np.empty((n, N_STAGES), dtype=np.int8)
        if self._memoryless:
            residues = np.empty((n, N_STAGES + 1), dtype=np.float64) if record_residues else None
            _, last = self._sweep(v, 0, decisions, None if residues is None else residues.T)
            flash = self._flash(last)
            return SimulationResult(vin=v, decisions=decisions, flash=flash, residues=residues,
                                    fs=self.config.clock.fs, sweeps=1)

        # pass 0 guesses discharged amplifiers; residues are kept channel-major
        work = np.zeros((N_STAGES + 1, n), dtype=np.float64)
        start = sweeps = 0
        while start < n and sweeps < MAX_SWEEPS:
            changed, _ = self._sweep(v, start, decisions, work)
            # the first changed sample was computed from final inputs: it is final too
            start = min(changed + 1, n)
            sweeps += 1
        flash = self._flash(work[N_STAGES])
        if start < n:
            state = self.new_state()
            state.residues = [float(x) for x in work[:, start - 1]]
            state.ota_last = [state.residues[ch] for ch in self._last_user]
            state.n = start
            self._step_through(v, state, decisions, flash, work.T)
        residues = np.ascontiguousarray(work.T) if record_residues else None
        return SimulationResult(vin=v, decisions=decisions, flash=flash, residues=residues,
                                fs=self.config.clock.fs, sweeps=sweeps,
                                stepped_samples=n - start)

    def _sweep(self, v: np.ndarray, start: int, decisions: np.ndarray, cols):
        """One array pass down the chain over samples ``start:``.

        Writes decisions[start:] and, when ``cols`` is given (one row per
        channel), the residues cols[ch, start:]. Without memory every
        amplification starts from v_init = 0.0. With memory ``cols`` holds
        the previous pass, whose samples before ``start`` are final, and
        v_init is k_mem times the amplifier's previous output as ``step``
        sees it. Returns the first sample at which a residue changed bits
        (v.size when none did) and the last stage's residues over ``start:``.
        """
        vref = self.vref
        first = v.size
        settled, first = self._amplify(0, v[start:], start, cols, first)
        u = np.empty(v.size - start, dtype=np.float64)
        for k in range(1, N_STAGES + 1):
            st = self.config.stages[k - 1]
            u[0] = cols[k - 1, start - 1] if start else 0.0
            u[1:] = settled[:-1]
            v_hi = comparator_diff(0.25 * vref, -0.25 * vref, u, -u)
            v_lo = comparator_diff(-0.25 * vref, 0.25 * vref, u, -u)
            d = np.where(v_hi < -2.0 * st.cmp_offset_hi, 1,
                         np.where(v_lo > -2.0 * st.cmp_offset_lo, -1, 0)).astype(np.int8)
            target = self._two_g[k - 1] * u - d * self._dref[k - 1]
            settled, first = self._amplify(k, target, start, cols, first)
            decisions[start:, k - 1] = d
        return first, settled

    def _amplify(self, ch: int, target: np.ndarray, start: int, cols, first: int):
        """Settle channel ``ch`` toward ``target`` over samples ``start:`` (see ``_sweep``).

        Stores the result in cols[ch] when given, and returns it with
        ``first`` lowered to the first sample whose bits it changed.
        """
        memory = not self._memoryless
        v_init = 0.0
        if memory:
            src, same_step = self._mem_src[ch]
            if same_step:
                prev_out = cols[src, start:]
            else:
                prev_out = np.empty(target.size, dtype=np.float64)
                prev_out[0] = cols[src, start - 1] if start else 0.0
                prev_out[1:] = cols[src, start:-1]
            v_init = self._kmem[ch] * prev_out
        settled = settle_value(target, v_init, self._g[ch], self._e[ch])
        if cols is not None:
            if memory:
                diff = settled.view(np.int64) != cols[ch, start:].view(np.int64)
                i = int(diff.argmax())
                if diff[i]:
                    first = min(first, start + i)
            cols[ch, start:] = settled
        return settled, first

    def _flash(self, last: np.ndarray) -> np.ndarray:
        """Flash decisions for every sample from the last stage's residues."""
        vref = self.vref
        u = np.empty(last.size, dtype=np.float64)
        u[0] = 0.0
        u[1:] = last[:-1]
        flash = np.zeros(last.size, dtype=np.int8)
        for thr, off in zip((-0.5 * vref, 0.0, 0.5 * vref), self.config.flash_offsets):
            v_diff = comparator_diff(thr, -thr, u, -u)
            flash += (v_diff < -2.0 * off)
        return flash

    def _step_through(self, v, state, decisions, flash, residues) -> None:
        """Run ``step`` over samples state.n.. of v, writing each one's output row."""
        for i in range(state.n, v.size):
            ds, d_flash, trace = self.step(float(v[i]), state)
            decisions[i, :] = ds
            flash[i] = d_flash
            if residues is not None:
                residues[i, :] = trace.residues

    def _simulate_stepped(self, v: np.ndarray, record_residues: bool) -> SimulationResult:
        """The sequential reference: ``step`` over every sample."""
        n = v.size
        decisions = np.empty((n, N_STAGES), dtype=np.int8)
        flash = np.empty(n, dtype=np.int8)
        residues = np.empty((n, N_STAGES + 1), dtype=np.float64) if record_residues else None
        self._step_through(v, self.new_state(), decisions, flash, residues)
        return SimulationResult(vin=v, decisions=decisions, flash=flash, residues=residues,
                                fs=self.config.clock.fs, stepped_samples=n)


def simulate(waveform, config: AdcConfig, record_residues: bool = True) -> SimulationResult:
    """One-shot batch run with a fresh engine."""
    return PipelineEngine(config).simulate(waveform, record_residues=record_residues)


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
