"""End-to-end DVFS simulation: workload x design -> energy/delay/accuracy.

Per epoch the loop is (Figure 3b):

1. If something reads oracle truth, run the fork-and-pre-execute sampler
   from the current snapshot. Two readers exist: a design fed truth
   (ORACLE / ACCREAC / ACCPC, ``Predictor.needs_truth``), and an
   attached epoch trace recorder when the caller asked for
   ``collect_accuracy``. Any other epoch is never pre-executed: its
   sample would be dropped unread.
2. The controller decides per-domain frequencies from its predictions.
3. Frequencies are applied (changed domains pay the transition latency)
   and the epoch executes for real.
4. Energy is accounted; prediction accuracy is scored against the
   actual commits; the controller observes the elapsed epoch.

Kernels of a multi-kernel workload are loaded back-to-back: when the GPU
drains, the next kernel is dispatched within the same run (e.g. lulesh's
27 kernels).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.config import SimConfig
from repro.core.controller import DvfsController
from repro.core.sensitivity import LinearSensitivity
from repro.dvfs.hierarchy import HierarchicalPowerManager
from repro.dvfs.oracle import OracleSample, OracleSampler
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel
from repro.power.energy import EnergyAccountant, EnergyBreakdown
from repro.power.model import PowerModel
from repro.runtime.profiling import collect_hotpath

if TYPE_CHECKING:  # telemetry/obs never import dvfs; the arrow points here
    from repro.obs import Tracer
    from repro.telemetry import EpochTraceRecorder


@dataclass
class RunResult:
    """Outcome of one workload x design simulation."""

    design: str
    workload: str
    epochs: int
    #: Wall-clock completion: when the last wavefront retired (ns).
    delay_ns: float
    energy: EnergyBreakdown
    #: Mean per-domain-epoch prediction accuracy in [0, 1]; None when the
    #: design made no scorable predictions (static baselines).
    prediction_accuracy: Optional[float]
    #: Fraction of (domain, epoch) decisions at each frequency (Fig. 16).
    frequency_residency: Dict[float, float]
    total_committed: int
    total_transitions: int
    #: PC-table hit ratio, when the design has tables.
    pc_hit_ratio: Optional[float] = None
    #: False when the run hit ``max_epochs`` with work still resident -
    #: its delay (and thus EDP/ED2P) covers only the simulated window
    #: and is not comparable against completed runs.
    completed: bool = True
    #: Hot-path profiler counters for the whole run (see
    #: :mod:`repro.runtime.profiling`); observational only.
    hotpath: Optional[Dict[str, int]] = None

    @property
    def edp(self) -> float:
        """``E * D`` with ``D`` the completion delay (one definition,
        shared with :meth:`EnergyBreakdown.edp` via the explicit-delay
        form)."""
        return self.energy.edp(self.delay_ns)

    @property
    def ed2p(self) -> float:
        return self.energy.ed2p(self.delay_ns)

    def ednp(self, n: int) -> float:
        return self.energy.ednp(n, self.delay_ns)


class DvfsSimulation:
    """Runs one workload under one DVFS design to completion.

    ``collect_accuracy`` records oracle truth into the attached
    ``telemetry`` recorder (the per-domain truth lines and oracle-best
    frequencies that ``repro report`` and the learned-model
    dataset read). Without a recorder it samples nothing: a design that
    is not fed truth then runs no oracle at all, and ``RunResult`` is
    the same either way apart from its ``hotpath`` counters.
    """

    def __init__(
        self,
        kernels: Sequence[Kernel],
        controller: DvfsController,
        sim_config: SimConfig,
        design_name: str = "",
        workload_name: str = "",
        collect_accuracy: bool = False,
        max_epochs: int = 5_000,
        oracle_sample_freqs: Optional[int] = None,
        power_manager: Optional["HierarchicalPowerManager"] = None,
        telemetry: Optional["EpochTraceRecorder"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if not kernels:
            raise ValueError("need at least one kernel")
        self.kernels = list(kernels)
        self.controller = controller
        self.config = sim_config
        self.design_name = design_name or controller.predictor.name
        self.workload_name = workload_name or self.kernels[0].name
        self.max_epochs = max_epochs
        self.needs_truth = controller.predictor.needs_truth or (
            collect_accuracy and telemetry is not None
        )
        self._oracle = (
            OracleSampler(sim_config, n_sample_freqs=oracle_sample_freqs)
            if self.needs_truth
            else None
        )
        #: Optional millisecond-scale power manager (Section 5.4); fed
        #: the measured epoch power so it can narrow the V/f window.
        self.power_manager = power_manager
        #: Optional epoch trace recorder. When None (the default) the
        #: run pays one ``is None`` branch per epoch and allocates no
        #: telemetry objects - results are bit-identical to a run
        #: without the telemetry subsystem.
        self.telemetry = telemetry
        #: Optional span tracer (same zero-overhead discipline): spans
        #: only observe wall time, they never feed back into the run.
        self.tracer = tracer

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.config
        gpu = Gpu(cfg.gpu, initial_freq_ghz=cfg.dvfs.reference_freq_ghz)
        power = PowerModel(cfg.power)
        accountant = EnergyAccountant(cfg.gpu, power)

        pending = list(self.kernels)
        gpu.load_kernel(pending.pop(0))

        epoch_ns = cfg.dvfs.epoch_ns
        trans_ns = cfg.dvfs.transition_latency_ns
        predictor = self.controller.predictor

        accuracies: List[float] = []
        total_committed = 0
        total_transitions = 0
        epochs = 0
        tel = self.telemetry
        tr = self.tracer
        run_span = None
        if tr is not None:
            run_span = tr.start(
                "run", workload=self.workload_name, design=self.design_name
            )
        if tel is not None:
            tel.begin_run(
                workload=self.workload_name,
                design=self.design_name,
                sim_config=cfg,
                objective_name=getattr(self.controller.objective, "name", ""),
            )

        try:
            while epochs < self.max_epochs:
                if gpu.done:
                    if not pending:
                        break
                    gpu.load_kernel(pending.pop(0))

                epoch_span = None
                if tr is not None:
                    epoch_span = tr.start("epoch", parent=run_span, epoch=epochs)
                if tel is not None:
                    prev_freqs = self.controller.current_frequencies

                sample: Optional[OracleSample] = None
                if self._oracle is not None:
                    oracle_span = (
                        tr.start("oracle_sample", parent=epoch_span)
                        if tr is not None
                        else None
                    )
                    sample = self._oracle.sample(gpu, epoch_ns)
                    if oracle_span is not None:
                        tr.finish(oracle_span, domains=len(sample.lines))
                    if predictor.needs_future_truth:
                        predictor.set_future_truth(sample.lines)  # type: ignore[attr-defined]

                freqs = self.controller.decide()
                changed = gpu.set_domain_frequencies(freqs, transition_latency_ns=trans_ns)
                total_transitions += changed

                result = gpu.run_epoch(epoch_ns)
                epochs += 1
                total_committed += result.total_committed()
                epoch_energy = accountant.add_epoch(result)
                if self.power_manager is not None:
                    self.power_manager.observe_epoch(
                        accountant.power_trace[-1], result.duration_ns
                    )

                predictions = self.controller.last_predictions()
                actual_per_domain = gpu.committed_per_domain(result)
                for d, line in enumerate(predictions):
                    if line is None:
                        continue
                    actual = actual_per_domain[d]
                    predicted = line.predict(freqs[d])
                    if actual <= 0:
                        # A fully-stalled epoch. A predictor claiming
                        # commits here is maximally wrong and scores 0;
                        # only a matching zero prediction is unscorable
                        # (skipping *all* zero-commit epochs inflated
                        # prediction_accuracy).
                        if predicted > 0.0:
                            accuracies.append(0.0)
                        continue
                    accuracies.append(max(0.0, 1.0 - abs(predicted - actual) / actual))

                truth = sample.lines if (sample and predictor.needs_elapsed_truth) else None
                self.controller.observe(result, true_domain_lines=truth)

                if tel is not None:
                    oracle_freqs = None
                    if sample is not None:
                        # Score against the oracle: the frequency this
                        # objective would pick given the *true* line,
                        # from the same pre-decision state.
                        oracle_freqs = [
                            self.controller.choose_for(line, d, prev_freqs[d])
                            for d, line in enumerate(sample.lines)
                        ]
                    pc_cumulative = (
                        predictor.table_stats()  # type: ignore[attr-defined]
                        if hasattr(predictor, "table_stats")
                        else None
                    )
                    tel.record_epoch(
                        epoch_index=epochs - 1,
                        result=result,
                        chosen_freqs=freqs,
                        predictions=predictions,
                        actual_per_domain=actual_per_domain,
                        sample=sample,
                        oracle_freqs=oracle_freqs,
                        epoch_energy=epoch_energy,
                        pc_cumulative=pc_cumulative,
                    )
                if epoch_span is not None:
                    tr.finish(
                        epoch_span,
                        committed=result.total_committed(),
                        transitions=changed,
                    )
        finally:
            if run_span is not None:
                tr.finish(run_span, epochs=epochs)

        hotpath = collect_hotpath(gpu, self._oracle)

        completed = gpu.done and not pending
        if completed:
            # The last epoch overshoots the final retirement, so wall-clock
            # delay is when the last wavefront retired, not gpu.time.
            delay = gpu.completion_time
            if delay <= 0.0:  # degenerate: nothing ever retired
                delay = gpu.time
        else:
            # Truncated at max_epochs: only the simulated window elapsed.
            delay = gpu.time
            warnings.warn(
                f"{self.workload_name}/{self.design_name}: run truncated at "
                f"max_epochs={self.max_epochs} with work still resident; "
                "delay/EDP cover only the simulated window "
                "(RunResult.completed=False)",
                RuntimeWarning,
                stacklevel=2,
            )

        hit_ratio = None
        if hasattr(predictor, "hit_ratio"):
            hit_ratio = predictor.hit_ratio()  # type: ignore[attr-defined]

        run_result = RunResult(
            design=self.design_name,
            workload=self.workload_name,
            epochs=epochs,
            delay_ns=delay,
            energy=accountant.breakdown,
            prediction_accuracy=(sum(accuracies) / len(accuracies)) if accuracies else None,
            frequency_residency=self.controller.log.frequency_residency(
                cfg.dvfs.frequencies_ghz
            ),
            total_committed=total_committed,
            total_transitions=total_transitions,
            pc_hit_ratio=hit_ratio,
            completed=completed,
            hotpath=hotpath,
        )
        if tel is not None:
            tel.end_run(run_result)
        return run_result


__all__ = ["DvfsSimulation", "RunResult"]
