"""The adapt controller: alarms in, retunes/trials/promotions out.

:class:`AdaptController` is what the serving tier holds next to the
audit.  The dispatcher calls

* :meth:`observe_served` when it journals a served ``predict`` — the
  controller journals the challenger's shadow answer for the same
  target window;
* :meth:`on_ingest` when ingest resolves predictions — the controller
  feeds the trial scoreboards, auto-retunes freshly degraded machines,
  and renders promote/abandon verdicts;
* :meth:`serve_value` on the predict hot path — the calibrated
  fallback may substitute the empirical baseline for a machine that is
  on trial and badly miscalibrated.

Everything is per machine and thread-safe (the dispatcher calls in from
worker threads).  Promotions go through
``AvailabilityService.set_model_config``, which installs a fresh
per-machine predictor with its own kernel rows, and through
``DriftDetector.reset_machine``, so the new model starts with a clean
drift slate.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.adapt.fallback import CalibratedFallback
from repro.adapt.harness import (
    VERDICT_ABANDON,
    VERDICT_PROMOTE,
    ChampionChallenger,
    TrialState,
)
from repro.adapt.planner import CandidateConfig, RetunePlanner
from repro.audit.audit import SHADOW_OP_PREFIX, is_shadow_op
from repro.core.online import IncrementalPredictor
from repro.core.states import State
from repro.core.windows import ClockWindow, DayType
from repro.obs.events import get_event_log
from repro.obs.instruments import instrument
from repro.obs.tracing import start_span
from repro.traces.trace import MachineTrace

__all__ = ["AdaptConfig", "AdaptController", "merge_adapt_status"]


@dataclass(frozen=True)
class AdaptConfig:
    """Tuning of the self-healing loop (all times on the model clock)."""

    #: Retune automatically when a machine's drift test alarms (the
    #: ``adapt_retune`` op always works, auto or not).
    auto: bool = True
    #: Holdout length of the retune backtest, in days of recent history.
    holdout_days: int = 5
    #: Clock windows the backtest scores on each holdout day.
    eval_start_hours: tuple[float, ...] = (1.0, 7.0, 13.0, 19.0)
    eval_window_hours: float = 2.0
    #: Candidate grid (cross product; the champion is always added).
    candidate_history_days: tuple[int | None, ...] = (None, 7, 14)
    candidate_day_type_split: tuple[bool, ...] = (True, False)
    candidate_thresholds: tuple[tuple[float, float], ...] = (
        (0.20, 0.60),
        (0.10, 0.50),
    )
    #: Backtest improvement (champion brier - candidate brier) required
    #: before a shadow trial is even worth opening.
    retune_min_gain: float = 0.005
    #: Resolved pairs per arm before champion/challenger are compared.
    min_eval: int = 12
    #: Challenger must beat the champion's windowed Brier by this much.
    promote_margin: float = 0.02
    #: ... while its ECE is at most this much worse.
    ece_slack: float = 0.05
    #: Consecutive winning evaluations required (anti-flapping).
    hysteresis: int = 2
    #: Trials that cannot win within this many resolved pairs abandon.
    max_trial_resolutions: int = 512
    #: Resolved pairs after a promotion/abandon before the next auto
    #: retune of the same machine.
    cooldown_resolutions: int = 64
    #: Sliding window of the per-arm trial scoreboards.
    trial_window: int = 256
    #: Serve the empirical baseline while a trial machine's windowed
    #: ECE exceeds this floor (None disables the fallback).
    fallback_ece_floor: float | None = 0.25
    #: Recent days the fallback's empirical TR draws on.
    fallback_history_days: int | None = 14

    def __post_init__(self) -> None:
        if self.holdout_days < 1:
            raise ValueError(f"holdout_days must be >= 1, got {self.holdout_days}")
        if self.min_eval < 1:
            raise ValueError(f"min_eval must be >= 1, got {self.min_eval}")
        if self.hysteresis < 1:
            raise ValueError(f"hysteresis must be >= 1, got {self.hysteresis}")

    def eval_clocks(self) -> list[ClockWindow]:
        return [
            ClockWindow.from_hours(h, self.eval_window_hours)
            for h in self.eval_start_hours
        ]

    def candidates(self, champion: CandidateConfig) -> list[CandidateConfig]:
        grid: dict[CandidateConfig, None] = {champion: None}
        for n in self.candidate_history_days:
            for split in self.candidate_day_type_split:
                for th1, th2 in self.candidate_thresholds:
                    grid[CandidateConfig(n, split, th1, th2)] = None
        return list(grid)


@dataclass
class _MachineAdapt:
    """Controller-side state of one machine."""

    state: str = "stable"  # "stable" | "shadowing"
    trial: TrialState | None = None
    cooldown: int = 0
    last_plan: dict[str, Any] | None = None
    retunes: int = 0
    promotions: int = 0
    abandoned: int = 0
    fallback_active: bool = False
    fallback_served: int = 0


class AdaptController:
    """Closes the audit's alarm loop for one serving process."""

    def __init__(
        self,
        service: Any,
        audit: Any,
        config: AdaptConfig | None = None,
    ) -> None:
        if audit is None:
            raise ValueError("the adapt tier requires the prediction audit")
        self.service = service
        self.audit = audit
        self.config = config or AdaptConfig()
        self.planner = RetunePlanner(
            audit.classifier, step_multiple=audit.step_multiple
        )
        self.harness = ChampionChallenger(
            min_eval=self.config.min_eval,
            promote_margin=self.config.promote_margin,
            ece_slack=self.config.ece_slack,
            hysteresis=self.config.hysteresis,
            max_trial_resolutions=self.config.max_trial_resolutions,
            window=self.config.trial_window,
        )
        self.fallback = (
            None
            if self.config.fallback_ece_floor is None
            else CalibratedFallback(
                audit.classifier,
                ece_floor=self.config.fallback_ece_floor,
                history_days=self.config.fallback_history_days,
                step_multiple=audit.step_multiple,
            )
        )
        self._lock = threading.RLock()
        self._machines: dict[str, _MachineAdapt] = {}
        self.retunes = 0
        self.promotions = 0
        self.abandoned = 0

    # ------------------------------------------------------------------ #
    # hooks called by the dispatcher
    # ------------------------------------------------------------------ #

    def observe_served(
        self,
        op: str,
        machine: str,
        window: ClockWindow,
        dtype: DayType,
        init_state: State | None = None,
    ) -> None:
        """Journal the challenger's shadow answer for a served predict."""
        if op != "predict":
            return
        with self._lock:
            st = self._machines.get(machine)
            if st is None or st.state != "shadowing" or st.trial is None:
                return
            predictor = st.trial.predictor
        history = self.service._histories.get(machine)
        if history is None:
            return
        tr = predictor.predict(history, window, dtype, init_state=init_state)
        record = self.audit.record_prediction(
            SHADOW_OP_PREFIX, machine, window, dtype, tr,
            history_end=history.end_time, init_state=init_state,
        )
        if record is not None:
            with self._lock:
                st = self._machines.get(machine)
                if st is not None and st.trial is not None:
                    st.trial.shadow_journaled += 1
            instrument("adapt_shadow_predictions_total").inc()

    def serve_value(
        self,
        machine: str,
        window: ClockWindow,
        dtype: DayType,
        tr: float,
    ) -> tuple[float, str]:
        """The TR to actually serve: the model's, or the fallback's.

        Returns ``(value, source)`` with source ``"model"`` or
        ``"fallback"``.
        """
        if self.fallback is None:
            return tr, "model"
        with self._lock:
            st = self._machines.get(machine)
            if st is None or st.state != "shadowing":
                if st is not None and st.fallback_active:
                    st.fallback_active = False
                    self._update_fallback_gauge()
                return tr, "model"
        snap = self.audit.scoreboard.snapshot(machine)
        if not self.fallback.should_fall_back(snap.get("ece")):
            with self._lock:
                st = self._machines.get(machine)
                if st is not None and st.fallback_active:
                    st.fallback_active = False
                    self._update_fallback_gauge()
            return tr, "model"
        history = self.service._histories.get(machine)
        if history is None:
            return tr, "model"
        baseline = self.fallback.value(history, window, dtype)
        if baseline is None:
            return tr, "model"
        with self._lock:
            st = self._machines.get(machine)
            if st is not None:
                if not st.fallback_active:
                    st.fallback_active = True
                    self._update_fallback_gauge()
                st.fallback_served += 1
        instrument("adapt_fallback_served_total").inc()
        return baseline, "fallback"

    def on_ingest(
        self, machine: str, history: MachineTrace, resolutions: list[Any]
    ) -> None:
        """Consume the resolutions one ingest produced for one machine."""
        with self._lock:
            st = self._machines.get(machine)
            scored = [r for r in resolutions if r.outcome != "excluded"]
            if st is not None and st.state == "shadowing" and st.trial is not None:
                for res in scored:
                    record = self.audit.journal.predictions.get(res.seq)
                    if record is None:
                        continue
                    self.harness.record(
                        st.trial,
                        shadow=is_shadow_op(record.op),
                        probability=res.probability,
                        outcome=res.outcome == "available",
                    )
                verdict = self.harness.evaluate(st.trial)
                if verdict == VERDICT_PROMOTE:
                    self._promote_locked(machine, st, forced=False)
                elif verdict == VERDICT_ABANDON:
                    self._end_trial_locked(machine, st, outcome="abandoned")
                return
            if st is not None and st.cooldown > 0:
                st.cooldown = max(0, st.cooldown - len(scored))
                return
        if (
            self.config.auto
            and scored
            and self.audit.drift.machine_degraded(machine)
        ):
            self.retune(machine, trigger="alarm")

    # ------------------------------------------------------------------ #
    # the loop's verbs (also reachable via the adapt ops)
    # ------------------------------------------------------------------ #

    def retune(self, machine: str, *, trigger: str = "manual") -> dict[str, Any]:
        """Backtest candidates for one machine; open a trial if one wins.

        Returns the plan summary (also stored for ``adapt_status``).
        """
        history = self.service._history(machine)
        base_config = self.service.model_config(machine)
        base_classifier = self.service.model_classifier(machine)
        champion = CandidateConfig.of_model(base_config, base_classifier)
        t0 = time.perf_counter()
        with start_span("adapt.retune", "adapt", machine=machine, trigger=trigger):
            plan = self.planner.search(
                machine,
                history,
                base_config=base_config,
                base_classifier=base_classifier,
                clocks=self.config.eval_clocks(),
                holdout_days=self.config.holdout_days,
                candidates=self.config.candidates(champion),
            )
        elapsed = time.perf_counter() - t0
        instrument("adapt_retunes_total").labels(trigger=trigger).inc()
        instrument("adapt_retune_seconds").observe(elapsed)
        opened = (
            plan.best is not None
            and plan.best.candidate != champion
            and plan.improvement >= self.config.retune_min_gain
        )
        summary = plan.describe()
        summary["trigger"] = trigger
        summary["trial_opened"] = bool(opened)
        with self._lock:
            st = self._machines.setdefault(machine, _MachineAdapt())
            st.retunes += 1
            self.retunes += 1
            st.last_plan = summary
            if opened and st.state == "stable":
                best = plan.best
                st.state = "shadowing"
                st.trial = self.harness.start(
                    machine,
                    best.candidate,
                    IncrementalPredictor(
                        best.candidate.classifier(base_classifier),
                        best.candidate.estimator_config(base_config),
                    ),
                    backtest_brier=best.brier,
                )
                self._update_shadow_gauge()
        get_event_log().emit(
            "adapt_retune",
            machine=machine,
            trigger=trigger,
            trial_opened=bool(opened),
            improvement=plan.improvement,
        )
        return summary

    def promote(self, machine: str, *, force: bool = False) -> dict[str, Any]:
        """Promote the machine's challenger (margin-gated unless forced)."""
        with self._lock:
            st = self._machines.get(machine)
            if st is None or st.trial is None or st.state != "shadowing":
                return {
                    "machine": machine,
                    "promoted": False,
                    "reason": "no trial in flight",
                }
            if not force:
                margin = self.harness.margin(st.trial)
                if margin is None:
                    return {
                        "machine": machine,
                        "promoted": False,
                        "reason": (
                            f"arms not comparable yet (need {self.harness.min_eval} "
                            "resolved pairs per arm)"
                        ),
                    }
                if margin < self.harness.promote_margin:
                    return {
                        "machine": machine,
                        "promoted": False,
                        "reason": (
                            f"margin {margin:.4f} below required "
                            f"{self.harness.promote_margin:.4f}"
                        ),
                    }
            return self._promote_locked(machine, st, forced=force)

    def _promote_locked(
        self, machine: str, st: _MachineAdapt, *, forced: bool
    ) -> dict[str, Any]:
        """Install the challenger as the serving model (lock held)."""
        trial = st.trial
        assert trial is not None
        candidate = trial.challenger
        with start_span("adapt.promote", "adapt", machine=machine, forced=forced):
            self.service.set_model_config(
                machine,
                estimator_config=candidate.estimator_config(self.service.config),
                classifier=candidate.classifier(self.service.classifier),
            )
            # The promoted model answers from different statistics; a
            # Page–Hinkley mean learned on the old model's errors would
            # misjudge it either way.
            self.audit.drift.reset_machine(machine)
        detail = trial.describe()
        self._end_trial_locked(machine, st, outcome="promoted")
        st.promotions += 1
        self.promotions += 1
        instrument("adapt_promotions_total").labels(
            outcome="forced" if forced else "margin"
        ).inc()
        get_event_log().emit(
            "adapt_promote",
            machine=machine,
            forced=forced,
            challenger=candidate.describe(),
        )
        return {
            "machine": machine,
            "promoted": True,
            "forced": forced,
            "challenger": candidate.describe(),
            "trial": detail,
        }

    def _end_trial_locked(
        self, machine: str, st: _MachineAdapt, *, outcome: str
    ) -> None:
        st.state = "stable"
        st.trial = None
        st.cooldown = self.config.cooldown_resolutions
        if outcome == "abandoned":
            st.abandoned += 1
            self.abandoned += 1
            instrument("adapt_promotions_total").labels(outcome="abandoned").inc()
            get_event_log().emit("adapt_trial_abandoned", machine=machine)
        if st.fallback_active:
            st.fallback_active = False
        self._update_shadow_gauge()
        self._update_fallback_gauge()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def status(self, machine: str | None = None) -> dict[str, Any]:
        """The ``adapt_status`` op result."""
        with self._lock:
            names = [machine] if machine is not None else sorted(self._machines)
            machines: dict[str, Any] = {}
            for name in names:
                st = self._machines.get(name)
                if st is None:
                    machines[name] = {"state": "stable", "override": False}
                    continue
                entry: dict[str, Any] = {
                    "state": st.state,
                    "override": name in self.service.overridden_machines,
                    "retunes": st.retunes,
                    "promotions": st.promotions,
                    "abandoned": st.abandoned,
                    "cooldown": st.cooldown,
                    "fallback_active": st.fallback_active,
                    "fallback_served": st.fallback_served,
                    "last_plan": st.last_plan,
                }
                if st.trial is not None:
                    entry["trial"] = st.trial.describe()
                machines[name] = entry
            return {
                "enabled": True,
                "auto": self.config.auto,
                "retunes": self.retunes,
                "promotions": self.promotions,
                "abandoned": self.abandoned,
                "shadowing": sum(
                    1 for s in self._machines.values() if s.state == "shadowing"
                ),
                "overrides": sorted(self.service.overridden_machines),
                "machines": machines,
            }

    def _update_shadow_gauge(self) -> None:
        instrument("adapt_machines_shadowing").set(
            float(sum(1 for s in self._machines.values() if s.state == "shadowing"))
        )

    def _update_fallback_gauge(self) -> None:
        instrument("adapt_fallback_active").set(
            float(sum(1 for s in self._machines.values() if s.fallback_active))
        )


def merge_adapt_status(results: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-node ``adapt_status`` answers (the router's scatter).

    Counters add; machine entries union (a machine lives on its R owner
    nodes — the entry with the most retunes is the authoritative one).
    """
    enabled = [r for r in results if r.get("enabled")]
    if not enabled:
        return {"enabled": False}
    merged: dict[str, Any] = {
        "enabled": True,
        "auto": any(r.get("auto") for r in enabled),
        "retunes": sum(int(r.get("retunes", 0)) for r in enabled),
        "promotions": sum(int(r.get("promotions", 0)) for r in enabled),
        "abandoned": sum(int(r.get("abandoned", 0)) for r in enabled),
        "shadowing": sum(int(r.get("shadowing", 0)) for r in enabled),
        "overrides": sorted(
            {m for r in enabled for m in r.get("overrides", [])}
        ),
    }
    machines: dict[str, Any] = {}
    for r in enabled:
        for name, entry in r.get("machines", {}).items():
            seen = machines.get(name)
            if seen is None or int(entry.get("retunes", 0)) > int(
                seen.get("retunes", 0)
            ):
                machines[name] = entry
    merged["machines"] = machines
    return merged
