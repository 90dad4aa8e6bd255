"""Drift-driven self-healing model tier (closes the audit alarm loop).

PR 5's audit raises ``model_degraded`` alarms; this package *acts* on
them.  The control loop, per machine:

1. **Alarm** — the audit's per-machine Page–Hinkley test flags a
   machine whose prediction errors shifted (:mod:`repro.audit.drift`).
2. **Retune** — :class:`RetunePlanner` walk-forward-backtests candidate
   hyperparameters (the paper's training-window ``N``, weekday/weekend
   day-type split, host-load thresholds ``Th1``/``Th2``) against the
   machine's recent history and ranks them by held-out Brier score.
3. **Trial** — :class:`ChampionChallenger` runs the winning candidate
   as *shadow* predictions journaled through the existing audit
   journal (op ``shadow``), scored in trial scoreboards, and promotes
   only when the challenger beats the champion's windowed Brier by a
   configured margin, sustained over a hysteresis period.
4. **Fallback** — while a machine is on trial and badly miscalibrated
   (windowed ECE above a floor), :class:`CalibratedFallback` serves the
   paper's empirical baseline instead of the SMP value, so users never
   see worse-than-baseline TRs during retuning.
5. **Promote** — :class:`AdaptController` installs the challenger via
   ``AvailabilityService.set_model_config`` (a fresh per-machine
   predictor with its own kernel rows) and resets the machine's
   Page–Hinkley state so post-recovery data is not judged against
   pre-shift statistics.

The tier is surfaced end-to-end: the wire ops ``adapt_status`` /
``adapt_retune`` / ``adapt_promote``, the ``repro-fgcs adapt`` CLI,
``adapt_*`` instruments, ``adapt.retune`` / ``adapt.promote`` spans,
and the ADAPT bench (regime shift, alarm→recovery lead time).
"""

from repro.adapt.controller import AdaptConfig, AdaptController, merge_adapt_status
from repro.adapt.fallback import CalibratedFallback
from repro.adapt.harness import ChampionChallenger, TrialState
from repro.adapt.planner import (
    CandidateConfig,
    CandidateScore,
    RetunePlan,
    RetunePlanner,
)

__all__ = [
    "AdaptConfig",
    "AdaptController",
    "CalibratedFallback",
    "CandidateConfig",
    "CandidateScore",
    "ChampionChallenger",
    "RetunePlan",
    "RetunePlanner",
    "TrialState",
    "merge_adapt_status",
]
