"""Cached answers equal a fresh service's under any interleaving of writes.

A hypothesis state machine drives one in-process ``AvailabilityService``
through appends (most leave a day incomplete, some complete one),
history replacement under the same id, model promotion and revert, and
unregister/re-register.  After every step an invariant builds a fresh
service from the same histories and model overrides and compares every
answer the live service gives from its kernel rows and scan memos:
``fleet_scan`` TR, start states and profiles at 1e-9, ``predict`` and
``reliable_horizon`` at 1e-12.  Any cache served past a change that
should have retired it shows up as a mismatch.
"""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.estimator import EstimatorConfig
from repro.core.windows import ClockWindow, DayType
from repro.service import AvailabilityService
from repro.traces.synthesis import synthesize_trace
from repro.traces.trace import MachineTrace

PERIOD = 600.0
PER_HOUR = int(3600 / PERIOD)
BASE_DAYS = 9
IDS = ("m0", "m1", "m2")
SEEDS = (0, 1, 2)
CONFIG = EstimatorConfig(step_multiple=2)
OVERRIDES = (
    EstimatorConfig(step_multiple=1, history_days=4),
    EstimatorConfig(step_multiple=3, day_type_split=False),
)
#: Busy daytime windows and windows that cross midnight.
WINDOWS = [
    (ClockWindow.from_hours(h, t), dtype)
    for (h, t), dtype in zip(
        ((9, 3), (13.5, 4), (22, 4), (23.5, 2), (10, 8), (17, 3)),
        (DayType.WEEKDAY, DayType.WEEKDAY, DayType.WEEKEND,
         DayType.WEEKDAY, DayType.WEEKEND, DayType.WEEKDAY),
    )
]
#: Each (machine, seed) history the machine can hold; appends and
#: replacements take their samples from these.
SOURCES = {
    (mid, seed): synthesize_trace(
        mid, n_days=BASE_DAYS + 12, sample_period=PERIOD, seed=10 * i + seed
    )
    for i, mid in enumerate(IDS)
    for seed in SEEDS
}


def samples(trace: MachineTrace, i: int, j: int) -> MachineTrace:
    """Samples ``i`` up to ``j`` of a trace, on its grid."""
    return MachineTrace(
        trace.machine_id, trace.start_time + i * trace.sample_period,
        trace.sample_period, trace.load[i:j], trace.free_mem_mb[i:j], trace.up[i:j],
    )


class CachedEqualsFresh(RuleBasedStateMachine):
    """One live service, and the (seed, length, override) it should answer for."""

    @initialize()
    def start(self):
        self.service = AvailabilityService(estimator_config=CONFIG)
        self.held: dict[str, tuple[int, int]] = {}  # mid -> (seed, n_samples)
        self.overrides: dict[str, EstimatorConfig] = {}
        for mid in IDS:
            self._register(mid, 0, BASE_DAYS * 24 * PER_HOUR)

    def _register(self, mid: str, seed: int, n: int) -> None:
        self.service.register(samples(SOURCES[mid, seed], 0, n))
        self.held[mid] = (seed, n)

    def _history(self, mid: str) -> MachineTrace:
        seed, n = self.held[mid]
        return samples(SOURCES[mid, seed], 0, n)

    # -- writes ---------------------------------------------------------- #

    @rule(data=st.data(), hours=st.integers(1, 30), whole=st.booleans())
    def append(self, data, hours, whole):
        """Grow one history by a chunk, or by a whole grown copy."""
        mid = data.draw(st.sampled_from(sorted(self.held)))
        seed, n = self.held[mid]
        source = SOURCES[mid, seed]
        end = min(n + hours * PER_HOUR, source.n_samples)
        if whole:
            self.service.extend_history(samples(source, 0, end))
        else:
            self.service.append_samples(samples(source, n, end))
        self.held[mid] = (seed, end)

    @rule(data=st.data(), shift=st.integers(1, len(SEEDS) - 1))
    def replace(self, data, shift):
        """Register a different history of the same length under the same id."""
        mid = data.draw(st.sampled_from(sorted(self.held)))
        seed, n = self.held[mid]
        self._register(mid, (seed + shift) % len(SEEDS), n)

    @rule(data=st.data(), config=st.sampled_from(OVERRIDES))
    def promote(self, data, config):
        mid = data.draw(st.sampled_from(sorted(self.held)))
        self.service.set_model_config(mid, estimator_config=config)
        self.overrides[mid] = config

    @precondition(lambda self: self.overrides)
    @rule(data=st.data())
    def revert(self, data):
        mid = data.draw(st.sampled_from(sorted(self.overrides)))
        self.service.set_model_config(mid)
        del self.overrides[mid]

    @precondition(lambda self: len(self.held) > 1)
    @rule(data=st.data())
    def unregister(self, data):
        mid = data.draw(st.sampled_from(sorted(self.held)))
        self.service.unregister(mid)
        del self.held[mid]
        self.overrides.pop(mid, None)

    @precondition(lambda self: len(self.held) < len(IDS))
    @rule(data=st.data(), seed=st.sampled_from(SEEDS), days=st.integers(BASE_DAYS, 12))
    def reregister(self, data, seed, days):
        mid = data.draw(st.sampled_from([m for m in IDS if m not in self.held]))
        self._register(mid, seed, days * 24 * PER_HOUR)

    # -- the check ------------------------------------------------------- #

    @invariant()
    def answers_equal_a_fresh_service(self):
        fresh = AvailabilityService(estimator_config=CONFIG)
        for mid in self.held:
            fresh.register(self._history(mid))
        for mid, config in self.overrides.items():
            fresh.set_model_config(mid, estimator_config=config)
        for window, dtype in WINDOWS:
            live, want = self.service.fleet_scan(window, dtype), fresh.fleet_scan(window, dtype)
            assert live.machine_ids == want.machine_ids
            np.testing.assert_allclose(live.tr, want.tr, rtol=0, atol=1e-9)
            np.testing.assert_array_equal(live.init_states, want.init_states)
            np.testing.assert_allclose(live.profiles, want.profiles, rtol=0, atol=1e-9)
            for mid in self.held:
                got = self.service.predict(mid, window, dtype)
                assert abs(got - fresh.predict(mid, window, dtype)) <= 1e-12, mid
                got = self.service.reliable_horizon(mid, window, dtype, tr_threshold=0.6)
                assert abs(got - fresh.reliable_horizon(
                    mid, window, dtype, tr_threshold=0.6)) <= 1e-12, mid


TestCachedEqualsFresh = CachedEqualsFresh.TestCase
TestCachedEqualsFresh.settings = settings(
    max_examples=15,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
