"""Simulation calendar: days, day types, and clock windows.

The paper estimates SMP parameters from "the corresponding time windows of
the most recent N weekdays (weekends)" (Section 4.2).  This module provides
the small amount of calendar arithmetic that phrase requires: mapping an
absolute simulation time to a day index, classifying days as weekday or
weekend, and describing recurring *clock windows* (e.g. "8:00-18:00") that
can be instantiated on any concrete day.

Simulation time is a float number of seconds since the simulation epoch.
The epoch is defined to fall on a Monday at 00:00, so day indices 0-4 of
every week are weekdays and 5-6 are weekend days.  No real-world calendar
(time zones, DST, leap seconds) is involved; the paper's analysis only
needs the weekday/weekend periodicity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "DAYS_PER_WEEK",
    "WEEKDAY_INDICES",
    "WEEKEND_INDICES",
    "DayType",
    "day_index",
    "day_start",
    "time_of_day",
    "day_of_week",
    "day_type",
    "day_type_of_time",
    "days_of_type",
    "ClockWindow",
    "AbsoluteWindow",
    "resolve_window",
    "n_steps",
]

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
DAYS_PER_WEEK = 7

#: Days-of-week counted from the epoch Monday.
WEEKDAY_INDICES = (0, 1, 2, 3, 4)
WEEKEND_INDICES = (5, 6)

_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


class DayType(enum.Enum):
    """Day classification used for pooling history windows.

    The paper pools statistics across days of the same type only: the load
    pattern of a Tuesday resembles other weekdays far more than it
    resembles a Saturday (Section 4.2, citing Mutka's observation [19]).
    """

    WEEKDAY = "weekday"
    WEEKEND = "weekend"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def day_index(t: float) -> int:
    """Return the zero-based day index containing absolute time ``t``."""
    return int(math.floor(t / SECONDS_PER_DAY))


def day_start(day: int) -> float:
    """Return the absolute time at which day ``day`` begins (00:00)."""
    return day * SECONDS_PER_DAY


def time_of_day(t: float) -> float:
    """Return seconds elapsed since midnight of the day containing ``t``."""
    return t - day_start(day_index(t))


def day_of_week(day: int) -> int:
    """Return the day-of-week (0 = Monday .. 6 = Sunday) of day ``day``."""
    return day % DAYS_PER_WEEK


def day_name(day: int) -> str:
    """Return a short human-readable weekday name for day ``day``."""
    return _DAY_NAMES[day_of_week(day)]


def day_type(day: int) -> DayType:
    """Classify day index ``day`` as weekday or weekend."""
    return DayType.WEEKDAY if day_of_week(day) in WEEKDAY_INDICES else DayType.WEEKEND


def day_type_of_time(t: float) -> DayType:
    """Classify the day containing absolute time ``t``."""
    return day_type(day_index(t))


def days_of_type(first_day: int, last_day: int, dtype: DayType) -> list[int]:
    """List day indices in ``[first_day, last_day)`` of the given type."""
    return [d for d in range(first_day, last_day) if day_type(d) is dtype]


@dataclass(frozen=True)
class ClockWindow:
    """A recurring time-of-day window, e.g. "8:00 for 2 hours".

    ``start`` is seconds after midnight; ``duration`` is the window length
    ``T`` in seconds.  A clock window is *abstract*: call :meth:`on_day`
    to obtain the concrete :class:`AbsoluteWindow` on a particular day.

    Windows may extend past midnight (``start + duration > 86400``); the
    day type of the window is defined by its start day, matching how the
    paper indexes windows by their start hour.
    """

    start: float
    duration: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < SECONDS_PER_DAY:
            raise ValueError(f"window start {self.start} outside [0, 86400)")
        if self.duration <= 0.0:
            raise ValueError(f"window duration must be positive, got {self.duration}")

    @classmethod
    def from_hours(cls, start_hour: float, duration_hours: float) -> "ClockWindow":
        """Build a window from a start hour and a duration in hours."""
        return cls(start=start_hour * SECONDS_PER_HOUR, duration=duration_hours * SECONDS_PER_HOUR)

    @property
    def start_hour(self) -> float:
        """Window start expressed in hours after midnight."""
        return self.start / SECONDS_PER_HOUR

    @property
    def duration_hours(self) -> float:
        """Window length expressed in hours."""
        return self.duration / SECONDS_PER_HOUR

    def on_day(self, day: int) -> "AbsoluteWindow":
        """Instantiate this clock window on concrete day ``day``."""
        t0 = day_start(day) + self.start
        return AbsoluteWindow(start=t0, duration=self.duration)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.start_hour:05.2f}h+{self.duration_hours:.2f}h"


@dataclass(frozen=True)
class AbsoluteWindow:
    """A concrete time interval ``[start, start + duration)``."""

    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise ValueError(f"window duration must be positive, got {self.duration}")

    @property
    def end(self) -> float:
        """Exclusive end time of the window."""
        return self.start + self.duration

    @property
    def day(self) -> int:
        """Day index of the window start (defines its day type)."""
        return day_index(self.start)

    @property
    def day_type(self) -> DayType:
        """Day type of the window start day."""
        return day_type(self.day)

    def clock_window(self) -> ClockWindow:
        """Return the recurring clock window this interval instantiates."""
        return ClockWindow(start=time_of_day(self.start), duration=self.duration)

    def contains(self, t: float) -> bool:
        """Return True when ``t`` lies within ``[start, end)``."""
        return self.start <= t < self.end

    def overlaps(self, other: "AbsoluteWindow") -> bool:
        """Return True when the two half-open intervals intersect."""
        return self.start < other.end and other.start < self.end

    def iter_history_days(self, n_days: int, *, same_type_only: bool = True) -> Iterator[int]:
        """Yield up to ``n_days`` most recent prior days, newest first.

        With ``same_type_only`` (the default, matching the paper) only
        days of the same :class:`DayType` as the window's start day are
        yielded; e.g. for a Monday-morning window the history is the
        previous Friday, Thursday, ... never a Saturday.
        """
        want = self.day_type
        found = 0
        d = self.day - 1
        while found < n_days and d >= 0:
            if not same_type_only or day_type(d) is want:
                yield d
                found += 1
            d -= 1


def resolve_window(
    window: ClockWindow | AbsoluteWindow, dtype: DayType | None = None
) -> tuple[ClockWindow, DayType]:
    """The recurring clock window and day type a query targets.

    An absolute window brings its own day type (an explicit ``dtype``
    overrides it); a clock window needs an explicit one.
    """
    if isinstance(window, AbsoluteWindow):
        return window.clock_window(), dtype or window.day_type
    if dtype is None:
        raise ValueError("a ClockWindow requires an explicit day type")
    return window, dtype


def n_steps(duration: float, step: float) -> int:
    """Number of discretization intervals covering ``duration``.

    The paper's recursion runs over ``T/d`` steps (Eq. 2); durations that
    are not exact multiples of ``step`` are rounded to the nearest whole
    number of steps (at least one).
    """
    if step <= 0.0:
        raise ValueError(f"discretization step must be positive, got {step}")
    return max(1, int(round(duration / step)))
