"""Fleet-scale batched SMP prediction.

``repro.fleet`` answers availability questions for *every* machine in a
pool with one matrix pass instead of N scalar Eq.-3 recursions:

* :mod:`repro.fleet.kernel` — :class:`FleetKernel` stacks per-machine
  semi-Markov kernels into one ``(machine, slot, horizon)`` tensor and
  :func:`solve_fleet` runs the batched interval-transition recursion,
  numerically equivalent (<= 1e-9) to :func:`repro.core.smp.failure_probabilities`
  per machine.
* :mod:`repro.fleet.predictor` — :class:`FleetPredictor` builds and
  incrementally refreshes the stacked tensor from a service's trace
  registry, caching both per-machine kernels and whole solved scans.

The serving tier exposes this as the ``predict_batch`` and
``fleet_scan`` ops; ``rank``/``select`` and the scheduler's candidate
scoring ride the same path.
"""

from repro.fleet.kernel import FleetKernel, FleetSolution, solve_fleet
from repro.fleet.predictor import FleetPredictor, FleetScan

__all__ = [
    "FleetKernel",
    "FleetSolution",
    "FleetPredictor",
    "FleetScan",
    "solve_fleet",
]
