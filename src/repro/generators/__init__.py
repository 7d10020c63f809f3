"""Workload generators for every experiment family of ``benchmarks/bench_e*.py``."""

from .bandwidth import BandwidthWorkload, bandwidth_allocation_instance
from .cycle import cycle_instance, defect_cycle_instance
from .grid import torus_instance
from .lower_bound import half_half_cycle_pair, hard_ring_pair, indistinguishable_cycle_pair
from .perturb import jitter_coefficients, perturb_coefficient
from .random_instances import random_instance, random_special_form_instance
from .regular import (
    objective_ring_instance,
    regular_general_instance,
    regular_special_form_instance,
)
from .sensor_network import SensorNetwork, sensor_network_instance

__all__ = [
    "random_instance",
    "random_special_form_instance",
    "cycle_instance",
    "defect_cycle_instance",
    "torus_instance",
    "regular_special_form_instance",
    "regular_general_instance",
    "objective_ring_instance",
    "sensor_network_instance",
    "SensorNetwork",
    "bandwidth_allocation_instance",
    "BandwidthWorkload",
    "indistinguishable_cycle_pair",
    "half_half_cycle_pair",
    "hard_ring_pair",
    "perturb_coefficient",
    "jitter_coefficients",
]
