"""Workload generators for every experiment family of ``benchmarks/bench_e*.py``."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bandwidth": ("BandwidthWorkload", "bandwidth_allocation_instance"),
        ".cycle": ("cycle_instance", "defect_cycle_instance"),
        ".grid": ("torus_instance",),
        ".lower_bound": (
            "half_half_cycle_pair",
            "hard_ring_pair",
            "indistinguishable_cycle_pair",
        ),
        ".perturb": ("jitter_coefficients", "perturb_coefficient"),
        ".random_instances": ("random_instance", "random_special_form_instance"),
        ".regular": (
            "objective_ring_instance",
            "regular_general_instance",
            "regular_special_form_instance",
        ),
        ".sensor_network": ("SensorNetwork", "sensor_network_instance"),
    },
)

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
