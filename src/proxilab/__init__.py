"""Audit laboratory for a grid-snapped proximity service.

Three layers: a deterministic simulator of the service's rounding, class
bucketing and rate limits; a boundary-probing walker that localizes a target
under those limits; and the statistics that turn collected transitions into
location-privacy measurements.
"""

from .geo import GeoPoint, MercatorPoint, destination, distance, from_mercator, to_local, to_mercator
from .prober import ProbeConfig, Transition, TransitionSet, collect_transitions, pace
from .service import (
    DISTANCE_CLASSES_M,
    LocalClient,
    Quantizer,
    Service,
    TargetRegistry,
    classify,
)

__version__ = "0.1.0"
