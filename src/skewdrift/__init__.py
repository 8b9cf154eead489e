"""Certified drift analysis for interval skew products over transitive
subshifts of finite type.

Builds multistep skew products, certifies drifting step graphs and drifting
points with explicit margins, measures the certified regions exactly and the
anchored remainder statistically, and sweeps monotone one-parameter families
to locate jumps of the certified up-measure curve.
"""

from .drift import (
    VERDICTS,
    Classification,
    ConsistencyReport,
    DriftCertificate,
    DriftClassifier,
    DriftOutcome,
    StepGraph,
    certified_regions,
    certify_drift,
    classify_point,
    get_classifier,
    image_graph,
    periodic_consistency,
    periodic_fiber_map,
    replay_certificate,
)
from .fibers import (
    Affine,
    BumpComposed,
    BumpedAffine,
    Plateau,
    RealInterval,
    compose_along_word,
    derivative,
    interval_image,
    invert,
    map_from_json,
    map_to_json,
    validate_class,
)
from .measure import (
    GapInterval,
    MonotoneFamily,
    RegionEstimate,
    SweepResult,
    detect_gaps,
    estimate_regions,
    family_member,
    hoeffding_radius,
    sweep,
)
from .products import (
    ContinuousProductSpec,
    LabeledPoint,
    MultistepSkewProduct,
    ProductOrder,
    approximation_distance_bound,
    compare_order,
    distance,
    iterate,
    multistep_approximation,
    pad_to_window,
)
from .regions import BoxRegion, difference, intersect, measure_boxes, region_union
from .symbolic import (
    MarkovChain,
    PeriodicWord,
    SymbolWindow,
    TransitionSystem,
    WindowMetric,
    cylinder_measure,
    metric,
    periodic_words,
    sample_window,
    stationary_distribution,
    validate_transitive,
)
