"""Span and count tracing for the benchmark, installed by patching module attributes.

Every wrapper is installed where the name is looked up: `skewdrift.measure`
binds its own `get_classifier`, `region_union` and `compare_order`, and
`skewdrift.cli` binds its own `classify_point`, `sweep`, `distance` and so on,
so each binding is patched separately. Methods are patched on their class.
Nothing inside `src/` is changed; `uninstall` restores every original.
"""

from __future__ import annotations

import time
from collections import Counter

import skewdrift.cli as cli
import skewdrift.config as config
import skewdrift.drift as drift
import skewdrift.measure as measure
import skewdrift.products as products
import skewdrift.regions as regions

# (span name, [(owner, attribute), ...]); each owner binding gets its own wrapper.
SPANS = [
    ("cli.run", [(cli, "run")]),
    ("config.load", [(cli, "load_config"), (config, "load_config")]),
    ("products.compare_order", [(cli, "compare_order"), (measure, "compare_order"), (products, "compare_order")]),
    ("products.distance", [(cli, "distance")]),
    ("products.multistep_approximation", [(cli, "multistep_approximation")]),
    ("fibers.invert", [(products, "invert")]),
    ("measure.sweep", [(cli, "sweep")]),
    ("measure.estimate_regions", [(cli, "estimate_regions"), (measure, "estimate_regions")]),
    ("measure.family_member", [(cli, "family_member"), (measure, "family_member")]),
    ("measure.detect_gaps", [(cli, "detect_gaps")]),
    ("measure.artifact_format", [
        (cli, "sweep_to_csv"), (cli, "gaps_to_csv"), (cli, "mu_data_file"),
        (measure.RegionEstimate, "to_json"),
    ]),
    ("symbolic.sample", [(measure, "_symbols_from_uniforms")]),
    ("drift.get_classifier", [(measure, "get_classifier"), (drift, "get_classifier")]),
    ("drift.classifier_build", [(drift.DriftClassifier, "__init__")]),
    ("drift.classify_point", [(cli, "classify_point"), (drift, "classify_point")]),
    ("drift.classify", [(drift.DriftClassifier, "classify")]),
    ("drift.image_graph", [(drift, "image_graph")]),
    ("drift.verdict_json", [(drift.Classification, "to_json")]),
    ("drift.certificate_json", [(drift.DriftCertificate, "to_json")]),
    ("drift.replay", [(drift, "replay_certificate")]),
    ("regions.union", [(measure, "region_union")]),
    ("regions.measure", [(regions.BoxRegion, "measure")]),
]

# Called per box: counted only, so tracing stays cheap.
COUNTS = [
    ("regions.measure_boxes", [(regions, "measure_boxes")]),
    ("symbolic.cylinder_measure", [(regions, "cylinder_measure")]),
]


class Tracer:
    """Records spans (name, start, end, parent index) and call counts in memory."""

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._building = 0

    def install(self):
        for name, targets in SPANS:
            for owner, attr in targets:
                self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for name, targets in COUNTS:
            for owner, attr in targets:
                self._patch(owner, attr, self._count_wrapper(name, getattr(owner, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count_wrapper(self, name, fn):
        is_boxes = name == "regions.measure_boxes"

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if is_boxes:
                self.counts["regions.boxes"] += len(args[1])
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name, fn):
        now = self.now
        is_build = name == "drift.classifier_build"
        is_image = name == "drift.image_graph"
        is_classify = name == "drift.classify"

        def wrapper(*args, **kwargs):
            counts = self.counts
            counts[name] += 1
            if is_image:
                counts["drift.image_graph.build" if self._building else "drift.image_graph.query"] += 1
            elif is_build:
                self._building += 1
            elif is_classify:
                images_before = counts["drift.image_graph"]
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                self._stack.pop()
                span = self.spans[index]
                span[1] = start
                span[2] = end
                if is_build:
                    self._building -= 1
            if is_classify:
                counts["drift.verdict." + result.verdict] += 1
                if counts["drift.image_graph"] > images_before:
                    counts["drift.refined_points"] += 1
                    if result.verdict != drift.UNKNOWN:
                        counts["drift.refined_resolved"] += 1
            return result

        return wrapper

    def summary(self, wall: float) -> dict:
        """Per-name inclusive time, per-layer self time and top-level coverage for one pass."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: Counter = Counter()
        self_by_layer: Counter = Counter()
        top_level = 0.0
        # Inclusive time per name counts only the outermost span of each name.
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self_by_layer[name.split(".", 1)[0]] += dur - child_time[i]
            if parent < 0:
                top_level += dur
            ancestor = parent
            nested = False
            while ancestor >= 0:
                if spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = spans[ancestor][3]
            if not nested:
                inclusive[name] += dur
        return {
            "counts": dict(self.counts),
            "inclusive_s": dict(inclusive),
            "self_s_by_layer": dict(self_by_layer),
            "top_level_s": top_level,
            "coverage": top_level / wall if wall > 0 else 0.0,
            "spans": len(spans),
        }
