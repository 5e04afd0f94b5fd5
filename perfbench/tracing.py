"""Spans and counts for the traced run, recorded from the benchmark's side.

Each public function of the program is wrapped at the name its caller bound
it to (`cones.kernel_ray` is what `decide_positive_kernel` calls, so that
binding is wrapped). Wrappers are installed for the traced phase only and
record nothing outside a check. Spans stay in memory, each with its parent
and its sample id, and are written out when the run ends.

A span is the wall time of one wrapped call, less the speed probe's time
inside it; its self time is the span minus its child spans. Times are
rescaled like check times (speed.py). The root span is the whole `cli.main`
call, so the self times of all spans add up to the traced check time, and
what no child covers (argument parsing, file read, hashing, JSON output) is
`cli.self_s`.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

ROOT_SPAN = "cli.main"

# (module the caller reads the name from, attribute, span name)
BINDINGS = (
    ("cli", "scene_from_jsonable", "cli.scene_from_jsonable"),
    ("cli", "validate_scene", "geometry.validate_scene"),
    ("cli", "build_sheaf", "geometry.build_sheaf"),
    ("cli", "global_sections", "sheaf.global_sections"),
    ("cli", "extract_path", "geometry.extract_path"),
    ("cli", "sections_to_jsonable", "cli.report"),
    ("cli", "path_to_jsonable", "cli.report"),
    ("geometry", "validate_scene", "geometry.validate_scene"),
    ("geometry", "scene_fibres", "geometry.scene_fibres"),
    ("geometry", "build_sheaf", "geometry.build_sheaf"),
    ("geometry", "flow_decompose", "oracle.flow_decompose"),
    ("geometry", "verify_evasion_path", "geometry.verify_evasion_path"),
    ("sheaf", "validate_sheaf", "sheaf.validate_sheaf"),
    ("sheaf", "kernel_sparse", "linalg.kernel_sparse"),
    ("sheaf", "decide_positive_kernel", "cones.decide_positive_kernel"),
    ("cones", "kernel_ray", "linalg.kernel_ray"),
    ("linalg", "solve_square_sparse", "linalg.solve_square_sparse"),
)

# Bindings that are counted, not timed: one call per generator is too fine
# for a span, and validate_sheaf's span already holds their time.
COUNTED = (("sheaf", "cone_membership", "cones.cone_membership_calls"),)

# per-layer time metric -> (span name, self time rather than whole span)
LAYER_TIMES = {
    "linalg.kernel_ray_self_s": ("linalg.kernel_ray", True),
    "linalg.solve_square_sparse_s": ("linalg.solve_square_sparse", False),
    "linalg.kernel_sparse_s": ("linalg.kernel_sparse", False),
    "cones.decide_positive_kernel_self_s": ("cones.decide_positive_kernel", True),
    "sheaf.validate_sheaf_s": ("sheaf.validate_sheaf", False),
    "sheaf.global_sections_self_s": ("sheaf.global_sections", True),
    "geometry.scene_fibres_s": ("geometry.scene_fibres", False),
    "geometry.validate_scene_self_s": ("geometry.validate_scene", True),
    "geometry.build_sheaf_self_s": ("geometry.build_sheaf", True),
    "geometry.extract_path_self_s": ("geometry.extract_path", True),
    "oracle.flow_decompose_s": ("oracle.flow_decompose", False),
    "geometry.verify_evasion_path_s": ("geometry.verify_evasion_path", False),
    "cli.scene_from_jsonable_s": ("cli.scene_from_jsonable", False),
    "cli.report_s": ("cli.report", False),
    "cli.self_s": (ROOT_SPAN, True),
}

COUNTS = (
    "geometry.critical_times",
    "geometry.gap_components",
    "geometry.grid_faces",
    "geometry.path_segments",
    "sheaf.coboundary_rows",
    "sheaf.coboundary_cols",
    "sheaf.coboundary_nnz",
    "sheaf.kernel_dim",
    "cones.cone_membership_calls",
    "cones.decision_max_bits",
    "oracle.chains",
    "cli.report_bytes",
)


def _count_fibres(tracer: "Tracer", args, result) -> None:
    # scene_fibres is also called on cache hits; count each check's scene once
    if "fibres" in tracer._seen:
        return
    tracer._seen.add("fibres")
    times, vertex_fibres, edge_fibres = result
    fibres = (*vertex_fibres, *edge_fibres)
    tracer.counts["geometry.critical_times"] += len(times)
    tracer.counts["geometry.gap_components"] += sum(len(f.components) for f in fibres)
    tracer.counts["geometry.grid_faces"] += sum((2 * len(f.xs) - 1) * (2 * len(f.ys) - 1) for f in fibres)


def _count_decision(tracer: "Tracer", args, result) -> None:
    tracer.counts["sheaf.coboundary_nnz"] += sum(len(r) for r in args[0])
    values = result.witness if result.witness is not None else result.certificate
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)
    tracer.counts["cones.decision_max_bits"] = max(tracer.counts["cones.decision_max_bits"], bits)


def _count_path(tracer: "Tracer", args, result) -> None:
    tracer.counts["geometry.path_segments"] += len(result.segments)


def _count_chains(tracer: "Tracer", args, result) -> None:
    tracer.counts["oracle.chains"] += len(result)


COUNT_HOOKS = {
    "geometry.scene_fibres": _count_fibres,
    "cones.decide_positive_kernel": _count_decision,
    "geometry.extract_path": _count_path,
    "oracle.flow_decompose": _count_chains,
}


class Tracer:
    """Collects spans of traced checks and counts of the first pass.

    `counting` is set by the caller for the samples of the first pass over
    the workload's inputs, so counts repeat exactly for a given seed.
    """

    def __init__(self, probe: SpeedProbe):
        self.spans: list[list] = []  # [sample, name, parent index, start, end, probe time inside]
        self._probe = probe
        self.counts = dict.fromkeys(COUNTS, 0)
        self.counting = False
        self._sample: int | None = None
        self._stack: list[int] = []
        self._seen: set[str] = set()
        self._saved: list[tuple] = []

    def install(self, prog) -> None:
        for mod, attr, name in BINDINGS:
            self._replace(getattr(prog, mod), attr, lambda fn, n=name: self._timed(n, fn, COUNT_HOOKS.get(n)))
        for mod, attr, name in COUNTED:
            self._replace(getattr(prog, mod), attr, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _replace(self, module, attr: str, make) -> None:
        fn = getattr(module, attr, None)
        if fn is None:  # the program no longer has this binding
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def _timed(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            if self._sample is None:
                return fn(*args, **kwargs)
            result = self._span(name, fn, args, kwargs)
            if hook is not None and self.counting:
                hook(self, args, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        def counted(*args, **kwargs):
            if self._sample is not None and self.counting:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn, args, kwargs):
        span = [self._sample, name, self._stack[-1] if self._stack else None, 0.0, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        busy = self._probe.busy
        span[3] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            span[5] = self._probe.busy - busy
            self._stack.pop()

    def check(self, sample: int, call):
        """Run one check as the root span of `sample`."""
        self._sample = sample
        self._seen.clear()
        try:
            return self._span(ROOT_SPAN, call, (), {})
        finally:
            self._sample = None

    def count_report(self, report: dict, nbytes: int) -> None:
        """Counts read off a report of the first pass; `nbytes` is its size
        as sorted compact JSON without `timing_ms`, which varies by run."""
        sections = report["sections"]
        self.counts["sheaf.coboundary_rows"] += len(sections["rows"])
        self.counts["sheaf.coboundary_cols"] += len(sections["columns"])
        self.counts["sheaf.kernel_dim"] += sections["kernel_dim"]
        self.counts["cli.report_bytes"] += nbytes

    def layer_times(self) -> dict[str, float]:
        """Each LAYER_TIMES metric as rescaled seconds per traced check."""
        scale = {}
        own = []
        children = [0.0] * len(self.spans)
        for sample, name, parent, start, end, probe in self.spans:
            own.append(end - start - probe)
            if parent is None:
                scale[sample] = self._probe.scale(start, end)
            else:
                children[parent] += own[-1]
        whole: dict[str, float] = {}
        alone: dict[str, float] = {}
        for (sample, name, *_), t, covered in zip(self.spans, own, children):
            whole[name] = whole.get(name, 0.0) + t * scale[sample]
            alone[name] = alone.get(name, 0.0) + (t - covered) * scale[sample]
        n = max(len(scale), 1)
        return {
            metric: (alone if self_time else whole).get(span, 0.0) / n
            for metric, (span, self_time) in LAYER_TIMES.items()
        }

    def write_spans(self, path: Path) -> None:
        with path.open("w") as out:
            for i, (sample, name, parent, start, end, probe) in enumerate(self.spans):
                record = {"id": i, "sample": sample, "name": name, "parent": parent,
                          "start": start, "end": end, "probe_s": probe}
                out.write(json.dumps(record) + "\n")
