"""Outside-in span tracing of the uncollapse modules.

Each target is a function looked up by its caller through a module (or class)
attribute.  ``Tracer.install`` replaces that attribute with a wrapper that
records a span (layer, start, end, parent) and restores the original on
``Tracer.restore``.  Nothing under ``src/`` is edited.  A target that no
longer exists is reported as absent instead of failing the run.
"""

import functools
import importlib
import time
from collections import defaultdict


def _count_uniforms(counts, result):
    shape = getattr(result, "shape", ())
    if len(shape) == 2:
        counts["montecarlo.uniforms.shots"] += shape[0]
        counts["montecarlo.uniforms.draws"] += shape[0] * shape[1]


def _count_trajectory(counts, result):
    # _run_batch returns (outcomes, detected); outcomes is (shots, measurements)
    if not isinstance(result, tuple) or len(result) != 2:
        return
    outcomes, detected = result
    shots = len(detected)
    counts["montecarlo.trajectory.shots"] += shots
    if getattr(outcomes, "ndim", 0) == 2:
        counts["montecarlo.trajectory.kept"] += shots - int(outcomes.any(axis=1).sum())


def _count_write(counts, result):
    # Path.write_text returns the characters written; CLI output is ASCII
    if isinstance(result, int):
        counts["cli.write.bytes"] += result


# (module the caller looks the name up in, attribute path, layer, counter)
TARGETS = (
    ("uncollapse.montecarlo", "_shot_uniforms", "montecarlo.uniforms", _count_uniforms),
    ("uncollapse.montecarlo", "_run_batch", "montecarlo.trajectory", _count_trajectory),
    ("uncollapse.cli", "estimate_probabilities", "montecarlo.estimate", None),
    ("uncollapse.qpt", "estimate_probabilities", "montecarlo.estimate", None),
    ("uncollapse.tomography", "run_exact", "protocol.run_exact", None),
    ("uncollapse.protocol", "apply_partial_tunnel", "channels.ops", None),
    ("uncollapse.protocol", "apply_rotation", "channels.ops", None),
    ("uncollapse.protocol", "apply_decoherence", "channels.ops", None),
    ("uncollapse.tomography", "apply_rotation", "channels.ops", None),
    ("uncollapse.tomography", "apply_decoherence", "channels.ops", None),
    ("uncollapse.qubit", "QubitState.validate", "qubit.validate", None),
    ("uncollapse.tomography", "tomo_probabilities", "tomography.forward", None),
    ("uncollapse.cli", "exact_tomography_record", "tomography.exact_record", None),
    ("uncollapse.qpt", "exact_tomography_record", "tomography.exact_record", None),
    ("uncollapse.cli", "bloch_reconstruct", "tomography.reconstruct", None),
    ("uncollapse.qpt", "bloch_reconstruct", "tomography.reconstruct", None),
    ("uncollapse.qpt", "qpt_reconstruct", "qpt.reconstruct", None),
    ("uncollapse.cli", "exact_uncollapse_chi", "qpt.chi", None),
    ("uncollapse.cli", "montecarlo_uncollapse_chi", "qpt.chi", None),
    ("uncollapse.cli", "Path.write_text", "cli.write", _count_write),
    ("uncollapse.cli", "main", "cli.main", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))


def resolve(module_name, path):
    """Return (owner, attribute name, current value), or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


class Tracer:
    """Collects spans in memory while installed; one instance per pass."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans = []  # [layer, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []
        self._patches = []  # (owner, name, original)

    def install(self):
        for module_name, path, layer, counter in self.targets:
            found = resolve(module_name, path)
            if found is None or not callable(found[2]):
                self.absent.append(f"{module_name}:{path}")
                continue
            owner, name, original = found
            setattr(owner, name, self._wrap(layer, original, counter))
            self._patches.append((owner, name, original))

    def restore(self):
        """Put every original back, last patch first; return how many failed."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        left = sum(getattr(owner, name) is not original for owner, name, original in self._patches)
        self._patches = []
        return left

    def _wrap(self, layer, fn, counter):
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    def summary(self):
        """Per-layer calls, busy time and self time (busy minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for index, (layer, start, end, _) in enumerate(self.spans):
            entry = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "absent": list(self.absent),
        }
