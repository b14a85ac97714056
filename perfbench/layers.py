"""Per-layer split of the benchmark's time, taken from outside the package.

`Tracer.install` replaces the public functions of each hyparr layer, in
every hyparr module that holds a reference to them, with wrappers that keep
a span stack: each span's self time is its duration minus the durations of
the wrapped calls made inside it.  `Tracer.uninstall` puts the originals
back.  Nothing under src/hyparr is edited; a traced run changes no output.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# metric prefix -> (module, attribute); "Class.method" patches the class.
LAYERS = {
    "linalg.kernel_basis": ("hyparr.linalg", "kernel_basis"),
    "linalg.rank": ("hyparr.linalg", "rank"),
    "lattice.build": ("hyparr.lattice", "build_lattice"),
    "lattice.closure": ("hyparr.lattice", "closure_of_forms"),
    "feasibility.strict_feasible": ("hyparr.feasibility", "strict_feasible"),
    "feasibility.witness": ("hyparr._fmpure", "witness_from_stages"),
    "feasibility.verify": ("hyparr.feasibility", "FeasibilityResult.verify"),
    "feasibility.interior": ("hyparr.feasibility", "interior_witness"),
    "feasibility.maximin": ("hyparr._fmpure", "maximin_on_cross_polytope"),
    "consistency.sigma": ("hyparr.consistency", "sigma"),
    "consistency.filtration": ("hyparr.consistency", "sigma_filtration"),
    "consistency.local": ("hyparr.consistency", "is_locally_consistent"),
    "chambers.enumerate": ("hyparr.chambers", "enumerate_chambers"),
    "chambers.chamber": ("hyparr.chambers", "chamber_from_signs"),
    "chambers.flow": ("hyparr.chambers", "flow_to_sink"),
    "obstruction.detect": ("hyparr.obstruction", "detect_obstruction"),
    "obstruction.certify": ("hyparr.obstruction", "certify_nontrivial_sphere"),
    "obstruction.sample": ("hyparr.obstruction", "sample_sphere_points"),
    "obstruction.verify_samples": ("hyparr.obstruction", "verify_sample_points"),
}

# (metric name, unit, better); the names BENCHMARK.json lists under per_layer.
METRICS = [
    ("linalg.kernel_basis.calls", "count", "lower"),
    ("linalg.kernel_basis.self_s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("lattice.build.calls", "count", "lower"),
    ("lattice.build.self_s", "s", "lower"),
    ("lattice.closure.calls", "count", "lower"),
    ("lattice.closure.self_s", "s", "lower"),
    ("lattice.flats", "count", "higher"),
    ("feasibility.kernel.calls", "count", "lower"),
    ("feasibility.kernel.self_s", "s", "lower"),
    ("feasibility.kernel.p50_us", "us", "lower"),
    ("feasibility.kernel.p99_us", "us", "lower"),
    ("feasibility.kernel.dual_calls", "count", "lower"),
    ("feasibility.kernel.rows", "count", "lower"),
    ("feasibility.kernel.fallbacks", "count", "lower"),
    ("feasibility.strict_feasible.calls", "count", "lower"),
    ("feasibility.strict_feasible.self_s", "s", "lower"),
    ("feasibility.witness.self_s", "s", "lower"),
    ("feasibility.verify.calls", "count", "lower"),
    ("feasibility.verify.self_s", "s", "lower"),
    ("feasibility.interior.calls", "count", "lower"),
    ("feasibility.interior.self_s", "s", "lower"),
    ("feasibility.maximin.self_s", "s", "lower"),
    ("consistency.sigma.self_s", "s", "lower"),
    ("consistency.filtration.self_s", "s", "lower"),
    ("consistency.local.self_s", "s", "lower"),
    ("consistency.sign_vectors", "count", "higher"),
    ("chambers.enumerate.self_s", "s", "lower"),
    ("chambers.chamber.calls", "count", "lower"),
    ("chambers.chamber.self_s", "s", "lower"),
    ("chambers.flow.self_s", "s", "lower"),
    ("chambers.chambers", "count", "higher"),
    ("chambers.walls", "count", "higher"),
    ("obstruction.detect.self_s", "s", "lower"),
    ("obstruction.certify.self_s", "s", "lower"),
    ("obstruction.sample.self_s", "s", "lower"),
    ("obstruction.verify_samples.self_s", "s", "lower"),
    ("obstruction.gaps", "count", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.total_s", "s", "lower"),
    ("trace.untraced_total_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Counts and self times per layer, summed until `take` resets them."""

    def __init__(self):
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._lattices: dict[int, object] = {}
        self._in_filtration = False
        self.kernel_us: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._lattices.clear()

    def take(self) -> dict[str, float]:
        """This op's metrics; counters restart at zero."""
        out: dict[str, float] = {}
        for name, _, _ in METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[layer]
            elif kind == "self_s":
                out[name] = self.self_s[layer]
        out.update({k: v for k, v in self.counts.items()})
        self.reset()
        return out

    def span(self, name: str, fn, after=None):
        stack = self._stack

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self.self_s[name] += dt - child
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result, dt)
            return result

        return wrapped

    # -- counts attached to particular layers ------------------------------

    def _after_lattice(self, args, lattice, dt):
        # build_lattice is cached for the process; count each lattice once
        if id(lattice) not in self._lattices:
            self._lattices[id(lattice)] = lattice
            self.counts["lattice.flats"] += len(lattice.flats)

    def _after_sigma(self, args, result, dt):
        if not self._in_filtration:
            self.counts["consistency.sign_vectors"] += len(result)

    def _after_filtration(self, args, filt, dt):
        self.counts["consistency.sign_vectors"] += sum(
            c for k, c in filt.counts.items() if k >= 2)

    def _after_enumerate(self, args, chambers, dt):
        self.counts["chambers.chambers"] += len(chambers)
        self.counts["chambers.walls"] += sum(len(C.walls) for C in chambers)

    def _after_detect(self, args, report, dt):
        self.counts["obstruction.gaps"] += len(report.gaps)

    def _kernel(self, fn, compiled: bool):
        def after(args, result, dt):
            if compiled and result is None:
                self.counts["feasibility.kernel.fallbacks"] += 1
                self.calls["feasibility.kernel"] -= 1  # the pure retry is the call
                return
            self.kernel_us.append(dt * 1e6)
            self.counts["feasibility.kernel.rows"] += len(args[0])
            if result[0] == "dual":
                self.counts["feasibility.kernel.dual_calls"] += 1
        return self.span("feasibility.kernel", fn, after)

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "hyparr" or modname.startswith("hyparr.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "lattice.build": self._after_lattice,
            "consistency.sigma": self._after_sigma,
            "consistency.filtration": self._after_filtration,
            "chambers.enumerate": self._after_enumerate,
            "obstruction.detect": self._after_detect,
        }
        for name, (module, attr) in LAYERS.items():
            owner, attr, original = _resolve(module, attr)
            wrapped = self.span(name, original, after.get(name))
            if name == "consistency.filtration":
                wrapped = self._marking_filtration(wrapped)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._replace_everywhere(original, wrapped)
        fmpure = sys.modules["hyparr._fmpure"]
        self._patches.append((fmpure, "solve", fmpure.solve))
        fmpure.solve = self._kernel(fmpure.solve, compiled=False)
        feas = sys.modules["hyparr.feasibility"]
        if feas._fmcore is not None:
            proxy = type("TracedFmcore", (), {})()
            proxy.solve = self._kernel(feas._fmcore.solve, compiled=True)
            self._patches.append((feas, "_fmcore", feas._fmcore))
            feas._fmcore = proxy

    def _marking_filtration(self, fn):
        def wrapped(*args, **kwargs):
            outer, self._in_filtration = self._in_filtration, True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_filtration = outer
        return wrapped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def summarize(per_pass: list[dict[str, float]], kernel_us: list[float]) -> dict[str, float]:
    """Median over traced passes of each per-pass total; kernel percentiles
    over every traced kernel call."""
    out = {}
    for name, _, _ in METRICS:
        values = [p.get(name, 0) for p in per_pass]
        out[name] = statistics.median(values) if values else 0
    if kernel_us:
        ordered = sorted(kernel_us)
        out["feasibility.kernel.p50_us"] = statistics.median(ordered)
        out["feasibility.kernel.p99_us"] = ordered[min(len(ordered) - 1,
                                                       int(0.99 * len(ordered)))]
    else:
        out["feasibility.kernel.p50_us"] = 0
        out["feasibility.kernel.p99_us"] = 0
    return out
