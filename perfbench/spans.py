"""Span tracing of mixlap from outside the package, and the per-layer metrics.

``Tracer.install`` replaces each traced public function with a wrapper that
records a span (name, start, end, parent) in memory.  A wrapper is set on
every module attribute a caller looks the function up through, not only on
the defining module: ``kernels`` imports ``radial_inverse_fourier`` by name,
``analysis`` imports ``tabulate_kernel``, ``mc`` imports ``heat_kernel``,
``solver`` imports the ``spectral`` functions and ``inversion`` imports
``bessel_j``.  ``Tracer.uninstall`` puts the originals back.

Nothing here changes what the wrapped functions compute.  The benchmark
turns tracing off (``Tracer.paused``) while it checks outputs, so checks add
no spans.
"""

import contextlib
import statistics
import time

# (defining module, function, modules that hold the same name)
_TRACED = [
    ("special", "bessel_j", ["inversion"]),
    ("special", "bessel_j_zeros", ["inversion"]),
    ("inversion", "radial_inverse_fourier", ["kernels"]),
    ("kernels", "tabulate_kernel", ["analysis"]),
    ("kernels", "heat_kernel", ["mc"]),
    ("kernels", "heat_kernel_two_scale", []),
    ("kernels", "heat_kernel_rescaled", []),
    ("kernels", "bessel_kernel", []),
    ("kernels", "bessel_kernel_shifted", []),
    ("kernels", "resolvent_multiplier_kernel", []),
    ("spectral", "apply_operator", ["solver"]),
    ("spectral", "apply_resolvent", ["solver"]),
    ("spectral", "norms", ["solver"]),
    ("spectral", "positive_part_power", ["solver"]),
    ("spectral", "write_field", []),
    ("spectral", "read_field", []),
    ("solver", "solve_ground_state", []),
    ("solver", "petviashvili_step", []),
    ("solver", "gradient_plus", []),
    ("solver", "energy_plus", []),
    ("analysis", "radial_average", []),
    ("analysis", "symmetry_deviation", []),
    ("analysis", "decay_fit", []),
    ("mc", "sample_mixed", []),
    ("mc", "validate_char_function", []),
    ("mc", "compare_density", []),
]

# FFT entry points, counted (not spanned) wherever they are called from
_FFT_NAMES = ["fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
              "fftn", "ifftn", "rfftn", "irfftn"]

LAYERS = ["special", "inversion", "kernels", "spectral", "solver", "analysis",
          "mc", "cli"]
CLI_COMMANDS = ["kernel-tab", "asymptotics", "solve", "mc-validate"]

# radius bands of radial_inverse_fourier calls, by |x|
_BANDS = [("x_small", 0.1), ("x_mid", 10.0), ("x_large", float("inf"))]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_ns")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs
        self.child_ns = 0  # summed duration of direct children

    @property
    def ms(self):
        return (self.end - self.start) / 1e6

    @property
    def self_ms(self):
        return (self.end - self.start - self.child_ns) / 1e6


class Tracer:
    """In-memory span recorder; spans are kept until ``metrics`` reads them."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.fft_calls = []  # (innermost enclosing span or None, bytes moved)
        self.symbol_points = 0
        self._saved = []
        self._paused = False

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, **attrs):
        if self._paused:
            yield None
            return
        parent = self.stack[-1] if self.stack else None
        sp = Span(name, time.perf_counter_ns(), parent, attrs)
        self.stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append(sp)
            if parent is not None:
                parent.child_ns += sp.end - sp.start

    @contextlib.contextmanager
    def paused(self):
        old, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = old

    def _wrap(self, qualname, fn):
        tracer = self

        if qualname == "inversion.radial_inverse_fourier":
            def wrapper(symbol, x_norm, *args, **kwargs):
                if tracer._paused:
                    return fn(symbol, x_norm, *args, **kwargs)

                def counted(r):
                    tracer.symbol_points += getattr(r, "size", 1)
                    return symbol(r)

                with tracer.span(qualname, x=float(x_norm)):
                    return fn(counted, x_norm, *args, **kwargs)
        elif qualname == "special.bessel_j":
            def wrapper(nu, x, *args, **kwargs):
                with tracer.span(qualname, points=getattr(x, "size", 1)):
                    return fn(nu, x, *args, **kwargs)
        elif qualname == "solver.petviashvili_step":
            def wrapper(u, *args, **kwargs):
                with tracer.span(qualname, n=u.grid.n):
                    return fn(u, *args, **kwargs)
        elif qualname == "spectral.write_field":
            def wrapper(path, f, *args, **kwargs):
                with tracer.span(qualname, bytes=f.data.nbytes):
                    return fn(path, f, *args, **kwargs)
        elif qualname == "spectral.read_field":
            def wrapper(*args, **kwargs):
                with tracer.span(qualname) as sp:
                    out = fn(*args, **kwargs)
                    if sp is not None:
                        sp.attrs["bytes"] = out.data.nbytes
                    return out
        elif qualname == "mc.sample_mixed":
            def wrapper(t, params, count, *args, **kwargs):
                with tracer.span(qualname, samples=int(count)):
                    return fn(t, params, count, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(qualname):
                    return fn(*args, **kwargs)
        return wrapper

    def _wrap_cache_write(self, fn):
        """Span RadialProfile.write_csv only when it writes the kernel cache."""
        tracer = self

        def wrapper(*args, **kwargs):
            top = tracer.stack[-1] if tracer.stack else None
            if top is None or top.name != "kernels.tabulate_kernel":
                return fn(*args, **kwargs)  # CLI output, part of the CLI's own time
            with tracer.span("kernels.cache_write"):
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_fft(self, fn):
        tracer = self

        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if not tracer._paused:
                top = tracer.stack[-1] if tracer.stack else None
                tracer.fft_calls.append((top, getattr(a, "nbytes", 0) + out.nbytes))
            return out
        return wrapper

    def _patch(self, obj, attr, new):
        self._saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def install(self):
        import importlib

        import numpy.fft
        import scipy.fft

        mods = {name: importlib.import_module(f"mixlap.{name}")
                for name in ("special", "inversion", "kernels", "spectral", "solver",
                             "analysis", "mc")}
        for home, fname, users in _TRACED:
            original = getattr(mods[home], fname)
            wrapped = self._wrap(f"{home}.{fname}", original)
            for mod in [home] + users:
                if getattr(mods[mod], fname) is original:
                    self._patch(mods[mod], fname, wrapped)
        prof = mods["kernels"].RadialProfile
        self._patch(prof, "write_csv", self._wrap_cache_write(prof.write_csv))
        for lib in (numpy.fft, scipy.fft):
            for fname in _FFT_NAMES:
                if fname in lib.__dict__:
                    self._patch(lib, fname, self._wrap_fft(lib.__dict__[fname]))

    def uninstall(self):
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, passes):
        """Per-layer metrics; counts and summed times are per pass.

        Every pass of a run repeats the same inputs, so per-pass counts are
        exact.  The exception is ``special.bessel_j_zeros``: the inversion
        engine memoises zeros per process, so only the first pass pays and
        its numbers are per run.
        """
        by_name = {}
        for sp in self.spans:
            by_name.setdefault(sp.name, []).append(sp)

        def spans(name):
            return by_name.get(name, [])

        def per_pass(x):
            return x / passes

        def total_ms(name):
            return per_pass(sum(sp.ms for sp in spans(name)))

        def p(values, q):
            if not values:
                return 0.0
            if len(values) == 1:
                return values[0]
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        # special
        bj = spans("special.bessel_j")
        put("special.bessel_j.calls", per_pass(len(bj)), "count")
        put("special.bessel_j.points", per_pass(sum(sp.attrs["points"] for sp in bj)),
            "count")
        put("special.bessel_j.self_ms", per_pass(sum(sp.self_ms for sp in bj)), "ms")
        put("special.bessel_j_zeros.calls", len(spans("special.bessel_j_zeros")),
            "count")
        put("special.bessel_j_zeros.ms",
            sum(sp.ms for sp in spans("special.bessel_j_zeros")), "ms")

        # inversion
        rif = spans("inversion.radial_inverse_fourier")
        put("inversion.radial_inverse_fourier.calls", per_pass(len(rif)), "count")
        banded = {band: [] for band, _ in _BANDS}
        for sp in rif:
            band = next(b for b, hi in _BANDS if sp.attrs["x"] < hi)
            banded[band].append(sp.ms)
        for band, _ in _BANDS:
            put(f"inversion.radial_inverse_fourier.ms_p50.{band}", p(banded[band], 50),
                "ms")
            put(f"inversion.radial_inverse_fourier.ms_p90.{band}", p(banded[band], 90),
                "ms")
        put("inversion.symbol_points_per_value",
            self.symbol_points / len(rif) if rif else 0.0, "count")

        # kernels
        tab = spans("kernels.tabulate_kernel")
        put("kernels.tabulate_kernel.calls", per_pass(len(tab)), "count")
        put("kernels.tabulate_kernel.ms_p50", p([sp.ms for sp in tab], 50), "ms")
        put("kernels.cache_write_ms", total_ms("kernels.cache_write"), "ms")
        for fname in ("heat_kernel", "bessel_kernel", "resolvent_multiplier_kernel"):
            calls = spans(f"kernels.{fname}")
            put(f"kernels.{fname}.calls", per_pass(len(calls)), "count")
            put(f"kernels.{fname}.ms_p50", p([sp.ms for sp in calls], 50), "ms")

        # spectral
        for fname in ("apply_resolvent", "apply_operator", "norms",
                      "positive_part_power"):
            calls = spans(f"spectral.{fname}")
            put(f"spectral.{fname}.calls", per_pass(len(calls)), "count")
            put(f"spectral.{fname}.ms_p50", p([sp.ms for sp in calls], 50), "ms")
        put("spectral.fft_calls", per_pass(len(self.fft_calls)), "count")
        steps = spans("solver.petviashvili_step")
        step_bytes = sum(nbytes for top, nbytes in self.fft_calls
                         if _inside(top, "solver.petviashvili_step"))
        put("spectral.bytes_per_step.computed",
            step_bytes / len(steps) if steps else 0.0, "B")
        for fname in ("write_field", "read_field"):
            calls = spans(f"spectral.{fname}")
            put(f"spectral.{fname}.ms", total_ms(f"spectral.{fname}"), "ms")
            put(f"spectral.{fname}.bytes",
                per_pass(sum(sp.attrs.get("bytes", 0) for sp in calls)), "B")

        # solver
        put("solver.petviashvili_step.calls", per_pass(len(steps)), "count")
        for n in (2, 3):
            put(f"solver.petviashvili_step.ms_p50.n{n}",
                p([sp.ms for sp in steps if sp.attrs["n"] == n], 50), "ms")
        put("solver.gradient_plus.calls",
            per_pass(len(spans("solver.gradient_plus"))), "count")
        put("solver.gradient_plus.ms", total_ms("solver.gradient_plus"), "ms")

        # analysis
        for fname in ("symmetry_deviation", "radial_average", "decay_fit"):
            put(f"analysis.{fname}.ms", total_ms(f"analysis.{fname}"), "ms")

        # mc
        sm = spans("mc.sample_mixed")
        sm_s = sum(sp.ms for sp in sm) / 1e3
        put("mc.sample_mixed.ms", total_ms("mc.sample_mixed"), "ms")
        put("mc.sample_mixed.samples_per_s",
            sum(sp.attrs["samples"] for sp in sm) / sm_s if sm_s else 0.0, "1/s")
        put("mc.validate_char_function.ms", total_ms("mc.validate_char_function"),
            "ms")
        put("mc.compare_density.ms", total_ms("mc.compare_density"), "ms")
        put("mc.compare_density.heat_kernel_calls", per_pass(sum(
            1 for sp in spans("kernels.heat_kernel")
            if _inside(sp.parent, "mc.compare_density"))), "count")

        # cli: parsing, manifest and output writes, i.e. the span minus its children
        for cmd in CLI_COMMANDS:
            put(f"cli.{cmd}.self_ms", per_pass(sum(
                sp.self_ms for sp in spans(f"cli.{cmd}"))), "ms")

        # busy time of each layer, summed over its spans' self times
        layer_ms = dict.fromkeys(LAYERS, 0.0)
        for sp in self.spans:
            layer = sp.name.split(".", 1)[0]
            if layer in layer_ms:
                layer_ms[layer] += sp.self_ms
        for layer in LAYERS:
            put(f"{layer}.self_ms", per_pass(layer_ms[layer]), "ms")
        return out


def _inside(span, name):
    while span is not None:
        if span.name == name:
            return True
        span = span.parent
    return False
