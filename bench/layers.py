"""Per-layer tracing for benchmark passes.

The tracer wraps the public entry points of each narayana layer and the hot
`QPolynomial`/`PolySeries` methods from outside the package: it replaces the
attribute in every narayana module that holds the function, so calls made
through `from .x import f` names are seen too.  Every wrapped name keeps an
in-memory counter of calls, inclusive seconds and self seconds (inclusive
time minus the time of wrapped calls made inside it).  Nothing is written
until the pass ends and `layer_metrics` reads the counters.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

SEQUENCE_FUNCTIONS = (
    "catalan", "catalan_half", "narayana_number", "narayana_poly",
    "assoc_narayana_poly", "legendre_poly", "recurrence_seq", "pell", "lucas",
    "fibonacci",
)

# functions whose return value is one CheckResult (for cli.results_buffered)
RESULT_PRODUCERS = ("identities.check.", "identities.integral_representation", "series.")


class Tracer:
    """Aggregated spans: name -> [calls, inclusive seconds, self seconds]."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stats = {}
        self._stack = []  # one [name, seconds spent in wrapped children] per open span

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        return stat

    def _close(self, frame, t0, count):
        elapsed = self.clock() - t0
        self._stack.pop()
        stat = self._stat(frame[0])
        stat[0] += count
        stat[1] += elapsed
        stat[2] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap(self, fn, name):
        """Wrap a function; `name` is a string or a function of the call's
        positional arguments.  A direct re-entry under the same name (recursion,
        or one layer function calling its sibling) stays inside the outer span."""
        stack, clock = self._stack, self.clock
        keyed = callable(name)

        def traced(*args, **kwargs):
            label = name(args) if keyed else name
            if stack and stack[-1][0] == label:
                return fn(*args, **kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, t0, 1)

        return traced

    def wrap_generator(self, fn, name):
        """Wrap a generator function: each `next` is timed under `name`, so the
        span covers the enumeration work wherever the consumer pulls it."""
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if stack and stack[-1][0] == name:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                else:
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    done = False
                    try:
                        item = next(it)
                    except StopIteration:
                        done = True
                    finally:
                        self._close(frame, t0, 0)
                    if done:
                        return
                yield item

        return traced

    def snapshot(self, scale):
        """A copy of the counters as they are now, with the times multiplied by
        `scale`; later calls do not change it."""
        frozen = Tracer(self.clock)
        frozen.stats = {name: [calls, total * scale, own * scale]
                        for name, (calls, total, own) in self.stats.items()}
        return frozen

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def _replace_everywhere(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap the layer entry points of the imported narayana package.

    Returns the original sequence functions so their `cache_info()` stays
    readable after the module attributes point at the wrappers."""
    import narayana
    from narayana import cli, combinat, exact_core, identities, sequences, series

    modules = (narayana, exact_core, sequences, identities, series, combinat, cli)

    def function(module, attr, name, generator=False):
        original = getattr(module, attr)
        wrap = tracer.wrap_generator if generator else tracer.wrap
        _replace_everywhere(modules, original, wrap(original, name))
        return original

    qp, ps = exact_core.QPolynomial, exact_core.PolySeries
    for cls, attr, name in (
        (qp, "__init__", "exact_core.poly_new"),
        (qp, "__add__", "exact_core.poly_add"),
        (qp, "__radd__", "exact_core.poly_add"),
        (qp, "__mul__", "exact_core.poly_mul"),
        (qp, "__rmul__", "exact_core.poly_mul"),
        (qp, "__pow__", "exact_core.poly_pow"),
        (qp, "substitute", "exact_core.poly_substitute"),
        (qp, "__call__", "exact_core.poly_eval"),
        (ps, "__mul__", "exact_core.series_mul"),
        (ps, "__rmul__", "exact_core.series_mul"),
        (ps, "compose", "exact_core.series_compose"),
        (ps, "sqrt", "exact_core.series_sqrt"),
        (ps, "reciprocal", "exact_core.series_reciprocal"),
    ):
        setattr(cls, attr, tracer.wrap(vars(cls)[attr], name))
    function(exact_core, "finite_difference_check", "exact_core.finite_difference")

    originals = {
        attr: function(sequences, attr, f"sequences.{attr}")
        for attr in SEQUENCE_FUNCTIONS
    }

    function(identities, "check_identity", lambda a: f"identities.check.{a[0]}")
    function(identities, "integral_representation_check",
             "identities.integral_representation")
    function(identities, "lemma_difference_argument", "identities.lemma_difference")
    function(identities, "legendre_inverse", "identities.inverse.legendre")
    function(identities, "binomial_inverse", "identities.inverse.binomial")
    function(identities, "left_inversion_forward", "identities.inverse.left")
    function(identities, "left_inversion", "identities.inverse.left")

    function(series, "omega_closed_form_check", "series.omega_closed_form")
    function(series, "omega_composition_check", lambda a: f"series.omega_composition.{a[0]}")
    function(series, "legendre_gf_check", "series.legendre_gf")
    function(series, "lagrange_coefficient_check", "series.lagrange")

    for attr in ("iter_family_D", "_iter_family_trees"):
        function(combinat, attr, "combinat.enumerate", generator=True)
    for attr in ("dbar_elements", "flatten", "enumerate_dyck", "enumerate_family_D",
                 "enumerate_family_P", "enumerate_family_Q"):
        function(combinat, attr, "combinat.enumerate")
    for attr, name in (
        ("phi", "combinat.phi"),
        ("psi", "combinat.psi"),
        ("serialize_path", "combinat.serialize"),
        ("serialize_tree", "combinat.serialize"),
        ("path_weight", "combinat.weight"),
        ("tree_weight", "combinat.weight"),
        ("_certify", "combinat.certify"),
        ("fixed_set_P", "combinat.fixed_set"),
        ("fixed_set_Q", "combinat.fixed_set"),
        ("family_D_weight", "combinat.weight_sum"),
        ("family_P_weight", "combinat.weight_sum"),
        ("family_Q_weight", "combinat.weight_sum"),
    ):
        function(combinat, attr, name)
    return originals


def results_made(tracer):
    """CheckResults returned so far by the result-producing entry points."""
    return sum(
        stat[0] for name, stat in tracer.stats.items()
        if name.startswith(RESULT_PRODUCERS)
    )


def _hit_frac(cached):
    info = cached.cache_info()
    looked_up = info.hits + info.misses
    return info.hits / looked_up if looked_up else 0.0


def layer_metrics(tracer, originals, census, elements, cli_spans=None):
    """The per-layer metric values of one traced pass, by name."""
    from narayana import identities, series
    from narayana import combinat

    m = {}
    for op in ("mul", "add", "pow", "new"):
        m[f"exact_core.poly_{op}.calls"] = tracer.calls(f"exact_core.poly_{op}")
        m[f"exact_core.poly_{op}.self_s"] = tracer.self_s(f"exact_core.poly_{op}")
    for op in ("substitute", "eval"):
        m[f"exact_core.poly_{op}.self_s"] = tracer.self_s(f"exact_core.poly_{op}")
    m["exact_core.finite_difference.self_s"] = tracer.self_s("exact_core.finite_difference")
    m.update(census.metrics())
    for op in ("mul", "compose", "sqrt", "reciprocal"):
        m[f"exact_core.series_{op}.self_s"] = tracer.self_s(f"exact_core.series_{op}")

    for name in ("omega_closed_form", "omega_composition.first",
                 "omega_composition.second", "legendre_gf", "lagrange"):
        m[f"series.{name}.s"] = tracer.total_s(f"series.{name}")
    m["series.catalan_power_cache.entries"] = len(series._catalan_power_cache)

    m["sequences.narayana_poly.calls"] = tracer.calls("sequences.narayana_poly")
    m["sequences.narayana_poly.hit_frac"] = _hit_frac(originals["narayana_poly"])
    m["sequences.legendre_poly.hit_frac"] = _hit_frac(originals["legendre_poly"])
    m["sequences.recurrence_seq.self_s"] = tracer.self_s("sequences.recurrence_seq")
    m["sequences.self_s"] = sum(
        tracer.self_s(f"sequences.{attr}") for attr in SEQUENCE_FUNCTIONS
    )

    for tag in identities.IDENTITY_TAGS:
        m[f"identities.check.{tag}.s"] = tracer.total_s(f"identities.check.{tag}")
    m["identities.integral_representation.s"] = tracer.total_s(
        "identities.integral_representation")
    m["identities.lemma_difference.s"] = tracer.total_s("identities.lemma_difference")
    for rel in ("legendre", "binomial", "left"):
        m[f"identities.inverse.{rel}.s"] = tracer.total_s(f"identities.inverse.{rel}")
    m["identities.checks"] = sum(
        stat[0] for name, stat in tracer.stats.items()
        if name.startswith(("identities.check.", "identities.integral_representation",
                            "identities.lemma_difference"))
    )

    m["combinat.elements"] = elements
    m["combinat.enumerate.s"] = tracer.total_s("combinat.enumerate")
    for name in ("phi", "psi"):
        m[f"combinat.{name}.calls"] = tracer.calls(f"combinat.{name}")
        m[f"combinat.{name}.self_s"] = tracer.self_s(f"combinat.{name}")
    for name in ("serialize", "weight", "certify"):
        m[f"combinat.{name}.self_s"] = tracer.self_s(f"combinat.{name}")
    m["combinat.fixed_set.s"] = tracer.total_s("combinat.fixed_set")
    m["combinat.weight_sum.s"] = tracer.total_s("combinat.weight_sum")
    m["combinat.shape_cache.entries"] = sum(
        f.cache_info().currsize
        for f in (combinat._dyck_paths, combinat._children_seqs,
                  combinat._tree_shapes, combinat._complete_binary_shapes)
    )

    cli_spans = cli_spans or {}
    for name in ("parse.s", "compute.s", "emit.s", "results_buffered"):
        m[f"cli.{name}"] = cli_spans.get(name, 0)
    return m


class Census:
    """Counts the coefficients of checked values by exact type.

    An `int` or a `Fraction` is exact; anything else (a float from an
    `int / int` slip) is counted in `inexact` and fails the check that
    produced it."""

    def __init__(self):
        self.ints = self.int_valued_fractions = self.proper_fractions = 0
        self.inexact = 0
        self.max_bits = 0

    def _coefficient(self, c):
        if type(c) is int:
            self.ints += 1
            bits = c.bit_length()
        elif type(c) is Fraction:
            if c.denominator == 1:
                self.int_valued_fractions += 1
            else:
                self.proper_fractions += 1
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        else:
            self.inexact += 1
            return False
        if bits > self.max_bits:
            self.max_bits = bits
        return True

    def exact(self, value):
        """Count every coefficient of `value`; False if any is not exact."""
        from narayana.exact_core import PolySeries, QPolynomial

        if isinstance(value, PolySeries):
            return all([self.exact(c) for c in value.coeffs])
        if isinstance(value, QPolynomial):
            return all([self._coefficient(c) for c in value.coeffs])
        if isinstance(value, (list, tuple)):
            return all([self.exact(v) for v in value])
        return self._coefficient(value)

    def metrics(self):
        total = self.ints + self.int_valued_fractions + self.proper_fractions + self.inexact
        return {
            "exact_core.coeff.int_valued_fraction_frac":
                self.int_valued_fractions / total if total else 0.0,
            "exact_core.coeff.proper_fraction_frac":
                self.proper_fractions / total if total else 0.0,
            "exact_core.coeff.max_bits": self.max_bits,
        }
