"""Per-layer tracing of the pfol engine from outside the package.

``Tracer.install`` wraps every public function of every ``pfol`` module and
every method of the classes those modules define (dunder operators and
their aliases such as ``GFElem.__rmul__`` included).  Each wrapper is
installed on the class, or in every ``pfol.*`` namespace that binds the
function (``pfol.foliation.gcd_multi`` as well as ``pfol.mpoly.gcd_multi``),
so calls between modules are seen too.

For every wrapped function the tracer aggregates calls and self time (time
in the function minus the time covered by wrapped calls it makes).  Stage
functions (the ``cli`` subcommands and the foliation, scan, map and search
stages) additionally record a span (id, name, start, end, parent span,
document) that is kept in memory and written out by ``write_spans``.  A
layer is a module of the package; its self time is the sum over the
functions it defines.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from types import FunctionType

# Attribute access, truth value, equality and hashing are not wrapped: they
# do no arithmetic, and at millions of calls per document the wrapper would
# cost more than they do.  Their time counts as self time of the caller.
_SKIP_METHODS = {
    "__setattr__", "__delattr__", "__getattr__", "__getattribute__",
    "__bool__", "__eq__", "__ne__", "__hash__",
}

STAGES = {
    "cli.main",
    "parsing.parse_document",
    "foliation.from_form",
    "foliation.is_p_closed",
    "foliation.degeneracy_divisor",
    "foliation.closed_defining_form",
    "foliation.cartier_transform_foliation",
    "foliation.p_kernel",
    "foliation.analyze",
    "models.prime_scan",
    "models.reduce_model",
    "models.kronecker_probe",
    "models.integrability_defect_integer",
    "geommaps.verify_pullback_degeneracy",
    "geommaps.pullback_foliation",
    "geommaps.ramification_divisor",
    "geommaps.restrict_foliation",
    "geommaps.restrict_form",
    "distmin.distmin2",
    "distmin.subdistribution_space",
    "distmin.witness_integrability",
}

# Functions whose inclusive time is reported.  Each is reported under its
# own name unless GROUPS names a group; nested calls within one group are
# counted once.
INCLUSIVE = {
    "rings.factor_mod_p",
    "mpoly.gcd_multi",
    "exterior.VectorField.pth_power",
    "foliation.is_p_closed",
    "foliation.degeneracy_divisor",
    "foliation.cartier_transform_foliation",
    "foliation.p_kernel",
    "models.reduce_model",
    "models.prime_scan",
    "geommaps.ramification_divisor",
    "distmin.subdistribution_space",
    "distmin.witness_integrability",
}
GROUPS = {
    "geommaps.pullback": "geommaps.pullback",
    "geommaps.pullback_foliation": "geommaps.pullback",
    "geommaps.pullback_divisor": "geommaps.pullback",
    "geommaps.restrict_form": "geommaps.restrict",
    "geommaps.restrict_foliation": "geommaps.restrict",
}


def _is_stage(name: str) -> bool:
    return name in STAGES or name.startswith("cli.cmd_")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.inclusive: dict[str, float] = {}  # group -> outermost seconds
        self.spans: list = []
        self.doc = None  # id of the document being run, stamped on spans
        self.peak_terms = 0
        self.peak_degree = 0
        self.scan_rows = 0
        self.scan_bad_rows = 0
        self.distmin_runs = 0
        self.distmin_candidates = 0
        # time covered by wrapped child calls, one entry per active call
        # above a root entry
        self._stack: list = [0.0]
        self._depths: dict[str, list] = {}  # group -> [active calls]
        self._span_stack: list = []
        self._hooks = {
            "mpoly.MultiPoly.__init__": self._poly_size,
            "models.prime_scan": self._scan_rows,
            "distmin.distmin2": self._distmin_result,
        }

    # -- hooks run inside the wrapped call, on (args, result) ---------------

    def _poly_size(self, args, _result):
        terms = args[0].terms
        if len(terms) > self.peak_terms:
            self.peak_terms = len(terms)
        if terms:
            deg = max(map(sum, terms))
            if deg > self.peak_degree:
                self.peak_degree = deg

    def _scan_rows(self, _args, rows):
        self.scan_rows += len(rows)
        self.scan_bad_rows += sum(1 for r in rows if r.note)

    def _distmin_result(self, _args, result):
        self.distmin_runs += 1
        self.distmin_candidates += result.candidates_checked

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        group = GROUPS.get(name, name if name in INCLUSIVE else None)
        hook = self._hooks.get(name)
        if group is None and hook is None:

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    rec[0] += 1
                    rec[1] += dt - stack.pop()
                    stack[-1] += dt

        else:
            inclusive = self.inclusive
            if group is not None:
                inclusive.setdefault(group, 0.0)
            depth = self._depths.setdefault(group, [0])

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                depth[0] += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    if hook is not None:
                        hook(args, result)
                    return result
                finally:
                    dt = clock() - t0
                    depth[0] -= 1
                    rec[0] += 1
                    rec[1] += dt - stack.pop()
                    stack[-1] += dt
                    if group is not None and not depth[0]:
                        inclusive[group] += dt

        if _is_stage(name):
            wrapper = self._span(name, wrapper)
        return functools.update_wrapper(wrapper, fn)

    def _span(self, name: str, inner):
        spans, span_stack = self.spans, self._span_stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = span_stack[-1] if span_stack else None
            spans.append(None)
            span_stack.append(span_id)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                span_stack.pop()
                spans[span_id] = (span_id, name, start, clock(), parent, self.doc)

        return wrapper

    def install(self, modules) -> int:
        """Wrap the public functions and class methods of the given modules
        and rebind every module attribute that refers to a wrapped function.
        Returns the number of wrapped callables."""
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType) and not attr.startswith("_"):
                    replaced[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type):
                    self._wrap_class(layer, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        return len(self.stats)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            dunder = attr.startswith("__") and attr.endswith("__")
            if attr in _SKIP_METHODS or (attr.startswith("_") and not dunder):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, FunctionType):
                setattr(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, (staticmethod, classmethod)) and isinstance(
                obj.__func__, FunctionType
            ):
                setattr(cls, attr, type(obj)(self._wrap(name, obj.__func__)))

    # -- results -------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0.0))[0] for n in names)

    def layer_calls(self, layer: str) -> int:
        return sum(c for n, (c, _) in self.stats.items() if n.startswith(layer + "."))

    def layer_self(self, layer: str) -> float:
        return sum(s for n, (_, s) in self.stats.items() if n.startswith(layer + "."))

    def incl(self, group: str) -> float:
        return self.inclusive.get(group, 0.0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                span_id, name, start, end, parent, doc = span
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "doc": doc,
                }) + "\n")


def pfol_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("pfol.")]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# (metric, unit, value from a tracer)
PER_LAYER = (
    ("parsing.calls", "count", lambda t: t.layer_calls("parsing")),
    ("parsing.self_s", "s", lambda t: t.layer_self("parsing")),
    ("rings.gf_mul_calls", "count",
     lambda t: t.calls("rings.GFElem.__mul__", "rings.GFElem.__rmul__")),
    ("rings.gf_inv_calls", "count", lambda t: t.calls("rings.GFElem.inverse")),
    ("rings.gf_pow_calls", "count", lambda t: t.calls("rings.GFElem.__pow__")),
    ("rings.field_new", "count", lambda t: t.calls("rings.GF.__init__")),
    ("rings.factor_mod_p_s", "s", lambda t: t.incl("rings.factor_mod_p")),
    ("rings.self_s", "s", lambda t: t.layer_self("rings")),
    ("mpoly.mul_calls", "count",
     lambda t: t.calls("mpoly.MultiPoly.__mul__", "mpoly.MultiPoly.__rmul__")),
    ("mpoly.divmod_calls", "count", lambda t: t.calls("mpoly.MultiPoly.divmod_poly")),
    ("mpoly.gcd_calls", "count", lambda t: t.calls("mpoly.gcd_multi")),
    ("mpoly.gcd_s", "s", lambda t: t.incl("mpoly.gcd_multi")),
    ("mpoly.sqfree_calls", "count", lambda t: t.calls("mpoly.squarefree_decomposition")),
    ("mpoly.rf_new", "count", lambda t: t.calls("mpoly.RationalFunction.__init__")),
    ("mpoly.peak_terms", "count", lambda t: t.peak_terms),
    ("mpoly.peak_degree", "count", lambda t: t.peak_degree),
    ("mpoly.self_s", "s", lambda t: t.layer_self("mpoly")),
    ("exterior.wedge_calls", "count", lambda t: t.calls("exterior.DiffForm.wedge")),
    ("exterior.d_calls", "count", lambda t: t.calls("exterior.DiffForm.d")),
    ("exterior.pth_power_calls", "count",
     lambda t: t.calls("exterior.VectorField.pth_power")),
    ("exterior.pth_power_s", "s", lambda t: t.incl("exterior.VectorField.pth_power")),
    ("exterior.self_s", "s", lambda t: t.layer_self("exterior")),
    ("cartier.calls", "count", lambda t: t.layer_calls("cartier")),
    ("cartier.self_s", "s", lambda t: t.layer_self("cartier")),
    ("foliation.is_p_closed_s", "s", lambda t: t.incl("foliation.is_p_closed")),
    ("foliation.degeneracy_s", "s", lambda t: t.incl("foliation.degeneracy_divisor")),
    ("foliation.cartier_s", "s",
     lambda t: t.incl("foliation.cartier_transform_foliation")),
    ("foliation.kernel_s", "s", lambda t: t.incl("foliation.p_kernel")),
    ("foliation.pth_power_per_fol", "ratio",
     lambda t: _ratio(t.calls("exterior.VectorField.pth_power"),
                      t.calls("foliation.Foliation.__init__"))),
    ("foliation.self_s", "s", lambda t: t.layer_self("foliation")),
    ("models.rows", "count", lambda t: t.scan_rows),
    ("models.bad_ratio", "ratio", lambda t: _ratio(t.scan_bad_rows, t.scan_rows)),
    ("models.reduce_s", "s", lambda t: t.incl("models.reduce_model")),
    ("models.per_row_s", "s",
     lambda t: _ratio(t.incl("models.prime_scan"), t.scan_rows)),
    ("geommaps.pullback_s", "s", lambda t: t.incl("geommaps.pullback")),
    ("geommaps.ramification_s", "s", lambda t: t.incl("geommaps.ramification_divisor")),
    ("geommaps.restrict_s", "s", lambda t: t.incl("geommaps.restrict")),
    ("geommaps.self_s", "s", lambda t: t.layer_self("geommaps")),
    ("distmin.space_s", "s", lambda t: t.incl("distmin.subdistribution_space")),
    ("distmin.witness_s", "s", lambda t: t.incl("distmin.witness_integrability")),
    ("distmin.candidates_per_doc", "count",
     lambda t: _ratio(t.distmin_candidates, t.distmin_runs)),
    ("distmin.self_s", "s", lambda t: t.layer_self("distmin")),
    ("cli.self_s", "s", lambda t: t.layer_self("cli")),
)

# per-layer metric prefix -> (end-to-end metric it should move, workloads)
MOVES = {
    "parsing.": ("setup_s, doc_p50_s", "prime_scan, verify"),
    "rings.factor_mod_p_s": ("wall_s", "prime_scan"),
    "rings.field_new": ("wall_s", "prime_scan, log_space"),
    "rings.": ("wall_s", "log_space (most), prime_scan"),
    "mpoly.": ("wall_s", "plane_generic"),
    "exterior.": ("wall_s", "log_space, plane_generic"),
    "cartier.": ("wall_s", "plane_generic"),
    "foliation.": ("wall_s, doc_p50_s", "plane_generic, log_space"),
    "models.": ("wall_s", "prime_scan"),
    "geommaps.": ("wall_s", "verify"),
    "distmin.": ("wall_s", "verify"),
    "cli.": ("doc_p50_s", "verify"),
    "trace.": ("(traced wall_s - untraced wall_s)", "all"),
}


def moves(metric: str) -> tuple[str, str]:
    """The end-to-end metric and workloads a per-layer metric should move."""
    for prefix in sorted(MOVES, key=len, reverse=True):
        if metric.startswith(prefix):
            return MOVES[prefix]
    return ("", "")


def per_layer_metrics(tracer: Tracer) -> dict:
    return {name: {"value": fn(tracer), "unit": unit} for name, unit, fn in PER_LAYER}
