"""Outside-in span tracer: wraps public functions and methods of each
koszulkit module from the benchmark, without touching the library source.

A span's self time is its duration minus the time of the spans it contains.
Times are wall-clock seconds less the host-speed probes, not scaled.
Spans are aggregated in memory (calls, self time, total time of outermost
calls) and read out when the traced phase ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict

# module -> public functions and Class.method names wrapped as spans
SPANS = {
    "groebner": ["buchberger", "normal_form", "intersect", "colon", "minimal_quadric_generators"],
    "modules": ["syzygy_matrix", "minimal_module_generators", "ModuleGB.complete", "PolyMatrix.compose"],
    "resolution": ["minimal_resolution", "minimalize_complex", "FreeComplex.validate", "ann_ext",
                   "lift_chain_map", "mapping_cone"],
    "quotient": ["is_koszul_up_to", "resolve_over_quotient", "QuotientRing.mul_var", "first_syzygy_criterion"],
    "linalg": ["rref", "kernel", "rank", "complement_indices"],
    "hilbert": ["hilbert_of_quotient", "is_regular_sequence_mod", "kpoly"],
    "classify": ["classify", "lg_quadratic_certificate", "match_form_2iv", "linear_syzygy_matrix",
                 "find_generalized_zero"],
    "zerodim": ["solve_system_points", "univariate_roots"],
    "forms": ["generate_ideal"],
    "appendix": ["check_basis", "verify_differentials", "find_obstruction"],
}
ENTRY_SPANS = ("resolution.minimal_resolution", "quotient.is_koszul_up_to", "classify.classify")
SPAN_NAMES = [f"{mod}.{name}" for mod, names in SPANS.items() for name in names]


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if len(rows) else 0


def _count(span: str, c: dict, args: tuple, out) -> None:
    """Counts taken from a span's arguments and return value."""
    if span == "linalg.rref":
        c["linalg.rref.cells"] += _cells(args[1])
    elif span == "linalg.complement_indices":
        spanning, candidates = args[1], args[2]
        c["linalg.complement_indices.cells"] += (len(spanning) + len(candidates)) * (
            len(candidates[0]) if candidates else 0)
    elif span == "groebner.buchberger":
        c["groebner.buchberger.out_len"] += len(out)
    elif span == "modules.minimal_module_generators":
        c["kept_columns"] += len(out)
        c["candidate_columns"] += len(args[1])
    elif span == "resolution.minimalize_complex":
        c["input_rank_sum"] += sum(m.rank for m in args[0].modules)
        c["minimal_rank_sum"] += sum(m.rank for m in out.modules)
    elif span == "quotient.resolve_over_quotient":
        c["quotient.resolve_over_quotient.gens"] += sum(out.ranks())


COUNTED = ("linalg.rref", "linalg.complement_indices", "groebner.buchberger",
           "modules.minimal_module_generators", "resolution.minimalize_complex",
           "quotient.resolve_over_quotient")


class Tracer:
    def __init__(self, sampler):
        """`sampler` is the speed.Sampler of the traced items; spans are timed
        on its clock, which leaves out the time spent probing."""
        self.sampler = sampler
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []
        self._depth = defaultdict(int)
        self._restore: list = []  # callables that undo install()
        self.active = True  # spans are recorded only while this is set

    def _wrap(self, span: str, fn):
        counted = span in COUNTED
        stack, depth = self._stack, self._depth
        perf = self.sampler.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[span] += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                depth[span] -= 1
                if stack:
                    stack[-1][0] += dur
                self.calls[span] += 1
                self.self_s[span] += dur - frame[0]
                if not depth[span]:
                    self.total_s[span] += dur
            if counted:
                _count(span, self.counts, args, out)
            return out

        return traced

    def layer_s(self) -> float:
        """Self time of the module-layer spans: every span except the entry
        spans and the per-check repro wrappers.  Work done in an entry span's
        own body or in a function no span wraps is not counted."""
        return sum(self.self_s[span] for span in SPAN_NAMES if span not in ENTRY_SPANS)

    def install(self):
        """Wrap every span.  A module-level function is rebound in every
        koszulkit module that imported it by name, so calls between modules
        pass through the wrapper too."""
        lib = [m for n, m in sys.modules.items() if n == "koszulkit" or n.startswith("koszulkit.")]
        for modname, names in SPANS.items():
            mod = importlib.import_module(f"koszulkit.{modname}")
            for name in names:
                span = f"{modname}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self._wrap(span, cls.__dict__[meth]))
                    continue
                orig = getattr(mod, name)
                wrapped = self._wrap(span, orig)
                for m in lib:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, attr, wrapped)
        checks = importlib.import_module("koszulkit.repro").CHECKS
        for name, orig in list(checks.items()):
            checks[name] = self._wrap(f"repro.{name}", orig)
            self._restore.append(functools.partial(checks.__setitem__, name, orig))

    def _patch(self, target, attr, value):
        self._restore.append(functools.partial(setattr, target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self):
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()
