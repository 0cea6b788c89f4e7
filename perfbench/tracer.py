"""Outside-in tracing of the facetor layers.

The tracer replaces public functions and methods of the package with
wrappers, at the names their callers look them up by, and restores them
on ``uninstall``.  Nothing under ``src/`` knows it is traced.  Each
wrapped call records a span ``(id, parent, name, start, end)`` in
memory; counters are derived from the arguments and return values of
the same calls.  The time spent deriving a counter is recorded as a
``trace.hook`` span, so it is subtracted from its parent's self time
like a child call.

``bitsets`` and ``polynomials`` are not wrapped: they are leaf helpers
called millions of times, and a wrapper would distort the timings.
``sampling`` and ``support`` lie on no CLI path.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from facetor import complexes
from facetor.linalg import Integers, PrimeField, Rationals

JOB = "job"
HOOK = "trace.hook"

# (module, class or None, attribute, span name[, counter hook]).  A
# function imported into several modules is patched in each module that
# calls it.  linalg.homology_at spans are named per coefficient ring.
TARGETS = [
    ("facetor.cli", None, "load_input", "cli.load_input"),
    ("facetor.cli", None, "complement_from_complex", "complexes.complement_from_complex"),
    ("facetor.cli", None, "complex_from_complement", "complexes.complex_from_complement"),
    ("facetor.moment_angle", None, "complex_from_complement", "complexes.complex_from_complement"),
    ("facetor.hochster", None, "complex_from_complement", "complexes.complex_from_complement"),
    ("facetor.cli", None, "full_subcomplex", "complexes.full_subcomplex"),
    ("facetor.hochster", None, "full_subcomplex", "complexes.full_subcomplex"),
    ("facetor.cli", None, "compress", "complexes.compress"),
    ("facetor.moment_angle", None, "compress", "complexes.compress", "_on_face"),
    ("facetor.taylor", "TaylorComplex", "__init__", "taylor.build", "_on_build"),
    ("facetor.taylor", "TaylorComplex", "boundary_matrix", "taylor.boundary_matrix", "_on_boundary_matrix"),
    ("facetor.taylor", "TaylorComplex", "block_homology", "taylor.block_homology"),
    ("facetor.taylor", None, "homology_at", "linalg.homology_at", "_on_homology"),
    ("facetor.hochster", None, "homology_at", "linalg.homology_at", "_on_homology"),
    ("facetor.tor", None, "reduce_cycle", "linalg.reduce_cycle"),
    ("facetor.hochster", "CochainComplex", "__init__", "hochster.build", "_on_cochain_complex"),
    ("facetor.hochster", "CochainComplex", "delta", "hochster.delta"),
    ("facetor.hochster", "CochainComplex", "cohomology", "hochster.cohomology"),
    ("facetor.cli", None, "tor_bigraded", "tor.tor_bigraded"),
    ("facetor.moment_angle", None, "tor_bigraded", "tor.tor_bigraded"),
    ("facetor.tor", None, "tor_bigraded", "tor.tor_bigraded"),
    ("facetor.tor", "BigradedTor", "__init__", "tor.assemble"),
    ("facetor.tor", "TorRing", "product", "tor.product"),
    ("facetor.tor", "TorRing", "multiplication_table", "tor.multiplication_table"),
    ("facetor.cli", None, "maz_cohomology", "moment_angle.maz_cohomology"),
]

COEFF_NAMES = ("Q", "Z", "F2")


def coeff_name(coeff) -> str:
    if isinstance(coeff, Rationals):
        return "Q"
    if isinstance(coeff, Integers):
        return "Z"
    if isinstance(coeff, PrimeField):
        return f"F{coeff.p}"
    raise TypeError(f"unknown coefficient ring {coeff!r}")


def _cells(M) -> int:
    return M.nrows * M.ncols


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._seen_matrices: dict[int, object] = {}

    # -- spans ---------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int | None, name: str, start: float) -> float:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))
        return end

    def job(self, fn, *args):
        """Run fn(*args) as the root span of one job."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, JOB, start)
            self._seen_matrices.clear()

    def _wrap(self, name: str, fn, hook):
        per_ring = name == "linalg.homology_at"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = f"{name}.{coeff_name(args[2])}" if per_ring else name
                end = self._close(sid, parent, span, start)
            if hook is not None:
                hook_id, _ = self._open()
                hook(args, result)
                self._close(hook_id, parent, HOOK, end)
            return result

        return traced

    def install(self) -> None:
        for module_name, class_name, attr, name, *hook in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            hook_fn = getattr(self, hook[0]) if hook else None
            setattr(owner, attr, self._wrap(name, original, hook_fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- counters ------------------------------------------------------

    def _on_build(self, args, _result) -> None:
        # every complement handed to Tor is built once per job (the
        # cache starts cold), so this is also complexes.generators_raw
        P = args[1]
        self.counts["taylor.build.generators"] += 1 << P.s
        self.counts["complexes.generators_minimal"] += 1 << complexes.minimalize(P).s

    def _on_boundary_matrix(self, _args, M) -> None:
        # boundary_matrix memoizes per complex; count each matrix once
        if id(M) in self._seen_matrices:
            return
        self._seen_matrices[id(M)] = M
        self.counts["taylor.boundary_matrix.cells"] += _cells(M)
        self.counts["taylor.boundary_matrix.nnz"] += sum(1 for row in M.rows for x in row if x)

    def _on_homology(self, args, group) -> None:
        d_in, d_out, coeff = args
        prefix = "linalg.homology_at." + coeff_name(coeff)
        self.counts[prefix + ".cells"] += _cells(d_in) + _cells(d_out)
        self.maxima[prefix + ".max_dim"] = max(self.maxima[prefix + ".max_dim"], d_out.ncols)
        self.counts["linalg.homology_at.nonzero"] += not group.is_zero

    def _on_cochain_complex(self, args, _result) -> None:
        self.counts["hochster.faces"] += sum(len(fs) for fs in args[0].faces.values())

    def _on_face(self, _args, _result) -> None:
        self.counts["moment_angle.faces"] += 1


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans."""
    own = {sid: end - start for sid, _, _, start, end in spans}
    for _, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, cache_hits: int, cache_misses: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (trace.overhead_ratio
    needs an untraced pass and is added by the caller)."""
    own = self_times(tracer.spans)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, _, name, start, end in tracer.spans:
        self_s[name] += own[sid]
        incl_s[name] += end - start
        calls[name] += 1
    counts, maxima = tracer.counts, tracer.maxima
    raw = counts["taylor.build.generators"]
    homology_calls = sum(calls["linalg.homology_at." + c] for c in COEFF_NAMES)
    lookups = cache_hits + cache_misses
    metrics = {
        "cli.self_s": self_s[JOB],
        "cli.load_input.s": self_s["cli.load_input"],
        "complexes.complement_from_complex.s": self_s["complexes.complement_from_complex"],
        "complexes.complement_from_complex.calls": calls["complexes.complement_from_complex"],
        "complexes.complex_from_complement.s": self_s["complexes.complex_from_complement"],
        "complexes.full_subcomplex.s": self_s["complexes.full_subcomplex"],
        "complexes.compress.calls": calls["complexes.compress"],
        "complexes.generators_raw": raw,
        "complexes.generators_minimal": counts["complexes.generators_minimal"],
        "complexes.minimal_ratio": counts["complexes.generators_minimal"] / raw if raw else 0.0,
        "taylor.build.s": self_s["taylor.build"],
        "taylor.build.calls": calls["taylor.build"],
        "taylor.build.generators": raw,
        "taylor.boundary_matrix.s": self_s["taylor.boundary_matrix"],
        "taylor.boundary_matrix.calls": calls["taylor.boundary_matrix"],
        "taylor.boundary_matrix.cells": counts["taylor.boundary_matrix.cells"],
        "taylor.boundary_matrix.nnz": counts["taylor.boundary_matrix.nnz"],
        "taylor.block_homology.s": incl_s["taylor.block_homology"],
        "taylor.cache.hit_ratio": cache_hits / lookups if lookups else 0.0,
    }
    for c in COEFF_NAMES:
        prefix = "linalg.homology_at." + c
        metrics[prefix + ".s"] = self_s[prefix]
        metrics[prefix + ".calls"] = calls[prefix]
        metrics[prefix + ".cells"] = counts[prefix + ".cells"]
        metrics[prefix + ".max_dim"] = maxima[prefix + ".max_dim"]
    metrics.update(
        {
            "linalg.homology_at.nonzero_ratio": (
                counts["linalg.homology_at.nonzero"] / homology_calls if homology_calls else 0.0
            ),
            "linalg.reduce_cycle.s": self_s["linalg.reduce_cycle"],
            "linalg.reduce_cycle.calls": calls["linalg.reduce_cycle"],
            "hochster.build.s": self_s["hochster.build"] + self_s["hochster.delta"],
            "hochster.cohomology.s": incl_s["hochster.cohomology"],
            "hochster.faces": counts["hochster.faces"],
            "tor.assemble.s": self_s["tor.assemble"],
            "tor.product.s": self_s["tor.product"],
            "tor.product.calls": calls["tor.product"],
            "tor.multiplication_table.s": self_s["tor.multiplication_table"],
            "moment_angle.maz_cohomology.s": self_s["moment_angle.maz_cohomology"],
            "moment_angle.faces": counts["moment_angle.faces"],
        }
    )
    return metrics
