"""Per-layer spans recorded from outside the program.

The traced worker rebinds each public function listed in ``LAYERS`` to a
wrapper in every ``seqcm`` module that holds it (``from .groebner import
intersect`` copies the binding, so patching the defining module alone would
miss callers), plus ``Ideal.groebner_basis`` on the class.  A wrapper keeps
a stack of open spans: a span's self time is its duration minus the time
its child spans cover, which also handles the recursion of ``grade_wrt``
and ``find_regular_linear_form``.  Counts live next to the spans: general
(non-monomial) Buchberger runs, Buchberger runs started by a basis request
that missed both memos, accepted regular-form candidates, vanishing H^0
tests and the route of each sequential-CM verdict.

``poly``, ``fields`` and ``orders`` are not wrapped: their calls are so
small that the wrapper would cost more than the work, so their time stays
in the self time of the spans that call them.
"""

from __future__ import annotations

import sys
import time
from types import ModuleType

LAYERS = {
    "groebner": (
        "buchberger",
        "Ideal.groebner_basis",
        "normal_form",
        "intersect",
        "ideal_quotient",
        "colon_by_variable",
        "saturation",
        "krull_dim",
    ),
    "relcm": (
        "grade_wrt",
        "is_regular_form",
        "h0_is_zero",
        "cd_wrt",
        "cd_subquotient",
        "is_relative_cm",
        "find_regular_linear_form",
    ),
    "filtration": ("is_seq_cm", "monomial_primary_decomposition", "dimension_filtration"),
    "hypersurface": ("classify_hypersurface", "rank_one_split", "exact_rank", "hypersurface_stats"),
    "cli": ("parse_problem", "run", "render_document", "verify_certificate"),
}

ROUTES = ("relative-cm", "cd-le-1", "monomial-filtration", "hypersurface-rank1", "unmixed-shortcut")


def span_names() -> list:
    return [f"{layer}.{qual.split('.')[-1]}" for layer, quals in LAYERS.items() for qual in quals]


class Tracer:
    """Aggregated spans and counts for one traced process."""

    def __init__(self):
        self.calls = {name: 0 for name in span_names()}
        self.self_ns = {name: 0 for name in span_names()}
        self.self_ns["groebner.buchberger.general"] = 0
        self.counts = {
            "groebner.buchberger.general.calls": 0,
            "groebner.buchberger.under_groebner_basis": 0,
            "relcm.is_regular_form.accepted": 0,
            "relcm.h0_is_zero.zero": 0,
        }
        self.counts.update({f"filtration.route.{r}.count": 0 for r in ROUTES})
        self._stack = []  # one [span name, child ns] per open span

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            calls[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[1]
                self_ns[name] += own
                if stack:
                    stack[-1][1] += elapsed
            if name == "groebner.buchberger":
                gens = [g for g in args[0] if g]
                if gens and not all(g.is_monomial() for g in gens):
                    counts["groebner.buchberger.general.calls"] += 1
                    self_ns["groebner.buchberger.general"] += own
                if parent == "groebner.groebner_basis":
                    counts["groebner.buchberger.under_groebner_basis"] += 1
            elif name == "relcm.is_regular_form" and result:
                counts["relcm.is_regular_form.accepted"] += 1
            elif name == "relcm.h0_is_zero" and result:
                counts["relcm.h0_is_zero.zero"] += 1
            elif name == "filtration.is_seq_cm":
                counts[f"filtration.route.{result.route.value}.count"] += 1
            return result

        return traced

    def install(self) -> dict:
        """Rebind every listed function everywhere in ``seqcm``; returns rebind counts.

        Raises if a listed function is missing or if any ``seqcm`` module
        still holds an unwrapped binding afterwards.
        """
        import seqcm  # noqa: F401  (loads every engine module)
        import seqcm.cli  # noqa: F401

        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if isinstance(mod, ModuleType) and (key == "seqcm" or key.startswith("seqcm."))
        ]
        rebound = {}
        originals = []
        for layer, quals in LAYERS.items():
            home = sys.modules[f"seqcm.{layer}"]
            for qual in quals:
                name = f"{layer}.{qual.split('.')[-1]}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, orig))
                    rebound[name] = 1
                    originals.append((name, orig))
                    continue
                orig = getattr(home, qual)
                wrapper = self._wrap(name, orig)
                hits = 0
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            hits += 1
                rebound[name] = hits
                originals.append((name, orig))
        for name, orig in originals:
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is orig:
                        raise RuntimeError(f"{mod.__name__}.{key} still unwrapped ({name})")
                    if isinstance(value, type) and orig in vars(value).values():
                        raise RuntimeError(f"{mod.__name__}.{key} still holds {name}")
        return rebound

    def snapshot(self) -> dict:
        """Plain-data view for the parent process."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }
