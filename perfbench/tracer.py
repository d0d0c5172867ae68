"""Outside-in span tracing of the solweights modules, for the traced run.

``Tracer.install`` wraps every public function of every solweights module
at every binding site (``from .groups import induced_outer`` binds the name
again in ``solmodel``), the two ``FiniteGroup`` constructors, and the
``mul`` method of each element action (counted, not spanned: it runs
millions of times).  Spans are kept in memory as [name, start, end, parent]
and written out once, when the run ends.

A span's self time is its duration minus the durations of its child spans.
Spans nest properly because the program runs one thread (``--threads 1``),
so the self times of all spans add up to the top-level span.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from collections import Counter

ROOT_SPAN = "bench.workload"


class Tracer:
    def __init__(self):
        # [name, module, start, end, parent index, outermost of its name, outermost of its module]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._mul_calls: dict[str, list[int]] = {}

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """fn with a span named ``name``; ``hook(args, result)`` then
        updates the counters."""
        spans, stack, active = self.spans, self._stack, self._active
        module = name.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, module, 0.0, 0.0, stack[-1] if stack else -1,
                   not active[name], not active[module]]
            active[name] += 1
            active[module] += 1
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                active[name] -= 1
                active[module] -= 1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def root(self, fn):
        """Run fn() inside the top-level span."""
        return self.wrap(ROOT_SPAN, fn)()

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap the public functions of every solweights module in place."""
        import solweights
        from solweights import groups

        modules = [importlib.import_module(f"solweights.{info.name}")
                   for info in pkgutil.iter_modules(solweights.__path__)
                   if info.name != "__main__"]
        hooks = self._hooks()
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped[id(obj)] = self.wrap(name, obj, hooks.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not isinstance(obj, type):
                    setattr(mod, attr, wrapped[id(obj)])

        fg = groups.FiniteGroup
        fg.generate = classmethod(self.wrap("groups.generate", fg.__dict__["generate"].__func__,
                                            self._count_generated))
        fg.from_elements = classmethod(self.wrap("groups.from_elements",
                                                 fg.__dict__["from_elements"].__func__))

        for cls, kind in ((groups.PermAction, "perm"), (groups.MatrixAction, "matrix"),
                          (groups.CentralTripleAction, "triple")):
            cell = self._mul_calls[f"groups.mul.calls.{kind}"] = [0]
            cls.mul = self._counted_mul(cls.mul, cell)

    @staticmethod
    def _counted_mul(mul, cell):
        def counted(self, a, b):
            cell[0] += 1
            return mul(self, a, b)
        return counted

    def _count_generated(self, args, group):
        self.counters["groups.generate.elements"] += group.order
        if group.order > self.counters["groups.generate.max_order"]:
            self.counters["groups.generate.max_order"] = group.order

    def _hooks(self) -> dict:
        c = self.counters

        def induced_outer(args, result):
            c["groups.induced_outer.points"] += args[1].order

        def robinson_matrix(args, result):
            c["robinson.robinson_matrix.elements"] += args[0].order

        def choice_invariance(args, result):
            c["robinson.rank_mismatches"] += sum(r != result.baseline for r in result.ranks)

        def h2_dim(args, result):
            c[f"cohomology.path.{result.path}"] += 1

        return {"groups.induced_outer": induced_outer,
                "robinson.robinson_matrix": robinson_matrix,
                "robinson.choice_invariance": choice_invariance,
                "cohomology.h2_dim": h2_dim}

    # -- results ----------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-function and per-module calls, total time and self time.

        ``s`` counts only the outermost span of a name (or module), so
        recursion and nested calls within one module are not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, module, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions: dict[str, dict] = {}
        modules: dict[str, dict] = {}
        root_s = self_sum = 0.0
        for i, (name, module, start, end, parent, outer_fn, outer_mod) in enumerate(spans):
            dur = end - start
            self_s = dur - child_time[i]
            self_sum += self_s
            if parent < 0:
                root_s += dur
            for table, key, outer in ((functions, name, outer_fn), (modules, module, outer_mod)):
                row = table.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["self_s"] += self_s
                if outer:
                    row["s"] += dur
        return {"functions": functions, "modules": modules, "counters": self._all_counters(),
                "root_s": root_s, "self_sum_s": self_sum, "spans": len(spans)}

    def _all_counters(self) -> dict:
        return {**self.counters, **{key: cell[0] for key, cell in self._mul_calls.items()}}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [[n, s, e, p] for n, _, s, e, p, _, _ in self.spans],
                       "counters": self._all_counters()}, fh)
