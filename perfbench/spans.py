"""Span tracing of arithdyn from outside the program.

``Tracer.install`` replaces each traced entry point with a wrapper in every
``arithdyn.*`` module namespace that binds it: ``dynamics`` imports
``to_integer`` by name and ``topology`` imports ``value_table``, so patching
only the defining module would miss those calls.  Each wrapped call appends
one span (name, parent, start, end) to flat arrays kept in memory.  After
the run, ``metrics`` folds the spans into the per-layer metrics and ``dump``
writes them out.

Two hot entry points are counted instead of spanned, because a span per
call would cost more than the work: ``scalar_value`` (calls only) and the
``factored_range`` generator (integers yielded and time inside ``next()``,
which includes the sieve its first ``next()`` builds).

A span's time counts toward its name only when no span of the same name
encloses it, so recursion (``to_integer`` resolving a deferred exponent
calls ``to_integer``) is not counted twice.  Self time is a span's duration
minus the durations of its direct child spans.
"""
from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

SCHEMES = ("phi-anti", "d-anti", "omega-anti", "smallomega-anti", "psi-orbit", "j2-orbit")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []     # open spans per name id
        self._stack = [-1]               # open span indices; -1 is the root
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, float] = {}
        self.op_index = 0
        self._to_integer_args: set = set()
        self._family_builds: set = set()
        self._ranges: list[tuple[int, int]] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    # -- wrappers ------------------------------------------------------

    def _spanned(self, fn, name, after=None):
        """One span per call.  `name` is a string or a function of
        (args, kwargs); `after(args, kwargs, result)` records counts."""
        fixed = self._id(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            i = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1])
            self.span_outer.append(self._depth[nid] == 0)
            self.span_end.append(0.0)
            self._depth[nid] += 1
            self._stack.append(i)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[i] = perf_counter()
                self._stack.pop()
                self._depth[nid] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, key):
        counts = self.counts
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed_range(self, fn):
        def wrapper(*args, **kwargs):
            return self._iterate(fn(*args, **kwargs))
        return wrapper

    def _iterate(self, gen):
        count, spent, first, last = 0, 0.0, None, None
        try:
            while True:
                t = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    spent += perf_counter() - t
                    return
                spent += perf_counter() - t
                count += 1
                if first is None:
                    first = item[0]
                last = item[0]
                yield item
        finally:
            gen.close()
            self.add("factorint.factored_range_n", count)
            self.add("factorint.factored_range_s", spent)
            if first is not None:
                self._ranges.append((first, last))

    # -- per-entry-point counts -----------------------------------------

    def _after_to_integer(self, args, kwargs, result):
        x = _arg(args, kwargs, 0, "x")
        self._to_integer_args.add(x)
        if result is self._overflow:
            self.add("factorint.to_integer_overflows")
        else:
            self.add("factorint.to_integer_bits", result.bit_length())

    def _after_factorize(self, args, kwargs, result):
        bits = _arg(args, kwargs, 0, "n").bit_length()
        if bits > self.counts.get("factorint.factorize_max_bits", 0):
            self.counts["factorint.factorize_max_bits"] = bits

    def _after_family_terms(self, args, kwargs, result):
        self.add("dynamics.terms_built", len(result))
        spec, depth = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "depth")
        self._family_builds.add((self.op_index, spec, depth))

    def _after_scan(self, pos, name):
        def after(args, kwargs, result):
            self.add("preimage.scan_n", _arg(args, kwargs, pos, name))
            self.add("preimage.scan_members", len(result.members))
        return after

    def install(self) -> None:
        from arithdyn import factorint
        self._overflow = factorint.OVERFLOW
        add = self.add
        lemma_check = "topology.lemma_check"
        targets = [
            ("factorint", "to_integer", "factorint.to_integer", self._after_to_integer),
            ("factorint", "certainly_different", "factorint.certainly_different", None),
            ("factorint", "pairwise_all_different", "factorint.pairwise",
             lambda a, k, r: add("factorint.pairwise_values", len(_arg(a, k, 0, "values")))),
            ("factorint", "smallest_factor_table", "factorint.sieve", None),
            ("factorint", "factorize", "factorint.factorize", self._after_factorize),
            ("arithfun", "evaluate", "arithfun.evaluate", None),
            ("arithfun", "value_table", "arithfun.value_table",
             lambda a, k, r: add("arithfun.value_table_n", _arg(a, k, 1, "bound"))),
            ("arithfun", "catalogue_monotone_sweep", "arithfun.monotone_sweep", None),
            ("arithfun", "monotone_profile", "arithfun.monotone_sweep", None),
            ("arithfun", "identity_check_psi_jordan", "arithfun.identity", None),
            ("dynamics", "family_terms", "dynamics.family_terms", self._after_family_terms),
            ("dynamics", "verify_disjoint",
             lambda a, k: "dynamics.verify_disjoint." + _arg(a, k, 0, "specs")[0].scheme.value,
             None),
            ("dynamics", "search_families", "dynamics.search", None),
            ("dynamics", "surjective_core_membership", "dynamics.surjective_core", None),
            ("preimage", "inverse_phi", "preimage.inverse_phi", None),
            ("preimage", "preimage_expansive", "preimage.expansive", self._after_scan(1, "m")),
            ("preimage", "preimage_bounded", "preimage.bounded", self._after_scan(2, "bound")),
            ("topology", "min_open_backward", "topology.min_open_backward",
             lambda a, k, r: add("topology.closure_nodes", len(r.members))),
            ("topology", "min_open_forward", "topology.min_open_forward", None),
            ("topology", "contains_one_forward", lemma_check, None),
            ("topology", "separation_check", lemma_check, None),
            ("topology", "verify_tau_subset", lemma_check, None),
            ("topology", "verify_taubar_subset", lemma_check, None),
            ("cli", "run", "cli.run", None),
            ("cli", "emit", "cli.emit", None),
        ]
        modules = [m for n, m in sys.modules.items()
                   if n == "arithdyn" or n.startswith("arithdyn.")]

        def patch(module, attr, make_wrapper):
            original = getattr(sys.modules["arithdyn." + module], attr)
            wrapper = make_wrapper(original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

        for module, attr, name, after in targets:
            patch(module, attr, lambda fn, name=name, after=after: self._spanned(fn, name, after))
        patch("arithfun", "scalar_value",
              lambda fn: self._counted(fn, "arithfun.scalar_value_calls"))
        patch("factorint", "factored_range", self._timed_range)

    # -- results --------------------------------------------------------

    def _fold(self):
        """(calls, outer time, self time) per span name."""
        n = len(self.span_name)
        cover = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                cover[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        outer = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            dur = self.span_end[i] - self.span_start[i]
            calls[nid] += 1
            if self.span_outer[i]:
                outer[nid] += dur
            own[nid] += dur - cover[i]
        return ({name: calls[i] for i, name in enumerate(self.names)},
                {name: outer[i] for i, name in enumerate(self.names)},
                {name: own[i] for i, name in enumerate(self.names)})

    def metrics(self) -> dict[str, float]:
        calls, time, own = self._fold()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        distinct_n, top = 0, 0
        for lo, hi in sorted(self._ranges):
            lo = max(lo, top + 1)
            if hi >= lo:
                distinct_n += hi - lo + 1
                top = hi
        out = {
            "factorint.to_integer_calls": calls.get("factorint.to_integer", 0),
            "factorint.to_integer_s": time.get("factorint.to_integer", 0.0),
            "factorint.to_integer_distinct_ratio": ratio(
                len(self._to_integer_args), calls.get("factorint.to_integer", 0)),
            "factorint.to_integer_overflows": c.get("factorint.to_integer_overflows", 0),
            "factorint.to_integer_bits": c.get("factorint.to_integer_bits", 0),
            "factorint.certainly_different_calls": calls.get("factorint.certainly_different", 0),
            "factorint.certainly_different_s": time.get("factorint.certainly_different", 0.0),
            "factorint.pairwise_calls": calls.get("factorint.pairwise", 0),
            "factorint.pairwise_values": c.get("factorint.pairwise_values", 0),
            "factorint.pairwise_s": time.get("factorint.pairwise", 0.0),
            "factorint.sieve_calls": calls.get("factorint.sieve", 0),
            "factorint.sieve_s": time.get("factorint.sieve", 0.0),
            "factorint.factored_range_n": c.get("factorint.factored_range_n", 0),
            "factorint.factored_range_s": c.get("factorint.factored_range_s", 0.0),
            "factorint.decompositions_per_distinct_n": ratio(
                c.get("factorint.factored_range_n", 0), distinct_n),
            "factorint.factorize_calls": calls.get("factorint.factorize", 0),
            "factorint.factorize_s": time.get("factorint.factorize", 0.0),
            "factorint.factorize_max_bits": c.get("factorint.factorize_max_bits", 0),
            "arithfun.evaluate_calls": calls.get("arithfun.evaluate", 0),
            "arithfun.evaluate_s": time.get("arithfun.evaluate", 0.0),
            "arithfun.value_table_calls": calls.get("arithfun.value_table", 0),
            "arithfun.value_table_n": c.get("arithfun.value_table_n", 0),
            "arithfun.value_table_s": time.get("arithfun.value_table", 0.0),
            "arithfun.scalar_value_calls": c.get("arithfun.scalar_value_calls", 0),
            "arithfun.monotone_sweep_s": time.get("arithfun.monotone_sweep", 0.0),
            "arithfun.identity_s": time.get("arithfun.identity", 0.0),
            "dynamics.family_terms_calls": calls.get("dynamics.family_terms", 0),
            "dynamics.terms_built": c.get("dynamics.terms_built", 0),
            "dynamics.family_builds_per_family": ratio(
                calls.get("dynamics.family_terms", 0), len(self._family_builds)),
            "dynamics.family_terms_s": time.get("dynamics.family_terms", 0.0),
            "dynamics.search_s": time.get("dynamics.search", 0.0),
            "dynamics.surjective_core_s": time.get("dynamics.surjective_core", 0.0),
            "preimage.inverse_phi_calls": calls.get("preimage.inverse_phi", 0),
            "preimage.inverse_phi_s": time.get("preimage.inverse_phi", 0.0),
            "preimage.expansive_calls": calls.get("preimage.expansive", 0),
            "preimage.bounded_calls": calls.get("preimage.bounded", 0),
            "preimage.scan_n": c.get("preimage.scan_n", 0),
            "preimage.scan_s": (time.get("preimage.expansive", 0.0)
                                + time.get("preimage.bounded", 0.0)),
            "preimage.members_per_scanned_n": ratio(
                c.get("preimage.scan_members", 0), c.get("preimage.scan_n", 0)),
            "topology.min_open_backward_s": time.get("topology.min_open_backward", 0.0),
            "topology.closure_nodes": c.get("topology.closure_nodes", 0),
            "topology.min_open_forward_s": time.get("topology.min_open_forward", 0.0),
            "topology.lemma_check_s": time.get("topology.lemma_check", 0.0),
            "cli.run_calls": calls.get("cli.run", 0),
            "cli.self_s": own.get("cli.run", 0.0),
            "cli.emit_s": time.get("cli.emit", 0.0),
            "cli.output_bytes": c.get("cli.output_bytes", 0),
        }
        for scheme in SCHEMES:
            out[f"dynamics.verify_disjoint_s.{scheme}"] = time.get(
                f"dynamics.verify_disjoint.{scheme}", 0.0)
        return out

    def dump(self, path: str, t0: float) -> None:
        """Write every span, times in seconds from t0."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": [round(t - t0, 9) for t in self.span_start],
                       "end": [round(t - t0, 9) for t in self.span_end]}, fh)
