"""Outside-in spans around bcabe's public functions, for the traced run.

Each traced function is replaced by a wrapper in every namespace that binds
it: the package imports functions by name, so `build_family` alone is bound in
`states`, `cuts`, `protocol`, `cli` and the package root, and patching only
the defining module would miss most calls.  Classes are traced through their
`__init__` (construction plus validation) or a named method, which every
binding shares.  `numpy.linalg.eigvalsh` is traced as `tensor.eigvalsh`,
because only `tensor` calls it.

Everything runs synchronously in one thread, so spans nest strictly and a
span's self time is its duration minus the durations of its direct children.
Nothing queues or waits, so no wait time is recorded.  Spans are aggregated
per name (calls, self time) instead of stored one by one: a sampled certify
op makes about half a million traced calls.
"""

from __future__ import annotations

import sys
import time
import weakref

import numpy as np

# layer (bcabe module) -> traced names; "Class" traces construction,
# "Class.method" one method
TRACED = {
    "tensor": ("DensityMatrix", "hermitian_eigenvalues", "partial_transpose",
               "trace_distance", "partial_trace", "apply_unitary_on_subset"),
    "states": ("build_family", "family_support_projector", "verify_recursion",
               "pauli_connection_search", "permutation_invariance_check",
               "bell_tuple_decomposition", "bell_state"),
    "cuts": ("analyze_cut", "npt_one_vs_rest_scan", "activation_distill", "lp_lower_bound"),
    "simplex": ("solve_min",),
    "protocol": ("teleport", "NetworkState.clone", "bell_generate", "prepare_bcabe",
                 "locc_audit", "ebit_accounting"),
    "cli": ("main",),
}

class Tracer:
    """Installs span wrappers on demand and accumulates per-name totals.

    Build it after `bcabe.cli` is imported, so that every module binding
    exists.  Wrappers are in place only between `install()` and `remove()`,
    which keeps untraced ops and the benchmark's own output checks out of
    the counts.
    """

    def __init__(self):
        self._stack: list[float] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._pending: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self.reset()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bcabe" or name.startswith("bcabe."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"bcabe.{layer}"]
            for name in names:
                hook = {"bell_tuple_decomposition": self._on_decomposition,
                        "teleport": self._on_teleport}.get(name)
                self._trace(f"{layer}.{name}", home, name, modules, hook)
        protocol = sys.modules["bcabe.protocol"]
        final_state = protocol._final_state

        def consume_final(net):
            self._consume(net)
            return final_state(net)

        self._rebind(final_state, consume_final, modules)
        self._bind(np.linalg, "eigvalsh",
                   self._wrap("tensor.eigvalsh", np.linalg.eigvalsh, self._on_eigvalsh))

    def reset(self) -> None:
        """Zero every total; call between traced passes."""
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters = {"eigvalsh_dim3": 0, "tuples_kept": 0, "tuples_candidates": 0,
                         "branches_built": 0, "branches_used": 0}
        self._pending.clear()

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def calls(self) -> dict[str, int]:
        return {name: s[0] for name, s in sorted(self.stats.items())}

    # --- wrapping ---------------------------------------------------------

    def _trace(self, span, home, name, modules, hook) -> None:
        cls_name, _, method = name.partition(".")
        target = getattr(home, cls_name)
        if isinstance(target, type):
            attr = method or "__init__"
            self._bind(target, attr, self._wrap(span, getattr(target, attr), hook))
            return
        self._rebind(target, self._wrap(span, target, hook), modules)

    def _rebind(self, target, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._bind(module, attr, wrapper)

    def _bind(self, owner, attr, wrapper) -> None:
        self._bindings.append((owner, attr, getattr(owner, attr), wrapper))

    def _wrap(self, span, fn, hook):
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        consumes_branch = span == "protocol.bell_generate"

        def wrapper(*args, **kwargs):
            stat = tracer.stats.get(span)
            if stat is None:
                stat = tracer.stats[span] = [0, 0.0]
            if consumes_branch:
                tracer._consume(args[0])
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- work counters ----------------------------------------------------

    def _on_eigvalsh(self, args, kwargs, result) -> None:
        self.counters["eigvalsh_dim3"] += int(np.shape(args[0])[-1]) ** 3

    def _on_decomposition(self, args, kwargs, result) -> None:
        pairing = args[1] if len(args) > 1 else kwargs["pairing"]
        self.counters["tuples_kept"] += len(result)
        self.counters["tuples_candidates"] += 4 ** len(pairing)

    def _on_teleport(self, args, kwargs, result) -> None:
        self.counters["branches_built"] += len(result)
        for _, branch in result:
            self._pending[id(branch)] = branch

    def _consume(self, net) -> None:
        # a teleport branch counts as used when it reaches the next protocol
        # step: the next pair's bell_generate, or the final state readout
        if self._pending.get(id(net)) is net:
            del self._pending[id(net)]
            self.counters["branches_used"] += 1
