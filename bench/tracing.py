"""Span tracing of the risbvqe layers, installed from outside the package.

`Tracer.install` replaces every module attribute bound to one of the public
functions in `FUNCTIONS` (and the two `OrbitalHamiltonian` methods in
`METHODS`) with a timing wrapper, so a function imported by name into
several modules is timed wherever it is called from.  `Tracer.uninstall`
puts the original objects back.  Spans stay in memory until `write_spans`.

A span is (name, site, start, end, parent, outer, facts): `site` is the
module whose attribute was called, `parent` the index of the enclosing span
(-1 at top level), `outer` is False for a call nested inside a call of the
same name, and `facts` holds the per-call observations that the count
metrics are built from.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function); the span name is the module's last component plus the
# function name, e.g. "ed.ground_state".
FUNCTIONS = (
    ("risbvqe.embedding", "risb_cost"),
    ("risbvqe.embedding", "find_mu"),
    ("risbvqe.embedding", "qp_fill"),
    ("risbvqe.embedding", "risb_solve"),
    ("risbvqe.ed", "ground_state"),
    ("risbvqe.ed", "hamiltonian_matrix"),
    ("risbvqe.ed", "ed_rdm1"),
    ("risbvqe.pauli", "expectation_matrix"),
    ("risbvqe.pauli", "jordan_wigner"),
    ("risbvqe.simulator", "run"),
    ("risbvqe.simulator", "run_many"),
    ("risbvqe.estimator", "expectation"),
    ("risbvqe.estimator", "measure_rdm1"),
    ("risbvqe.vqe", "vqe_minimize"),
    ("risbvqe.vqe", "multi_start"),
    ("risbvqe.noization", "exact_no_basis"),
    ("risbvqe.runio", "write_csv"),
    ("risbvqe.runio", "atomic_write"),
    ("risbvqe.cli", "load_reference"),
)

# (module, class, method)
METHODS = (
    ("risbvqe.hamiltonians", "OrbitalHamiltonian", "rotate"),
    ("risbvqe.hamiltonians", "OrbitalHamiltonian", "to_pauli"),
)

COMPLEX_BYTES = 16


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Observations taken before the call, for caches the call may fill.  A
# removed cache slot reads as empty, so every call then counts.
def _before_to_pauli(sig, args, kwargs):
    return {"compiled": getattr(args[0], "_pauli", None) is None}


def _before_expectation_matrix(sig, args, kwargs):
    return {"built": getattr(args[0], "_matrix", None) is None}


# Observations taken after the call.  They read the arguments, which stay
# put when a later change returns another type.
def _backend(arguments: dict) -> tuple[bool, bool]:
    """(mixed, noisy): the backend follows the noise setting unless
    `mixed` forces it."""
    noisy = arguments["noise"] is not None
    mixed = arguments["mixed"]
    return (noisy if mixed is None else bool(mixed)), noisy


def _after_run(sig, args, kwargs, result, facts):
    arguments = _arguments(sig, args, kwargs)
    circuit = arguments["circuit"]
    mixed, noisy = _backend(arguments)
    facts.update(mixed=mixed, gates=len(circuit.gates))
    if mixed:
        # Computed, not measured: one read and one write of the 4^n
        # complex density tensor per unitary pass (rows, then columns) and
        # per depolarizing channel (one per touched qubit).
        passes = sum(2 + (len(g.qubits) if noisy else 0)
                     for g in circuit.gates)
        facts["bytes"] = passes * 2 * COMPLEX_BYTES * 4 ** circuit.n_qubits


def _after_run_many(sig, args, kwargs, result, facts):
    arguments = _arguments(sig, args, kwargs)
    facts.update(states=len(arguments["bindings_seq"]),
                 gates=len(arguments["circuit"].gates),
                 mixed=_backend(arguments)[0])


def _after_vqe_minimize(sig, args, kwargs, result, facts):
    max_iter = _arguments(sig, args, kwargs)["max_iter"]
    facts["cap_hit"] = result.n_iter >= max_iter


def _after_risb_solve(sig, args, kwargs, result, facts):
    facts.update(iters=result.n_iter, converged=bool(result.converged))


def _after_atomic_write(sig, args, kwargs, result, facts):
    text = _arguments(sig, args, kwargs)["text"]
    facts["bytes"] = len(text.encode("utf-8"))


BEFORE = {
    "hamiltonians.to_pauli": _before_to_pauli,
    "pauli.expectation_matrix": _before_expectation_matrix,
}
AFTER = {
    "simulator.run": _after_run,
    "simulator.run_many": _after_run_many,
    "vqe.vqe_minimize": _after_vqe_minimize,
    "embedding.risb_solve": _after_risb_solve,
    "runio.atomic_write": _after_atomic_write,
}


class Tracer:
    """Records one span per wrapped call of one traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.missing: list[str] = []
        self.probe_errors: set[str] = set()
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []

    def _wrap(self, fn, name: str, site: str):
        spans, stack, depth = self.spans, self._stack, self._depth
        before, after = BEFORE.get(name), AFTER.get(name)
        sig = inspect.signature(fn)
        clock = time.perf_counter

        def probe(hook, *hook_args):
            # A probe that no longer fits the package must not change what
            # the traced command does; its facts then read zero.
            try:
                return hook(sig, *hook_args)
            except Exception as exc:
                self.probe_errors.add(f"{name}: {exc!r}")
                return {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            facts = probe(before, args, kwargs) if before else {}
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = depth[name] == 0
            stack.append(index)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[index] = (name, site, start, end, parent, outer, facts)
            if after:
                probe(after, args, kwargs, result, facts)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded risbvqe
        modules; names the package no longer defines are listed in
        `missing` and their metrics read zero."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "risbvqe" or n.startswith("risbvqe.")}
        for module_name, attr in FUNCTIONS:
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            owner = modules.get(module_name)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            for site_name, module in sorted(modules.items()):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        site = site_name.rsplit(".", 1)[-1]
                        self._patched.append((module, key, fn))
                        setattr(module, key, self._wrap(fn, name, site))
        for module_name, cls_name, attr in METHODS:
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            cls = getattr(modules.get(module_name), cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, cls_name))

    def uninstall(self) -> bool:
        """Restore the original objects; True when every one is back."""
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        restored = all(vars(owner).get(key) is fn
                       for owner, key, fn in self._patched)
        self._patched.clear()
        return restored

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(("span", "name", "site", "start", "end", "parent",
                          "run_id"))
            for index, (name, site, start, end, parent, _, _) in \
                    enumerate(self.spans):
                out.writerow((index, name, site, repr(start), repr(end),
                              parent, self.run_id))


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    `.calls` counts every call, `.s` sums the durations of outermost calls
    of that name, `.self_s` subtracts the time covered by child spans.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    facts: dict[str, list] = defaultdict(list)
    for index, (name, site, start, end, _, outer, fact) in enumerate(spans):
        calls[name] += 1
        calls[f"{name}@{site}"] += 1
        if outer:
            total[name] += end - start
        self_time[name] += end - start - child_time[index]
        facts[name].append((fact, end - start))

    def share(hits: int, base: int) -> float:
        return hits / base if base else 0.0

    run = facts["simulator.run"]
    pure = [(f, t) for f, t in run if not f.get("mixed")]
    mixed = [(f, t) for f, t in run if f.get("mixed")]
    batches = [f for f, _ in facts["simulator.run_many"]]
    solves = [f for f, _ in facts["embedding.risb_solve"]]
    starts = [f for f, _ in facts["vqe.vqe_minimize"]]
    return {
        "embedding.risb_cost.calls": calls["embedding.risb_cost"],
        "embedding.risb_cost.self_s": self_time["embedding.risb_cost"],
        "embedding.find_mu.s": total["embedding.find_mu"],
        "embedding.qp_fill.calls": calls["embedding.qp_fill"],
        "embedding.risb_solve.iters": sum(f.get("iters", 0) for f in solves),
        "embedding.risb_solve.converged_share": share(
            sum(f.get("converged", 0) for f in solves), len(solves)),
        "ed.ground_state.calls": calls["ed.ground_state"],
        "ed.ground_state.s": total["ed.ground_state"],
        "ed.hamiltonian_matrix.s": total["ed.hamiltonian_matrix"],
        "ed.ed_rdm1.s": total["ed.ed_rdm1"],
        "hamiltonians.rotate.calls": calls["hamiltonians.rotate"],
        "hamiltonians.rotate.s": total["hamiltonians.rotate"],
        "hamiltonians.to_pauli.compiles": sum(
            f.get("compiled", 0) for f, _ in facts["hamiltonians.to_pauli"]),
        "hamiltonians.to_pauli.s": total["hamiltonians.to_pauli"],
        "pauli.expectation_matrix.calls": calls["pauli.expectation_matrix"],
        "pauli.expectation_matrix.builds": sum(
            f.get("built", 0) for f, _ in facts["pauli.expectation_matrix"]),
        "pauli.expectation_matrix.s": total["pauli.expectation_matrix"],
        "pauli.jordan_wigner.s": total["pauli.jordan_wigner"],
        "simulator.run.pure.calls": len(pure),
        "simulator.run.pure.s": sum(t for _, t in pure),
        "simulator.run.mixed.calls": len(mixed),
        "simulator.run.mixed.s": sum(t for _, t in mixed),
        # a mixed batch runs its states through run(), counted above
        "simulator.gates_applied": (
            sum(f.get("gates", 0) for f, _ in run)
            + sum(f.get("states", 0) * f.get("gates", 0) for f in batches
                  if not f.get("mixed"))),
        "simulator.mixed.bytes_computed": sum(f.get("bytes", 0) for f, _ in mixed),
        "simulator.run_many.calls": calls["simulator.run_many"],
        "simulator.run_many.states": sum(f.get("states", 0) for f in batches),
        "simulator.run_many.s": total["simulator.run_many"],
        "estimator.expectation.calls": calls["estimator.expectation"],
        "estimator.expectation.s": total["estimator.expectation"],
        "estimator.measure_rdm1.calls": calls["estimator.measure_rdm1"],
        "estimator.measure_rdm1.s": total["estimator.measure_rdm1"],
        "vqe.vqe_minimize.calls": calls["vqe.vqe_minimize"],
        "vqe.vqe_minimize.s": total["vqe.vqe_minimize"],
        "vqe.multi_start.calls": calls["vqe.multi_start"],
        "vqe.energy_evals": calls["simulator.run@vqe"],
        "vqe.gradient_evals": calls["simulator.run_many@vqe"],
        "vqe.cap_hit_share": share(sum(f.get("cap_hit", 0) for f in starts),
                                   len(starts)),
        "noization.exact_no_basis.calls": calls["noization.exact_no_basis"],
        "noization.exact_no_basis.s": total["noization.exact_no_basis"],
        "runio.write_csv.calls": calls["runio.write_csv"],
        "runio.bytes_written": sum(f.get("bytes", 0)
                                   for f, _ in facts["runio.atomic_write"]),
        "cli.load_reference.s": total["cli.load_reference"],
    }
