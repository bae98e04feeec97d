"""Spans and counters recorded around smpnp's public functions.

The benchmark measures layers from outside the program.  ``install`` swaps
module attributes of smpnp (and ``scipy.sparse.linalg.splu``, which smpnp
calls for every LU factorization) for wrappers that open a span around each
call and bump counters, and restores them on exit.  smpnp looks these
attributes up at call time, so the wrappers see every call the solver makes.

A span is (name, start, end, parent), on the clock ``reference.now``,
which leaves out the time of speed probes.  Diagnostics that a wrapper computes
(linear-solve errors, output sizes) run under ``Tracer.untimed``; their
duration is taken off every span open at that moment, so they do not show
up in any layer's time.
"""

from __future__ import annotations

import contextlib
import logging
import os
from collections import Counter
from dataclasses import dataclass
from unittest import mock

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from smpnp import (driver, electrostatics, fem_core, mesh as meshmod,
                   nonlinear_node, sparse_linalg, transport)

import reference


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    untimed: float = 0.0

    @property
    def duration(self):
        return self.end - self.start - self.untimed


class Tracer:
    """In-memory spans, counters and maxima of one traced case."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self._open = []  # indices of open spans, innermost last

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, reference.now(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index):
        """Close span ``index`` and every span opened inside it."""
        now = reference.now()
        while self._open:
            top = self._open.pop()
            self.spans[top].end = now
            if top == index:
                return

    def innermost(self):
        """Index of the innermost open span, -1 when none is open."""
        return self._open[-1] if self._open else -1

    @contextlib.contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextlib.contextmanager
    def untimed(self):
        t0 = reference.now()
        try:
            yield
        finally:
            spent = reference.now() - t0
            for index in self._open:
                self.spans[index].untimed += spent

    def record_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def by_name(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        calls, total, own = Counter(), Counter(), Counter()
        for s, inner in zip(self.spans, child):
            calls[s.name] += 1
            total[s.name] += s.duration
            own[s.name] += s.duration - inner
        return calls, total, own

    def children_of(self, name):
        """Count of spans per name whose parent span is called ``name``."""
        return Counter(s.name for s in self.spans
                       if s.parent >= 0 and self.spans[s.parent].name == name)

    def to_json(self):
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "spans": [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                       "parent": s.parent, "untimed": s.untimed}
                      for s in self.spans],
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }


class WarningCounter(logging.Handler):
    """Counts WARNING-and-above records per logger name; parses no text."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        self.counts[record.name] += 1


@contextlib.contextmanager
def counting_warnings():
    """Attach a WarningCounter to the ``smpnp`` logger for the block."""
    handler = WarningCounter()
    root = logging.getLogger("smpnp")
    root.addHandler(handler)
    try:
        yield handler
    finally:
        root.removeHandler(handler)


@contextlib.contextmanager
def stamping_initializer_entry(stamp):
    """Call ``stamp(t)`` when driver.run enters the equilibrium initializer.

    That moment ends set-up; it is the only hook untraced runs use.  A
    ``stamp`` that raises stops driver.run there.
    """
    initializer = nonlinear_node.solve_smpbic

    def stamped(*args, **kwargs):
        stamp(reference.now())
        return initializer(*args, **kwargs)

    with mock.patch.object(nonlinear_node, "solve_smpbic", stamped):
        yield


def linear_solve_errors(A, b, x, factorize):
    """(normwise backward error, forward error against a SuperLU solve).

    The forward error is max|x - x_ref| / max|x_ref|; it is None when the
    reference factorization fails.
    """
    A = sp.csr_matrix(A, copy=True)
    b = np.asarray(b, dtype=float)
    scale = spla.norm(A, np.inf) * np.linalg.norm(x) + np.linalg.norm(b)
    bwd = float(np.linalg.norm(A @ x - b) / max(scale, 1.0e-300))
    try:
        x_ref = factorize(A.tocsc()).solve(b)
    except RuntimeError:  # SuperLU reports a singular matrix this way
        return bwd, None
    fwd = float(np.max(np.abs(x - x_ref)) / max(np.max(np.abs(x_ref)), 1.0e-300))
    return bwd, fwd


def _dir_bytes(path):
    with os.scandir(path) as entries:
        return sum(entry.stat().st_size for entry in entries if entry.is_file())


@contextlib.contextmanager
def install(tr: Tracer):
    """Trace every layer boundary of smpnp into ``tr`` for the block."""
    splu = spla.splu
    Ilu0 = sparse_linalg.Ilu0
    PhiTildeSystem = electrostatics.PhiTildeSystem

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            with tr.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tr.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    run = driver.run

    def traced_run(config):
        # driver.run has no function boundary between set-up and solve; the
        # initializer wrapper below closes driver.setup and opens driver.solve
        index = tr.begin("driver.run")
        tr.begin("driver.setup")
        try:
            return run(config)
        finally:
            tr.end(index)

    initializer = nonlinear_node.solve_smpbic

    def traced_initializer(*args, **kwargs):
        top = tr.innermost()
        if top >= 0 and tr.spans[top].name == "driver.setup":
            tr.end(top)
            tr.begin("driver.solve")
        with tr.span("nonlinear_node.init"):
            return initializer(*args, **kwargs)

    block2 = nonlinear_node.block2_update

    def traced_block2(*args, **kwargs):
        with tr.span("nonlinear_node.block2"):
            p, report = block2(*args, **kwargs)
        tr.record_max("nonlinear_node.newton_iters_max", report.iterations)
        return p, report

    solve = sparse_linalg.solve

    def traced_solve(A, b, spec):
        with tr.span("sparse_linalg.solve"):
            x = solve(A, b, spec)
        with tr.untimed():
            bwd, fwd = linear_solve_errors(A, b, x, splu)
            tr.record_max("sparse_linalg.bwd_err_max", bwd)
            if fwd is not None:
                tr.record_max("sparse_linalg.fwd_err_max", fwd)
        return x

    class TracedSuperLU:
        """Counts the solves of a SuperLU object; delegates everything else."""

        def __init__(self, lu):
            self._lu = lu

        def __getattr__(self, name):
            return getattr(self._lu, name)

        def solve(self, *args, **kwargs):
            tr.counts["sparse_linalg.factor_applies"] += 1
            return self._lu.solve(*args, **kwargs)

    def traced_splu(*args, **kwargs):
        with tr.span("sparse_linalg.splu"):
            lu = splu(*args, **kwargs)
        tr.counts["sparse_linalg.lu_fill_nnz"] += lu.nnz
        tr.counts["sparse_linalg.factor_nnz"] += lu.nnz
        return TracedSuperLU(lu)

    class TracedIlu0(Ilu0):
        def __init__(self, A):
            with tr.span("sparse_linalg.ilu0"):
                super().__init__(A)
            tr.counts["sparse_linalg.factor_nnz"] += len(self.data)

        def solve(self, b):
            tr.counts["sparse_linalg.precond_applies"] += 1
            tr.counts["sparse_linalg.factor_applies"] += 1
            return super().solve(b)

    class TracedPhiTildeSystem(PhiTildeSystem):
        def __init__(self, *args, **kwargs):
            with tr.span("electrostatics.phit_setup"):
                super().__init__(*args, **kwargs)

        def solve(self, c_fields):
            with tr.span("electrostatics.phit_solve"):
                return super().solve(c_fields)

    write_outputs = driver.write_outputs

    def traced_write(config, result):
        with tr.span("driver.write"):
            write_outputs(config, result)
        with tr.untimed():
            tr.counts["driver.output_bytes"] += _dir_bytes(config.output_dir)

    patches = [
        (driver, "run", traced_run),
        (driver, "write_outputs", traced_write),
        (meshmod, "synth_channel_mesh", timed("mesh.synth", meshmod.synth_channel_mesh)),
        (meshmod, "extract_solvent_submesh",
         timed("mesh.submesh", meshmod.extract_solvent_submesh)),
        (fem_core, "assemble_weighted_stiffness",
         timed("fem_core.stiffness", fem_core.assemble_weighted_stiffness)),
        (fem_core, "apply_dirichlet", timed("fem_core.dirichlet", fem_core.apply_dirichlet)),
        (fem_core, "assemble_mass", timed("fem_core.mass", fem_core.assemble_mass)),
        (fem_core, "p1_gradients",
         counted("fem_core.p1_gradients_calls", fem_core.p1_gradients)),
        (sparse_linalg, "solve", traced_solve),
        (sparse_linalg, "Ilu0", TracedIlu0),
        (spla, "splu", traced_splu),
        (transport, "solve_transformed_np",
         timed("transport.block1", transport.solve_transformed_np)),
        (nonlinear_node, "solve_smpbic", traced_initializer),
        (nonlinear_node, "block2_update", traced_block2),
        (electrostatics, "solve_psi", timed("electrostatics.psi", electrostatics.solve_psi)),
        (electrostatics, "PhiTildeSystem", TracedPhiTildeSystem),
    ]
    with contextlib.ExitStack() as stack:
        for module, name, new in patches:
            stack.enter_context(mock.patch.object(module, name, new))
        yield tr

