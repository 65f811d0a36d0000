"""Span tracing around the calls the solver makes into each krymat module.

Nothing inside ``src/`` is instrumented.  Instead, for the duration of one
traced solve, the names the callers look up are replaced by wrappers that
record a span and delegate: module attributes such as
``krymat.solvers.lanczos_step`` or ``krymat.kernels.band_tridiagonalize``,
and the operator itself through a delegating ``LinearOperator``.  Every
replaced name is restored when the solve ends.

A span is ``[name, start, end, parent, attrs]``, kept per trace id; its
layer is the part of the name before the first dot.  Spans stay in memory
and are written out once, when the benchmark ends.  A span's self time is
its duration minus the durations of its direct children (one thread, so
children never overlap), which makes the self times of one solve add up to
the duration of its root span.
"""

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from krymat import basis, cli, kernels, mmio, problems, residual, solvers
from krymat.operators import LinearOperator, SparseOperator

NAME, START, END, PARENT, ATTRS = range(5)

#: The measured layers, each a module of ``src/krymat``.
LAYERS = ("problems", "operators", "basis", "kernels", "residual", "solvers",
          "mmio", "cli")


class Tracer:
    """In-memory span recorder, one span list per traced solve or set-up."""

    def __init__(self):
        self.traces = {}
        self._counts = Counter()
        self._spans = None
        self._stack = []

    @contextlib.contextmanager
    def record(self, kind, root_name):
        """Trace the body as ``<kind>-<i>``: one root span around it, with
        every looked-up name instrumented."""
        trace_id = "%s-%d" % (kind, self._counts[kind])
        self._counts[kind] += 1
        self._spans = self.traces[trace_id] = []
        try:
            with instrumented(self), self.span(root_name):
                yield
        finally:
            self._spans = None

    def profiles(self, kind):
        """Profiles of every trace recorded under ``kind``, in order."""
        prefix = kind + "-"
        return [profile(spans) for trace_id, spans in self.traces.items()
                if trace_id.startswith(prefix)]

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield self._spans[idx][ATTRS]
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self._spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self._spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, attrs_of=None):
        """``fn`` inside a span; ``attrs_of(args, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs.update(attrs_of(args, result))
            return result

        return traced

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for trace_id, spans in self.traces.items():
                for sp in spans:
                    fh.write(json.dumps({
                        "trace": trace_id, "name": sp[NAME], "start": sp[START],
                        "end": sp[END], "parent": sp[PARENT], "attrs": sp[ATTRS],
                    }) + "\n")


class TracedOperator(LinearOperator):
    """Delegating operator: every apply, solve and factorization is a span.

    ``apply`` records its columns and the bytes its CSR product touches: the
    matrix arrays read once per call, the input block read and the output
    block written.
    """

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self.n = inner.n
        self.definite = inner.definite
        mat = inner.matrix
        self._matrix_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes

    def apply(self, v):
        with self._tracer.span("operators.apply") as attrs:
            out = self._inner.apply(v)
        attrs["cols"] = out.shape[1]
        attrs["bytes"] = self._matrix_bytes + 2 * out.nbytes
        return out

    @property
    def can_solve(self):
        return self._inner.can_solve

    def factorization(self):
        with self._tracer.span("operators.factorize"):
            return self._inner.factorization()

    def solve(self, v):
        with self._tracer.span("operators.solve"):
            return self._inner.solve(v)


def _path_bytes(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def _projection_dim(args, _result):
    return {"dim": args[0].dim}


#: (module, looked-up name, span name, attribute hook)
_PATCHES = (
    (solvers, "init_basis", "basis.init", None),
    (solvers, "lanczos_step", "basis.step", None),
    (solvers, "extended_step", "basis.step", None),
    (solvers, "mgs_twice", "basis.mgs", None),
    (basis, "mgs_twice", "basis.mgs", None),
    (solvers, "economy_qr", "basis.qr", None),
    (basis, "economy_qr", "basis.qr", None),
    (solvers, "ctri_lyapunov", "residual.check", None),
    (residual, "partial_eig_blocktridiag", "kernels.partial_eig", None),
    (kernels, "band_tridiagonalize", "kernels.band_reduce", _projection_dim),
    (kernels, "sym_tridiag_eig", "kernels.tridiag_eig", None),
    (solvers, "truncated_spd_factor", "kernels.truncate", None),
    (solvers, "two_pass_recover", "solvers.two_pass", None),
    (cli, "solve_lyapunov", "solvers.solve", None),
    (mmio, "read_coordinate", "mmio.read", _path_bytes),
    (mmio, "read_array", "mmio.read", _path_bytes),
    (mmio, "write_coordinate", "mmio.write", _path_bytes),
    (mmio, "write_array", "mmio.write", _path_bytes),
    (problems, "gen_operator", "problems.gen", None),
    (problems, "gen_fd2d", "problems.gen", None),
    (problems, "gen_rhs", "problems.gen", None),
)


@contextlib.contextmanager
def instrumented(tracer):
    """Replace the looked-up names by span wrappers, restoring them on exit.

    The CLI builds its own operator, so ``krymat.cli.SparseOperator`` is
    replaced too, by a factory returning a ``TracedOperator``.
    """
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _PATCHES]

    def traced_sparse_operator(a, definite=True):
        with tracer.span("operators.construct"):
            op = SparseOperator(a, definite)
        return TracedOperator(op, tracer)

    try:
        for (mod, attr, name, attrs_of), (_, _, fn) in zip(_PATCHES, saved):
            setattr(mod, attr, tracer.wrap(name, fn, attrs_of))
        cli.SparseOperator = traced_sparse_operator
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
        cli.SparseOperator = SparseOperator


@dataclass
class Profile:
    """Figures of one traced solve (or set-up), summed over its spans."""

    root_s: float = 0.0
    calls: Counter = field(default_factory=Counter)
    total_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    last_s: dict = field(default_factory=dict)
    layer_self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    attr_sum: defaultdict = field(default_factory=lambda: defaultdict(float))
    max_dim: int = 0
    ops_first_pass: int = 0
    ops_second_pass: int = 0


_OPERATOR_CALLS = ("operators.apply", "operators.solve")


def profile(spans):
    """Self times, counts and attribute sums of one solve's spans.

    Spans are stored in opening order, so a parent precedes its children.
    """
    prof = Profile()
    child_s = [0.0] * len(spans)
    second_pass = [False] * len(spans)
    for i, sp in enumerate(spans):
        parent = sp[PARENT]
        if parent is None:
            prof.root_s += sp[END] - sp[START]
        else:
            child_s[parent] += sp[END] - sp[START]
            second_pass[i] = second_pass[parent]
        if sp[NAME] == "solvers.two_pass":
            second_pass[i] = True
    for i, sp in enumerate(spans):
        name = sp[NAME]
        dur = sp[END] - sp[START]
        self_s = dur - child_s[i]
        prof.calls[name] += 1
        prof.total_s[name] += dur
        prof.self_s[name] += self_s
        prof.last_s[name] = dur
        prof.layer_self_s[name.split(".", 1)[0]] += self_s
        for key, val in sp[ATTRS].items():
            prof.attr_sum[name + "." + key] += val
        prof.max_dim = max(prof.max_dim, sp[ATTRS].get("dim", 0))
        if name in _OPERATOR_CALLS:
            if second_pass[i]:
                prof.ops_second_pass += 1
            else:
                prof.ops_first_pass += 1
    return prof
