"""Outside-in spans around the package's layer functions.

:class:`Tracer` rebinds the names listed in :data:`LAYER_NAMES` in the
namespaces that call them, records one span per call (name, start, end,
parent) in memory, and restores every name on exit.  Nothing under ``src/``
is edited.  Spans opened on the two-level solver's thread pool take the span
that submitted the task as parent, so a phase's self time does not absorb
work done on its behalf by the pool.

Update calls made inside from-scratch environment builds and inner products
are deliberately not wrapped: the builds are the layer boundary there, and
one span per inner update would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import Counter
from time import perf_counter


def _observe_lanczos(counts, result):
    counts["lanczos_iters"] += result.iterations
    counts["lanczos_converged"] += bool(result.converged)


def _observe_coarse(counts, problem):
    counts["coarse_p"] += problem.p
    counts["coarse_m"] += len(problem.sigma)


# (module, attribute path, span name, observer of the return value)
LAYER_NAMES = (
    ("ttdmrg.dmrg", "split_and_shift", "dmrg.split", None),
    ("ttdmrg.twolevel", "split_and_shift", "dmrg.split", None),
    ("ttdmrg.mpo", "apply_local_1site", "mpo.matvec", None),
    ("ttdmrg.mpo", "apply_local_2site", "mpo.matvec", None),
    ("ttdmrg.dmrg", "update_left_env", "mpo.env_update", None),
    ("ttdmrg.dmrg", "update_right_env", "mpo.env_update", None),
    ("ttdmrg.dmrg", "all_right_envs", "mpo.env_build", None),
    ("ttdmrg.dmrg", "left_env", "mpo.env_build", None),
    ("ttdmrg.dmrg", "right_env", "mpo.env_build", None),
    ("ttdmrg.twolevel", "left_env", "mpo.env_build", None),
    ("ttdmrg.twolevel", "right_env", "mpo.env_build", None),
    ("ttdmrg.mpo", "mpo_inner", "mpo.inner", None),
    ("ttdmrg.twolevel", "mpo_inner", "mpo.inner", None),
    ("ttdmrg.dmrg", "lanczos_lowest", "eigen.lanczos", _observe_lanczos),
    ("ttdmrg.twolevel", "lanczos_lowest", "eigen.lanczos", _observe_lanczos),
    ("ttdmrg.twolevel", "dense_lowest_eig", "eigen.dense", None),
    ("ttdmrg.twolevel", "dense_sym_svd", "eigen.dense", None),
    ("ttdmrg.tt", "inner", "tt.inner", None),
    ("ttdmrg.twolevel", "inner", "tt.inner", None),
    ("ttdmrg.twolevel", "round_tt", "tt.round", None),
    ("ttdmrg.twolevel", "orthogonal_family", "tt.family", None),
    ("ttdmrg.twolevel", "local_solves", "twolevel.local_solves", None),
    ("ttdmrg.twolevel", "assemble_coarse", "twolevel.assemble_coarse", _observe_coarse),
    ("ttdmrg.twolevel", "solve_coarse", "twolevel.solve_coarse", None),
    ("ttdmrg.twolevel", "solve_coarse_structured", "twolevel.solve_coarse", None),
    ("ttdmrg.twolevel", "compress_one_site", "twolevel.compress", None),
    ("ttdmrg.twolevel", "compress_two_site", "twolevel.compress", None),
    ("ttdmrg.twolevel", "compress_two_site_fallback", "twolevel.compress", None),
    ("ttdmrg.twolevel", "fit_chain", "sums.fit_chain", None),
    ("ttdmrg.sums", "TwoSiteChain.member_train", "sums.member_train", None),
    ("ttdmrg.sums", "OneSiteSumFamily.materialize", "sums.materialize", None),
)

POOL_NAME = ("ttdmrg.twolevel", "ThreadPoolExecutor")
POOL_TASK = "twolevel.pool_task"
ROOT = "solve"


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Context manager that spans every layer call while it is active.

    ``spans`` holds one :class:`Span` per call in start order; ``counts``
    holds the counters observed at the same boundaries.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open(self, name, parent):
        span = Span(name, parent)
        self.spans.append(span)
        self._stack().append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack().pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span that is a child of the current one."""
        stack = self._stack()
        span = self._open(name, stack[-1] if stack else None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.call(name, fn, *args, **kwargs)
            if observe is not None:
                with tracer._lock:
                    observe(tracer.counts, out)
            return out

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def task():
                    span = tracer._open(POOL_TASK, parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._close(span)

                return super().submit(task)

        return TracedPool

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        try:
            for module_name, path, name, observe in LAYER_NAMES:
                owner, attr = _resolve(module_name, path)
                self._rebind(owner, attr, self._wrap(vars(owner)[attr], name, observe))
            owner, attr = _resolve(*POOL_NAME)
            self._rebind(owner, attr, self._pool_class(vars(owner)[attr]))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Duration of each span minus the part of it its children cover.

    Children on other threads may overlap each other, so coverage is the
    length of the union of their intervals, clipped to the parent's.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(id(s), ())
            if c.end > s.start and c.start < s.end
        ]
        out[id(s)] = (s.end - s.start) - _union_length(covered)
    return out


def _has_ancestor(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def summarize(spans):
    """Per span name: call count, inclusive time of the outermost calls,
    and self time."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[id(s)]
        if not _has_ancestor(s, s.name):
            row["inclusive_s"] += s.end - s.start
    return out


def pool_busy_time(spans, phase):
    """Summed duration of pool tasks submitted from inside ``phase``."""
    return sum(s.end - s.start for s in spans if s.name == POOL_TASK and _has_ancestor(s, phase))
