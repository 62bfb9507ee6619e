"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the seqopt modules from outside the
package: it replaces module attributes and class methods for the duration of
a traced run and puts the originals back afterwards. Every wrapped call
records a span (name, start, end, parent span, op id); spans stay in memory
and are aggregated into per-layer metrics, and written to a file, when the
run ends. Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

perf = time.perf_counter

# autodiff op -> metric family; tmean is left unwrapped because it only
# composes tsum and mul, which are wrapped themselves.
AUTODIFF_OPS = {
    "conv1d": "conv1d", "matmul": "matmul", "softmax": "softmax",
    "logsumexp": "logsumexp",
    "add": "elementwise", "mul": "elementwise", "relu": "elementwise",
    "leaky_relu": "elementwise", "tanh": "elementwise", "exp": "elementwise",
    "log": "elementwise", "tsum": "elementwise",
    "reshape": "shape", "transpose": "shape", "concat": "shape",
    "take_slice": "shape", "gather_last": "shape",
}
OP_FAMILIES = ("matmul", "softmax", "logsumexp", "elementwise", "shape")

# (module, class or None, attribute, span name)
SPAN_POINTS = [
    ("seqopt.nn.layers", "Network", "apply", "layers.apply"),
    ("seqopt.nn.layers", "Network", "refresh", "layers.refresh"),
    ("seqopt.nn.optim", None, "adam_step", "optim.adam_step"),
    ("seqopt.nn.checkpoint", None, "load_checkpoint", "checkpoint.load"),
    ("seqopt.flow", "FlowModel", "velocity", "flow.velocity"),
    ("seqopt.flow", "FlowModel", "velocity_tape", "flow.velocity_tape"),
    ("seqopt.vae", "VaeModel", "decode_probs_tape", "vae.decode_probs_tape"),
    ("seqopt.vae", "VaeModel", "decode_tokens_batch", "vae.decode_tokens_batch"),
    ("seqopt.vae", "VaeModel", "encode_batch", "vae.encode_batch"),
    ("seqopt.predictor", "PredictorModel", "predict_tape", "predictor.predict_tape"),
    ("seqopt.predictor", "PredictorModel", "predict_sequences", "predictor.predict_sequences"),
    ("seqopt.sampling", None, "guided_sample", "sampling.guided_sample"),
    ("seqopt.sampling", None, "euler_step", "sampling.euler_step"),
    ("seqopt.sampling", None, "_objective_tape", "sampling.guidance.fwd"),
    ("seqopt.sampling", None, "initial_latents", "sampling.initial_latents"),
    ("seqopt.seqs", None, "one_hot_batch", "seqs.one_hot_batch"),
    ("seqopt.metrics", None, "compute_metrics", "metrics.compute_metrics"),
    ("seqopt.metrics", None, "median_normalized_fitness", "metrics.median_fitness"),
    ("seqopt.metrics", None, "diversity", "metrics.diversity"),
    ("seqopt.metrics", None, "novelty", "metrics.novelty"),
    ("seqopt.metrics", None, "count_exact_train_matches", "metrics.exact_matches"),
    ("seqopt.harness", None, "run_benchmark", "harness.run_benchmark"),
    ("seqopt.tasks", None, "build_synthetic_task", "tasks.build"),
    ("seqopt.data", None, "difficulty_filter", "data.difficulty_filter"),
    ("seqopt.landscape", None, "synthetic_full_dataset", "landscape.full_dataset"),
    ("seqopt.vae", None, "train_vae", "train.vae"),
    ("seqopt.predictor", None, "train_predictor", "train.predictor"),
    ("seqopt.flow", None, "train_flow", "train.flow"),
]

# Per-layer metrics: (name, unit, better). The order is the order of output.
PER_LAYER = (
    [(f"autodiff.conv1d.{k}", u, "lower") for k, u in
     (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"), ("gflop", "GFLOP"),
      ("gbytes", "GB"))]
    + [(f"autodiff.{fam}.{k}", "s", "lower") for fam in OP_FAMILIES
       for k in ("fwd_s", "bwd_s")]
    + [("autodiff.backward.sweep_s", "s", "lower"),
       ("autodiff.grad_alloc.count", "count", "lower"),
       ("autodiff.grad_alloc.mb", "MB", "lower"),
       ("autodiff.leaf_grad.useful_ratio", "ratio", "higher"),
       ("layers.apply_s", "s", "lower"),
       ("layers.refresh.calls", "count", "lower"),
       ("layers.refresh.s", "s", "lower"),
       ("layers.collect_grads_s", "s", "lower"),
       ("optim.adam_step.calls", "count", "lower"),
       ("optim.adam_step.s", "s", "lower"),
       ("flow.velocity_s", "s", "lower"),
       ("flow.velocity_tape_s", "s", "lower"),
       ("vae.decode_probs_tape_s", "s", "lower"),
       ("vae.decode_tokens_batch_s", "s", "lower"),
       ("vae.encode_batch_s", "s", "lower"),
       ("predictor.predict_tape_s", "s", "lower"),
       ("predictor.predict_sequences_s", "s", "lower"),
       ("sampling.euler_step_s", "s", "lower"),
       ("sampling.guidance.fwd_s", "s", "lower"),
       ("sampling.guidance.bwd_s", "s", "lower"),
       ("sampling.initial_latents_s", "s", "lower"),
       ("sampling.select_top_k_s", "s", "lower"),
       ("sampling.guidance_steps.count", "count", "lower"),
       ("sampling.unique_ratio", "ratio", "higher"),
       ("seqs.levenshtein.calls", "count", "lower"),
       ("seqs.levenshtein.rows", "count", "lower"),
       ("seqs.levenshtein.s", "s", "lower"),
       ("seqs.one_hot_batch_s", "s", "lower"),
       ("metrics.median_fitness_s", "s", "lower"),
       ("metrics.diversity_s", "s", "lower"),
       ("metrics.novelty_s", "s", "lower"),
       ("metrics.exact_matches_s", "s", "lower"),
       ("harness.run_jobs_s", "s", "lower"),
       ("harness.worker_busy_s", "s", "lower"),
       ("harness.parallel_efficiency", "ratio", "higher"),
       ("harness.serial_metrics_s", "s", "lower"),
       ("tasks.build_s", "s", "lower"),
       ("data.difficulty_filter_s", "s", "lower"),
       ("landscape.full_dataset_s", "s", "lower"),
       ("checkpoint.load_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)

# Spans whose time is reported only for the outermost call of their layer:
# velocity() calls velocity_tape(), predict_sequences() calls predict_tape(),
# so an inner call is already inside the outer one's time.
OUTERMOST_IN_LAYER = ("flow.", "vae.", "predictor.")


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "attrs")

    def __init__(self, name, parent, op, start=0.0, end=0.0, attrs=None):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict:
    """Span id -> self time: the span's duration minus the part of its
    interval that its children cover (overlapping children, e.g. from worker
    threads, count once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[id(s)] = s.duration - covered
    return out


def conv1d_work(shape, backward: bool) -> tuple[int, int]:
    """(flop, bytes) of conv1d's GEMMs, computed from shapes, float64.

    shape = (B, C_in, L, C_out, k). Forward is one (B*L, C_in*k) x
    (C_in*k, C_out) GEMM; backward is two (weight and input gradient).
    Bytes count each GEMM's operands and result once. Integers, so that
    sums do not depend on the order spans finish in.
    """
    b, cin, length, cout, k = shape
    rows, inner = b * length, cin * k
    flop = 2 * rows * inner * cout
    gemm_bytes = 8 * (rows * inner + inner * cout + rows * cout)
    return (2 * flop, 2 * gemm_bytes) if backward else (flop, gemm_bytes)


class Tracer:
    """Installs timing wrappers, collects spans, and removes the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.counts = defaultdict(float)

    # --- span bookkeeping ---

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, op, key, value):
        with self._lock:
            self.counts[(op, key)] += value

    def call(self, name, fn, args, kwargs, attrs=None):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.op, attrs=attrs)
        stack.append(span)
        span.start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf()
            stack.pop()
            self.spans.append(span)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return wrapper

    # --- installation ---

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module_name, attr, new_factory):
        """Replace a function everywhere the package holds it: its defining
        module and every seqopt module that imported it by name."""
        original = getattr(sys.modules[module_name], attr)
        new = new_factory(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "seqopt" or name.startswith("seqopt.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import seqopt  # noqa: F401  (loads every submodule)
        from seqopt.nn import autodiff
        from seqopt.nn.layers import Network

        for op, family in AUTODIFF_OPS.items():
            self._patch_function("seqopt.nn.autodiff", op,
                                 lambda fn, op=op, family=family: self._op_wrapper(fn, op, family))
        tensor = autodiff.Tensor
        self._patch(tensor, "backward", self._backward_wrapper(tensor.backward))
        self._patch(tensor, "_accumulate", self._accumulate_wrapper(tensor._accumulate))
        for module_name, cls, attr, span in SPAN_POINTS:
            if cls is None:
                self._patch_function(module_name, attr, lambda fn, span=span: self.wrap(span, fn))
            else:
                owner = getattr(sys.modules[module_name], cls)
                self._patch(owner, attr, self.wrap(span, owner.__dict__[attr]))
        self._patch(Network, "collect_grads", self._collect_wrapper(Network.collect_grads))
        self._patch_function("seqopt.sampling", "guidance_step", self._guidance_wrapper)
        self._patch_function("seqopt.sampling", "_select_top_k", self._select_wrapper)
        self._patch_function("seqopt.seqs", "levenshtein_one_to_many", self._levenshtein_wrapper)
        self._patch_function("seqopt.harness", "run_jobs", self._run_jobs_wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._finish_leaves()

    def set_op(self, op):
        """Start attributing spans and counts to `op`."""
        self._finish_leaves()
        self.op = op

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- wrappers with extra accounting ---

    def _op_wrapper(self, fn, op, family):
        tracer = self
        fwd, bwd = f"autodiff.{family}.fwd", f"autodiff.{family}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if op == "conv1d":
                (b, cin, length), (cout, _, k) = args[0].data.shape, args[1].data.shape
                attrs = {"shape": (b, cin, length, cout, k)}
            out = tracer.call(fwd, fn, args, kwargs, attrs)
            inner = out._backward
            if inner is not None and not getattr(inner, "_traced", False):
                def timed_backward(g):
                    tracer.call(bwd, inner, (g,), {}, attrs)
                timed_backward._traced = True
                out._backward = timed_backward
            return out
        return wrapper

    def _backward_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def backward(root, grad=None):
            tracer._finish_leaves()
            tracer.call("autodiff.backward", fn, (root, grad), {})
            tracer._local.leaves = _leaves_with_grad(root)
            tracer._local.read = set()
        return backward

    def _accumulate_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def accumulate(tensor, g):
            if tensor.grad is None:
                tracer._add(tracer.op, "grad_alloc.count", 1)
                tracer._add(tracer.op, "grad_alloc.bytes", tensor.data.nbytes)
            return fn(tensor, g)
        return accumulate

    def _mark_read(self, tensors):
        read = getattr(self._local, "read", None)
        if read is not None:
            read.update(id(t) for t in tensors)

    def _finish_leaves(self):
        """Settle the leaves of the last backward sweep on this thread: all
        their gradient bytes, and the bytes of those the caller read."""
        leaves = getattr(self._local, "leaves", None)
        if not leaves:
            return
        read = self._local.read
        total = sum(t.grad.nbytes for t in leaves)
        useful = sum(t.grad.nbytes for t in leaves if id(t) in read)
        self._add(self.op, "leaf_grad.total", total)
        self._add(self.op, "leaf_grad.useful", useful)
        self._local.leaves = None

    def _collect_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def collect_grads(net):
            out = tracer.call("layers.collect_grads", fn, (net,), {})
            tracer._mark_read(net._tensors.values())  # the gradients it returned
            return out
        return collect_grads

    def _guidance_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def guidance_step(z, *args, **kwargs):
            out = tracer.call("sampling.guidance_step", fn, (z,) + args, kwargs)
            # guidance reads the gradient of the leaf wrapping the state z
            leaves = getattr(tracer._local, "leaves", None) or ()
            tracer._mark_read(t for t in leaves if t.data is z)
            tracer._finish_leaves()
            return out
        return guidance_step

    def _select_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def select_top_k(decoded, predictor, top_k):
            attrs = {"chains": len(decoded)}
            out = tracer.call("sampling.select_top_k", fn, (decoded, predictor, top_k), {}, attrs)
            attrs["unique"] = len({row.tobytes() for row in decoded})
            return out
        return select_top_k

    def _levenshtein_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def levenshtein_one_to_many(query, targets):
            attrs = {"rows": int(len(targets))}
            return tracer.call("seqs.levenshtein", fn, (query, targets), {}, attrs)
        return levenshtein_one_to_many

    def _run_jobs_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run_jobs(jobs, parallelism=1):
            stack = tracer._stack()
            span = Span("harness.run_jobs", stack[-1] if stack else None, tracer.op,
                        attrs={"workers": max(1, min(parallelism, len(jobs)))})

            def traced_job(job):
                def run():
                    local = tracer._stack()
                    local.append(span)  # worker threads start under run_jobs
                    try:
                        return tracer.call("harness.job", job, (), {})
                    finally:
                        local.pop()
                return run

            stack.append(span)
            span.start = perf()
            try:
                return fn({k: traced_job(j) for k, j in jobs.items()}, parallelism)
            finally:
                span.end = perf()
                stack.pop()
                tracer.spans.append(span)
        return run_jobs

    # --- aggregation ---

    def layer_metrics(self, ops, setup_ops=()) -> dict:
        """Per-layer metrics summed over the spans of `ops`; the set-up
        family (task build, filter, dataset, checkpoint load) is averaged over
        the spans of `setup_ops`."""
        ops, setup_ops = set(ops), set(setup_ops)
        spans = [s for s in self.spans if s.op in ops]
        selfs = self_times(spans)
        out = {name: 0.0 for name, _, _ in PER_LAYER}

        def total(name, outermost=False):
            return sum(s.duration for s in spans if s.name == name
                       and not (outermost and _inside_layer(s)))

        flop = nbytes = 0
        for s in spans:
            fam = s.name.split(".")
            if fam[0] == "autodiff" and fam[-1] in ("fwd", "bwd"):
                out[f"autodiff.{fam[1]}.{fam[-1]}_s"] += selfs[id(s)]
                if fam[1] == "conv1d":
                    f, b = conv1d_work(s.attrs["shape"], fam[-1] == "bwd")
                    flop, nbytes = flop + f, nbytes + b
        out["autodiff.conv1d.gflop"] = flop / 1e9
        out["autodiff.conv1d.gbytes"] = nbytes / 1e9
        out["autodiff.conv1d.calls"] = sum(1 for s in spans if s.name == "autodiff.conv1d.fwd")
        out["autodiff.backward.sweep_s"] = sum(selfs[id(s)] for s in spans
                                               if s.name == "autodiff.backward")
        count = lambda key: sum(v for (op, k), v in self.counts.items() if op in ops and k == key)
        out["autodiff.grad_alloc.count"] = count("grad_alloc.count")
        out["autodiff.grad_alloc.mb"] = count("grad_alloc.bytes") / 1e6
        leaf_total = count("leaf_grad.total")
        out["autodiff.leaf_grad.useful_ratio"] = (count("leaf_grad.useful") / leaf_total
                                                  if leaf_total else 0.0)
        out["layers.apply_s"] = total("layers.apply")
        out["layers.refresh.calls"] = sum(1 for s in spans if s.name == "layers.refresh")
        out["layers.refresh.s"] = total("layers.refresh")
        out["layers.collect_grads_s"] = total("layers.collect_grads")
        out["optim.adam_step.calls"] = sum(1 for s in spans if s.name == "optim.adam_step")
        out["optim.adam_step.s"] = total("optim.adam_step")
        for name in ("flow.velocity", "flow.velocity_tape", "vae.decode_probs_tape",
                     "vae.decode_tokens_batch", "vae.encode_batch",
                     "predictor.predict_tape", "predictor.predict_sequences"):
            out[f"{name}_s"] = total(name, outermost=True)
        out["sampling.euler_step_s"] = total("sampling.euler_step")
        out["sampling.guidance.fwd_s"] = total("sampling.guidance.fwd")
        out["sampling.guidance.bwd_s"] = sum(
            s.duration for s in spans if s.name == "autodiff.backward"
            and s.parent is not None and s.parent.name == "sampling.guidance_step")
        out["sampling.initial_latents_s"] = total("sampling.initial_latents")
        out["sampling.select_top_k_s"] = total("sampling.select_top_k")
        out["sampling.guidance_steps.count"] = sum(1 for s in spans
                                                   if s.name == "sampling.guidance_step")
        selects = [s.attrs for s in spans if s.name == "sampling.select_top_k"]
        chains = sum(a["chains"] for a in selects)
        out["sampling.unique_ratio"] = sum(a["unique"] for a in selects) / chains if chains else 0.0
        lev = [s for s in spans if s.name == "seqs.levenshtein"]
        out["seqs.levenshtein.calls"] = len(lev)
        out["seqs.levenshtein.rows"] = sum(s.attrs["rows"] for s in lev)
        out["seqs.levenshtein.s"] = sum(s.duration for s in lev)
        out["seqs.one_hot_batch_s"] = total("seqs.one_hot_batch")
        for name in ("median_fitness", "diversity", "novelty", "exact_matches"):
            out[f"metrics.{name}_s"] = total(f"metrics.{name}")
        runs = [s for s in spans if s.name == "harness.run_jobs"]
        wall = sum(s.duration for s in runs)
        capacity = sum(s.duration * s.attrs["workers"] for s in runs)
        busy = total("harness.job")
        out["harness.run_jobs_s"] = wall
        out["harness.worker_busy_s"] = busy
        out["harness.parallel_efficiency"] = busy / capacity if capacity else 0.0
        out["harness.serial_metrics_s"] = sum(
            s.duration for s in spans if s.name == "metrics.compute_metrics"
            and s.parent is not None and s.parent.name == "harness.run_benchmark")
        setup = [s for s in self.spans if s.op in setup_ops]
        n_setup = max(1, len(setup_ops))
        for metric, name in (("tasks.build_s", "tasks.build"),
                             ("data.difficulty_filter_s", "data.difficulty_filter"),
                             ("landscape.full_dataset_s", "landscape.full_dataset"),
                             ("checkpoint.load_s", "checkpoint.load")):
            out[metric] = sum(s.duration for s in setup if s.name == name) / n_setup
        return out

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent index, op."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": index.get(id(s.parent)), "op": s.op}) + "\n")


def _inside_layer(span) -> bool:
    """True when an ancestor span belongs to the same model layer."""
    prefix = span.name.split(".")[0] + "."
    if not span.name.startswith(OUTERMOST_IN_LAYER):
        return False
    p = span.parent
    while p is not None:
        if p.name.startswith(prefix):
            return True
        p = p.parent
    return False


def _leaves_with_grad(root) -> list:
    """Leaf tensors (no parents) of root's graph that hold a gradient."""
    leaves, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.parents:
            stack.extend(node.parents)
        elif node.grad is not None:
            leaves.append(node)
    return leaves
