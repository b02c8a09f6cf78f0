"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the library from outside: each
wrapped name is replaced in every ``exactrnn`` module namespace that
bound it (``augmented.step`` is the same function as ``network.step``)
and methods are replaced on their class.  Nothing under ``src/`` is
edited.  Every call becomes a span (name, start, end, parent, op id)
kept in flat arrays until the run ends; self time is a span's duration
minus the durations of its child spans.  Count hooks run after the
callee returns and their cost is charged to no span.
"""

import gzip
import inspect
from array import array
from time import perf_counter_ns

MODULES = ("words", "network", "machines", "compiler", "augmented",
           "nonuniform", "zoo", "cli")

# span name -> (module, attribute path).  Span names are the prefixes of
# the per-layer metric names.
TARGETS = {
    "network.step": ("network", "step"),
    "network.run_word": ("network", "run_word"),
    "network.readout": ("network", "RnnConfig.readout"),
    "words.trunc_frac": ("words", "trunc_frac"),
    "words.BitStream.bit": ("words", "BitStream.bit"),
    "words.BitStream.prefix": ("words", "BitStream.prefix"),
    "machines.stack_run": ("machines", "stack_run"),
    "machines.tm_run": ("machines", "tm_run"),
    "machines.tma_run": ("machines", "tma_run"),
    "machines.ptm_run_with_choices": ("machines", "ptm_run_with_choices"),
    "compiler.compile_machine": ("compiler", "compile_machine"),
    "augmented.ann_run": ("augmented", "ann_run"),
    "augmented.enn_run": ("augmented", "enn_run"),
    "augmented.truncate_run": ("augmented", "truncate_run"),
    "augmented.truncate_config": ("augmented", "truncate_config"),
    "augmented.calibrate_c": ("augmented", "calibrate_c"),
    "augmented.algo1": ("augmented", "algo1_tma_simulate_ann"),
    "augmented.algo2": ("augmented", "algo2_tma_simulate_enn"),
    "augmented.algo3": ("augmented", "algo3_ptma_simulate_snn"),
    "augmented.algo4": ("augmented", "algo4_snn_simulate_ptma"),
    "augmented.snn_run": ("augmented", "snn_run"),
    "augmented.ann_from_tma": ("augmented", "ann_from_tma"),
    "augmented.enn_from_tma": ("augmented", "enn_from_tma"),
    "nonuniform.interleave": ("nonuniform", "interleave"),
    "nonuniform.recover_prefix": ("nonuniform", "recover_prefix"),
    "nonuniform.check_kfg": ("nonuniform", "check_kfg"),
    "nonuniform.halving_diagonal": ("nonuniform", "halving_diagonal"),
    "cli.main": ("cli", "main"),
    "cli.RecordSink.flush": ("cli", "RecordSink.flush"),
}

CLI_COMMANDS = ("compile", "verify", "stochastic-suite", "kolmogorov",
                "diagonalize")


def operand_bits(q):
    """Size of an exact rational as the longer of its two integers."""
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self, package):
        self.modules = {m: getattr(package, m) for m in MODULES}
        self.names = list(TARGETS)
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.incl_ns = [0] * len(self.names)
        self.extra = {}
        self.op = -1
        self.stack = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_t0 = array("q")
        self.span_t1 = array("q")
        self.missing = []
        self._undo = []

    # ------------------------------------------------------------ install

    def install(self):
        hooks = {
            "network.step": self._on_step,
            "words.BitStream.prefix": self._on_prefix,
            "machines.stack_run": self._on_stack_run,
            "compiler.compile_machine": self._on_compile,
            "augmented.ann_run": self._on_ann_run,
            "augmented.calibrate_c": self._on_calibrate,
            "augmented.snn_run": self._on_snn_run,
            "cli.main": self._on_cli_main,
            "cli.RecordSink.flush": self._on_flush,
        }
        for idx, name in enumerate(self.names):
            mod_name, path = TARGETS[name]
            owner = self.modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(idx, orig, hooks.get(name))
            if cls_path:
                self._replace(owner, attr, orig, wrapper)
            else:
                for mod in self.modules.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._replace(mod, key, orig, wrapper)
            if name == "augmented.snn_run":
                self._snn_sig = inspect.signature(orig)

    def _replace(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, idx, fn, post):
        tr = self
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(tr.span_t0)
            tr.span_name.append(idx)
            tr.span_parent.append(parent[0] if parent else -1)
            tr.span_op.append(tr.op)
            tr.span_t0.append(0)
            tr.span_t1.append(0)
            frame = [sid, 0, 0]        # span id, child ns, hook scratch
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tr.span_t0[sid] = t0
                tr.span_t1[sid] = t1
                tr.calls[idx] += 1
                tr.self_ns[idx] += t1 - t0 - frame[1]
                tr.incl_ns[idx] += t1 - t0
                if parent is not None:
                    parent[1] += t1 - t0
            if post is not None:
                post(args, kwargs, result, t1 - t0 - frame[1], frame, parent)
                if parent is not None:
                    parent[1] += perf_counter_ns() - t1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -------------------------------------------------------------- hooks

    def _add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def _max(self, key, value):
        self.extra[key] = max(self.extra.get(key, 0), value)

    def _on_step(self, args, _kw, result, self_ns, _frame, _parent):
        h = result[0].h
        live = [v for v in h if v]
        self._add("step.live", len(live))
        self._add("step.ns_per_cell", self_ns / args[0].k)
        if live:
            self._max("state.peak_bits", max(operand_bits(v) for v in live))

    def _on_prefix(self, args, _kw, _result, _ns, _frame, parent):
        n = args[1]
        self._max("prefix.max_n", n)
        if parent is not None and \
                self.names[self.span_name[parent[0]]] == "augmented.ann_run":
            parent[2] = max(parent[2], n)

    def _on_stack_run(self, _args, _kw, result, _ns, _frame, _parent):
        if result.tau is not None:
            self._add("stack_run.steps", result.tau)

    def _on_compile(self, _args, _kw, result, _ns, _frame, _parent):
        self._add("compiler.cells", result.cfg.k)
        self._add("compiler.w_res_nnz", len(result.cfg.w_res))

    def _on_ann_run(self, _args, _kw, _result, _ns, frame, _parent):
        self._add("ann_run.bias_digits", frame[2])

    def _on_calibrate(self, _args, _kw, result, _ns, _frame, _parent):
        self._add("calibrate_c.sweeps", result.c)

    def _on_snn_run(self, args, kwargs, _result, _ns, _frame, _parent):
        bound = self._snn_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        self._add("snn_run.patterns",
                  2 ** a["tau"] if a["mode"] == "exact" else a["trials"])

    def _on_cli_main(self, args, kwargs, _result, _ns, frame, _parent):
        argv = args[0] if args else kwargs.get("argv")
        cmd = argv[0] if argv else ""
        sid = frame[0]
        self._add(f"cli.{cmd}.ns", self.span_t1[sid] - self.span_t0[sid])
        self._add(f"cli.{cmd}.calls", 1)

    def _on_flush(self, args, _kw, _result, _ns, _frame, _parent):
        self._add("cli.records.bytes",
                  sum(len(line) + 1 for line in args[0].lines))

    # ------------------------------------------------------------ metrics

    def _idx(self, name):
        return self.names.index(name)

    def calls_of(self, name):
        return self.calls[self._idx(name)]

    def self_us(self, name):
        i = self._idx(name)
        return self.self_ns[i] / self.calls[i] / 1e3 if self.calls[i] else 0.0

    def incl_s(self, name):
        i = self._idx(name)
        return self.incl_ns[i] / self.calls[i] / 1e9 if self.calls[i] else 0.0

    def per_s(self, name):
        i = self._idx(name)
        return self.calls[i] / (self.incl_ns[i] / 1e9) if self.incl_ns[i] else 0.0

    def metrics(self):
        """Per-layer metric values, by metric name."""
        x = self.extra
        steps = self.calls_of("network.step")
        sr_ns = self.incl_ns[self._idx("machines.stack_run")]
        ann_calls = self.calls_of("augmented.ann_run")
        out = {
            "network.step.calls": steps,
            "network.step.self_us": self.self_us("network.step"),
            "network.step.us_per_cell":
                x.get("step.ns_per_cell", 0) / steps / 1e3 if steps else 0.0,
            "network.step.live_cells_mean":
                x.get("step.live", 0) / steps if steps else 0.0,
            "network.state.peak_bits": x.get("state.peak_bits", 0),
            "network.readout.self_us": self.self_us("network.readout"),
            "network.run_word.calls": self.calls_of("network.run_word"),
            "network.run_word.self_us": self.self_us("network.run_word"),
            "words.trunc_frac.calls": self.calls_of("words.trunc_frac"),
            "words.trunc_frac.self_us": self.self_us("words.trunc_frac"),
            "words.BitStream.bit.calls": self.calls_of("words.BitStream.bit"),
            "words.BitStream.prefix.max_n": x.get("prefix.max_n", 0),
            "machines.stack_run.calls": self.calls_of("machines.stack_run"),
            "machines.stack_run.steps_per_s":
                x.get("stack_run.steps", 0) / (sr_ns / 1e9) if sr_ns else 0.0,
            "machines.tm_run.self_us": self.self_us("machines.tm_run"),
            "machines.tma_run.self_us": self.self_us("machines.tma_run"),
            "machines.ptm_run_with_choices.self_us":
                self.self_us("machines.ptm_run_with_choices"),
            "compiler.compile_machine.s": self.incl_s("compiler.compile_machine"),
            "compiler.cells": x.get("compiler.cells", 0),
            "compiler.w_res_nnz": x.get("compiler.w_res_nnz", 0),
            "augmented.ann_run.self_us": self.self_us("augmented.ann_run"),
            "augmented.ann_run.bias_digits":
                x.get("ann_run.bias_digits", 0) / ann_calls if ann_calls else 0.0,
            "augmented.enn_run.self_us": self.self_us("augmented.enn_run"),
            "augmented.truncate_run.calls":
                self.calls_of("augmented.truncate_run"),
            "augmented.truncate_config.calls":
                self.calls_of("augmented.truncate_config"),
            "augmented.truncate_config.self_us":
                self.self_us("augmented.truncate_config"),
            "augmented.calibrate_c.sweeps": x.get("calibrate_c.sweeps", 0),
            "augmented.algo1.self_us": self.self_us("augmented.algo1"),
            "augmented.algo2.self_us": self.self_us("augmented.algo2"),
            "augmented.algo3.trials_per_s": self.per_s("augmented.algo3"),
            "augmented.algo4.trials_per_s": self.per_s("augmented.algo4"),
            "augmented.snn_run.patterns": x.get("snn_run.patterns", 0),
            "augmented.ann_from_tma.s": self.incl_s("augmented.ann_from_tma"),
            "augmented.enn_from_tma.s": self.incl_s("augmented.enn_from_tma"),
            "nonuniform.interleave.self_us":
                self.self_us("nonuniform.interleave"),
            "nonuniform.recover_prefix.self_us":
                self.self_us("nonuniform.recover_prefix"),
            "nonuniform.check_kfg.self_us": self.self_us("nonuniform.check_kfg"),
            "nonuniform.halving_diagonal.self_us":
                self.self_us("nonuniform.halving_diagonal"),
            "cli.records.bytes": x.get("cli.records.bytes", 0),
        }
        for cmd in CLI_COMMANDS:
            n = x.get(f"cli.{cmd}.calls", 0)
            key = f"cli.main.{cmd.replace('-', '_')}.s"
            out[key] = x.get(f"cli.{cmd}.ns", 0) / n / 1e9 if n else 0.0
        return out

    def write_spans(self, path):
        """Spans as gzip'd tab-separated rows, parents before children."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid in range(len(self.span_t0)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{self.span_op[sid]}"
                         f"\t{names[self.span_name[sid]]}\t{self.span_t0[sid]}"
                         f"\t{self.span_t1[sid]}\n")
