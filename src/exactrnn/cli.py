"""Command line front door.

Subcommands:

  compile           turn a machine file into a network file
  verify            replay a corpus on a machine and its network
  stochastic-suite  measure the coin-replacement error budgets
  diagonalize       build a language slice no family member matches
  kolmogorov        exercise the interleaving codec and its compression check

Determinism is part of the contract.  The only randomness source is the
--seed flag, and records are line-oriented JSON with sorted keys, so a
rerun with the same flags produces byte-identical records.  Wall time is
reported on stderr, never inside a record.

Exit codes: 0 success, 1 a check found a mismatch or an exceeded budget,
2 usage or configuration problems.
"""

import argparse
import json
import math
import random
import sys
import time

from .augmented import (AnnSpec, EnnSpec, SnnSpec, algo3_ptma_simulate_snn,
                        algo4_snn_simulate_ptma, ann_run, enn_run)
from .compiler import C_RAMP, C_STEP, CompiledNetwork, compile_machine
from .errors import (CompileError, ExactRnnError, MachineStuck,
                     PreconditionViolated)
from .machines import (PtmSpec, StackMachineSpec, TmSpec, TmaSpec,
                       advice_from_stream, stack_run, tm_run, tm_to_stack,
                       tma_run)
from .nonuniform import (BoundFunction, check_kfg, family_from_text,
                         halving_diagonal, interleave,
                         interleave_decompressor, recover_prefix,
                         slice_to_line)
from .words import BitStream, check_bitword, fair_word
from .zoo import (coin_match_ptm, double_bound, identity_bound, log2_bound,
                  sqrt_bound)


class UsageError(Exception):
    """Flag or input-file problem; maps to exit code 2."""


# ==========================================================================
# records


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def text_hash(text):
    import hashlib     # loads libcrypto; only record writers pay for it
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def config_hash(obj):
    return text_hash(canonical(obj))


class RecordSink:
    """Collects record lines and writes them in one go.

    One JSON object per line with sorted keys.  A file given via --out
    receives exactly this run's lines (the format itself is append
    friendly), so reruns compare byte for byte.
    """

    def __init__(self, path=None):
        self.path = path
        self.lines = []

    def emit(self, **fields):
        self.lines.append(canonical(fields))

    def flush(self):
        text = "".join(line + "\n" for line in self.lines)
        if self.path is None:
            sys.stdout.write(text)
        else:
            write_text(self.path, text)


# ==========================================================================
# input files


BOUNDS = {
    "log2": log2_bound,
    "sqrt": sqrt_bound,
    "identity": identity_bound,
    "double": double_bound,
}


def read_text(path):
    """Contents of an input file; unreadable or undecodable is exit 2."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not {exc.encoding} text") from exc


def write_text(path, text):
    """Write an output file; a path that cannot be written is exit 2."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def load_json(path):
    try:
        d = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} line {exc.lineno}: not valid JSON") from exc
    if not isinstance(d, dict):
        raise UsageError(f"{path}: top level is not a JSON object")
    return d


# file "type" -> spec class; a network file without one is a compiled net
SPECS = {"tm": TmSpec, "tma": TmaSpec, "ptm": PtmSpec,
         "stack-machine": StackMachineSpec, "ann": AnnSpec, "enn": EnnSpec,
         "snn": SnnSpec, None: CompiledNetwork}


def read_spec(path, d, what, types):
    """The spec of a loaded file whose "type" is one of types (None when
    it has none).  A missing key, or a value of the wrong type or range
    (a list where an object belongs, a zero denominator), in the file is
    a usage error, not a crash."""
    kind = d.get("type")
    if not isinstance(kind, (str, type(None))):
        raise UsageError(f"{path}: \"type\" is not a string")
    if kind not in types:
        raise UsageError(f"{path}: {what} type {kind!r} is not one of "
                         f"{', '.join(map(repr, types))}")
    try:
        return SPECS[kind].from_json(d)
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise UsageError(f"{path}: malformed {what} spec: {exc}") from exc


def stack_form(m):
    """The stack machine a tm or stack-machine spec compiles to."""
    return tm_to_stack(m) if isinstance(m, TmSpec) else m


def load_corpus(path):
    """Words one per line; a lone "-" stands for the empty word.

    Blank lines and lines starting with # are skipped.  Returns the
    canonical order: by length, then lexicographic, duplicates dropped.
    """
    seen = set()
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        w = "" if line == "-" else line
        try:
            check_bitword(w)
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from exc
        seen.add(w)
    return sorted(seen, key=lambda w: (len(w), w))


# ==========================================================================
# compile


def cmd_compile(args, rec):
    d = load_json(args.machine)
    m = read_spec(args.machine, d, "machine", ("tm", "stack-machine"))
    net = compile_machine(stack_form(m))
    text = canonical(net.to_json())
    write_text(args.out, text + "\n")
    rec.emit(record="header", command="compile", seed=None, corpus=None,
             config=config_hash(d))
    rec.emit(record="aggregate", command="compile", cells=net.cfg.k,
             network=text_hash(text),
             constants={"c_ramp": C_RAMP, "c_step": C_STEP})
    return 0


# ==========================================================================
# verify


def _outcome(run, w):
    """Decision kind of run(w), or error:<Name> when it raised.

    Mapping package errors into outcomes makes a corrupted network show
    up as a per-word mismatch (with the word as witness) rather than as
    a crash.
    """
    try:
        return run(w).kind
    except ExactRnnError as exc:
        return "error:" + type(exc).__name__


def _verify_pair(md, nd, args):
    """The machine and the network runner, word -> Decision, of a file
    pair."""
    bound = args.max_steps
    net = read_spec(args.network, nd, "network", (None, "ann", "enn"))
    if isinstance(net, CompiledNetwork):
        m = read_spec(args.machine, md, "machine", ("tm", "stack-machine"))
        # The time envelope counts steps of the machine the network was
        # compiled from, so that must be the machine file's stack form.
        if net.machine.to_json() != stack_form(m).to_json():
            raise UsageError(f"{args.network} was compiled from another "
                             f"machine than {args.machine}")
        run = tm_run if isinstance(m, TmSpec) else stack_run

        def net_run(w):
            try:    # a stuck probe gets the --max-steps envelope too
                steps = net.machine_steps(w, bound)
            except MachineStuck:
                steps = None
            return net.run(w, bound if steps is None else steps)
        return (lambda w: run(m, w, bound)), net_run

    m = read_spec(args.machine, md, "machine", ("tma",))
    evolving = isinstance(net, EnnSpec)
    adv = advice_from_stream(net.evolving_bias if evolving
                             else net.bias_stream, lambda n: bound)
    pb = args.precision_bits
    budget = {} if pb is None else {"start_bits": pb, "max_bits": pb}

    def net_run(w):
        if evolving:
            return enn_run(net, w, bound)
        return ann_run(net, w, bound, **budget)
    return (lambda w: tma_run(m, adv, w, bound)), net_run


def cmd_verify(args, rec):
    if args.precision_bits is not None and args.precision_bits < 1:
        raise UsageError("--precision-bits must be at least 1")
    md = load_json(args.machine)
    nd = load_json(args.network)
    words = load_corpus(args.corpus)
    if words and args.max_steps < max(len(w) for w in words):
        raise UsageError("--max-steps is smaller than the longest corpus word")
    cfg = config_hash({"machine": md, "network": nd,
                       "max_steps": args.max_steps,
                       "precision_bits": args.precision_bits})
    rec.emit(record="header", command="verify", seed=None,
             corpus=config_hash(words), config=cfg)
    if not words:
        print("warning: empty corpus, nothing checked", file=sys.stderr)
        rec.emit(record="aggregate", command="verify", words=0, mismatches=0,
                 witness=None, verdict="pass")
        return 0
    machine_run, net_run = _verify_pair(md, nd, args)
    mismatches = []
    for w in words:
        mk, nk = _outcome(machine_run, w), _outcome(net_run, w)
        agree = mk == nk
        rec.emit(record="word", word=w, machine=mk, network=nk, agree=agree)
        if not agree:
            mismatches.append(w)
    rec.emit(record="aggregate", command="verify", words=len(words),
             mismatches=len(mismatches),
             witness=mismatches[0] if mismatches else None,
             verdict="fail" if mismatches else "pass")
    return 1 if mismatches else 0


# ==========================================================================
# stochastic suite


def cmd_stochastic_suite(args, rec):
    """Empirical rates for the three sampling error budgets.

    Per-budget tolerance is budget + 3 sigma at the trial count, the
    slack a faithful implementation stays inside essentially always.
    """
    if args.trials < 1:
        raise UsageError("--trials must be a positive count")
    if args.max_steps < 1:
        raise UsageError("--max-steps must be a positive step budget")
    sd = load_json(args.snn)
    snn = read_spec(args.snn, sd, "network", ("snn",))
    if snn.prob_stream.value in (None, 0, 1):
        raise UsageError(f"{args.snn}: the coin needs a closed-form "
                         "probability strictly between 0 and 1")
    pd = load_json(args.ptma)
    if pd.get("type") == "coin-match":     # the shipped machine, no spec
        machine_of = coin_match_ptm
    else:
        ptm = read_spec(args.ptma, pd, "machine", ("coin-match", "ptm"))

        def machine_of(_advice):
            return ptm

    def f(_n):
        return args.max_steps

    w = ""
    rec.emit(record="header", command="stochastic-suite", seed=args.seed,
             corpus=None,
             config=config_hash({"snn": sd, "ptma": pd, "f": args.max_steps,
                                 "trials": args.trials, "seed": args.seed}))

    diverged = 0
    for i in range(args.trials):
        _d, pc = algo3_ptma_simulate_snn(snn, f, w,
                                         seed=args.seed * 1_000_003 + i,
                                         paired=True)
        diverged += 1 if pc.diverged else 0

    failed = exhausted = 0
    for i in range(args.trials):
        r = algo4_snn_simulate_ptma(machine_of, snn.prob_stream, f, w,
                                    seed=args.seed * 2_000_003 + i)
        failed += 1 if r.estimate_failed else 0
        exhausted += 1 if r.exhaustions else 0

    checks = [("coin-divergence", diverged, 0.2),
              ("advice-estimate-failure", failed, 0.1),
              ("fair-bit-exhaustion", exhausted, 0.0625)]
    exceeded = 0
    for name, count, budget in checks:
        rate = count / args.trials
        ci95 = 1.96 * math.sqrt(rate * (1 - rate) / args.trials)
        tol = budget + 3 * math.sqrt(budget * (1 - budget) / args.trials)
        ok = rate <= tol
        exceeded += 0 if ok else 1
        rec.emit(record="measurement", check=name, trials=args.trials,
                 count=count, rate=rate, ci95=ci95, budget=budget,
                 tolerance=tol, within=ok)
    rec.emit(record="aggregate", command="stochastic-suite",
             exceeded=exceeded, verdict="pass" if exceeded == 0 else "fail")
    return 0 if exceeded == 0 else 1


# ==========================================================================
# diagonalize and the codec checks


def cmd_diagonalize(args, rec):
    text = read_text(args.family)
    try:
        family = family_from_text(text, args.n)
    except ValueError as exc:
        raise UsageError(f"{args.family}: {exc}") from exc
    result = halving_diagonal(family, args.n, args.f_n)
    escapes = all(result.members != m.members for m in family)
    write_text(args.out, slice_to_line(result) + "\n")
    rec.emit(record="header", command="diagonalize", seed=None, corpus=None,
             config=config_hash({"family": text, "n": args.n,
                                 "f_n": args.f_n}))
    rec.emit(record="aggregate", command="diagonalize", n=args.n,
             f_n=args.f_n, family=len(family), size=len(result.members),
             escapes=escapes, verdict="pass" if escapes else "fail")
    return 0 if escapes else 1


def cmd_kolmogorov(args, rec):
    if args.n_max < 0:
        raise UsageError("--n-max must be a non-negative length")
    g = BOUNDS[args.g]()
    rng = random.Random(args.seed)
    rec.emit(record="header", command="kolmogorov", seed=args.seed,
             corpus=None,
             config=config_hash({"mode": args.mode, "g": args.g,
                                 "n_max": args.n_max, "trials": args.trials,
                                 "seed": args.seed}))
    if args.mode == "roundtrip":
        if args.trials < 1:
            raise UsageError("--trials must be a positive count")
        checked = failures = 0
        witness = None
        for _i in range(args.trials):
            word = fair_word(rng, g(args.n_max) + 1)
            r = BitStream.from_word(word)
            for n in range(args.n_max + 1):
                s = interleave(r, g, n)
                ok = (len(s) == g(n) + n
                      and recover_prefix(s, g, n) == r.prefix(g(n)))
                checked += 1
                if not ok:
                    failures += 1
                    if witness is None:
                        witness = {"n": n, "seed_word": word}
        rec.emit(record="aggregate", command="kolmogorov", mode="roundtrip",
                 checked=checked, failures=failures, witness=witness,
                 verdict="pass" if failures == 0 else "fail")
        return 0 if failures == 0 else 1

    # mode kfg: compress the interleaved stream back through its seed
    seed_stream = BitStream.from_word(fair_word(rng, g(args.n_max) + 1))
    stream = BitStream.from_word(interleave(seed_stream, g, args.n_max))
    margin = BoundFunction("quadratic-margin", lambda n: (n + 2) ** 2)
    report = check_kfg(stream, seed_stream, interleave_decompressor(g),
                       g, margin, args.n_max)
    for line in report.lines():
        rec.emit(record="kfg", line=line)
    rec.emit(record="aggregate", command="kolmogorov", mode="kfg",
             checks=report.checks, ok=report.ok,
             verdict="pass" if report.ok else "fail")
    return 0 if report.ok else 1


# ==========================================================================
# wiring


def build_parser():
    p = argparse.ArgumentParser(
        prog="exactrnn",
        description="compile machines into saturated-linear networks and "
                    "drive the advice and codec toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="machine file to network file")
    c.add_argument("machine", help="machine JSON (type tm or stack-machine)")
    c.add_argument("--out", required=True, help="network file to write")
    c.set_defaults(fn=cmd_compile, records_to_out=False)

    v = sub.add_parser("verify",
                       help="per-word agreement between machine and network")
    v.add_argument("machine", help="machine JSON")
    v.add_argument("network", help="network JSON (compiled, ann, or enn)")
    v.add_argument("--corpus", required=True,
                   help="word list, one per line, - for the empty word")
    v.add_argument("--max-steps", type=int, default=10_000,
                   help="machine step bound per word; for ann and enn "
                        "networks also their network step budget")
    v.add_argument("--precision-bits", type=int, default=None,
                   help="bias interval budget for analog networks")
    v.add_argument("--out", default=None, help="record file (default stdout)")
    v.set_defaults(fn=cmd_verify, records_to_out=True)

    s = sub.add_parser("stochastic-suite",
                       help="empirical coin-replacement error rates")
    s.add_argument("snn", help="stochastic network JSON")
    s.add_argument("ptma", help="coin machine JSON (type coin-match or ptm)")
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--max-steps", type=int, default=8,
                   help="simulation step budget f")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None, help="record file (default stdout)")
    s.set_defaults(fn=cmd_stochastic_suite, records_to_out=True)

    d = sub.add_parser("diagonalize",
                       help="slice escaping every family member")
    d.add_argument("family", help="family file, one slice per line")
    d.add_argument("n", type=int, help="word length of the slice")
    d.add_argument("f_n", type=int, help="description budget at this length")
    d.add_argument("--out", required=True, help="slice file to write")
    d.set_defaults(fn=cmd_diagonalize, records_to_out=False)

    k = sub.add_parser("kolmogorov",
                       help="interleaving codec roundtrip and compression "
                            "check")
    k.add_argument("--mode", choices=("roundtrip", "kfg"),
                   default="roundtrip")
    k.add_argument("--g", choices=sorted(BOUNDS), default="log2",
                   help="data bound driving the interleaving")
    k.add_argument("--n-max", type=int, default=64)
    k.add_argument("--trials", type=int, default=100,
                   help="random seed words per roundtrip run")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--out", default=None, help="record file (default stdout)")
    k.set_defaults(fn=cmd_kolmogorov, records_to_out=True)
    return p


def main(argv=None):
    t0 = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    rec = RecordSink(args.out if args.records_to_out else None)
    try:
        code = args.fn(args, rec)
        rec.flush()
        return code
    except (UsageError, CompileError, PreconditionViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExactRnnError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"wall time {time.perf_counter() - t0:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
