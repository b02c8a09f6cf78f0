"""The four benchmark workloads.

A workload builds its networks and inputs from the seed (``build``),
calibrates its networks (``calibrate``, which passes each
``calibrate_c`` call through ``run`` so the caller can time it), and
hands out its round of ops (``ops``).  Every round of a workload has the same make-up, so a run of
whole rounds has the same mix of cheap and dear ops whatever the seed
and however many rounds fit in the time.  An op is a thunk that
returns the network steps it ran and raises ``OpFailed`` when an output
disagrees with its oracle.

Library functions are always looked up on their module at call time
(``aug.ann_run``, never a name imported into this file), so the traced
run sees the benchmark's own calls into each layer.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product

from exactrnn import augmented as aug
from exactrnn import cli, compiler, machines, network, nonuniform, zoo

import oracles
from oracles import expect, kind

MACHINE_BOUND = 10 ** 6


def call(fn):
    return fn()


def random_word(rng, n):
    return "".join("1" if rng.getrandbits(1) else "0" for _ in range(n))


# ==========================================================================
# compiled-verify


class CompiledVerify:
    """verify traffic: words through compiled parity and Dyck nets."""

    name = "compiled-verify"
    EXHAUSTIVE = 4          # every word up to this length, both nets
    LONGEST = 30            # one seeded word of each longer length
    CALIBRATION = 2         # calibrate on every word up to this length

    def build(self, seed, _workdir):
        rng = random.Random(seed)
        ctx = {"parity_tm": zoo.parity_tm()}
        ctx["parity"] = compiler.compile_machine(
            machines.tm_to_stack(ctx["parity_tm"]))
        ctx["dyck"] = compiler.compile_machine(zoo.dyck_sm())
        small = ["".join(b) for n in range(self.EXHAUSTIVE + 1)
                 for b in product("01", repeat=n)]
        longer = range(self.EXHAUSTIVE + 1, self.LONGEST + 1)
        ctx["words"] = {
            "parity": small + [random_word(rng, n) for n in longer],
            "dyck": small + [dyck_prefix(rng, n, n % 2 == 0
                                         and rng.getrandbits(1))
                             for n in longer],
        }
        return ctx

    def _calibration_sets(self, ctx):
        corpus = [w for w in ctx["words"]["parity"]
                  if len(w) <= self.CALIBRATION]
        for name in ("parity", "dyck"):
            net = ctx[name]
            ceiling = max(machines.stack_run(net.machine, w, MACHINE_BOUND).tau
                          for w in corpus)
            yield name, net.cfg, corpus, \
                (lambda net, s: lambda n: net.time_bound(n, s))(net, ceiling)

    def calibrate(self, ctx, run=call):
        ctx["c"] = {name: run(lambda: aug.calibrate_c(cfg, corpus, f).c)
                    for name, cfg, corpus, f in self._calibration_sets(ctx)}

    def check_calibration(self, ctx):
        bad = []
        for name, cfg, corpus, f in self._calibration_sets(ctx):
            bad += truncation_mismatches(cfg, corpus, f, ctx["c"][name])
        return bad

    def ops(self, ctx):
        out = []
        for w in ctx["words"]["parity"]:
            out.append(("parity", lambda w=w: self._parity(ctx, w)))
        for w in ctx["words"]["dyck"]:
            out.append(("dyck", lambda w=w: self._dyck(ctx, w)))
        return out

    def _run_net(self, net, w, s, want):
        d = network.run_word(net.cfg, w, net.time_bound(len(w), s))
        expect(d.kind == want, f"network says {d.kind} on {w!r}, want {want}")
        expect(d.tau == oracles.compiled_tau(len(w), s),
               f"tau {d.tau} on {w!r}, want 6n+5s+6 with s={s}")
        return d.tau

    def _parity(self, ctx, w):
        want = kind(oracles.parity(w))
        m = machines.tm_run(ctx["parity_tm"], w, MACHINE_BOUND)
        expect(m.kind == want, f"tm_run says {m.kind} on {w!r}")
        s = machines.stack_run(ctx["parity"].machine, w, MACHINE_BOUND)
        expect(s.kind == want, f"stack_run says {s.kind} on {w!r}")
        return self._run_net(ctx["parity"], w, s.tau, want)

    def _dyck(self, ctx, w):
        want = kind(oracles.dyck(w))
        s = machines.stack_run(ctx["dyck"].machine, w, MACHINE_BOUND)
        expect(s.kind == want, f"stack_run says {s.kind} on {w!r}")
        return self._run_net(ctx["dyck"], w, s.tau, want)

    def finish(self, _ctx):
        return []


def dyck_prefix(rng, n, balanced):
    """Seeded word that never closes an unopened bracket, balanced if
    asked.  The Dyck machine then reads every bit, so its step count,
    and the op's cost, depend on the length alone, whatever the seed."""
    while True:
        w = random_word(rng, n)
        depth = 0
        for ch in w:
            depth += 1 if ch == "0" else -1
            if depth < 0:
                break
        if depth >= 0 and (depth == 0 or not balanced):
            return w


def truncation_mismatches(cfg, corpus, f, c):
    """Words on which the truncated run at the calibrated c differs from
    the exact run, in kind or in tau."""
    bad = []
    for w in corpus:
        fn = f(len(w))
        got = aug.truncate_run(cfg, aug.TruncationPolicy(c * fn), w, fn)
        want = network.run_word(cfg, w, fn)
        if (got.kind, got.tau) != (want.kind, want.tau):
            bad.append(f"truncated run at c={c} differs on {w!r}")
    return bad


# ==========================================================================
# advice-truncation


def fa(n):
    return 40 * n + 60


def fe(n):
    return 130 * n + 320


class AdviceTruncation:
    """Analog and evolving stream-compare nets against their advice
    machine: exact, interval and truncated runs, large operands."""

    name = "advice-truncation"
    LONGEST = 3             # analog words: every match length up to this
    CALIBRATION = 2         # calibrate the analog net on words up to this
    CLI_MAX_STEPS = 10_000  # the CLI's default --max-steps
    CLI_WORDS = 3           # analog words also run at CLI_MAX_STEPS
    EATER_F = 16            # advice bits the eater replay consumes
    EATER_LEN = 20
    EATER_STEPS = 60_000

    def build(self, seed, _workdir):
        rng = random.Random(seed)
        m = zoo.stream_compare_tma()
        r = zoo.two_thirds_stream()
        eater_m = zoo.advice_eater_tma()
        eater_r = zoo.eater_stream(self.EATER_F)
        ctx = {
            "m": m,
            "adv": machines.advice_from_stream(r, lambda n: n + 1),
            "ann": aug.ann_from_tma(m, r),
            "enn": aug.enn_from_tma(m, r),
            "eater_m": eater_m,
            "eater_adv": machines.advice_from_stream(
                eater_r, lambda n: self.EATER_F),
            "eater": aug.enn_from_tma(eater_m, eater_r),
            "tau": {},
        }
        # materialise every stream prefix the ops will read
        ctx["expansion"] = r.prefix(self.CLI_MAX_STEPS)
        eater_r.prefix(self.EATER_STEPS)
        # each analog word matches the stream for k bits and then
        # differs, for every k < n, plus the full match; bits after the
        # first difference are seeded
        words = []
        for n in range(self.LONGEST + 1):
            for k in range(n):
                flip = "0" if r.bit(k) else "1"
                words.append(r.prefix(k) + flip + random_word(rng, n - k - 1))
            words.append(r.prefix(n))
        ctx["analog_words"] = words
        ctx["cli_words"] = rng.sample(
            [w for w in words if len(w) == self.LONGEST], self.CLI_WORDS)
        ctx["eater_word"] = random_word(rng, self.EATER_LEN)
        return ctx

    def calibrate(self, ctx, run=call):
        corpus = [w for w in ctx["analog_words"]
                  if len(w) <= self.CALIBRATION]
        ctx["ca"] = run(lambda: aug.calibrate_c(ctx["ann"], corpus, fa).c)
        ctx["ce"] = run(lambda: aug.calibrate_c(ctx["enn"], [""], fe).c)

    def check_calibration(self, _ctx):
        return []       # the algo1 and algo2 ops check the calibrated c

    def ops(self, ctx):
        out = [("analog", lambda w=w: self._analog(ctx, w))
               for w in ctx["analog_words"]]
        out += [("analog-cli-budget", lambda w=w: self._analog_cli(ctx, w))
                for w in ctx["cli_words"]]
        out.append(("evolving", lambda: self._evolving(ctx, "")))
        out.append(("eater-replay", lambda: self._eater(ctx)))
        return out

    def _machine(self, ctx, w):
        want = kind(oracles.stream_match(ctx["expansion"], w))
        m = machines.tma_run(ctx["m"], ctx["adv"], w, MACHINE_BOUND)
        expect(m.kind == want, f"tma_run says {m.kind} on {w!r}")
        return want

    def _analog(self, ctx, w):
        want = self._machine(ctx, w)
        d = aug.ann_run(ctx["ann"], w, fa(len(w)))
        expect(d.kind == want, f"ann_run says {d.kind} on {w!r}")
        g = aug.algo1_tma_simulate_ann(ctx["ann"], fa, ctx["ca"], w)
        expect((g.kind, g.tau) == (d.kind, d.tau),
               f"algo1 at c={ctx['ca']} gives {g.kind}@{g.tau} on {w!r}, "
               f"exact {d.kind}@{d.tau}")
        ctx["tau"][w] = d.tau
        return d.tau + g.tau

    def _analog_cli(self, ctx, w):
        want = self._machine(ctx, w)
        d = aug.ann_run(ctx["ann"], w, self.CLI_MAX_STEPS)
        expect((d.kind, d.tau) == (want, ctx["tau"][w]),
               f"ann_run at max_steps {self.CLI_MAX_STEPS} gives "
               f"{d.kind}@{d.tau} on {w!r}")
        return d.tau

    def _evolving(self, ctx, w):
        want = self._machine(ctx, w)
        d = aug.enn_run(ctx["enn"], w, fe(len(w)))
        expect(d.kind == want, f"enn_run says {d.kind} on {w!r}")
        g = aug.algo2_tma_simulate_enn(ctx["enn"], fe, ctx["ce"], w)
        expect((g.kind, g.tau) == (d.kind, d.tau),
               f"algo2 at c={ctx['ce']} gives {g.kind}@{g.tau} on {w!r}, "
               f"exact {d.kind}@{d.tau}")
        return d.tau + g.tau

    def _eater(self, ctx):
        w = ctx["eater_word"]
        m = machines.tma_run(ctx["eater_m"], ctx["eater_adv"], w,
                             MACHINE_BOUND)
        expect(m.kind == "accept", f"eater tma_run says {m.kind}")
        d = aug.enn_run(ctx["eater"], w, self.EATER_STEPS)
        expect(d.kind == "accept", f"eater replay says {d.kind}")
        return d.tau

    def finish(self, _ctx):
        return []


# ==========================================================================
# stochastic-sampling


class StochasticSampling:
    """Thousands of short coin-driven runs on majority-of-3."""

    name = "stochastic-sampling"
    F = 8                   # step budget of algo3 and algo4
    TAU = 4                 # majority-of-3 decides at exactly this step
    TRIALS = 1000           # trials of each kind per round
    BUDGETS = {"coin-divergence": Fraction(1, 5),
               "advice-estimate-failure": Fraction(1, 10),
               "fair-bit-exhaustion": Fraction(1, 16)}

    def build(self, seed, _workdir):
        snn = zoo.majority3_snn(zoo.two_thirds_stream())
        ctx = {
            "seed": seed,
            "snn": snn,
            "snn34": zoo.majority3_snn(zoo.three_quarters_stream()),
            "expansion": snn.prob_stream.prefix(64),
            "counts": dict.fromkeys(self.BUDGETS, 0),
            "trials": {"algo3": 0, "algo4": 0},
        }
        ctx["sizes"] = oracles.algo4_sizes(snn.prob_stream.value, self.F)
        ctx["advice"] = ctx["expansion"][:oracles.ceil_log2(self.F)]
        return ctx

    def f(self, _n):
        return self.F

    def calibrate(self, ctx, run=call):
        ctx["c"] = run(lambda: aug.calibrate_c(ctx["snn"].base, [""],
                                               self.f).c)

    def check_calibration(self, ctx):
        return truncation_mismatches(ctx["snn"].base, [""], self.f, ctx["c"])

    def ops(self, ctx):
        base = ctx["seed"] * self.TRIALS
        out = [("exact-enumeration", lambda: self._exact(ctx))]
        for i in range(base, base + self.TRIALS):
            out.append(("algo3", lambda i=i: self._algo3(ctx, i)))
            out.append(("algo4", lambda i=i: self._algo4(ctx, i)))
            out.append(("mc-pattern", lambda i=i: self._pattern(ctx, i)))
        return out

    def _exact(self, ctx):
        got = aug.snn_run(ctx["snn34"], "", self.TAU)
        expect(got.probability == Fraction(27, 32),
               f"enumeration gives {got.probability}, want 27/32")
        expect(got.decision.kind == "accept", "27/32 must accept")
        return self.TAU * 2 ** self.TAU

    def _algo3(self, ctx, i):
        d, pc = aug.algo3_ptma_simulate_snn(ctx["snn"], self.f, "", seed=i,
                                            paired=True)
        expect(len(pc.choices) == len(pc.ideal) == self.F,
               f"algo3 trial {i} drew {len(pc.choices)} coins")
        expect((d.kind, d.tau) == (kind(oracles.majority3(pc.choices)),
                                   self.TAU),
               f"algo3 trial {i}: {d.kind}@{d.tau} on coins {pc.choices}")
        expect(pc.diverged == (pc.choices != pc.ideal),
               f"algo3 trial {i} misreports divergence")
        ctx["trials"]["algo3"] += 1
        ctx["counts"]["coin-divergence"] += pc.diverged
        return d.tau

    def _algo4(self, ctx, i):
        r = aug.algo4_snn_simulate_ptma(zoo.coin_match_ptm,
                                        ctx["snn"].prob_stream, self.f, "",
                                        seed=i)
        expect((r.k_samples, r.pair_budget) == ctx["sizes"],
               f"algo4 sizes {r.k_samples}, {r.pair_budget}, "
               f"want {ctx['sizes']}")
        expect(len(r.advice_estimate) == len(ctx["advice"]),
               f"algo4 estimate {r.advice_estimate!r} has the wrong length")
        expect(r.prefix_mismatch == (r.advice_estimate != ctx["advice"]),
               f"algo4 trial {i} misreports its prefix mismatch")
        expect(r.decision.kind in ("accept", "reject")
               and r.decision.tau == 1,
               f"coin-match decides {r.decision.kind}@{r.decision.tau}")
        ctx["trials"]["algo4"] += 1
        ctx["counts"]["advice-estimate-failure"] += r.estimate_failed
        ctx["counts"]["fair-bit-exhaustion"] += bool(r.exhaustions)
        return 0

    def _pattern(self, ctx, i):
        got = aug.snn_run(ctx["snn"], "", self.TAU, mode="mc", trials=1,
                          seed=i)
        coins = oracles.mc_pattern(i, ctx["expansion"], self.TAU)
        accepted = oracles.majority3(coins)
        expect(got.probability == (1 if accepted else 0),
               f"pattern {i} on coins {coins} gives {got.probability}")
        expect(got.decision.kind == kind(accepted),
               f"pattern {i} decides {got.decision.kind}")
        return self.TAU

    def finish(self, ctx):
        trials = {"coin-divergence": ctx["trials"]["algo3"],
                  "advice-estimate-failure": ctx["trials"]["algo4"],
                  "fair-bit-exhaustion": ctx["trials"]["algo4"]}
        return [f"{name}: {ctx['counts'][name]} of {trials[name]} trials "
                f"exceeds the budget {budget}"
                for name, budget in self.BUDGETS.items()
                if trials[name] and not oracles.within_budget(
                    ctx["counts"][name], trials[name], budget)]


# ==========================================================================
# codec-cli


README_CORPUS = ["", "0", "1", "01", "0110", "10101"]


class CodecCli:
    """The README's commands, in-process through ``cli.main``."""

    name = "codec-cli"
    VARIANTS = 15           # seeded variants of each command per round
    SUITE_TRIALS = 40
    FAMILY_N, FAMILY_F = 4, 2
    CALIBRATION = 2

    def build(self, seed, workdir):
        rng = random.Random(seed)
        p = str(workdir)
        files = {
            "parity.tm": json.dumps(zoo.parity_tm().to_json()),
            "maj3.snn": json.dumps(
                zoo.majority3_snn(zoo.two_thirds_stream()).to_json()),
            "coin.ptma": json.dumps({"type": "coin-match"}),
            "corpus.txt": "".join((w or "-") + "\n" for w in README_CORPUS),
        }
        ctx = {"dir": workdir, "families": {}, "commands": [],
               "reference": {}}
        for v in range(self.VARIANTS):
            family = self._family(rng)
            files[f"family-{v}.txt"] = "".join(
                ",".join(sorted(m)) + "\n" for m in family)
            ctx["families"][f"{p}/family-{v}.txt"] = set(family)
            s = str(seed * self.VARIANTS + v)
            ctx["commands"] += [
                ["compile", f"{p}/parity.tm", "--out", f"{p}/parity-{v}.rnn"],
                ["verify", f"{p}/parity.tm", f"{p}/parity-{v}.rnn",
                 "--corpus", f"{p}/corpus.txt"],
                ["stochastic-suite", f"{p}/maj3.snn", f"{p}/coin.ptma",
                 "--trials", str(self.SUITE_TRIALS), "--seed", s],
                ["kolmogorov", "--mode", "roundtrip", "--g", "sqrt",
                 "--n-max", "64", "--trials", "20", "--seed", s],
                ["kolmogorov", "--mode", "roundtrip", "--g", "log2",
                 "--n-max", "64", "--trials", "20", "--seed", s],
                ["kolmogorov", "--mode", "kfg", "--g", "log2",
                 "--n-max", "64", "--seed", s],
                ["diagonalize", f"{p}/family-{v}.txt", str(self.FAMILY_N),
                 str(self.FAMILY_F), "--out", f"{p}/slice-{v}.txt"],
            ]
        for name, text in files.items():
            (workdir / name).write_text(text)
        # network steps of the commands that run networks, from the
        # closed forms the other workloads check op by op: each verify
        # word decides at 6n+5s+6, each suite trial at step 4
        sm = machines.tm_to_stack(zoo.parity_tm())
        ctx["net_steps"] = {
            "verify": sum(oracles.compiled_tau(
                len(w), machines.stack_run(sm, w, MACHINE_BOUND).tau)
                for w in README_CORPUS),
            "stochastic-suite": StochasticSampling.TAU * self.SUITE_TRIALS,
        }
        self._command(ctx, ctx["commands"][0])   # the net calibration uses
        return ctx

    def _family(self, rng):
        """Four distinct seeded slices over the diagonal's candidate
        window, each with one more random word."""
        window = [nonuniform.binary_word(i, self.FAMILY_N)
                  for i in range(self.FAMILY_F + 1)]
        family = set()
        while len(family) < 2 ** self.FAMILY_F:
            family.add(frozenset(w for w in window if rng.getrandbits(1))
                       | {random_word(rng, self.FAMILY_N)})
        return sorted(family, key=sorted)

    def _calibration_set(self, ctx):
        nd = json.loads((ctx["dir"] / "parity-0.rnn").read_text())
        cfg = network.RnnConfig.from_json(nd["cfg"])
        probe = machines.StackMachineSpec.from_json(nd["machine"])
        cs = nd["constants"]
        corpus = [w for w in README_CORPUS if len(w) <= self.CALIBRATION]
        ceiling = max(machines.stack_run(probe, w, MACHINE_BOUND).tau
                      for w in corpus)
        return cfg, corpus, \
            lambda n: cs["c_ramp"] + cs["c_step"] * (ceiling + n)

    def calibrate(self, ctx, run=call):
        cfg, corpus, f = self._calibration_set(ctx)
        ctx["c"] = run(lambda: aug.calibrate_c(cfg, corpus, f).c)

    def check_calibration(self, ctx):
        cfg, corpus, f = self._calibration_set(ctx)
        return truncation_mismatches(cfg, corpus, f, ctx["c"])

    def ops(self, ctx):
        return [(argv[0], lambda argv=argv: self._command(ctx, argv))
                for argv in ctx["commands"]]

    def _command(self, ctx, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        expect(code == 0, f"{argv[0]} exits {code}: {err.getvalue()!r}")
        artifact = None
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            with open(path, "rb") as fh:
                artifact = fh.read()
        got = (out.getvalue(), artifact)
        key = tuple(argv)
        ref = ctx["reference"].get(key)
        if ref is None:
            self._check_first(ctx, argv, got)
            ctx["reference"][key] = got
        else:
            expect(got == ref, f"{argv[0]} output differs from its first run")
        return ctx["net_steps"].get(argv[0], 0)

    def _check_first(self, ctx, argv, got):
        records = [json.loads(line) for line in got[0].splitlines()]
        agg = records[-1]
        cmd = argv[0]
        expect(agg.get("record") == "aggregate", f"{cmd} has no aggregate")
        if cmd == "compile":
            net = json.loads(got[1])
            expect(agg["cells"] == net["cfg"]["k"], "compile cell count")
            return
        expect(agg["verdict"] == "pass", f"{cmd} verdict {agg['verdict']}")
        if cmd == "verify":
            words = [r for r in records if r["record"] == "word"]
            expect([r["word"] for r in words] == README_CORPUS,
                   "verify checked another corpus")
            for r in words:
                want = kind(oracles.parity(r["word"]))
                expect(r["machine"] == r["network"] == want,
                       f"verify on {r['word']!r}: {r['machine']}, "
                       f"{r['network']}, want {want}")
        elif cmd == "diagonalize":
            line = got[1].decode().strip()
            out = frozenset() if line == "-" else frozenset(line.split(","))
            expect(out not in ctx["families"][argv[1]],
                   "diagonal slice is in the family")

    def finish(self, _ctx):
        return []


WORKLOADS = {w.name: w for w in (CompiledVerify, AdviceTruncation,
                                 StochasticSampling, CodecCli)}
