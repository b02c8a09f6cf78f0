"""Compile stack machines into saturated-linear recurrent networks.

The compiled network runs a fixed five-phase micro-step pipeline per
machine step.  Writing phase(t) for the clock cell active at time t,
one machine step unfolds as:

    phase 0   stack content cells C_s hold the current encodings
    phase 1   B1_s copies C_s; the state one-hot reaches S1
    phase 2   gated latch B2_s, top bit T_s, nonemptiness E_s; state S2
    phase 3   guard (case) cells fire: exactly the one matching row
    phase 4   per-stack operation candidates, next-state lines NXT,
              decision and spike cells
    phase 0   C_s rebuilt from the single live candidate

so C_OP = 5 network steps move one stack through one operation, and
one machine step costs 5 network steps end to end.

Input handling that the symbolic machine gets for free needs real
circuitry here: while the validation line is up, an absorber cell
accumulates the input word as a stack (newest bit on top) using the
push arithmetic; when validation drops, the absorbed content is handed
to the IN stack, a one-shot pulse bootstraps the clock and injects the
reversal state, and the control program first drains IN into OUT so
the oldest bit surfaces.  Machine rows then consume input by popping
OUT.  Timing, with n = |w| and s = machine steps (reversal included in
the cycle count but not in s):

    decision spike at  tau = 6n + 5s + 6
    bound              tau <= C_RAMP + C_STEP * (max(s, 1) + n)

with C_RAMP = 5 and C_STEP = 6, the compiler's own: reading a network
file that records other constants is an error.
"""

from dataclasses import dataclass

from .errors import CompileError
from .machines import Row, StackMachineSpec, TERMINALS, stack_run
from .network import RnnConfig, run_word
from .words import as_rat, delta4

C_RAMP = 5
C_STEP = 6
C_OP = 5
CONSTANTS = {"c_ramp": C_RAMP, "c_step": C_STEP, "c_op": C_OP}

RESERVED_STACKS = ("IN", "OUT")
REV_STATE = "@rev"

# per-op candidate cell and guard weight: pop needs a stronger guard
# because its ungated form 4*B3 - 2*T2 - 7 must stay below zero
BASE_OP_TABLE = {
    "push0": ("cand_push0", 1),
    "push1": ("cand_push1", 1),
    "pop": ("cand_pop", 6),
    "noop": ("cand_noop", 1),
}


class NetBuilder:
    """Incremental sparse-network assembly with named cells."""

    def __init__(self, n_in=2):
        self.n_in = n_in
        self.names = []
        self.h0 = []
        self.w_in = {}
        self.w_res = {}
        self.w_out = {}

    def add(self, name, bias=0, h0=0):
        idx = len(self.names)
        self.names.append(name)
        self.h0.append(as_rat(h0))
        if bias:
            self.w_in[(idx, self.n_in)] = as_rat(bias)
        return idx

    def wire(self, dst, src, w):
        key = (dst, src)
        self.w_res[key] = self.w_res.get(key, as_rat(0)) + as_rat(w)

    def from_input(self, dst, col, w):
        self.w_in[(dst, col)] = as_rat(w)

    def to_output(self, row, src, w=1):
        self.w_out[(row, src)] = as_rat(w)

    def finalize(self):
        return RnnConfig(
            k=len(self.names),
            w_in=self.w_in,
            w_res=self.w_res,
            w_out=self.w_out,
            h0=self.h0,
            n_in=self.n_in,
            cell_names=tuple(self.names),
        )


def add_boot_and_clock(b):
    """Start-up detectors and the five-phase ring counter.

    STARTED rises one step after the validation line drops and stays
    up; PULSE/PULSE2 are one-shot markers of t = n+1 and n+2; the ring
    is kicked once by PULSE2 and then self-sustains.
    """
    ctx = {}
    ctx["started"] = b.add("boot/started", bias=1)
    ctx["started2"] = b.add("boot/started2")
    ctx["pulse"] = b.add("boot/pulse", bias=1)
    ctx["pulse2"] = b.add("boot/pulse2")
    b.wire(ctx["started"], ctx["started"], 1)
    b.from_input(ctx["started"], 1, -1)
    b.wire(ctx["started2"], ctx["started"], 1)
    b.from_input(ctx["pulse"], 1, -1)
    b.wire(ctx["pulse"], ctx["started"], -1)
    b.wire(ctx["pulse2"], ctx["pulse"], 1)
    clk = [b.add(f"clk/{p}") for p in range(5)]
    b.wire(clk[1], clk[0], 1)
    b.wire(clk[1], ctx["pulse2"], 1)
    for p in (2, 3, 4):
        b.wire(clk[p], clk[p - 1], 1)
    b.wire(clk[0], clk[4], 1)
    ctx["clk"] = clk
    return ctx


def add_stack_block(b, name, ctx, handover_src=None):
    """All cells of one stack: the content/pipeline chain, observation
    cells, and the four operation candidates (guards wired later).

    The reserved IN stack gets the input-absorber front end, and its
    content cell takes the hand-over form that holds the absorbed word
    for the two steps between end of input and clock start.
    handover_src names an existing cell to play the absorber's role
    instead: the stack starts out holding whatever that cell presents
    right after the input phase (the analog-bias constructions seed
    their advice stack this way).
    """
    clk = ctx["clk"]
    cells = {}
    pre = f"stack/{name}/"
    cells["content"] = b.add(pre + "content")
    for role in ("b1", "b2", "b3", "top", "top2", "empty",
                 "cand_push0", "cand_push1", "cand_pop", "cand_noop"):
        cells[role] = b.add(pre + role)
    c = cells
    b.wire(c["b1"], c["content"], 1)
    b.wire(c["b2"], c["b1"], 1)
    b.wire(c["b2"], clk[1], 1)
    b.from_input(c["b2"], b.n_in, -1)  # bias -1 via add() would also do
    b.wire(c["b3"], c["b2"], 1)
    b.wire(c["top"], c["b1"], 4)
    b.wire(c["top"], clk[1], 2)
    b.from_input(c["top"], b.n_in, -4)
    b.wire(c["top2"], c["top"], 1)
    b.wire(c["empty"], c["b1"], 4)
    b.wire(c["empty"], clk[1], 4)
    b.from_input(c["empty"], b.n_in, -4)
    b.wire(c["cand_push0"], c["b3"], as_rat("1/4"))
    b.from_input(c["cand_push0"], b.n_in, as_rat("-3/4"))
    b.wire(c["cand_push1"], c["b3"], as_rat("1/4"))
    b.from_input(c["cand_push1"], b.n_in, as_rat("-1/4"))
    b.wire(c["cand_pop"], c["b3"], 4)
    b.wire(c["cand_pop"], c["top2"], -2)
    b.from_input(c["cand_pop"], b.n_in, -7)
    b.wire(c["cand_noop"], c["b3"], 1)
    b.from_input(c["cand_noop"], b.n_in, -1)
    for role in ("cand_push0", "cand_push1", "cand_pop", "cand_noop"):
        b.wire(c["content"], c[role], 1)
    if name == "IN":
        c["abs"] = b.add(pre + "abs", bias=as_rat("-3/4"))
        b.wire(c["abs"], c["abs"], as_rat("1/4"))
        b.from_input(c["abs"], 0, as_rat("1/2"))
        b.from_input(c["abs"], 1, 1)
        handover_src = c["abs"]
    if handover_src is not None:
        # hand-over form: hold until the clock's first latch samples the
        # value, then behave like a plain refresh-at-phase-4 content cell
        b.wire(c["content"], handover_src, 1)
        b.wire(c["content"], c["content"], 1)
        b.from_input(c["content"], 1, -2)
        b.wire(c["content"], ctx["started2"], -2)
        b.wire(c["content"], clk[4], 2)
    return cells


def add_control(b, ctx, machine, stack_cells):
    """One-hot state chain, guard cells, next-state lines, outputs.

    Returns the guard cell indices, aligned with machine.rows.
    """
    states = sorted({r.state for r in machine.rows} |
                    {r.next_state for r in machine.rows
                     if r.next_state not in TERMINALS})
    st = {}
    for q in states:
        st[q] = {
            "s0": b.add(f"state/{q}/s0"),
            "s1": b.add(f"state/{q}/s1"),
            "s2": b.add(f"state/{q}/s2"),
            "next": b.add(f"state/{q}/next"),
        }
        b.wire(st[q]["s0"], st[q]["next"], 1)
        b.wire(st[q]["s1"], st[q]["s0"], 1)
        b.wire(st[q]["s2"], st[q]["s1"], 1)
    b.wire(st[machine.initial]["s1"], ctx["pulse2"], 1)

    guards = []
    for i, row in enumerate(machine.rows):
        pos, neg = [st[row.state]["s2"]], []
        for s, pat in sorted(row.obs.items()):
            sc = stack_cells[s]
            if pat == "*":
                continue
            if pat == "1":
                pos.append(sc["top"])
            elif pat == "0":
                pos.append(sc["empty"])
                neg.append(sc["top"])
            elif pat == "e":
                neg.append(sc["empty"])
        g = b.add(f"case/{i}", bias=-(len(pos) - 1))
        for cell in pos:
            b.wire(g, cell, 1)
        for cell in neg:
            b.wire(g, cell, -1)
        guards.append(g)
        if row.next_state not in TERMINALS:
            b.wire(st[row.next_state]["next"], g, 1)

    dec = b.add("out/decision")
    spike = b.add("out/spike")
    for g, row in zip(guards, machine.rows):
        if row.next_state == "accept":
            b.wire(dec, g, 1)
        if row.next_state in TERMINALS:
            b.wire(spike, g, 1)
    b.to_output(0, dec)
    b.to_output(1, spike)
    return guards


def wire_guard_ops(b, machine, guards, stack_cells, op_table=None):
    """Connect each guard to one operation candidate per stack.

    Rows that leave a stack alone keep its content through the noop
    candidate; a guard firing therefore selects exactly one candidate
    on every stack.  A callable role in op_table wires its own
    candidate: role(b, guard, weight, stack name, the stack's cells).
    """
    table = dict(BASE_OP_TABLE)
    if op_table:
        table.update(op_table)
    for g, row in zip(guards, machine.rows):
        for s, cells in stack_cells.items():
            op = row.ops.get(s, "noop")
            name = op[0] if isinstance(op, tuple) else op
            if name not in table:
                raise CompileError(f"op {op!r} has no candidate template")
            role, weight = table[name]
            if callable(role):
                role(b, g, weight, s, cells)
            else:
                b.wire(cells[role], g, weight)


def wire_program(b, ctx, program, handover=None, op_table=None):
    """Stack blocks, control and guard wiring of an assembled program.

    ctx comes from add_boot_and_clock.  The IN stack absorbs the input;
    handover maps a stack name to the cell it starts out holding (see
    add_stack_block).  Returns the guard cells aligned with
    program.rows.
    """
    handover = handover or {}
    stack_cells = {s: add_stack_block(b, s, ctx, handover.get(s))
                   for s in program.stacks}
    guards = add_control(b, ctx, program, stack_cells)
    wire_guard_ops(b, program, guards, stack_cells, op_table)
    return guards


def assemble_program(sm, allowed_extra=()):
    """Rewrite a stack machine into the compiled form: reserved IN/OUT
    stacks, a reversal state that drains IN into OUT, and input reads
    folded into OUT observations and pops.

    The result never reads the input tape.  Symbolically it expects the
    word preloaded on IN with the newest symbol on top (run it with
    init_stacks={"IN": w[::-1]}); in the network that preload is what
    the input absorber produces.  allowed_extra whitelists op names the
    caller will wire through a custom candidate table."""
    for s in sm.stacks:
        if s in RESERVED_STACKS:
            raise CompileError(f"stack name {s!r} is reserved")
    for row in sm.rows:
        for s, op in row.ops.items():
            name = op[0] if isinstance(op, tuple) else op
            if name not in BASE_OP_TABLE and name not in allowed_extra:
                raise CompileError(f"cannot compile op {op!r}")
    rows = [
        Row(REV_STATE, None, {"IN": "0"}, {"IN": "pop", "OUT": "push0"},
            REV_STATE),
        Row(REV_STATE, None, {"IN": "1"}, {"IN": "pop", "OUT": "push1"},
            REV_STATE),
        Row(REV_STATE, None, {"IN": "e"}, {}, sm.initial),
    ]
    for row in sm.rows:
        obs = dict(row.obs)
        ops = dict(row.ops)
        if row.read in ("0", "1"):
            obs["OUT"] = row.read
            ops["OUT"] = "pop"
        elif row.read == "end":
            obs["OUT"] = "e"
        rows.append(Row(row.state, None, obs, ops, row.next_state))
    stacks = RESERVED_STACKS + tuple(sm.stacks)
    return StackMachineSpec(stacks=stacks, rows=rows, initial=REV_STATE,
                            extra_ops=sm.extra_ops)


@dataclass
class CompiledNetwork:
    cfg: RnnConfig
    machine: StackMachineSpec          # original, pre-rewrite machine
    program: StackMachineSpec          # assembled form actually wired

    @property
    def layout(self):
        return {name: i for i, name in enumerate(self.cfg.cell_names)}

    def time_bound(self, n, machine_steps):
        return C_RAMP + C_STEP * (max(machine_steps, 1) + n)

    def machine_steps(self, w, bound=10 ** 6):
        d = stack_run(self.machine, w, bound)
        if d.kind == "timeout":
            return None
        return d.tau

    def run(self, w, machine_steps=None, want_trace=False, machine_bound=10 ** 6):
        """Drive the network on w with the oracle-derived step budget."""
        if machine_steps is None:
            machine_steps = self.machine_steps(w, machine_bound)
        if machine_steps is None:
            raise ValueError("machine does not halt within the probe bound; "
                             "pass machine_steps explicitly")
        return run_word(self.cfg, w, self.time_bound(len(w), machine_steps),
                        want_trace=want_trace)

    def to_json(self):
        return {
            "cfg": self.cfg.to_json(),
            "layout": dict(sorted(self.layout.items())),
            "constants": dict(CONSTANTS),
            "machine": self.machine.to_json(),
        }

    @classmethod
    def from_json(cls, d):
        """Read a to_json dict; the program is reassembled from machine."""
        cs = d["constants"]
        if any(type(cs[k]) is not int or cs[k] != v    # JSON true is no int
               for k, v in CONSTANTS.items()):
            raise ValueError(f"constants must be the integers {CONSTANTS}")
        if d["machine"].get("type") != "stack-machine":
            raise ValueError("the machine of a compiled network must be of "
                             "type 'stack-machine'")
        machine = StackMachineSpec.from_json(d["machine"])
        net = cls(cfg=RnnConfig.from_json(d["cfg"]), machine=machine,
                  program=assemble_program(machine))
        if (net.cfg.cell_names is None or d["layout"] != net.layout
                or any(type(i) is not int for i in d["layout"].values())):
            raise ValueError("layout must map each of cfg.cell_names to "
                             "its index")
        return net


def compile_machine(sm):
    """Full pipeline: rewrite, build circuitry, wire control, finalize.

    The returned network obeys the documented timing exactly: a word
    accepted or rejected by the machine in s steps is decided by the
    network at tau = 6n + 5(n_rev_cycles + s) + 6 where the reversal
    adds n+1 cycles, giving the closed forms in the module docstring.
    """
    program = assemble_program(sm)
    b = NetBuilder(n_in=2)
    wire_program(b, add_boot_and_clock(b), program)
    return CompiledNetwork(cfg=b.finalize(), machine=sm, program=program)


# --------------------------------------------------------------------------
# stand-alone templates


def build_stack_circuit(op, content_word=""):
    """One stack plus a self-firing guard: a demonstration harness.

    The clock is pre-seeded so t=0 plays phase 0; the content cell
    starts at the encoding of content_word and the guard fires the
    requested op every cycle, so after C_OP steps the content cell
    holds op(content), after 2*C_OP steps op(op(content)), and so on.
    Observation cells are live on the way: top/empty are valid at t=2
    within each cycle.
    """
    if op not in BASE_OP_TABLE:
        raise CompileError(f"unknown op {op!r}")
    b = NetBuilder(n_in=2)
    clk = [b.add(f"clk/{p}", h0=(1 if p == 0 else 0)) for p in range(5)]
    for p in range(1, 5):
        b.wire(clk[p], clk[p - 1], 1)
    b.wire(clk[0], clk[4], 1)
    ctx = {"clk": clk}
    cells = add_stack_block(b, "S", ctx)
    guard = b.add("case/0")
    b.wire(guard, clk[2], 1)
    role, weight = BASE_OP_TABLE[op]
    b.wire(cells[role], guard, weight)
    b.h0[cells["content"]] = delta4(content_word)
    layout = {name: i for i, name in enumerate(b.names)}
    return b.finalize(), layout
