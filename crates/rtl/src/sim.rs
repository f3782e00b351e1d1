//! The compiled RTL simulator, generic over the lane value.
//!
//! [`Sim::new`] compiles the netlist **once** (via the shared
//! [`Schedule`](crate::schedule::Schedule)) into a flat array of ops over
//! a preallocated value arena: slots `0..num_nets` hold the net values,
//! the remaining slots hold constants and expression temporaries. Each
//! combinational item becomes a *node* whose ops evaluate in place (no
//! per-node clones); settling is activity-driven — a CSR fanout (net →
//! reading nodes) feeds a topologically-ranked dirty worklist, so an idle
//! cycle touches only the cone of the nets that actually changed.
//!
//! The engine is written once over a [`LaneValue`] and has two
//! instances: [`RtlSim`] (one lane of [`LogicVec`]) and
//! [`BatchedRtlSim`] (64 lanes of [`PackedVec`], the PPSFP executor: one
//! pass of the schedule advances 64 independent stimulus patterns). Each
//! batched lane is, by construction, bit-identical to a scalar
//! simulation fed the same per-lane inputs:
//!
//! * every op kernel is lane-wise pure (see [`LaneValue`]);
//! * activity-driven dirty propagation unions lanes — a node re-settles
//!   when *any* lane changed, and re-evaluating a node whose inputs are
//!   unchanged in some lane reproduces that lane's value;
//! * clocks must be **lane-uniform** (drive them with
//!   [`Sim::set_u64_all`]): all lanes share one edge schedule. Per-lane
//!   divergence lives in the data path, the enables (committed with lane
//!   masks) and the RAM addresses (gathered and written per lane).
//!
//! Designs with cyclic combinational dependencies or multiply-driven
//! (non-tristate) wires fall back to the full Jacobi fixpoint
//! ([`SettleMode::Full`]), which replicates the original interpreter's
//! pass-batched semantics exactly — including the 1000-pass
//! combinational-loop panic. The full mode stays selectable via
//! [`Sim::set_settle_mode`] so the two schedules can be checked against
//! each other; for acyclic single-driver networks (every wire a unique
//! function of registers and inputs) both settle to the same unique
//! fixpoint, bit for bit.
//!
//! Each [`Sim::step`] applies staged input changes, settles the
//! combinational network, captures every clocked element whose clock saw
//! an edge (with Verilog nonblocking-assignment semantics: all samples
//! happen before any commit), commits, and settles again. Steady-state
//! stepping performs no heap allocation: inputs stage into preallocated
//! per-net buffers, ops reuse their temporaries, RAM writes sample into
//! per-port scratch, and commits copy within existing capacity.

use crate::lane::LaneValue;
use crate::logic::{Logic, LogicVec};
use crate::netlist::{Edge, Expr, Item, NetId, NetKind, Netlist};
use crate::packed::PackedVec;
use crate::schedule::{CombNode, Op, OpsRange, Schedule, SeqNode, TriDriver};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the simulator settles the combinational network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SettleMode {
    /// Iterate every combinational item to a fixpoint each settle (the
    /// interpreter's original algorithm).
    Full,
    /// Evaluate only the topological cone of changed nets (compiled
    /// schedule). Falls back to [`SettleMode::Full`] semantics when the
    /// design is combinationally cyclic or has multiply-driven wires.
    #[default]
    ActivityDriven,
}

/// Read-only expression evaluation against a simulator's current state.
///
/// Assertion monitors observe internal nets through arbitrary [`Expr`]s
/// not present in the compiled schedule. Both the scalar [`RtlSim`] and
/// a single lane of the batched simulator ([`LaneProbe`]) expose that
/// tree-walk evaluation through this trait, so monitor code written once
/// runs unchanged against either executor.
pub trait RtlProbe {
    /// Evaluates `e` against the current settled values.
    fn probe(&mut self, e: &Expr) -> LogicVec;
}

/// Compiled simulation state for one [`Netlist`], over lane value `V`.
///
/// The netlist is compiled once at construction; per-cycle evaluation
/// runs the flat op schedule in place over the value arena. See the
/// module docs for the settling strategy.
#[derive(Debug, Clone)]
pub struct Sim<V: LaneValue> {
    design: Netlist,
    mode: SettleMode,
    /// compiled schedule (immutable after construction)
    sched: Schedule,
    // --- simulation state ---
    /// value arena: `0..num_nets` are net values, then consts and temps
    vals: Vec<V>,
    rams: Vec<Vec<V>>,
    /// staged input writes applied at the start of the next step
    input_stage: Vec<V>,
    staged: Vec<bool>,
    stage_list: Vec<u32>,
    /// previous end-of-step clock-bit values (lane-uniform by contract)
    prev_clk: Vec<Logic>,
    // --- worklist (reused, never reallocated in steady state) ---
    dirty: Vec<bool>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// sampled seq nodes awaiting commit: (seq index, result slot, lanes)
    fired: Vec<(u32, u32, u64)>,
    /// per seq node: the RAM write sampled at the edge
    ports: Vec<V::WritePort>,
    /// full-settle scratch: (target, result, differs-from-pass-start)
    full_assign: Vec<(u32, u32, bool)>,
    steps: u64,
    /// expression/op evaluations performed (a load statistic for Table 3)
    evals: u64,
}

/// The scalar compiled simulator: one lane of four-state [`LogicVec`]s.
pub type RtlSim = Sim<LogicVec>;

/// The bit-parallel batched (PPSFP) simulator: 64 lanes per pass over
/// the same compiled schedule as [`RtlSim`].
pub type BatchedRtlSim = Sim<PackedVec>;

/// A single-lane [`RtlProbe`] view of a simulator, for monitors that
/// evaluate arbitrary expressions against one pattern's state.
pub struct LaneProbe<'a, V: LaneValue = PackedVec> {
    sim: &'a mut Sim<V>,
    lane: usize,
}

impl<V: LaneValue> RtlProbe for LaneProbe<'_, V> {
    fn probe(&mut self, e: &Expr) -> LogicVec {
        self.sim.probe_lane(self.lane, e)
    }
}

impl RtlProbe for RtlSim {
    fn probe(&mut self, e: &Expr) -> LogicVec {
        self.probe_lane(0, e)
    }
}

/// Evaluates `e` against one lane of `values` by tree walk (monitor
/// probes only — the compiled schedule never calls it); `evals` counts
/// expression-node visits.
fn eval_expr<V: LaneValue>(
    design: &Netlist,
    values: &[V],
    lane: usize,
    evals: &mut u64,
    e: &Expr,
) -> LogicVec {
    *evals += 1;
    let mut eval = |e: &Expr| eval_expr(design, values, lane, evals, e);
    let bitwise = |a: LogicVec, b: LogicVec, f: fn(Logic, Logic) -> Logic| {
        debug_assert_eq!(a.width(), b.width(), "operand width mismatch");
        LogicVec::from_bits(a.iter().zip(b.iter()).map(|(x, y)| f(x, y)).collect())
    };
    match e {
        Expr::Const(v) => v.clone(),
        Expr::Net(n) => values[n.0 as usize].get_lane(lane),
        Expr::Index(n, i) => LogicVec::from_bits(vec![values[n.0 as usize].lane_bit(lane, *i)]),
        Expr::Slice(n, hi, lo) => values[n.0 as usize].lane_slice(lane, *hi, *lo),
        Expr::Not(a) => LogicVec::from_bits(eval(a).iter().map(Logic::not).collect()),
        Expr::And(a, b) => bitwise(eval(a), eval(b), Logic::and),
        Expr::Or(a, b) => bitwise(eval(a), eval(b), Logic::or),
        Expr::Xor(a, b) => bitwise(eval(a), eval(b), Logic::xor),
        Expr::Eq(a, b) => {
            let (va, vb) = (eval(a), eval(b));
            if !va.is_known() || !vb.is_known() {
                return LogicVec::xs(1);
            }
            LogicVec::from_bits(vec![Logic::from_bool(va == vb)])
        }
        Expr::Mux { sel, a, b } => match eval(sel).bit(0) {
            Logic::L1 => eval(a),
            Logic::L0 => eval(b),
            _ => LogicVec::xs(design.expr_width(a)),
        },
        Expr::Concat(parts) => {
            let mut bits = Vec::new();
            for p in parts {
                bits.extend(eval(p).iter());
            }
            LogicVec::from_bits(bits)
        }
        Expr::ReduceXor(a) => LogicVec::from_bits(vec![eval(a).reduce_xor()]),
        Expr::ReduceOr(a) => LogicVec::from_bits(vec![eval(a).reduce_or()]),
    }
}

/// Runs `f` on arena slot `dst` with shared access to the whole arena
/// (the slot itself reads as the empty default meanwhile).
#[inline]
fn with_slot<V: LaneValue, R>(vals: &mut [V], dst: u32, f: impl FnOnce(&mut V, &[V]) -> R) -> R {
    let mut d = std::mem::take(&mut vals[dst as usize]);
    let r = f(&mut d, vals);
    vals[dst as usize] = d;
    r
}

impl<V: LaneValue> Sim<V> {
    /// Compiles `design` and initializes the arena; in every lane,
    /// registers take their declared initial values, wires start at `X`,
    /// inputs at `0`.
    ///
    /// # Panics
    ///
    /// Panics on expression width mismatches (the same errors Verilog
    /// elaboration would reject).
    pub fn new(design: &Netlist) -> Self {
        let num_nets = design.nets.len();
        let sched = Schedule::compile(design);

        // --- the value arena ---
        let mut vals: Vec<V> = design
            .nets
            .iter()
            .map(|n| match n.kind {
                NetKind::Reg => n.init.as_ref().map_or_else(|| V::zeros(n.width), V::splat),
                NetKind::Input => V::zeros(n.width),
                NetKind::Wire => V::xs(n.width),
            })
            .collect();
        for w in &sched.widths[num_nets..] {
            vals.push(V::xs(*w));
        }
        for (slot, v) in &sched.consts {
            vals[*slot as usize] = V::splat(v);
        }
        let rams = design
            .items
            .iter()
            .map(|item| match item {
                Item::Ram { words, width, .. } => vec![V::zeros(*width); *words as usize],
                _ => Vec::new(),
            })
            .collect();
        let input_stage = design
            .nets
            .iter()
            .map(|n| match n.kind {
                NetKind::Input => V::zeros(n.width),
                _ => V::default(),
            })
            .collect();
        let ports = sched
            .seq
            .iter()
            .map(|node| match *node {
                SeqNode::RamWrite {
                    words,
                    width,
                    wmask,
                    ..
                } => V::write_port(words, width, wmask.is_some()),
                _ => V::write_port(0, 0, false),
            })
            .collect();

        let seq_len = sched.seq.len();
        let comb_len = sched.comb.len();
        let mut sim = Sim {
            design: design.clone(),
            mode: SettleMode::default(),
            sched,
            vals,
            rams,
            input_stage,
            staged: vec![false; num_nets],
            stage_list: Vec::with_capacity(num_nets),
            prev_clk: vec![Logic::L0; num_nets],
            dirty: vec![false; comb_len],
            heap: BinaryHeap::with_capacity(comb_len + 1),
            fired: Vec::with_capacity(seq_len),
            ports,
            full_assign: Vec::with_capacity(comb_len),
            steps: 0,
            evals: 0,
        };
        for n in 0..comb_len as u32 {
            sim.mark(n);
        }
        sim.settle();
        sim.record_clocks();
        sim
    }

    /// The settle strategy in use.
    pub fn settle_mode(&self) -> SettleMode {
        self.mode
    }

    /// Selects the settle strategy. Both modes produce bit-identical net
    /// values for acyclic single-driver designs; switching is safe at any
    /// step boundary.
    pub fn set_settle_mode(&mut self, mode: SettleMode) {
        self.mode = mode;
    }

    /// The staging buffer of input `net` for the next step. `keep` carries
    /// the applied value into a fresh buffer, for setters that overwrite
    /// only some lanes.
    fn stage_entry(&mut self, net: NetId, keep: bool) -> &mut V {
        let i = net.0 as usize;
        let decl = &self.design.nets[i];
        assert!(
            decl.kind == NetKind::Input,
            "net {} is not an input",
            decl.name
        );
        if !self.staged[i] {
            self.staged[i] = true;
            self.stage_list.push(net.0);
            if keep && V::LANES > 1 {
                self.input_stage[i].assign_from(&self.vals[i]);
            }
        }
        &mut self.input_stage[i]
    }

    /// Stages the same integer into every lane of an input (clocks and
    /// broadcast control); allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input.
    pub fn set_u64_all(&mut self, net: NetId, value: u64) {
        self.stage_entry(net, false).set_all_lanes_u64(value);
    }

    /// Stages **every** lane of an input from per-lane integers — the
    /// bulk-drive fast path (one bit-matrix transpose for 64 lanes).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input, or wider than 64 bits with more
    /// than one lane.
    pub fn set_lanes_u64(&mut self, net: NetId, vals: &V::Words) {
        self.stage_entry(net, false).set_lanes_u64(vals);
    }

    /// Stages all-`X` into one lane of an input (X-injection).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input or `lane` is out of range.
    pub fn set_lane_xs(&mut self, net: NetId, lane: usize) {
        self.stage_entry(net, true).set_lane_xs(lane);
    }

    /// The current value of any net.
    pub fn get(&self, net: NetId) -> &V {
        &self.vals[net.0 as usize]
    }

    /// One lane of a net as a scalar vector (allocates).
    pub fn get_lane(&self, net: NetId, lane: usize) -> LogicVec {
        self.vals[net.0 as usize].get_lane(lane)
    }

    /// One lane of a net as an integer, if fully known (allocation-free).
    pub fn lane_u64(&self, net: NetId, lane: usize) -> Option<u64> {
        self.vals[net.0 as usize].lane_to_u64(lane)
    }

    /// Reads **every** lane of a net as integers; returns the fully-known
    /// lane mask (see [`LaneValue::lanes_u64`]) — the bulk-sample path.
    ///
    /// # Panics
    ///
    /// Panics if the net is wider than 64 bits with more than one lane.
    pub fn lanes_u64(&self, net: NetId, out: &mut V::Words) -> u64 {
        self.vals[net.0 as usize].lanes_u64(out)
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Expression/op evaluations performed so far (the simulator-load
    /// statistic used by the Table 3 harness). Activity-driven settling
    /// legitimately performs far fewer evaluations than the full
    /// fixpoint for the same stimulus; each batched op advances all 64
    /// lanes, so comparing the two instances measures the PPSFP win.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Evaluates an arbitrary expression against one lane's current
    /// values (monitor probes observing internal nets through the same
    /// net-id arena the compiled schedule evaluates into).
    pub fn probe_lane(&mut self, lane: usize, e: &Expr) -> LogicVec {
        eval_expr(&self.design, &self.vals, lane, &mut self.evals, e)
    }

    /// A borrowing [`RtlProbe`] view of one lane.
    pub fn lane_probe(&mut self, lane: usize) -> LaneProbe<'_, V> {
        LaneProbe { sim: self, lane }
    }

    /// Marks a comb node dirty and queues it by topological rank.
    #[inline]
    fn mark(&mut self, node: u32) {
        if !self.dirty[node as usize] {
            self.dirty[node as usize] = true;
            self.heap
                .push(Reverse((self.sched.rank[node as usize], node)));
        }
    }

    /// Marks every comb node reading `net`.
    #[inline]
    fn mark_fanout(&mut self, net: u32) {
        let lo = self.sched.fanout_off[net as usize] as usize;
        let hi = self.sched.fanout_off[net as usize + 1] as usize;
        for i in lo..hi {
            let n = self.sched.fanout[i];
            self.mark(n);
        }
    }

    /// Runs a compiled op range in place over the arena: one kernel call
    /// per op, every lane per call.
    #[inline]
    fn run_ops(&mut self, range: OpsRange) {
        let Sim {
            sched, vals, evals, ..
        } = self;
        for op in &sched.ops[range.0 as usize..range.1 as usize] {
            *evals += 1;
            with_slot(vals, op.dst(), |d, vals| match *op {
                Op::Copy { a, .. } => d.assign_from(&vals[a as usize]),
                Op::Index { a, bit, .. } => d.index_from(&vals[a as usize], bit),
                Op::Slice { a, lo, .. } => d.slice_from(&vals[a as usize], lo),
                Op::Not { a, .. } => d.not_from(&vals[a as usize]),
                Op::And { a, b, .. } => d.and_from(&vals[a as usize], &vals[b as usize]),
                Op::Or { a, b, .. } => d.or_from(&vals[a as usize], &vals[b as usize]),
                Op::Xor { a, b, .. } => d.xor_from(&vals[a as usize], &vals[b as usize]),
                Op::Eq { a, b, .. } => d.eq_from(&vals[a as usize], &vals[b as usize]),
                Op::Mux { sel, a, b, .. } => {
                    d.mux_from(&vals[sel as usize], &vals[a as usize], &vals[b as usize])
                }
                Op::Concat {
                    parts: (p0, p1), ..
                } => {
                    let mut off = 0u32;
                    for &p in &sched.parts[p0 as usize..p1 as usize] {
                        d.place_from(off, &vals[p as usize]);
                        off += sched.widths[p as usize];
                    }
                }
                Op::ReduceXor { a, .. } => d.reduce_xor_from(&vals[a as usize]),
                Op::ReduceOr { a, .. } => d.reduce_or_from(&vals[a as usize]),
            });
        }
    }

    /// Evaluates one comb node; returns `(target net, result slot)`
    /// without committing.
    #[inline]
    fn eval_node(&mut self, id: u32) -> (u32, u32) {
        match self.sched.comb[id as usize] {
            CombNode::Assign { ops, src, target } => {
                self.run_ops(ops);
                (target, src)
            }
            CombNode::RamRead {
                ops,
                addr,
                ram,
                target,
                out,
                ..
            } => {
                self.run_ops(ops);
                let ram = &self.rams[ram as usize];
                with_slot(&mut self.vals, out, |o, vals| {
                    o.ram_gather(&vals[addr as usize], ram)
                });
                (target, out)
            }
            CombNode::Tri {
                target,
                acc,
                drivers,
            } => {
                for di in drivers.0..drivers.1 {
                    let dops = self.sched.tri[di as usize].ops;
                    self.run_ops(dops);
                }
                let tri = &self.sched.tri[drivers.0 as usize..drivers.1 as usize];
                with_slot(&mut self.vals, acc, |a, vals| {
                    a.fill_z();
                    for &TriDriver { en, value, .. } in tri {
                        a.tri_accumulate(&vals[en as usize], &vals[value as usize]);
                    }
                });
                (target, acc)
            }
        }
    }

    /// Copies the lanes `mask` of `result` into `target`; returns whether
    /// the target changed. Allocation-free: the copy reuses capacity.
    #[inline]
    fn commit(&mut self, target: u32, result: u32, mask: u64) -> bool {
        with_slot(&mut self.vals, target, |t, vals| {
            t.merge_masked_changed(&vals[result as usize], mask)
        })
    }

    /// Settles the combinational network (mode- and topology-dependent).
    #[inline]
    fn settle(&mut self) {
        if self.heap.is_empty() {
            return; // nothing marked since the last settle
        }
        if self.mode == SettleMode::Full || self.sched.fallback_full {
            self.settle_full();
        } else {
            self.settle_activity();
        }
    }

    /// Activity-driven settle: drain the dirty worklist in topological
    /// rank order; each node evaluates at most once, and an unchanged
    /// target stops propagation.
    #[inline]
    fn settle_activity(&mut self) {
        while let Some(Reverse((_, n))) = self.heap.pop() {
            if !self.dirty[n as usize] {
                continue; // stale duplicate entry
            }
            self.dirty[n as usize] = false;
            let (target, result) = self.eval_node(n);
            if self.commit(target, result, V::ALL) {
                self.mark_fanout(target);
            }
        }
    }

    /// Full Jacobi fixpoint replicating the interpreter's pass-batched
    /// semantics: every pass evaluates all nodes against pass-start net
    /// values, then commits the changed single-driver targets in item
    /// order, then the resolved tristate targets in net order.
    ///
    /// # Panics
    ///
    /// Panics if the network does not settle within 1000 passes
    /// (combinational loop).
    fn settle_full(&mut self) {
        for _pass in 0..1000 {
            let mut changed = false;
            let mut fa = std::mem::take(&mut self.full_assign);
            fa.clear();
            for id in 0..self.sched.comb.len() as u32 {
                if matches!(self.sched.comb[id as usize], CombNode::Tri { .. }) {
                    continue; // evaluated below, committed last
                }
                let (target, result) = self.eval_node(id);
                fa.push((target, result, false));
            }
            for ti in 0..self.sched.tri_order.len() {
                let id = self.sched.tri_order[ti];
                self.eval_node(id); // result stays in the group's acc slot
            }
            // compare every single-driver result against the pass-start
            // value, then apply the changed ones in item order
            for e in fa.iter_mut() {
                e.2 = self.vals[e.0 as usize] != self.vals[e.1 as usize];
                changed |= e.2;
            }
            for &(target, result, differs) in fa.iter() {
                if differs {
                    self.commit(target, result, V::ALL);
                }
            }
            // tristate targets: compare against the post-assign values
            for ti in 0..self.sched.tri_order.len() {
                let id = self.sched.tri_order[ti];
                let CombNode::Tri { target, acc, .. } = self.sched.comb[id as usize] else {
                    unreachable!()
                };
                changed |= self.commit(target, acc, V::ALL);
            }
            fa.clear();
            self.full_assign = fa;
            if !changed {
                self.heap.clear();
                self.dirty.fill(false);
                return;
            }
        }
        panic!("combinational network did not settle within 1000 passes");
    }

    /// Applies staged inputs, settles, captures clock edges (all lanes in
    /// lockstep — clocks are lane-uniform), commits with lane masks and
    /// settles again.
    pub fn step(&mut self) {
        self.steps += 1;
        // 1. apply staged inputs (changed nets wake their fanout)
        for i in 0..self.stage_list.len() {
            let net = self.stage_list[i] as usize;
            self.staged[net] = false;
            if self.vals[net] != self.input_stage[net] {
                self.vals[net].assign_from(&self.input_stage[net]);
                self.mark_fanout(net as u32);
            }
        }
        self.stage_list.clear();
        // 2. settle so D inputs are coherent with the new primary inputs
        //    (inputs have setup before the edge)
        self.settle();
        // 3. sample clocked elements on detected edges (all samples
        //    before any commit — nonblocking-assignment semantics)
        self.fired.clear();
        for s in 0..self.sched.seq.len() {
            match self.sched.seq[s] {
                SeqNode::Dff {
                    clock, edge, en, d, ..
                } => {
                    if !self.edge_on(clock, edge) {
                        continue;
                    }
                    let lanes = match en {
                        Some((ops, slot)) => {
                            self.run_ops(ops);
                            self.vals[slot as usize].lanes_one(0)
                        }
                        None => V::ALL,
                    };
                    if lanes != 0 {
                        self.run_ops(d.0);
                        self.fired.push((s as u32, d.1, lanes));
                    }
                }
                SeqNode::Ddr {
                    clock, rise, fall, ..
                } => {
                    let src = if self.edge_on(clock, Edge::Pos) {
                        rise
                    } else if self.edge_on(clock, Edge::Neg) {
                        fall
                    } else {
                        continue;
                    };
                    self.run_ops(src.0);
                    self.fired.push((s as u32, src.1, V::ALL));
                }
                SeqNode::RamWrite {
                    clock,
                    we,
                    waddr,
                    wdata,
                    wmask,
                    ram,
                    words,
                    word,
                    ..
                } => {
                    if !self.edge_on(clock, Edge::Pos) {
                        continue;
                    }
                    self.run_ops(we.0);
                    let lanes = self.vals[we.1 as usize].lanes_one(0);
                    if lanes == 0 {
                        continue;
                    }
                    // the data and mask ops run only once some lane
                    // selects a word: the eval count the snapshot goldens
                    // pin depends on this order
                    self.run_ops(waddr.0);
                    if !V::ram_select(
                        &mut self.ports[s],
                        lanes,
                        &self.vals[waddr.1 as usize],
                        words,
                    ) {
                        continue;
                    }
                    self.run_ops(wdata.0);
                    if let Some((mops, _)) = wmask {
                        self.run_ops(mops);
                    }
                    // sample data and mask now — their source nets may be
                    // regs that other seq nodes commit before phase 4
                    let (port, ram) = (&mut self.ports[s], &self.rams[ram as usize]);
                    with_slot(&mut self.vals, word, |w, vals| {
                        let mask = wmask.map(|(_, m)| &vals[m as usize]);
                        V::ram_sample(port, w, ram, &vals[wdata.1 as usize], mask)
                    });
                    self.fired.push((s as u32, word, 0));
                }
            }
        }
        // 4. commit
        for i in 0..self.fired.len() {
            let (s, slot, lanes) = self.fired[i];
            match self.sched.seq[s as usize] {
                SeqNode::Dff { q, .. } | SeqNode::Ddr { q, .. } => {
                    if self.commit(q, slot, lanes) {
                        self.mark_fanout(q);
                    }
                }
                SeqNode::RamWrite { ram, .. } => {
                    let ram = ram as usize;
                    let port = &self.ports[s as usize];
                    if V::ram_commit(port, &self.vals[slot as usize], &mut self.rams[ram]) {
                        for ri in 0..self.sched.ram_readers[ram].len() {
                            let reader = self.sched.ram_readers[ram][ri];
                            self.mark(reader);
                        }
                    }
                }
            }
        }
        // 5. settle combinational logic on the post-edge state
        self.settle();
        self.record_clocks();
    }

    /// Remembers the clock levels for the next step's edge detection.
    fn record_clocks(&mut self) {
        for i in 0..self.sched.clock_nets.len() {
            let cnet = self.sched.clock_nets[i] as usize;
            self.prev_clk[cnet] = self.vals[cnet].clock_bit();
        }
    }

    #[inline]
    fn edge_on(&self, clock: u32, edge: Edge) -> bool {
        let p = self.prev_clk[clock as usize];
        let c = self.vals[clock as usize].clock_bit();
        match edge {
            Edge::Pos => p == Logic::L0 && c == Logic::L1,
            Edge::Neg => p == Logic::L1 && c == Logic::L0,
        }
    }

    /// Exports the simulator's full mutable state as plain data (the
    /// checkpoint layer serializes it). Exporting every arena slot —
    /// nets, constants *and* expression temporaries — makes
    /// [`Sim::import_state`] a pure copy with no re-settle, so a restored
    /// simulator is byte-identical to the one exported. Per-step scratch
    /// (sampled RAM writes) is rewritten before it is read each step and
    /// is deliberately not captured.
    ///
    /// Only legal at a quiescent step boundary: staged inputs applied,
    /// dirty worklist drained. (Every caller in the workspace snapshots
    /// between [`Sim::step`]s, where both hold by construction.)
    pub fn export_state(&self) -> Result<SimState<V::Saved>, String> {
        if !self.stage_list.is_empty() {
            return Err("cannot export with staged inputs pending".to_string());
        }
        if !self.heap.is_empty() {
            return Err("cannot export with an unsettled network".to_string());
        }
        Ok(SimState {
            vals: self.vals.iter().map(V::save).collect(),
            rams: self
                .rams
                .iter()
                .map(|ram| ram.iter().map(V::save).collect())
                .collect(),
            prev_clk: self.prev_clk.iter().map(|l| l.to_char()).collect(),
            steps: self.steps,
            evals: self.evals,
        })
    }

    /// Restores a state exported from a simulator of the same lane type
    /// compiled from the *same* netlist. Shape-checks every slot (arena
    /// length, widths, RAM geometry) and rejects mismatches without
    /// modifying `self`.
    pub fn import_state(&mut self, st: &SimState<V::Saved>) -> Result<(), String> {
        if st.vals.len() != self.vals.len() {
            return Err(format!(
                "arena size mismatch: snapshot has {} slots, design has {}",
                st.vals.len(),
                self.vals.len()
            ));
        }
        if st.rams.len() != self.rams.len() || st.prev_clk.chars().count() != self.prev_clk.len() {
            return Err("RAM/clock table shape mismatch".to_string());
        }
        let mut vals = Vec::with_capacity(st.vals.len());
        for (i, s) in st.vals.iter().enumerate() {
            let v = V::restore(self.vals[i].width(), s)
                .ok_or_else(|| format!("bad value in arena slot {i}"))?;
            vals.push(v);
        }
        let mut rams = Vec::with_capacity(st.rams.len());
        for (r, words) in st.rams.iter().enumerate() {
            if words.len() != self.rams[r].len() {
                return Err(format!("RAM {r} word-count mismatch"));
            }
            let width = self.rams[r].first().map_or(0, V::width);
            let mut ram = Vec::with_capacity(words.len());
            for (a, s) in words.iter().enumerate() {
                let v = V::restore(width, s).ok_or_else(|| format!("bad word {a} in RAM {r}"))?;
                ram.push(v);
            }
            rams.push(ram);
        }
        let prev_clk = st
            .prev_clk
            .chars()
            .map(Logic::from_char)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| "bad clock-level table".to_string())?;
        self.vals = vals;
        self.rams = rams;
        self.prev_clk = prev_clk;
        self.steps = st.steps;
        self.evals = st.evals;
        // the imported arena is settled by the export precondition
        self.heap.clear();
        self.dirty.fill(false);
        self.stage_list.clear();
        self.staged.fill(false);
        Ok(())
    }
}

impl RtlSim {
    /// Schedules an input change for the next [`step`](Sim::step).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input or the width differs.
    pub fn set(&mut self, net: NetId, value: LogicVec) {
        let width = self.stage_entry(net, false).width();
        let name = &self.design.nets[net.0 as usize].name;
        assert_eq!(width, value.width(), "width mismatch on {name}");
        self.input_stage[net.0 as usize].assign_from(&value);
    }

    /// Schedules an input change given as an integer (allocation-free:
    /// the value is staged into a preallocated per-net buffer).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input.
    pub fn set_u64(&mut self, net: NetId, value: u64) {
        self.set_u64_all(net, value);
    }

    /// The current value of a net as an integer, if fully known.
    pub fn get_u64(&self, net: NetId) -> Option<u64> {
        self.get(net).to_u64()
    }

    /// A RAM word, for inspection (`item_index` is the position of the
    /// RAM in the netlist's item list).
    ///
    /// # Panics
    ///
    /// Panics if the item is not a RAM or the address is out of range.
    pub fn ram_word(&self, item_index: usize, addr: usize) -> &LogicVec {
        assert!(matches!(self.design.items[item_index], Item::Ram { .. }));
        &self.rams[item_index][addr]
    }
}

impl BatchedRtlSim {
    /// Stages the same value into **every** lane of an input (clocks and
    /// broadcast control).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input or the width differs.
    pub fn set_all(&mut self, net: NetId, value: &LogicVec) {
        self.stage_entry(net, false).set_all_lanes(value);
    }

    /// Stages one lane of an input from a scalar vector.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input, the width differs, or
    /// `lane >= LANES`.
    pub fn set_lane(&mut self, net: NetId, lane: usize, value: &LogicVec) {
        self.stage_entry(net, true).set_lane(lane, value);
    }

    /// Stages one lane of an input from an integer (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input or `lane >= LANES`.
    pub fn set_lane_u64(&mut self, net: NetId, lane: usize, value: u64) {
        self.stage_entry(net, true).set_lane_u64(lane, value);
    }
}

/// A plain-data export of a [`Sim`]'s full mutable state: every arena
/// slot and RAM word in the lane type's checkpoint encoding, the per-net
/// previous clock levels, and the step/eval counters. Built by
/// [`Sim::export_state`], consumed by [`Sim::import_state`];
/// serialization lives in the checkpoint layer (`la1-core`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState<S> {
    /// Every arena slot (nets, then constants and temporaries).
    pub vals: Vec<S>,
    /// RAM contents, indexed by netlist item then word address.
    pub rams: Vec<Vec<S>>,
    /// Previous end-of-step clock levels, one character per net.
    pub prev_clk: String,
    /// Steps executed.
    pub steps: u64,
    /// Expression/op evaluations performed.
    pub evals: u64,
}

/// [`RtlSim`]'s exported state: four-state strings, MSB first.
pub type RtlState = SimState<String>;

/// [`BatchedRtlSim`]'s exported state: `(value plane, X plane)` words,
/// one word per bit position.
pub type BatchedRtlState = SimState<(Vec<u64>, Vec<u64>)>;
