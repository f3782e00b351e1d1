//! The shared compiled schedule.
//!
//! [`Schedule::compile`] lowers a [`Netlist`] **once** into a flat array
//! of [`Op`]s over an abstract value arena: slots `0..num_nets` hold the
//! net values, the remaining slots hold constants and expression
//! temporaries. The schedule is pure data — it says nothing about how a
//! slot is represented. Two executors interpret it:
//!
//! * [`RtlSim`](crate::RtlSim) — one [`LogicVec`] per slot (one stimulus
//!   vector per pass);
//! * [`BatchedRtlSim`](crate::BatchedRtlSim) — one
//!   [`PackedVec`](crate::PackedVec) per slot (64 independent stimulus
//!   lanes per pass, PPSFP style).
//!
//! Keeping the compiler in one place guarantees both executors agree on
//! slot numbering, op order, topological ranks and fanout — the batched
//! simulator is *defined* to be 64 copies of the scalar one.

use crate::logic::LogicVec;
use crate::netlist::{Edge, Expr, Item, Netlist};

/// A compiled operation over value-arena slots. `dst` is always a
/// dedicated temporary, so evaluation mutates `dst` in place while
/// reading its operand slots.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `dst = a` (dedicates a net/const root to its node).
    Copy { a: u32, dst: u32 },
    /// `dst = a[bit]`.
    Index { a: u32, bit: u32, dst: u32 },
    /// `dst = a[lo +: width(dst)]`.
    Slice { a: u32, lo: u32, dst: u32 },
    /// `dst = ~a`.
    Not { a: u32, dst: u32 },
    /// `dst = a & b`.
    And { a: u32, b: u32, dst: u32 },
    /// `dst = a | b`.
    Or { a: u32, b: u32, dst: u32 },
    /// `dst = a ^ b`.
    Xor { a: u32, b: u32, dst: u32 },
    /// `dst = (a == b)` — `X` if either side has unknown bits.
    Eq { a: u32, b: u32, dst: u32 },
    /// `dst = sel ? a : b` — all-`X` when `sel` is unknown.
    Mux { sel: u32, a: u32, b: u32, dst: u32 },
    /// `dst = {…parts…}` (first part is the LSB); `parts` indexes the
    /// side table.
    Concat { parts: (u32, u32), dst: u32 },
    /// `dst = ^a`.
    ReduceXor { a: u32, dst: u32 },
    /// `dst = |a`.
    ReduceOr { a: u32, dst: u32 },
}

impl Op {
    pub(crate) fn dst(&self) -> u32 {
        match *self {
            Op::Copy { dst, .. }
            | Op::Index { dst, .. }
            | Op::Slice { dst, .. }
            | Op::Not { dst, .. }
            | Op::And { dst, .. }
            | Op::Or { dst, .. }
            | Op::Xor { dst, .. }
            | Op::Eq { dst, .. }
            | Op::Mux { dst, .. }
            | Op::Concat { dst, .. }
            | Op::ReduceXor { dst, .. }
            | Op::ReduceOr { dst, .. } => dst,
        }
    }
}

/// `(start, end)` range into the op array.
pub(crate) type OpsRange = (u32, u32);

/// A compiled combinational driver.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CombNode {
    /// `assign target = …` — run `ops`, result lands in `src`.
    Assign {
        ops: OpsRange,
        src: u32,
        target: u32,
    },
    /// Asynchronous RAM read port: run `ops` (the read address lands in
    /// `addr`), copy the addressed word — or all-`X` when the address is
    /// unknown/out of range — into `out`.
    RamRead {
        ops: OpsRange,
        addr: u32,
        ram: u32,
        target: u32,
        out: u32,
    },
    /// All tristate drivers of one shared wire, resolved into `acc`.
    Tri {
        target: u32,
        acc: u32,
        drivers: (u32, u32),
    },
}

impl CombNode {
    pub(crate) fn target(&self) -> u32 {
        match *self {
            CombNode::Assign { target, .. }
            | CombNode::RamRead { target, .. }
            | CombNode::Tri { target, .. } => target,
        }
    }
}

/// One tristate driver within a [`CombNode::Tri`] group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TriDriver {
    pub(crate) ops: OpsRange,
    pub(crate) en: u32,
    pub(crate) value: u32,
}

/// A compiled clocked element, sampled on clock edges during a step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SeqNode {
    Dff {
        clock: u32,
        edge: Edge,
        en: Option<(OpsRange, u32)>,
        d: (OpsRange, u32),
        q: u32,
    },
    Ddr {
        clock: u32,
        rise: (OpsRange, u32),
        fall: (OpsRange, u32),
        q: u32,
    },
    RamWrite {
        clock: u32,
        we: (OpsRange, u32),
        waddr: (OpsRange, u32),
        wdata: (OpsRange, u32),
        wmask: Option<(OpsRange, u32)>,
        ram: u32,
        words: u32,
        width: u32,
        /// dedicated slot the read-modify-write word is built in
        word: u32,
    },
}

/// The immutable compiled form of one [`Netlist`]: flat ops, node lists,
/// topological ranks, CSR fanout and arena layout. Both lane instances
/// of [`Sim`](crate::Sim) run it verbatim.
#[derive(Debug, Clone)]
pub(crate) struct Schedule {
    pub(crate) ops: Vec<Op>,
    pub(crate) parts: Vec<u32>,
    pub(crate) comb: Vec<CombNode>,
    pub(crate) tri: Vec<TriDriver>,
    pub(crate) seq: Vec<SeqNode>,
    /// topological rank per comb node (valid when `!fallback_full`)
    pub(crate) rank: Vec<u32>,
    /// CSR fanout: net id → comb nodes reading it
    pub(crate) fanout_off: Vec<u32>,
    pub(crate) fanout: Vec<u32>,
    /// RAM item index → comb nodes reading that RAM
    pub(crate) ram_readers: Vec<Vec<u32>>,
    /// tri-group comb node ids sorted by target net (full-settle order)
    pub(crate) tri_order: Vec<u32>,
    /// nets used as clocks by any sequential node
    pub(crate) clock_nets: Vec<u32>,
    /// cyclic or multiply-driven: activity-driven settling is unsound,
    /// always use the full fixpoint
    pub(crate) fallback_full: bool,
    /// width of every arena slot (nets, then consts and temps)
    pub(crate) widths: Vec<u32>,
    /// `(slot, value)` constants to preload into the arena
    pub(crate) consts: Vec<(u32, LogicVec)>,
}

/// Compiles expression trees into the flat op schedule.
struct Compiler<'a> {
    design: &'a Netlist,
    ops: Vec<Op>,
    parts: Vec<u32>,
    /// width of every slot allocated so far
    widths: Vec<u32>,
    /// `(slot, value)` constants to preload into the arena
    consts: Vec<(u32, LogicVec)>,
    /// nets read by the expressions compiled since the last `take_reads`
    reads: Vec<u32>,
}

impl<'a> Compiler<'a> {
    fn new(design: &'a Netlist) -> Self {
        let widths = design.nets.iter().map(|n| n.width).collect();
        Compiler {
            design,
            ops: Vec::new(),
            parts: Vec::new(),
            widths,
            consts: Vec::new(),
            reads: Vec::new(),
        }
    }

    fn num_nets(&self) -> u32 {
        self.design.nets.len() as u32
    }

    fn slot(&mut self, width: u32) -> u32 {
        self.widths.push(width);
        self.widths.len() as u32 - 1
    }

    /// Compiles `e`, returning the slot its value lives in after the
    /// emitted ops run. Net and const leaves return their own slot
    /// without emitting an op.
    fn compile(&mut self, e: &Expr) -> u32 {
        match e {
            Expr::Const(v) => {
                let dst = self.slot(v.width());
                self.consts.push((dst, v.clone()));
                dst
            }
            Expr::Net(n) => {
                self.reads.push(n.0);
                n.0
            }
            Expr::Index(n, i) => {
                self.reads.push(n.0);
                let dst = self.slot(1);
                self.ops.push(Op::Index {
                    a: n.0,
                    bit: *i,
                    dst,
                });
                dst
            }
            Expr::Slice(n, hi, lo) => {
                self.reads.push(n.0);
                assert!(
                    hi >= lo && *hi < self.widths[n.0 as usize],
                    "slice out of range on {}",
                    self.design.net_name(*n)
                );
                let dst = self.slot(hi - lo + 1);
                self.ops.push(Op::Slice { a: n.0, lo: *lo, dst });
                dst
            }
            Expr::Not(a) => {
                let a = self.compile(a);
                let dst = self.slot(self.widths[a as usize]);
                self.ops.push(Op::Not { a, dst });
                dst
            }
            Expr::And(a, b) => self.compile_binop(a, b, |a, b, dst| Op::And { a, b, dst }),
            Expr::Or(a, b) => self.compile_binop(a, b, |a, b, dst| Op::Or { a, b, dst }),
            Expr::Xor(a, b) => self.compile_binop(a, b, |a, b, dst| Op::Xor { a, b, dst }),
            Expr::Eq(a, b) => {
                let (a, b) = (self.compile(a), self.compile(b));
                assert_eq!(
                    self.widths[a as usize], self.widths[b as usize],
                    "width mismatch in comparison"
                );
                let dst = self.slot(1);
                self.ops.push(Op::Eq { a, b, dst });
                dst
            }
            Expr::Mux { sel, a, b } => {
                let sel = self.compile(sel);
                assert_eq!(self.widths[sel as usize], 1, "mux select must be 1 bit");
                let (a, b) = (self.compile(a), self.compile(b));
                assert_eq!(
                    self.widths[a as usize], self.widths[b as usize],
                    "width mismatch in mux arms"
                );
                let dst = self.slot(self.widths[a as usize]);
                self.ops.push(Op::Mux { sel, a, b, dst });
                dst
            }
            Expr::Concat(ps) => {
                let slots: Vec<u32> = ps.iter().map(|p| self.compile(p)).collect();
                let width = slots.iter().map(|&s| self.widths[s as usize]).sum();
                let p0 = self.parts.len() as u32;
                self.parts.extend_from_slice(&slots);
                let p1 = self.parts.len() as u32;
                let dst = self.slot(width);
                self.ops.push(Op::Concat {
                    parts: (p0, p1),
                    dst,
                });
                dst
            }
            Expr::ReduceXor(a) => {
                let a = self.compile(a);
                let dst = self.slot(1);
                self.ops.push(Op::ReduceXor { a, dst });
                dst
            }
            Expr::ReduceOr(a) => {
                let a = self.compile(a);
                let dst = self.slot(1);
                self.ops.push(Op::ReduceOr { a, dst });
                dst
            }
        }
    }

    fn compile_binop(&mut self, a: &Expr, b: &Expr, mk: fn(u32, u32, u32) -> Op) -> u32 {
        let (a, b) = (self.compile(a), self.compile(b));
        assert_eq!(
            self.widths[a as usize], self.widths[b as usize],
            "width mismatch in binary expression"
        );
        let dst = self.slot(self.widths[a as usize]);
        self.ops.push(mk(a, b, dst));
        dst
    }

    /// Compiles `e` as a node root: the returned `(ops, slot)` pair has a
    /// slot that no other node writes and that is not a live net, so its
    /// value survives until the commit phase.
    fn compile_root(&mut self, e: &Expr) -> (OpsRange, u32) {
        let start = self.ops.len() as u32;
        let mut s = self.compile(e);
        if s < self.num_nets() {
            // a bare net reference: dedicate a temp so deferred commits
            // read the value sampled now, not the net's later value
            let dst = self.slot(self.widths[s as usize]);
            self.ops.push(Op::Copy { a: s, dst });
            s = dst;
        }
        (((start), self.ops.len() as u32), s)
    }

    /// Compiles `e` for an immediately-consumed control value (clock
    /// enables, addresses): no dedication needed.
    fn compile_ctrl(&mut self, e: &Expr) -> (OpsRange, u32) {
        let start = self.ops.len() as u32;
        let s = self.compile(e);
        ((start, self.ops.len() as u32), s)
    }

    fn take_reads(&mut self) -> Vec<u32> {
        let mut r = std::mem::take(&mut self.reads);
        r.sort_unstable();
        r.dedup();
        r
    }
}

impl Schedule {
    /// Compiles `design` into the flat schedule.
    ///
    /// # Panics
    ///
    /// Panics on expression width mismatches (the same errors Verilog
    /// elaboration would reject).
    pub(crate) fn compile(design: &Netlist) -> Schedule {
        let num_nets = design.nets.len();
        let mut c = Compiler::new(design);
        let mut comb: Vec<CombNode> = Vec::new();
        let mut tri: Vec<TriDriver> = Vec::new();
        let mut seq: Vec<SeqNode> = Vec::new();
        let mut node_reads: Vec<Vec<u32>> = Vec::new();
        let mut ram_readers: Vec<Vec<u32>> = vec![Vec::new(); design.items.len()];
        // tristate groups: target net → (comb node index, driver list)
        let mut tri_groups: Vec<(u32, Vec<TriDriver>, Vec<u32>)> = Vec::new();

        for (idx, item) in design.items.iter().enumerate() {
            match item {
                Item::Assign { target, expr } => {
                    let (ops, src) = c.compile_root(expr);
                    comb.push(CombNode::Assign {
                        ops,
                        src,
                        target: target.0,
                    });
                    node_reads.push(c.take_reads());
                }
                Item::Tristate {
                    target,
                    enable,
                    value,
                } => {
                    let (e_ops, en) = c.compile_ctrl(enable);
                    let (v_ops, value) = c.compile_ctrl(value);
                    // one op range covering both (they are contiguous)
                    let driver = TriDriver {
                        ops: (e_ops.0, v_ops.1),
                        en,
                        value,
                    };
                    let reads = c.take_reads();
                    match tri_groups.iter_mut().find(|(t, ..)| *t == target.0) {
                        Some((_, drivers, group_reads)) => {
                            drivers.push(driver);
                            group_reads.extend(reads);
                        }
                        None => tri_groups.push((target.0, vec![driver], reads)),
                    }
                }
                Item::Ram {
                    raddr,
                    rdata,
                    words,
                    width,
                    clock,
                    we,
                    waddr,
                    wdata,
                    wmask,
                    ..
                } => {
                    // asynchronous read port (combinational)
                    let (ops, addr) = c.compile_ctrl(raddr);
                    let out = c.slot(*width);
                    ram_readers[idx].push(comb.len() as u32);
                    comb.push(CombNode::RamRead {
                        ops,
                        addr,
                        ram: idx as u32,
                        target: rdata.0,
                        out,
                    });
                    node_reads.push(c.take_reads());
                    // synchronous write port (sequential)
                    let we = c.compile_ctrl(we);
                    let waddr = c.compile_ctrl(waddr);
                    let wdata = c.compile_ctrl(wdata);
                    let wmask = wmask.as_ref().map(|m| c.compile_ctrl(m));
                    c.reads.clear(); // seq inputs need no fanout edges
                    let word = c.slot(*width);
                    seq.push(SeqNode::RamWrite {
                        clock: clock.0,
                        we,
                        waddr,
                        wdata,
                        wmask,
                        ram: idx as u32,
                        words: *words,
                        width: *width,
                        word,
                    });
                }
                Item::Dff {
                    clock,
                    edge,
                    enable,
                    d,
                    q,
                } => {
                    let en = enable.as_ref().map(|e| c.compile_ctrl(e));
                    let d = c.compile_root(d);
                    c.reads.clear();
                    seq.push(SeqNode::Dff {
                        clock: clock.0,
                        edge: *edge,
                        en,
                        d,
                        q: q.0,
                    });
                }
                Item::DdrFf {
                    clock,
                    d_rise,
                    d_fall,
                    q,
                } => {
                    let rise = c.compile_root(d_rise);
                    let fall = c.compile_root(d_fall);
                    c.reads.clear();
                    seq.push(SeqNode::Ddr {
                        clock: clock.0,
                        rise,
                        fall,
                        q: q.0,
                    });
                }
            }
        }
        // append the tristate groups after the single-driver nodes (per
        // settle pass all nodes read pass-start values, so eval order
        // within a pass is immaterial)
        for (target, drivers, mut reads) in tri_groups {
            let acc = c.slot(design.nets[target as usize].width);
            let d0 = tri.len() as u32;
            tri.extend(drivers);
            let d1 = tri.len() as u32;
            comb.push(CombNode::Tri {
                target,
                acc,
                drivers: (d0, d1),
            });
            reads.sort_unstable();
            reads.dedup();
            node_reads.push(reads);
        }

        // producer per net; multiply-driven wires force the full-settle
        // fallback (activity-driven single-producer reasoning is unsound)
        let mut producer: Vec<Option<u32>> = vec![None; num_nets];
        let mut fallback_full = false;
        for (ni, node) in comb.iter().enumerate() {
            let t = node.target() as usize;
            if producer[t].is_some() {
                fallback_full = true;
            }
            producer[t] = Some(ni as u32);
        }

        // Kahn topological ranking over comb nodes (edges: producer of a
        // read net → reader); a leftover node means a combinational cycle
        let mut rank = vec![0u32; comb.len()];
        if !fallback_full {
            let mut indegree = vec![0u32; comb.len()];
            // adjacency: producer node → reader nodes
            let mut succ: Vec<Vec<u32>> = vec![Vec::new(); comb.len()];
            for (ni, reads) in node_reads.iter().enumerate() {
                for &n in reads {
                    if let Some(p) = producer[n as usize] {
                        succ[p as usize].push(ni as u32);
                        indegree[ni] += 1;
                    }
                }
            }
            let mut queue: Vec<u32> = (0..comb.len() as u32)
                .filter(|&n| indegree[n as usize] == 0)
                .collect();
            let mut next = 0usize;
            let mut placed = 0u32;
            while next < queue.len() {
                let n = queue[next];
                next += 1;
                rank[n as usize] = placed;
                placed += 1;
                for &s in &succ[n as usize] {
                    indegree[s as usize] -= 1;
                    if indegree[s as usize] == 0 {
                        queue.push(s);
                    }
                }
            }
            if (placed as usize) != comb.len() {
                fallback_full = true; // combinational cycle
            }
        }

        // CSR fanout: net → comb nodes reading it
        let mut fanout_off = vec![0u32; num_nets + 1];
        for reads in &node_reads {
            for &n in reads {
                fanout_off[n as usize + 1] += 1;
            }
        }
        for i in 0..num_nets {
            fanout_off[i + 1] += fanout_off[i];
        }
        let mut fanout = vec![0u32; fanout_off[num_nets] as usize];
        let mut cursor = fanout_off.clone();
        for (ni, reads) in node_reads.iter().enumerate() {
            for &n in reads {
                fanout[cursor[n as usize] as usize] = ni as u32;
                cursor[n as usize] += 1;
            }
        }

        let mut tri_order: Vec<u32> = comb
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, CombNode::Tri { .. }))
            .map(|(i, _)| i as u32)
            .collect();
        tri_order.sort_unstable_by_key(|&i| comb[i as usize].target());

        let mut clock_nets: Vec<u32> = seq
            .iter()
            .map(|s| match *s {
                SeqNode::Dff { clock, .. }
                | SeqNode::Ddr { clock, .. }
                | SeqNode::RamWrite { clock, .. } => clock,
            })
            .collect();
        clock_nets.sort_unstable();
        clock_nets.dedup();

        Schedule {
            ops: c.ops,
            parts: c.parts,
            comb,
            tri,
            seq,
            rank,
            fanout_off,
            fanout,
            ram_readers,
            tri_order,
            clock_nets,
            fallback_full,
            widths: c.widths,
            consts: c.consts,
        }
    }
}
