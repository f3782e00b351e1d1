//! The synthesizable RTL implementation of the LA-1 interface.
//!
//! This is the bottom of the paper's flow: a Verilog-style netlist with
//! the full pin-level protocol —
//!
//! * a single address bus, time-multiplexed: read address sampled at
//!   rising `K`, write address at the following falling edge (`K#`);
//! * 18-pin-style DDR data paths: the output bus `dq` carries the low
//!   half of a word while `K` is high and the high half while `K` is
//!   low, each with even byte parity on `dq_par`;
//! * byte write control: `bw` is sampled with each write data half;
//! * N banks whose output drivers share `dq` through **tristate
//!   buffers** (the paper: "the connection between the control signals
//!   is performed using tristate buffers");
//! * read latency of [`crate::spec::READ_LATENCY`] cycles and
//!   single-cycle write commit, matching the ASM and SystemC levels.
//!
//! [`LaRtl::netlist`] yields the structural design (emit Verilog with
//! [`la1_rtl::Netlist::to_verilog`], extract a transition system for
//! the `la1-smc` checker with [`la1_rtl::Netlist::extract`]);
//! [`LaRtlDriver`] and [`LaRtlBatchDriver`] — the 1- and 64-lane
//! instances of one [`RtlDriver`] — clock the compiled simulator through
//! full protocol cycles.

use crate::spec::{bank_bits, BankOp, LaConfig};
use la1_rtl::{
    BatchedRtlSim, Edge, Expr, LaneValue, LogicVec, NetId, Netlist, PackedVec, RtlSim, Sim,
    SimState, TransitionSystem,
};

/// Net handles of the built design.
#[derive(Debug, Clone)]
pub struct LaRtlNets {
    /// Master clock input.
    pub k: NetId,
    /// Read select input (active high in the model; `R#` is active low
    /// on the pins).
    pub rd_sel: NetId,
    /// Write select input.
    pub wr_sel: NetId,
    /// The single, time-multiplexed address bus.
    pub addr: NetId,
    /// DDR write-data input (one half per edge).
    pub wdata: NetId,
    /// Byte write control for the current data half.
    pub bw: NetId,
    /// Shared DDR read-data output bus.
    pub dq: NetId,
    /// Output parity bus.
    pub dq_par: NetId,
    /// Per-bank data-valid registers.
    pub dv: Vec<NetId>,
    /// Per-bank parity-error wires.
    pub perr: Vec<NetId>,
    /// Per-bank read stage-1 valid registers (property triggers).
    pub rd_v1: Vec<NetId>,
    /// Per-bank write-accepted registers (property triggers).
    pub wr_v0: Vec<NetId>,
    /// Per-bank write-done registers.
    pub wdone: Vec<NetId>,
}

/// A deliberately injected RTL bug, for exercising the verification
/// machinery (every fault must be caught by at least one of: the PSL
/// monitors, the OVL monitors, the symbolic model checker, or the
/// cross-level conformance check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtlFault {
    /// The bank's parity generator inverts byte 0 of every driven half.
    ParityBank(u32),
    /// The bank's data-valid/output stage is one cycle late (read
    /// latency 3 instead of 2) — violates the read-mode property.
    SlowRead(u32),
    /// The bank never raises data valid — reads are silently dropped.
    DeadReadPort(u32),
}

/// The RTL-level LA-1 design.
#[derive(Debug, Clone)]
pub struct LaRtl {
    netlist: Netlist,
    nets: LaRtlNets,
    cfg: LaConfig,
}

impl LaRtl {
    /// Builds the netlist for `config`; `parity_fault` optionally breaks
    /// one bank's parity generator (shorthand for the most common
    /// fault-injection case; see [`LaRtl::build_with_faults`]).
    pub fn build(config: &LaConfig, parity_fault: Option<u32>) -> LaRtl {
        let faults: Vec<RtlFault> = parity_fault.map(RtlFault::ParityBank).into_iter().collect();
        Self::build_with_faults(config, &faults)
    }

    /// Builds the netlist with an arbitrary set of injected faults.
    pub fn build_with_faults(config: &LaConfig, faults: &[RtlFault]) -> LaRtl {
        let parity_fault = faults.iter().find_map(|f| match f {
            RtlFault::ParityBank(b) => Some(*b),
            _ => None,
        });
        let slow_read = faults.iter().find_map(|f| match f {
            RtlFault::SlowRead(b) => Some(*b),
            _ => None,
        });
        let dead_read = faults.iter().find_map(|f| match f {
            RtlFault::DeadReadPort(b) => Some(*b),
            _ => None,
        });
        let cfg = config;
        let mut n = Netlist::new(format!("la1_{}bank", cfg.banks));
        let word_bits = cfg.addr_bits();
        let bbits = bank_bits(cfg.banks);
        let abits = word_bits + bbits;
        let half = cfg.half_width();
        let bytes_per_half = (half / 8).max(1);
        let bits_per_byte = half / bytes_per_half;

        let k = n.input("k", 1);
        let rd_sel = n.input("rd_sel", 1);
        let wr_sel = n.input("wr_sel", 1);
        let addr = n.input("addr", abits);
        let wdata = n.input("wdata", half);
        let bw = n.input("bw", bytes_per_half);

        let dq = n.wire("dq", half);
        let dq_par = n.wire("dq_par", bytes_per_half);
        n.mark_output(dq);
        n.mark_output(dq_par);

        // --- global write capture (single address bus) -----------------
        // W# sampled at rising K; write address at the following K#.
        let wv_g = n.reg("wv_g", 1);
        n.dff_posedge(k, Expr::net(wr_sel), wv_g);
        let wa_g = n.reg("wa_g", abits);
        n.dff_negedge(k, Expr::net(addr), wa_g);
        let wd_lo = n.reg("wd_lo", half);
        n.dff_posedge(k, Expr::net(wdata), wd_lo);
        let wd_hi = n.reg("wd_hi", half);
        n.dff_negedge(k, Expr::net(wdata), wd_hi);
        let bw_lo = n.reg("bw_lo", bytes_per_half);
        n.dff_posedge(k, Expr::net(bw), bw_lo);
        let bw_hi = n.reg("bw_hi", bytes_per_half);
        n.dff_negedge(k, Expr::net(bw), bw_hi);

        // full write word and bit mask
        let wword = n.wire("wword", cfg.word_width);
        n.assign(
            wword,
            Expr::Concat(vec![Expr::net(wd_lo), Expr::net(wd_hi)]),
        );
        let wmask = n.wire("wmask", cfg.word_width);
        let mut mask_parts = Vec::new();
        for half_sel in 0..2u32 {
            let src = if half_sel == 0 { bw_lo } else { bw_hi };
            for byte in 0..bytes_per_half {
                for _ in 0..bits_per_byte {
                    mask_parts.push(Expr::Index(src, byte));
                }
            }
        }
        n.assign(wmask, Expr::Concat(mask_parts));

        // bank decode from the live address bus (valid at the edge that
        // samples it: rising for reads, falling for write accepts)
        let bus_bank_hit = |bank: u32| -> Expr {
            if bbits == 0 {
                Expr::bit(true)
            } else {
                Expr::eq_const(
                    Expr::Slice(addr, abits - 1, word_bits),
                    bank as u64,
                    bbits,
                )
            }
        };
        // bank decode from the captured write address register (valid
        // from the falling edge that loads `wa_g` until the next one)
        let captured_bank_hit = |bank: u32| -> Expr {
            if bbits == 0 {
                Expr::bit(true)
            } else {
                Expr::eq_const(
                    Expr::Slice(wa_g, abits - 1, word_bits),
                    bank as u64,
                    bbits,
                )
            }
        };

        let mut dv_nets = Vec::new();
        let mut perr_nets = Vec::new();
        let mut rd_v1_nets = Vec::new();
        let mut wr_v0_nets = Vec::new();
        let mut wdone_nets = Vec::new();

        for b in 0..cfg.banks {
            // ---- read pipeline ----------------------------------------
            let rd_v1 = n.reg(format!("rd_v1_{b}"), 1);
            n.dff_posedge(k, Expr::and(Expr::net(rd_sel), bus_bank_hit(b)), rd_v1);
            let rd_a1 = n.reg(format!("rd_a1_{b}"), word_bits);
            n.dff_posedge(
                k,
                Expr::Slice(addr, word_bits.saturating_sub(1), 0),
                rd_a1,
            );
            let rd_v2 = n.reg(format!("rd_v2_{b}"), 1);
            n.dff_posedge(k, Expr::net(rd_v1), rd_v2);
            let rd_a2 = n.reg(format!("rd_a2_{b}"), word_bits);
            n.dff_posedge(k, Expr::net(rd_a1), rd_a2);
            // LA-1B burst extension: second-beat valid flag and
            // auto-incremented address (the protocol spaces reads so the
            // shared read port is free on the beat's cycle)
            let burst_regs = if cfg.is_burst() {
                let rd_b2 = n.reg(format!("rd_b2_{b}"), 1);
                n.dff_posedge(k, Expr::net(rd_v2), rd_b2);
                let rd_a2b = n.reg(format!("rd_a2b_{b}"), word_bits);
                n.dff_posedge(k, increment(rd_a2, word_bits), rd_a2b);
                Some((rd_b2, rd_a2b))
            } else {
                None
            };

            // ---- SRAM bank --------------------------------------------
            // the read port addresses the array with the stage-2 address
            // so the output stage samples memory at the same instant the
            // ASM and SystemC levels do (a write committing on the same
            // edge is not yet visible — read-before-write)
            let rdata = n.wire(format!("rdata_{b}"), cfg.word_width);
            let we = n.wire(format!("we_{b}"), 1);
            n.assign(we, Expr::and(Expr::net(wv_g), captured_bank_hit(b)));
            let raddr = match burst_regs {
                Some((rd_b2, rd_a2b)) => Expr::mux(
                    Expr::net(rd_v2),
                    Expr::net(rd_a2),
                    Expr::mux(Expr::net(rd_b2), Expr::net(rd_a2b), Expr::net(rd_a2)),
                ),
                None => Expr::net(rd_a2),
            };
            n.ram(
                k,
                Expr::net(we),
                Expr::Slice(wa_g, word_bits.saturating_sub(1), 0),
                Expr::net(wword),
                Some(Expr::net(wmask)),
                raddr,
                rdata,
                cfg.words_per_bank,
                cfg.word_width,
            );

            // write bookkeeping: per-bank accept (set at the falling edge
            // once the address identifies the bank) and done flag. The
            // bank is decoded from the live `addr` bus — `wa_g` is
            // registered by this same falling edge, so a nonblocking
            // sample of it would see the *previous* write's address and
            // pulse done on the wrong bank.
            let wr_v0 = n.reg(format!("wr_v0_{b}"), 1);
            n.dff_negedge(k, Expr::and(Expr::net(wv_g), bus_bank_hit(b)), wr_v0);
            let wdone = n.reg(format!("wdone_{b}"), 1);
            n.dff_posedge(k, Expr::net(wr_v0), wdone);

            // ---- output stage -----------------------------------------
            // fault hooks: a slow read adds a pipeline stage; a dead
            // read port never asserts dv
            let healthy_dv = match burst_regs {
                Some((rd_b2, _)) => Expr::or(Expr::net(rd_v2), Expr::net(rd_b2)),
                None => Expr::net(rd_v2),
            };
            let dv_src = if slow_read == Some(b) {
                let rd_v3 = n.reg(format!("rd_v3_{b}"), 1);
                n.dff_posedge(k, Expr::net(rd_v2), rd_v3);
                Expr::net(rd_v3)
            } else if dead_read == Some(b) {
                Expr::bit(false)
            } else {
                healthy_dv
            };
            let dv = n.reg(format!("dv_{b}"), 1);
            n.dff_posedge(k, dv_src.clone(), dv);
            let out = n.reg(format!("out_{b}"), cfg.word_width);
            n.dff_en(k, Edge::Pos, dv_src, Expr::net(rdata), out);

            // DDR mux: low half while K is high, high half while K is low
            let drive = n.wire(format!("drive_{b}"), half);
            n.assign(
                drive,
                Expr::mux(
                    Expr::net(k),
                    Expr::Slice(out, half - 1, 0),
                    Expr::Slice(out, cfg.word_width - 1, half),
                ),
            );
            // even byte parity of the driven half
            let par = n.wire(format!("par_{b}"), bytes_per_half);
            let mut par_parts = Vec::new();
            for byte in 0..bytes_per_half {
                let lo_bit = byte * bits_per_byte;
                let hi_bit = lo_bit + bits_per_byte - 1;
                let mut p = Expr::ReduceXor(Box::new(Expr::Slice(drive, hi_bit, lo_bit)));
                if parity_fault == Some(b) && byte == 0 {
                    p = Expr::not(p); // injected fault
                }
                par_parts.push(p);
            }
            n.assign(par, Expr::Concat(par_parts));

            // tristate drivers onto the shared buses
            n.tristate(dq, Expr::net(dv), Expr::net(drive));
            n.tristate(dq_par, Expr::net(dv), Expr::net(par));

            // parity checker (verification-unit role): recompute and
            // compare against what the bank drives
            let perr = n.wire(format!("perr_{b}"), 1);
            let mut any_err = Expr::bit(false);
            for byte in 0..bytes_per_half {
                let lo_bit = byte * bits_per_byte;
                let hi_bit = lo_bit + bits_per_byte - 1;
                let recomputed = Expr::ReduceXor(Box::new(Expr::Slice(drive, hi_bit, lo_bit)));
                let mismatch = Expr::xor(recomputed, Expr::Index(par, byte));
                any_err = Expr::or(any_err, mismatch);
            }
            n.assign(perr, Expr::and(Expr::net(dv), any_err));

            dv_nets.push(dv);
            perr_nets.push(perr);
            rd_v1_nets.push(rd_v1);
            wr_v0_nets.push(wr_v0);
            wdone_nets.push(wdone);
        }

        // bus conflict detector (should be unreachable: single address
        // bus means at most one read per cycle)
        if cfg.banks > 1 {
            let conflict = n.wire("dv_conflict", 1);
            let mut any = Expr::bit(false);
            for i in 0..cfg.banks as usize {
                for j in (i + 1)..cfg.banks as usize {
                    any = Expr::or(
                        any,
                        Expr::and(Expr::net(dv_nets[i]), Expr::net(dv_nets[j])),
                    );
                }
            }
            n.assign(conflict, any);
        }

        let nets = LaRtlNets {
            k,
            rd_sel,
            wr_sel,
            addr,
            wdata,
            bw,
            dq,
            dq_par,
            dv: dv_nets,
            perr: perr_nets,
            rd_v1: rd_v1_nets,
            wr_v0: wr_v0_nets,
            wdone: wdone_nets,
        };
        LaRtl {
            netlist: n,
            nets,
            cfg: cfg.clone(),
        }
    }

    /// The structural netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The net handles.
    pub fn nets(&self) -> &LaRtlNets {
        &self.nets
    }

    /// The configuration the design was built for.
    pub fn config(&self) -> &LaConfig {
        &self.cfg
    }

    /// Emits the design as Verilog (the flow's final artefact).
    pub fn to_verilog(&self) -> String {
        self.netlist.to_verilog()
    }

    /// Extracts the transition system for symbolic model checking
    /// (clock `k` becomes an auto-toggling state bit).
    pub fn extract(&self) -> TransitionSystem {
        self.netlist.extract(&[self.nets.k])
    }
}

/// An input pin of the LA-1 design that [`LaRtlDriver::inject_x`] can
/// drive with four-state X for one full protocol cycle — the RTL-only
/// fault class the two-valued upper levels cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XPin {
    /// The read-select input `rd_sel`.
    ReadSel,
    /// The write-select input `wr_sel`.
    WriteSel,
    /// The time-multiplexed address bus `addr`.
    Addr,
    /// The DDR write-data input `wdata` (both halves of the cycle).
    WData,
}

/// Clocks the compiled RTL simulator through full protocol cycles, one
/// independent LA-1 stimulus stream per lane of `V`.
///
/// Its two instances are [`LaRtlDriver`] (one lane) and
/// [`LaRtlBatchDriver`] (64 lanes over a single shared netlist
/// evaluation). Per-lane semantics are identical in both: the same
/// input encoding, the same sampling points, the same DDR half merge.
/// The clock `K` is lane-uniform (every lane sees the same edges), which
/// is exactly the PPSFP restriction.
#[derive(Debug)]
pub struct RtlDriver<V: LaneValue> {
    design: LaRtl,
    sim: Sim<V>,
    cycles: u64,
    /// dq low half captured during the high phase, per lane
    captured_lo: Vec<Option<u64>>,
    /// merged output word per lane per bank, refreshed each cycle
    outputs: Vec<Vec<Option<u64>>>,
    /// pin to drive with X during the next cycle, per lane
    pending_x: Vec<Option<XPin>>,
}

/// Clocks the scalar RTL simulator through full protocol cycles.
pub type LaRtlDriver = RtlDriver<LogicVec>;

/// Clocks the 64-lane batched (PPSFP) RTL simulator through full
/// protocol cycles; each lane is bit-identical to a [`LaRtlDriver`] fed
/// that lane's operations.
pub type LaRtlBatchDriver = RtlDriver<PackedVec>;

impl<V: LaneValue> RtlDriver<V> {
    /// Creates a driver (the design starts with `K` low in every lane).
    pub fn new(design: &LaRtl) -> Self {
        let banks = design.cfg.banks as usize;
        RtlDriver {
            design: design.clone(),
            sim: Sim::new(design.netlist()),
            cycles: 0,
            captured_lo: vec![None; V::LANES],
            outputs: vec![vec![None; banks]; V::LANES],
            pending_x: vec![None; V::LANES],
        }
    }

    /// Mutable access to the underlying simulator (OVL benches probe
    /// through it; probe a batched lane with [`Sim::lane_probe`]).
    pub fn sim_mut(&mut self) -> &mut Sim<V> {
        &mut self.sim
    }

    /// Completed protocol cycles (lane-uniform by construction).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The configuration the driven design was built for.
    pub fn config(&self) -> &LaConfig {
        self.design.config()
    }

    /// Compiled-op evaluations performed so far; each one advances every
    /// lane.
    pub fn evals(&self) -> u64 {
        self.sim.evals()
    }

    /// Runs one full clock cycle with an operation list per lane (at most
    /// one read and one write each: the single address bus allows no
    /// more); lanes beyond `ops.len()` idle. Invokes `at_rising` once the
    /// rising edge has settled (the OVL sampling point).
    fn run_cycle<F: FnOnce(&mut Sim<V>)>(&mut self, ops: &[&[BankOp]], at_rising: F) {
        assert!(ops.len() <= V::LANES, "at most {} lanes", V::LANES);
        let RtlDriver { design, sim, .. } = self;
        let (cfg, nets) = (&design.cfg, &design.nets);
        let word_bits = cfg.addr_bits();
        let low_bytes = cfg.byte_enables() / 2;

        // decode and validate every lane's operations into the pin values
        // of both edges: read select, write select, address, write data,
        // byte enables
        let [mut rd, mut wr, mut raddr, mut data_lo, mut bw_lo] = [V::NO_WORDS; 5];
        let [mut waddr, mut data_hi, mut bw_hi] = [V::NO_WORDS; 3];
        for (lane, lane_ops) in ops.iter().enumerate() {
            for op in lane_ops.iter() {
                match *op {
                    BankOp::Read { bank, addr } => {
                        assert!(
                            rd.as_ref()[lane] == 0,
                            "single address bus: one read per cycle"
                        );
                        assert!(addr < cfg.words_per_bank as u64);
                        rd.as_mut()[lane] = 1;
                        raddr.as_mut()[lane] = addr | ((bank as u64) << word_bits);
                    }
                    BankOp::Write {
                        bank,
                        addr,
                        data,
                        byte_en,
                    } => {
                        assert!(
                            wr.as_ref()[lane] == 0,
                            "single address bus: one write per cycle"
                        );
                        assert!(addr < cfg.words_per_bank as u64);
                        let d = cfg.mask_word(data);
                        wr.as_mut()[lane] = 1;
                        data_lo.as_mut()[lane] = cfg.low_half(d);
                        bw_lo.as_mut()[lane] = (byte_en & ((1 << low_bytes) - 1)) as u64;
                        waddr.as_mut()[lane] = addr | ((bank as u64) << word_bits);
                        data_hi.as_mut()[lane] = cfg.high_half(d);
                        bw_hi.as_mut()[lane] = (byte_en >> low_bytes) as u64;
                    }
                }
            }
        }
        let x_net = |pin: XPin| match pin {
            XPin::ReadSel => nets.rd_sel,
            XPin::WriteSel => nets.wr_sel,
            XPin::Addr => nets.addr,
            XPin::WData => nets.wdata,
        };

        // rising edge: read select + read address + write select + write
        // data low half + low byte enables, each staged for all lanes in
        // one bulk drive; pending X injections then overwrite their lane
        sim.set_lanes_u64(nets.rd_sel, &rd);
        sim.set_lanes_u64(nets.wr_sel, &wr);
        sim.set_lanes_u64(nets.addr, &raddr);
        sim.set_lanes_u64(nets.wdata, &data_lo);
        sim.set_lanes_u64(nets.bw, &bw_lo);
        for (lane, pin) in self.pending_x.iter().enumerate() {
            if let Some(pin) = *pin {
                sim.set_lane_xs(x_net(pin), lane);
            }
        }
        sim.set_u64_all(nets.k, 1);
        sim.step();
        // capture the low output halves (driven while K is high)
        let mut dq = V::NO_WORDS;
        let known = sim.lanes_u64(nets.dq, &mut dq);
        for (lane, lo) in self.captured_lo.iter_mut().enumerate() {
            *lo = (known >> lane & 1 == 1).then_some(dq.as_ref()[lane]);
        }
        at_rising(sim);

        // falling edge: write address + write data high half + high byte
        // enables
        sim.set_lanes_u64(nets.addr, &waddr);
        sim.set_lanes_u64(nets.wdata, &data_hi);
        sim.set_lanes_u64(nets.bw, &bw_hi);
        for (lane, pin) in self.pending_x.iter_mut().enumerate() {
            if let Some(pin) = pin.take() {
                sim.set_lane_xs(x_net(pin), lane);
            }
        }
        sim.set_u64_all(nets.k, 0);
        sim.step();

        // merge the DDR halves per lane per bank
        let half = cfg.half_width();
        let known_hi = sim.lanes_u64(nets.dq, &mut dq);
        for (b, &dv) in nets.dv.iter().enumerate() {
            let dv = sim.get(dv).lanes_one(0);
            for (lane, out) in self.outputs.iter_mut().enumerate() {
                out[b] = match self.captured_lo[lane] {
                    Some(lo) if (dv & known_hi) >> lane & 1 == 1 => {
                        Some(lo | (dq.as_ref()[lane] << half))
                    }
                    _ => None,
                };
            }
        }
        self.cycles += 1;
    }

    /// Whether the 1-bit net is `1` in one lane.
    fn flag(&self, net: NetId, lane: usize) -> bool {
        self.sim.lane_u64(net, lane) == Some(1)
    }

    /// Captures the driver's complete state at a protocol-cycle boundary:
    /// the simulator's value arena plus the DDR-merge bookkeeping of
    /// every lane.
    ///
    /// # Errors
    ///
    /// Fails if an X injection is armed but not yet consumed (arm it
    /// again after restoring instead).
    pub fn snapshot_state(&self) -> Result<DriverSnap<V::Saved>, String> {
        if self.pending_x.iter().any(Option::is_some) {
            return Err("cannot snapshot with an armed X injection".to_string());
        }
        Ok(DriverSnap {
            sim: self.sim.export_state()?,
            cycles: self.cycles,
            captured_lo: self.captured_lo.clone(),
            outputs: self.outputs.clone(),
        })
    }

    /// Installs a snapshot taken from a driver of the same lane type over
    /// the same design.
    ///
    /// # Errors
    ///
    /// Fails without modifying the driver if the simulator state does
    /// not fit the design (arena size, widths, RAM geometry) or the
    /// per-lane lists have the wrong shape.
    pub fn restore_state(&mut self, snap: &DriverSnap<V::Saved>) -> Result<(), String> {
        if snap.captured_lo.len() != V::LANES || snap.outputs.len() != V::LANES {
            return Err("snapshot lane shape does not match the driver".to_string());
        }
        let banks = self.outputs[0].len();
        if let Some(o) = snap.outputs.iter().find(|o| o.len() != banks) {
            return Err(format!(
                "snapshot has {} banks, driver has {banks}",
                o.len()
            ));
        }
        self.sim.import_state(&snap.sim)?;
        self.cycles = snap.cycles;
        self.captured_lo.clone_from(&snap.captured_lo);
        self.outputs.clone_from(&snap.outputs);
        self.pending_x.fill(None);
        Ok(())
    }
}

impl LaRtlDriver {
    /// Arms a four-state X injection: during the next [`Self::cycle`]
    /// the chosen input pin is driven with all-X on both clock edges,
    /// overriding whatever the operations would drive. Whatever the
    /// design samples from that pin (a write word, an address, a select)
    /// becomes X and propagates through the state like a real unknown.
    pub fn inject_x(&mut self, pin: XPin) {
        self.pending_x[0] = Some(pin);
    }

    /// Runs one full clock cycle with at most one read and one write
    /// (the single address bus allows no more).
    ///
    /// Callers that need the paper's rising-edge sampling of OVL
    /// monitors should use [`Self::cycle_with`].
    ///
    /// # Panics
    ///
    /// Panics if more than one read or write is supplied, or if an
    /// address is out of range.
    pub fn cycle(&mut self, ops: &[BankOp]) {
        self.run_cycle(&[ops], |_| {});
    }

    /// Like [`Self::cycle`], invoking `at_rising` once the rising edge
    /// has settled (the OVL sampling point).
    pub fn cycle_with<F: FnOnce(&mut RtlSim)>(&mut self, ops: &[BankOp], at_rising: F) {
        self.run_cycle(&[ops], at_rising);
    }

    /// The word a bank produced in the last completed cycle (both DDR
    /// halves merged), if its data-valid flag was set.
    pub fn bank_output(&self, bank: u32) -> Option<u64> {
        self.outputs[0][bank as usize]
    }

    /// Whether a bank's parity checker fired at the last rising edge.
    pub fn parity_error(&mut self, bank: u32) -> bool {
        self.flag(self.design.nets.perr[bank as usize], 0)
    }

    /// Whether the bank's write-done register is set after the last
    /// completed cycle.
    pub fn write_done(&self, bank: u32) -> bool {
        self.flag(self.design.nets.wdone[bank as usize], 0)
    }
}

impl LaRtlBatchDriver {
    /// Arms a four-state X injection on one lane for the next cycle
    /// (the batched analogue of [`LaRtlDriver::inject_x`]).
    pub fn inject_x(&mut self, lane: usize, pin: XPin) {
        self.pending_x[lane] = Some(pin);
    }

    /// Runs one full clock cycle with an independent operation list per
    /// lane. `ops[lane]` follows the [`LaRtlDriver::cycle`] contract (at
    /// most one read and one write); lanes beyond `ops.len()` idle.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LaRtlDriver::cycle`], or if
    /// more than [`la1_rtl::LANES`] operation lists are supplied.
    pub fn cycle(&mut self, ops: &[&[BankOp]]) {
        self.run_cycle(ops, |_| {});
    }

    /// Like [`Self::cycle`], invoking `at_rising` once the rising edge
    /// has settled (the OVL sampling point; probe individual lanes with
    /// [`Sim::lane_probe`]).
    pub fn cycle_with<F: FnOnce(&mut BatchedRtlSim)>(&mut self, ops: &[&[BankOp]], at_rising: F) {
        self.run_cycle(ops, at_rising);
    }

    /// The word a bank produced for one lane in the last completed
    /// cycle, if its data-valid flag was set in that lane.
    pub fn bank_output(&self, lane: usize, bank: u32) -> Option<u64> {
        self.outputs[lane][bank as usize]
    }

    /// Whether a bank's parity checker fired in one lane at the last
    /// rising edge.
    pub fn parity_error(&self, lane: usize, bank: u32) -> bool {
        self.flag(self.design.nets.perr[bank as usize], lane)
    }

    /// Whether the bank's write-done register is set in one lane after
    /// the last completed cycle.
    pub fn write_done(&self, lane: usize, bank: u32) -> bool {
        self.flag(self.design.nets.wdone[bank as usize], lane)
    }
}

/// A plain-data snapshot of an [`RtlDriver`] at a protocol-cycle
/// boundary; `S` is the lane type's checkpoint encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverSnap<S> {
    /// The simulator's exported state.
    pub sim: SimState<S>,
    /// Completed protocol cycles (lane-uniform).
    pub cycles: u64,
    /// The low DDR half captured during the last high phase, per lane.
    pub captured_lo: Vec<Option<u64>>,
    /// Merged output words per lane per bank.
    pub outputs: Vec<Vec<Option<u64>>>,
}

/// A [`LaRtlDriver`] snapshot (one lane, four-state strings).
pub type RtlDriverSnap = DriverSnap<String>;

/// A [`LaRtlBatchDriver`] snapshot (64 lanes, bit-plane encoded).
pub type RtlBatchDriverSnap = DriverSnap<(Vec<u64>, Vec<u64>)>;

/// A ripple-carry incrementer: `net + 1` truncated to `width` bits.
fn increment(net: NetId, width: u32) -> Expr {
    let mut parts = Vec::with_capacity(width as usize);
    let mut carry = Expr::bit(true);
    for i in 0..width {
        let bit = Expr::Index(net, i);
        parts.push(Expr::xor(bit.clone(), carry.clone()));
        carry = Expr::and(carry, bit);
    }
    Expr::Concat(parts)
}
