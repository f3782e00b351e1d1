//! # la1-rtl — a Verilog-like RTL netlist, simulator and emitter
//!
//! The lowest level of the reproduced paper's design flow (*On the Design
//! and Verification Methodology of the Look-Aside Interface*, DATE 2004)
//! is a synthesizable Verilog implementation simulated by a commercial
//! Verilog simulator and model-checked by RuleBase. This crate rebuilds
//! that layer:
//!
//! * [`Logic`] / [`LogicVec`] — IEEE-1364 four-state values
//!   (`0`, `1`, `X`, `Z`) with tristate resolution;
//! * [`Netlist`] — a structural design: wires, registers, continuous
//!   assignments over [`Expr`]s, positive/negative-edge and **DDR**
//!   flip-flops (the LA-1 data paths transfer on both edges of `K`),
//!   synchronous-write/asynchronous-read RAM blocks with per-bit write
//!   masks (byte write control), and tristate drivers (the paper connects
//!   multi-bank control signals "using tristate buffers");
//! * [`Sim`] — one compiled cycle simulator (apply inputs, settle
//!   combinational logic, capture clocked elements on detected edges,
//!   settle again), generic over the [`LaneValue`] an arena slot holds.
//!   It has two instances: [`RtlSim`] (one lane of [`LogicVec`]) and
//!   [`BatchedRtlSim`] (64 lanes of [`PackedVec`], one pattern per word
//!   bit). Interpretation cost per cycle is the point of the paper's
//!   Table 3 (compiled SystemC vs. interpreted HDL);
//! * [`TransitionSystem`] — a bit-blasted next-state-function view of a
//!   two-valued netlist for the `la1-smc` symbolic model checker
//!   ([`Netlist::extract`]);
//! * [`Netlist::to_verilog`] — emits the design as synthesizable
//!   Verilog-2001 text, the flow's final artefact;
//! * [`VcdWriter`] — IEEE-1364 Value Change Dump output for waveform
//!   inspection.
//!
//! # Example
//!
//! ```
//! use la1_rtl::{Netlist, Expr, NetKind, RtlSim, LogicVec};
//!
//! let mut n = Netlist::new("toggler");
//! let clk = n.input("clk", 1);
//! let q = n.reg("q", 1);
//! let d = Expr::not(Expr::net(q));
//! n.dff_posedge(clk, d, q);
//! let _ = NetKind::Wire; // public kind enum
//!
//! let mut sim = RtlSim::new(&n);
//! sim.set(clk, LogicVec::from_u64(0, 1));
//! sim.step();
//! sim.set(clk, LogicVec::from_u64(1, 1)); // rising edge
//! sim.step();
//! assert_eq!(sim.get(q).to_u64(), Some(1));
//! ```

mod extract;
mod lane;
mod logic;
mod netlist;
mod packed;
mod schedule;
mod sim;
mod vcd;
mod verilog;

pub use extract::{BitExpr, BitId, TransitionSystem};
pub use lane::LaneValue;
pub use logic::{Logic, LogicVec};
pub use netlist::{Edge, Expr, Item, NetId, NetKind, Netlist};
pub use packed::{PackedVec, PackedWritePort, LANES};
pub use sim::{
    BatchedRtlSim, BatchedRtlState, LaneProbe, RtlProbe, RtlSim, RtlState, SettleMode, Sim,
    SimState,
};
pub use vcd::VcdWriter;

#[cfg(test)]
mod tests;
