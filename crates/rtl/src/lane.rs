//! The lane value: what one arena slot of the compiled simulator holds.
//!
//! [`Sim`](crate::Sim) is written once over a [`LaneValue`]; the two
//! instances are [`LogicVec`] (one lane — [`RtlSim`](crate::RtlSim)) and
//! [`PackedVec`](crate::PackedVec) (64 lanes —
//! [`BatchedRtlSim`](crate::BatchedRtlSim)). The trait owns everything
//! that depends on the lane count: the in-place op kernels, lane-masked
//! commits, the lane-uniform clock read, bulk lane drive/sample, the
//! checkpoint encoding, and the two places where the *algorithm* itself
//! changes with the lane count — the RAM read gather and the RAM write
//! select. One lane indexes the addressed word directly; 64 lanes build
//! a lane mask per word.
//!
//! Lane masks are `u64`s with bit `l` standing for lane `l`; the 1-lane
//! instance uses bit 0 only.

use crate::logic::{Logic, LogicVec};
use std::fmt::Debug;

/// A fixed-width four-state value carrying [`Self::LANES`] independent
/// stimulus lanes, with the kernels the compiled schedule runs over it.
///
/// Every kernel writes into `self` (the op's dedicated destination) and
/// is lane-wise pure: lane `l` of the result depends only on lane `l` of
/// the operands, so each lane is bit-identical to a 1-lane simulation.
///
/// `Default` is the empty (zero-width) value, which the engine swaps into
/// a slot while it writes that slot in place.
pub trait LaneValue: Clone + Debug + Default + PartialEq {
    /// Independent lanes per value.
    const LANES: usize;
    /// The lane mask with every lane set.
    const ALL: u64;
    /// One integer per lane: the bulk drive/sample buffer.
    type Words: Copy + Debug + AsRef<[u64]> + AsMut<[u64]>;
    /// A zeroed [`Self::Words`].
    const NO_WORDS: Self::Words;
    /// Per RAM write port: what the edge sample hands to the commit.
    type WritePort: Clone + Debug;
    /// The checkpoint encoding of one value.
    type Saved: Clone + Debug + PartialEq + Eq;

    /// Every lane all-`0`.
    fn zeros(width: u32) -> Self;
    /// Every lane all-`X`.
    fn xs(width: u32) -> Self;
    /// Every lane set to `value`.
    fn splat(value: &LogicVec) -> Self;
    /// Width in bits of each lane's vector.
    fn width(&self) -> u32;
    /// Overwrites `self` with `src` (equal widths, allocation-free).
    fn assign_from(&mut self, src: &Self);

    /// `self[0] = a[bit]`.
    fn index_from(&mut self, a: &Self, bit: u32);
    /// `self = a[lo +: width(self)]`.
    fn slice_from(&mut self, a: &Self, lo: u32);
    /// Places `a` into `self` starting at bit `lo` (concat parts).
    fn place_from(&mut self, lo: u32, a: &Self);
    /// `self = ~a` ([`Logic::not`] per bit).
    fn not_from(&mut self, a: &Self);
    /// `self = a & b` ([`Logic::and`] per bit).
    fn and_from(&mut self, a: &Self, b: &Self);
    /// `self = a | b` ([`Logic::or`] per bit).
    fn or_from(&mut self, a: &Self, b: &Self);
    /// `self = a ^ b` ([`Logic::xor`] per bit).
    fn xor_from(&mut self, a: &Self, b: &Self);
    /// `self[0] = (a == b)`, `X` where either side has an unknown bit.
    fn eq_from(&mut self, a: &Self, b: &Self);
    /// `self = sel ? a : b`, all-`X` where the select is unknown.
    fn mux_from(&mut self, sel: &Self, a: &Self, b: &Self);
    /// `self[0] = ^a` (`X` if any bit is unknown).
    fn reduce_xor_from(&mut self, a: &Self);
    /// `self[0] = |a` (`1` dominant over unknowns).
    fn reduce_or_from(&mut self, a: &Self);
    /// Sets every bit to `Z`.
    fn fill_z(&mut self);
    /// Folds one tristate driver into the accumulator `self`: `val` where
    /// `en` is `1`, `Z` where it is `0`, `X` otherwise, combined with
    /// [`Logic::resolve`].
    fn tri_accumulate(&mut self, en: &Self, val: &Self);

    /// Lanes where `bit` is exactly `1`.
    fn lanes_one(&self, bit: u32) -> u64;
    /// Bit 0 of a clock net, which every lane must share.
    fn clock_bit(&self) -> Logic;
    /// Lanes in `mask` take `src`; returns whether any bit changed.
    fn merge_masked_changed(&mut self, src: &Self, mask: u64) -> bool;

    /// One bit of one lane.
    fn lane_bit(&self, lane: usize, bit: u32) -> Logic;
    /// One lane as a 1-lane vector (allocates).
    fn get_lane(&self, lane: usize) -> LogicVec {
        LogicVec::from_bits((0..self.width()).map(|i| self.lane_bit(lane, i)).collect())
    }
    /// Bits `lo..=hi` of one lane (allocates).
    fn lane_slice(&self, lane: usize, hi: u32, lo: u32) -> LogicVec {
        LogicVec::from_bits((lo..=hi).map(|i| self.lane_bit(lane, i)).collect())
    }
    /// One lane as an integer, if every bit is known and width ≤ 64.
    fn lane_to_u64(&self, lane: usize) -> Option<u64>;
    /// Sets every lane to the same integer.
    fn set_all_lanes_u64(&mut self, value: u64);
    /// Sets each lane from its integer; every bit becomes known.
    fn set_lanes_u64(&mut self, vals: &Self::Words);
    /// Sets one lane to all-`X`.
    fn set_lane_xs(&mut self, lane: usize);
    /// Reads each lane as an integer into `out`; returns the lanes whose
    /// vector is fully known (only those entries of `out` are meaningful).
    fn lanes_u64(&self, out: &mut Self::Words) -> u64;

    /// The asynchronous RAM read: each lane reads the word its (known,
    /// in-range) address selects, all-`X` otherwise.
    fn ram_gather(&mut self, addr: &Self, ram: &[Self]);
    /// An empty write port for a RAM of `words` × `width` (`masked` when
    /// it has a write mask).
    fn write_port(words: u32, width: u32, masked: bool) -> Self::WritePort;
    /// Selects the words that the lanes in `we` write at `addr` (unknown
    /// or out-of-range addresses drop the lane); false when none does.
    fn ram_select(port: &mut Self::WritePort, we: u64, addr: &Self, words: u32) -> bool;
    /// Samples the selected write at the clock edge: `word` is the
    /// port's dedicated arena slot, `ram` the contents before the edge.
    fn ram_sample(
        port: &mut Self::WritePort,
        word: &mut Self,
        ram: &[Self],
        data: &Self,
        mask: Option<&Self>,
    );
    /// Commits a sampled write; returns whether any stored bit changed.
    fn ram_commit(port: &Self::WritePort, word: &Self, ram: &mut [Self]) -> bool;

    /// The checkpoint encoding.
    fn save(&self) -> Self::Saved;
    /// Inverse of [`Self::save`]; `None` unless it encodes `width` bits.
    fn restore(width: u32, saved: &Self::Saved) -> Option<Self>;
}
