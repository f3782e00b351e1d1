//! Bit-parallel packed four-state vectors (PPSFP lanes).
//!
//! A [`PackedVec`] holds **64 independent four-state vectors** of the
//! same width — one simulation *lane* per machine-word bit, the classic
//! parallel-pattern trick from the fault-simulation literature. Each bit
//! position of the vector is stored as a pair of `u64` planes:
//!
//! | value  | `v` bit | `x` bit |
//! |--------|---------|---------|
//! | `0`    | 0       | 0       |
//! | `1`    | 1       | 0       |
//! | `X`    | 0       | 1       |
//! | `Z`    | 1       | 1       |
//!
//! so lane `l` of bit `i` is `(v[i] >> l & 1, x[i] >> l & 1)`. All
//! four-state operators of [`Logic`] then become a handful of word-wide
//! boolean ops evaluating 64 lanes at once; the scalar algebra is the
//! 1-lane special case, and [`BatchedRtlSim`](crate::BatchedRtlSim)
//! checks per-lane agreement against it bit for bit.
//!
//! Every operator here is the word-parallel transcription of the
//! corresponding [`Logic`]/[`LogicVec`] method (`and` with dominant `0`,
//! `or` with dominant `1`, `xor` unknown-propagating, tristate
//! `resolve`, reduction operators, whole-vector `Eq`); the proptests in
//! `tests.rs` pit each one against the scalar fold lane by lane.

use crate::lane::LaneValue;
use crate::logic::{Logic, LogicVec};

/// Number of independent patterns evaluated per pass (one per `u64` bit).
pub const LANES: usize = 64;

/// 64 four-state vectors of one width, stored as two bit-planes per bit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedVec {
    width: u32,
    /// value plane, one word per bit position (lane = word bit)
    v: Vec<u64>,
    /// unknown/impedance plane, one word per bit position
    x: Vec<u64>,
}

#[inline]
fn encode(l: Logic) -> (bool, bool) {
    match l {
        Logic::L0 => (false, false),
        Logic::L1 => (true, false),
        Logic::X => (false, true),
        Logic::Z => (true, true),
    }
}

#[inline]
fn decode(v: bool, x: bool) -> Logic {
    match (v, x) {
        (false, false) => Logic::L0,
        (true, false) => Logic::L1,
        (false, true) => Logic::X,
        (true, true) => Logic::Z,
    }
}

impl PackedVec {
    /// The two raw bit-planes, one word per bit position (lane = word
    /// bit): `(value plane, unknown/impedance plane)`. The checkpoint
    /// layer serializes packed state through this view; everything else
    /// should use the typed kernels.
    pub fn planes(&self) -> (&[u64], &[u64]) {
        (&self.v, &self.x)
    }

    /// Rebuilds a packed vector from raw planes ([`PackedVec::planes`]
    /// inverse). `None` unless both planes have exactly `width` words.
    pub fn from_planes(width: u32, v: Vec<u64>, x: Vec<u64>) -> Option<PackedVec> {
        if v.len() != width as usize || x.len() != width as usize {
            return None;
        }
        Some(PackedVec { width, v, x })
    }

    /// Overwrites one lane from a scalar vector.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or `lane >= LANES`.
    pub fn set_lane(&mut self, lane: usize, value: &LogicVec) {
        assert!(lane < LANES);
        assert_eq!(self.width, value.width(), "lane width mismatch");
        let m = 1u64 << lane;
        for (i, b) in value.iter().enumerate() {
            let (v, x) = encode(b);
            self.v[i] = self.v[i] & !m | if v { m } else { 0 };
            self.x[i] = self.x[i] & !m | if x { m } else { 0 };
        }
    }

    /// Overwrites one lane from an integer (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    pub fn set_lane_u64(&mut self, lane: usize, value: u64) {
        assert!(lane < LANES);
        let m = 1u64 << lane;
        for i in 0..self.width as usize {
            let bit = if i < 64 { value >> i & 1 == 1 } else { false };
            self.v[i] = self.v[i] & !m | if bit { m } else { 0 };
            self.x[i] &= !m;
        }
    }

    /// Lanes whose vector is fully known **and** equals `value`; no lane
    /// when the width exceeds 64 (such an address selects no word).
    #[inline]
    fn lanes_eq_u64(&self, value: u64) -> u64 {
        if self.width > 64 {
            return 0;
        }
        let mut m = !0u64;
        for i in 0..self.width as usize {
            let want_one = value >> i & 1 == 1;
            m &= !self.x[i] & if want_one { self.v[i] } else { !self.v[i] };
        }
        m
    }

    /// Per-lane wired resolution of two equal-width packed vectors,
    /// written into `self` (may alias neither operand).
    pub fn resolve_from(&mut self, a: &PackedVec, b: &PackedVec) {
        for i in 0..self.width as usize {
            let za = a.v[i] & a.x[i];
            let zb = b.v[i] & b.x[i];
            let same = !(a.v[i] ^ b.v[i]) & !(a.x[i] ^ b.x[i]);
            self.v[i] = (za & b.v[i]) | (!za & zb & a.v[i]) | (!za & !zb & same & a.v[i]);
            self.x[i] = (za & b.x[i]) | (!za & zb & a.x[i]) | (!za & !zb & (same & a.x[i] | !same));
        }
    }

    /// The RAM-write commit: bit `i` of the lanes in `base_mask` (and,
    /// when a write mask is present, whose mask bit is exactly `1` in
    /// that lane) takes `src`'s bit; everything else keeps the stored
    /// word. Returns whether any lane's bit changed.
    #[inline]
    fn ram_write_masked(
        &mut self,
        src: &PackedVec,
        base_mask: u64,
        wmask: Option<&PackedVec>,
    ) -> bool {
        let mut changed = false;
        for i in 0..self.width as usize {
            let m = base_mask & wmask.map_or(!0, |w| w.v[i] & !w.x[i]);
            let nv = self.v[i] & !m | src.v[i] & m;
            let nx = self.x[i] & !m | src.x[i] & m;
            changed |= nv != self.v[i] || nx != self.x[i];
            self.v[i] = nv;
            self.x[i] = nx;
        }
        changed
    }

    /// Sets every lane to the same scalar vector (allocation-free
    /// [`LaneValue::splat`] into an existing buffer).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn set_all_lanes(&mut self, value: &LogicVec) {
        assert_eq!(self.width, value.width(), "width mismatch");
        for (i, b) in value.iter().enumerate() {
            let (v, x) = encode(b);
            self.v[i] = if v { !0 } else { 0 };
            self.x[i] = if x { !0 } else { 0 };
        }
    }
}

/// A batched RAM write port between the edge sample and the commit.
#[derive(Debug, Clone)]
pub struct PackedWritePort {
    /// per word: the lanes writing it
    sel: Vec<u64>,
    /// write data sampled at the edge
    data: PackedVec,
    /// write mask sampled at the edge
    mask: Option<PackedVec>,
}

/// The 64-lane instance: [`BatchedRtlSim`](crate::BatchedRtlSim)'s arena
/// value. RAM accesses build one lane mask per word; clocks must be
/// lane-uniform.
impl LaneValue for PackedVec {
    const LANES: usize = LANES;
    const ALL: u64 = !0;
    type Words = [u64; LANES];
    const NO_WORDS: [u64; LANES] = [0; LANES];
    type WritePort = PackedWritePort;
    /// `(value plane, X plane)`
    type Saved = (Vec<u64>, Vec<u64>);

    fn zeros(width: u32) -> Self {
        PackedVec {
            width,
            v: vec![0; width as usize],
            x: vec![0; width as usize],
        }
    }

    fn xs(width: u32) -> Self {
        PackedVec {
            width,
            v: vec![0; width as usize],
            x: vec![!0; width as usize],
        }
    }

    fn splat(value: &LogicVec) -> Self {
        let mut p = PackedVec::zeros(value.width());
        p.set_all_lanes(value);
        p
    }

    #[inline]
    fn width(&self) -> u32 {
        self.width
    }

    #[inline]
    fn assign_from(&mut self, other: &PackedVec) {
        debug_assert_eq!(self.width, other.width);
        self.v.copy_from_slice(&other.v);
        self.x.copy_from_slice(&other.x);
    }

    #[inline]
    fn index_from(&mut self, a: &PackedVec, bit: u32) {
        self.v[0] = a.v[bit as usize];
        self.x[0] = a.x[bit as usize];
    }

    #[inline]
    fn slice_from(&mut self, a: &PackedVec, lo: u32) {
        let lo = lo as usize;
        let w = self.width as usize;
        self.v.copy_from_slice(&a.v[lo..lo + w]);
        self.x.copy_from_slice(&a.x[lo..lo + w]);
    }

    #[inline]
    fn place_from(&mut self, lo: u32, a: &PackedVec) {
        let lo = lo as usize;
        let w = a.width as usize;
        self.v[lo..lo + w].copy_from_slice(&a.v);
        self.x[lo..lo + w].copy_from_slice(&a.x);
    }

    #[inline]
    fn not_from(&mut self, a: &PackedVec) {
        for i in 0..self.width as usize {
            self.v[i] = !a.v[i] & !a.x[i];
            self.x[i] = a.x[i];
        }
    }

    #[inline]
    fn and_from(&mut self, a: &PackedVec, b: &PackedVec) {
        for i in 0..self.width as usize {
            let zero = (!a.v[i] & !a.x[i]) | (!b.v[i] & !b.x[i]);
            let one = (a.v[i] & !a.x[i]) & (b.v[i] & !b.x[i]);
            self.v[i] = one;
            self.x[i] = !(zero | one);
        }
    }

    #[inline]
    fn or_from(&mut self, a: &PackedVec, b: &PackedVec) {
        for i in 0..self.width as usize {
            let one = (a.v[i] & !a.x[i]) | (b.v[i] & !b.x[i]);
            let zero = (!a.v[i] & !a.x[i]) & (!b.v[i] & !b.x[i]);
            self.v[i] = one;
            self.x[i] = !(one | zero);
        }
    }

    #[inline]
    fn xor_from(&mut self, a: &PackedVec, b: &PackedVec) {
        for i in 0..self.width as usize {
            let known = !a.x[i] & !b.x[i];
            self.v[i] = (a.v[i] ^ b.v[i]) & known;
            self.x[i] = !known;
        }
    }

    #[inline]
    fn eq_from(&mut self, a: &PackedVec, b: &PackedVec) {
        let mut any_unknown = 0u64;
        let mut neq = 0u64;
        for i in 0..a.width as usize {
            any_unknown |= a.x[i] | b.x[i];
            neq |= a.v[i] ^ b.v[i];
        }
        self.v[0] = !any_unknown & !neq;
        self.x[0] = any_unknown;
    }

    #[inline]
    fn mux_from(&mut self, sel: &PackedVec, a: &PackedVec, b: &PackedVec) {
        let s1 = sel.v[0] & !sel.x[0];
        let s0 = !sel.v[0] & !sel.x[0];
        let sx = sel.x[0];
        for i in 0..self.width as usize {
            self.v[i] = (s1 & a.v[i]) | (s0 & b.v[i]);
            self.x[i] = (s1 & a.x[i]) | (s0 & b.x[i]) | sx;
        }
    }

    #[inline]
    fn reduce_xor_from(&mut self, a: &PackedVec) {
        let mut any_unknown = 0u64;
        let mut parity = 0u64;
        for i in 0..a.width as usize {
            any_unknown |= a.x[i];
            parity ^= a.v[i];
        }
        self.v[0] = parity & !any_unknown;
        self.x[0] = any_unknown;
    }

    #[inline]
    fn reduce_or_from(&mut self, a: &PackedVec) {
        let mut one = 0u64;
        let mut zero = !0u64;
        for i in 0..a.width as usize {
            one |= a.v[i] & !a.x[i];
            zero &= !a.v[i] & !a.x[i];
        }
        self.v[0] = one;
        self.x[0] = !(one | zero);
    }

    #[inline]
    fn fill_z(&mut self) {
        self.v.fill(!0);
        self.x.fill(!0);
    }

    #[inline]
    fn tri_accumulate(&mut self, en: &PackedVec, val: &PackedVec) {
        let e1 = en.v[0] & !en.x[0];
        let e0 = !en.v[0] & !en.x[0];
        let ex = en.x[0];
        for i in 0..self.width as usize {
            // contribution encoding: 1-lanes pass val, 0-lanes are Z(1,1),
            // unknown-select lanes are X(0,1)
            let cv = (e1 & val.v[i]) | e0;
            let cx = (e1 & val.x[i]) | e0 | ex;
            let (av, ax) = (self.v[i], self.x[i]);
            let za = av & ax; // accumulator is Z
            let zc = cv & cx; // contribution is Z
            let same = !(av ^ cv) & !(ax ^ cx);
            self.v[i] = (za & cv) | (!za & zc & av) | (!za & !zc & same & av);
            self.x[i] = (za & cx) | (!za & zc & ax) | (!za & !zc & (same & ax | !same));
        }
    }

    #[inline]
    fn lanes_one(&self, bit: u32) -> u64 {
        self.v[bit as usize] & !self.x[bit as usize]
    }

    #[inline]
    fn clock_bit(&self) -> Logic {
        let (v, x) = (self.v[0], self.x[0]);
        debug_assert!(
            (v == 0 || v == !0) && (x == 0 || x == !0),
            "clock net must be lane-uniform"
        );
        decode(v & 1 == 1, x & 1 == 1)
    }

    #[inline]
    fn merge_masked_changed(&mut self, src: &PackedVec, mask: u64) -> bool {
        if mask != !0 {
            return self.ram_write_masked(src, mask, None);
        }
        if *self == *src {
            return false;
        }
        self.assign_from(src);
        true
    }

    /// # Panics
    ///
    /// Panics if `bit` is out of range or `lane >= LANES`.
    #[inline]
    fn lane_bit(&self, lane: usize, bit: u32) -> Logic {
        assert!(lane < LANES);
        let v = self.v[bit as usize] >> lane & 1 == 1;
        let x = self.x[bit as usize] >> lane & 1 == 1;
        decode(v, x)
    }

    #[inline]
    fn lane_to_u64(&self, lane: usize) -> Option<u64> {
        if self.width > 64 {
            return None;
        }
        let m = 1u64 << lane;
        let mut out = 0u64;
        for i in 0..self.width as usize {
            if self.x[i] & m != 0 {
                return None;
            }
            if self.v[i] & m != 0 {
                out |= 1 << i;
            }
        }
        Some(out)
    }

    #[inline]
    fn set_all_lanes_u64(&mut self, value: u64) {
        for i in 0..self.width as usize {
            let bit = if i < 64 { value >> i & 1 == 1 } else { false };
            self.v[i] = if bit { !0 } else { 0 };
            self.x[i] = 0;
        }
    }

    /// One bit-matrix transpose: equivalent to 64
    /// [`PackedVec::set_lane_u64`] calls but O(64 log 64) instead of
    /// O(64 × width) plane updates.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    #[inline]
    fn set_lanes_u64(&mut self, vals: &[u64; LANES]) {
        assert!(self.width <= 64, "set_lanes_u64 needs width ≤ 64");
        let mut t = *vals;
        transpose64(&mut t);
        let w = self.width as usize;
        self.v.copy_from_slice(&t[..w]);
        self.x.fill(0);
    }

    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    #[inline]
    fn set_lane_xs(&mut self, lane: usize) {
        assert!(lane < LANES);
        let m = 1u64 << lane;
        for i in 0..self.width as usize {
            self.v[i] &= !m;
            self.x[i] |= m;
        }
    }

    /// One bit-matrix transpose; unknown lanes' words carry the raw
    /// value-plane bits.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    #[inline]
    fn lanes_u64(&self, out: &mut [u64; LANES]) -> u64 {
        assert!(self.width <= 64, "lanes_u64 needs width ≤ 64");
        let w = self.width as usize;
        out[..w].copy_from_slice(&self.v);
        out[w..].fill(0);
        transpose64(out);
        self.x.iter().fold(!0, |known, x| known & !x)
    }

    #[inline]
    fn ram_gather(&mut self, addr: &PackedVec, ram: &[PackedVec]) {
        self.v.fill(0);
        self.x.fill(!0);
        for (a, word) in ram.iter().enumerate() {
            let m = addr.lanes_eq_u64(a as u64);
            if m != 0 {
                self.ram_write_masked(word, m, None);
            }
        }
    }

    fn write_port(words: u32, width: u32, masked: bool) -> PackedWritePort {
        PackedWritePort {
            sel: vec![0; words as usize],
            data: PackedVec::zeros(width),
            mask: masked.then(|| PackedVec::zeros(width)),
        }
    }

    #[inline]
    fn ram_select(port: &mut PackedWritePort, we: u64, addr: &PackedVec, _words: u32) -> bool {
        let mut any = 0u64;
        for (a, sel) in port.sel.iter_mut().enumerate() {
            *sel = we & addr.lanes_eq_u64(a as u64);
            any |= *sel;
        }
        any != 0
    }

    #[inline]
    fn ram_sample(
        port: &mut PackedWritePort,
        _word: &mut PackedVec,
        _ram: &[PackedVec],
        data: &PackedVec,
        mask: Option<&PackedVec>,
    ) {
        port.data.assign_from(data);
        if let (Some(m), Some(src)) = (&mut port.mask, mask) {
            m.assign_from(src);
        }
    }

    #[inline]
    fn ram_commit(port: &PackedWritePort, _word: &PackedVec, ram: &mut [PackedVec]) -> bool {
        let mut changed = false;
        for (word, &m) in ram.iter_mut().zip(&port.sel) {
            if m != 0 {
                changed |= word.ram_write_masked(&port.data, m, port.mask.as_ref());
            }
        }
        changed
    }

    fn save(&self) -> (Vec<u64>, Vec<u64>) {
        (self.v.clone(), self.x.clone())
    }

    fn restore(width: u32, (v, x): &(Vec<u64>, Vec<u64>)) -> Option<Self> {
        PackedVec::from_planes(width, v.clone(), x.clone())
    }
}

/// In-place 64×64 bit-matrix transpose (recursive delta-swap, Hacker's
/// Delight §7-3 adapted to LSB-first bit order): afterwards, bit `j` of
/// `a[i]` is what bit `i` of `a[j]` was. Maps a lane-major word array
/// to the bit-plane (bit-major) layout and back.
pub fn transpose64(a: &mut [u64; LANES]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < LANES {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}
