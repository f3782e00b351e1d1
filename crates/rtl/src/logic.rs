//! Four-state logic values and vectors.

use crate::lane::LaneValue;
use std::fmt;

/// A single four-state logic value (IEEE 1364).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Logic low.
    #[default]
    L0,
    /// Logic high.
    L1,
    /// Unknown.
    X,
    /// High impedance (undriven).
    Z,
}

impl Logic {
    /// Converts a `bool`.
    #[inline]
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::L1
        } else {
            Logic::L0
        }
    }

    /// The definite Boolean value, if any (`X`/`Z` yield `None`).
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::L0 => Some(false),
            Logic::L1 => Some(true),
            _ => None,
        }
    }

    /// True for `0` or `1`.
    pub fn is_known(self) -> bool {
        matches!(self, Logic::L0 | Logic::L1)
    }

    /// Logical negation; `X`/`Z` stay unknown.
    #[allow(clippy::should_implement_trait)] // deliberate: `Logic` is not Boolean
    #[inline]
    pub fn not(self) -> Logic {
        match self {
            Logic::L0 => Logic::L1,
            Logic::L1 => Logic::L0,
            _ => Logic::X,
        }
    }

    /// Logical and; `0` is dominant.
    #[inline]
    pub fn and(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(false), _) | (_, Some(false)) => Logic::L0,
            (Some(true), Some(true)) => Logic::L1,
            _ => Logic::X,
        }
    }

    /// Logical or; `1` is dominant.
    #[inline]
    pub fn or(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(true), _) | (_, Some(true)) => Logic::L1,
            (Some(false), Some(false)) => Logic::L0,
            _ => Logic::X,
        }
    }

    /// Exclusive or; unknown if either side is unknown.
    #[inline]
    pub fn xor(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }

    /// The character [`fmt::Display`] renders for this value.
    pub fn to_char(self) -> char {
        match self {
            Logic::L0 => '0',
            Logic::L1 => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }

    /// Inverse of [`Logic::to_char`]; `None` for anything else.
    pub fn from_char(c: char) -> Option<Logic> {
        match c {
            '0' => Some(Logic::L0),
            '1' => Some(Logic::L1),
            'x' => Some(Logic::X),
            'z' => Some(Logic::Z),
            _ => None,
        }
    }

    /// Wired resolution of two drivers: `Z` yields to the other driver,
    /// agreement keeps the value, conflict is `X`.
    #[inline]
    pub fn resolve(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::Z, o) => o,
            (s, Logic::Z) => s,
            (a, b) if a == b => a,
            _ => Logic::X,
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Logic::L0 => '0',
            Logic::L1 => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        };
        write!(f, "{c}")
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Logic {
        Logic::from_bool(b)
    }
}

/// A fixed-width vector of four-state values; bit 0 is the LSB.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LogicVec {
    bits: Vec<Logic>,
}

impl LogicVec {
    /// All-zero vector of the given width.
    pub fn zeros(width: u32) -> Self {
        LogicVec {
            bits: vec![Logic::L0; width as usize],
        }
    }

    /// All-`X` vector of the given width.
    pub fn xs(width: u32) -> Self {
        LogicVec {
            bits: vec![Logic::X; width as usize],
        }
    }

    /// All-`Z` vector of the given width.
    pub fn zs(width: u32) -> Self {
        LogicVec {
            bits: vec![Logic::Z; width as usize],
        }
    }

    /// Builds a vector from the low `width` bits of `value`.
    pub fn from_u64(value: u64, width: u32) -> Self {
        LogicVec {
            bits: (0..width)
                .map(|i| Logic::from_bool(value >> i & 1 == 1))
                .collect(),
        }
    }

    /// Builds a vector from individual bits (LSB first).
    pub fn from_bits(bits: Vec<Logic>) -> Self {
        LogicVec { bits }
    }

    /// Parses the MSB-first four-state string [`fmt::Display`] renders
    /// (`"01xz"` characters); `None` on any other character. The
    /// checkpoint layer round-trips arena values through this form.
    pub fn parse_fourstate(s: &str) -> Option<LogicVec> {
        let mut bits = s
            .chars()
            .map(Logic::from_char)
            .collect::<Option<Vec<_>>>()?;
        bits.reverse(); // Display renders MSB first; storage is LSB first
        Some(LogicVec { bits })
    }

    /// The numeric value, if every bit is known and width ≤ 64.
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        if self.bits.len() > 64 {
            return None;
        }
        let mut v = 0u64;
        for (i, b) in self.bits.iter().enumerate() {
            match b.to_bool() {
                Some(true) => v |= 1 << i,
                Some(false) => {}
                None => return None,
            }
        }
        Some(v)
    }

    /// Width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.bits.len() as u32
    }

    /// The bit at `index` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bit(&self, index: u32) -> Logic {
        self.bits[index as usize]
    }

    /// Replaces the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_bit(&mut self, index: u32, value: Logic) {
        self.bits[index as usize] = value;
    }

    /// The bits `lo..=hi` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, hi: u32, lo: u32) -> LogicVec {
        assert!(hi >= lo && (hi as usize) < self.bits.len());
        LogicVec {
            bits: self.bits[lo as usize..=hi as usize].to_vec(),
        }
    }

    /// Iterator over bits, LSB first.
    pub fn iter(&self) -> impl Iterator<Item = Logic> + '_ {
        self.bits.iter().copied()
    }

    /// True if every bit is `0` or `1`.
    #[inline]
    pub fn is_known(&self) -> bool {
        self.bits.iter().all(|b| b.is_known())
    }

    /// Bitwise reduction XOR (the parity of the vector).
    #[inline]
    pub fn reduce_xor(&self) -> Logic {
        self.bits
            .iter()
            .copied()
            .fold(Logic::L0, |acc, b| acc.xor(b))
    }

    /// Bitwise reduction OR.
    #[inline]
    pub fn reduce_or(&self) -> Logic {
        self.bits.iter().copied().fold(Logic::L0, |acc, b| acc.or(b))
    }

    /// Per-bit wired resolution of two equal-width vectors.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn resolve(&self, other: &LogicVec) -> LogicVec {
        assert_eq!(self.width(), other.width(), "resolution width mismatch");
        LogicVec {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| a.resolve(b))
                .collect(),
        }
    }
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.bits.iter().rev() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// The 1-lane instance: [`RtlSim`](crate::RtlSim)'s arena value. RAM
/// accesses index the addressed word directly, and the write is built in
/// the port's arena slot at the edge.
impl LaneValue for LogicVec {
    const LANES: usize = 1;
    const ALL: u64 = 1;
    type Words = [u64; 1];
    const NO_WORDS: [u64; 1] = [0];
    /// the sampled word address
    type WritePort = usize;
    /// MSB-first four-state text
    type Saved = String;

    fn zeros(width: u32) -> Self {
        LogicVec::zeros(width)
    }

    fn xs(width: u32) -> Self {
        LogicVec::xs(width)
    }

    fn splat(value: &LogicVec) -> Self {
        value.clone()
    }

    #[inline]
    fn width(&self) -> u32 {
        LogicVec::width(self)
    }

    #[inline]
    fn assign_from(&mut self, src: &Self) {
        self.bits.copy_from_slice(&src.bits);
    }

    #[inline]
    fn index_from(&mut self, a: &Self, bit: u32) {
        self.bits[0] = a.bits[bit as usize];
    }

    #[inline]
    fn slice_from(&mut self, a: &Self, lo: u32) {
        let lo = lo as usize;
        let w = self.bits.len();
        self.bits.copy_from_slice(&a.bits[lo..lo + w]);
    }

    #[inline]
    fn place_from(&mut self, lo: u32, a: &Self) {
        let lo = lo as usize;
        self.bits[lo..lo + a.bits.len()].copy_from_slice(&a.bits);
    }

    #[inline]
    fn not_from(&mut self, a: &Self) {
        for (o, s) in self.bits.iter_mut().zip(&a.bits) {
            *o = s.not();
        }
    }

    #[inline]
    fn and_from(&mut self, a: &Self, b: &Self) {
        for (i, o) in self.bits.iter_mut().enumerate() {
            *o = a.bits[i].and(b.bits[i]);
        }
    }

    #[inline]
    fn or_from(&mut self, a: &Self, b: &Self) {
        for (i, o) in self.bits.iter_mut().enumerate() {
            *o = a.bits[i].or(b.bits[i]);
        }
    }

    #[inline]
    fn xor_from(&mut self, a: &Self, b: &Self) {
        for (i, o) in self.bits.iter_mut().enumerate() {
            *o = a.bits[i].xor(b.bits[i]);
        }
    }

    #[inline]
    fn eq_from(&mut self, a: &Self, b: &Self) {
        self.bits[0] = if !a.is_known() || !b.is_known() {
            Logic::X
        } else {
            Logic::from_bool(a == b)
        };
    }

    #[inline]
    fn mux_from(&mut self, sel: &Self, a: &Self, b: &Self) {
        match sel.bits[0] {
            Logic::L1 => self.bits.copy_from_slice(&a.bits),
            Logic::L0 => self.bits.copy_from_slice(&b.bits),
            _ => self.bits.fill(Logic::X),
        }
    }

    #[inline]
    fn reduce_xor_from(&mut self, a: &Self) {
        self.bits[0] = a.reduce_xor();
    }

    #[inline]
    fn reduce_or_from(&mut self, a: &Self) {
        self.bits[0] = a.reduce_or();
    }

    #[inline]
    fn fill_z(&mut self) {
        self.bits.fill(Logic::Z);
    }

    #[inline]
    fn tri_accumulate(&mut self, en: &Self, val: &Self) {
        let en = en.bits[0];
        for (o, &v) in self.bits.iter_mut().zip(&val.bits) {
            let contribution = match en {
                Logic::L1 => v,
                Logic::L0 => Logic::Z,
                _ => Logic::X,
            };
            *o = o.resolve(contribution);
        }
    }

    #[inline]
    fn lanes_one(&self, bit: u32) -> u64 {
        (self.bits[bit as usize] == Logic::L1) as u64
    }

    #[inline]
    fn clock_bit(&self) -> Logic {
        self.bits[0]
    }

    #[inline]
    fn merge_masked_changed(&mut self, src: &Self, mask: u64) -> bool {
        if mask & 1 == 0 || *self == *src {
            return false;
        }
        LaneValue::assign_from(self, src);
        true
    }

    #[inline]
    fn lane_bit(&self, _lane: usize, bit: u32) -> Logic {
        self.bits[bit as usize]
    }

    fn get_lane(&self, _lane: usize) -> LogicVec {
        self.clone()
    }

    fn lane_slice(&self, _lane: usize, hi: u32, lo: u32) -> LogicVec {
        self.slice(hi, lo)
    }

    #[inline]
    fn lane_to_u64(&self, _lane: usize) -> Option<u64> {
        self.to_u64()
    }

    #[inline]
    fn set_all_lanes_u64(&mut self, value: u64) {
        for (i, o) in self.bits.iter_mut().enumerate() {
            *o = Logic::from_bool(i < 64 && value >> i & 1 == 1);
        }
    }

    #[inline]
    fn set_lanes_u64(&mut self, vals: &[u64; 1]) {
        self.set_all_lanes_u64(vals[0]);
    }

    #[inline]
    fn set_lane_xs(&mut self, _lane: usize) {
        self.bits.fill(Logic::X);
    }

    #[inline]
    fn lanes_u64(&self, out: &mut [u64; 1]) -> u64 {
        let v = self.to_u64();
        out[0] = v.unwrap_or(0);
        v.is_some() as u64
    }

    #[inline]
    fn ram_gather(&mut self, addr: &Self, ram: &[Self]) {
        match addr.to_u64() {
            Some(a) if a < ram.len() as u64 => LaneValue::assign_from(self, &ram[a as usize]),
            _ => self.bits.fill(Logic::X),
        }
    }

    fn write_port(_words: u32, _width: u32, _masked: bool) -> usize {
        0
    }

    #[inline]
    fn ram_select(port: &mut usize, _we: u64, addr: &Self, words: u32) -> bool {
        match addr.to_u64() {
            Some(a) if a < words as u64 => {
                *port = a as usize;
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn ram_sample(
        port: &mut usize,
        word: &mut Self,
        ram: &[Self],
        data: &Self,
        mask: Option<&Self>,
    ) {
        // read-modify-write the addressed word into the port's slot
        LaneValue::assign_from(word, &ram[*port]);
        match mask {
            Some(mask) => {
                for (i, w) in word.bits.iter_mut().enumerate() {
                    if mask.bits[i] == Logic::L1 {
                        *w = data.bits[i];
                    }
                }
            }
            None => word.bits.copy_from_slice(&data.bits),
        }
    }

    #[inline]
    fn ram_commit(port: &usize, word: &Self, ram: &mut [Self]) -> bool {
        ram[*port].merge_masked_changed(word, 1)
    }

    fn save(&self) -> String {
        self.to_string()
    }

    fn restore(width: u32, saved: &String) -> Option<Self> {
        LogicVec::parse_fourstate(saved).filter(|v| v.width() == width)
    }
}
