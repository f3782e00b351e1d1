//! Never-panic fuzzing of every persisted-format loader: the JSON
//! parser, `Snapshot::parse`, `Trace::{parse, recover}`,
//! `StageCheckpoint::parse` and the farm's `journal::load`.
//!
//! Two kinds of input: arbitrary bytes, and mutations of every committed
//! golden file (bit flips, cuts at and inside every line, digit runs
//! replaced by `u64::MAX` and `10^14`). Every input must give `Ok` or a
//! typed error: a panic, an allocation abort or a stack overflow fails
//! the test. The seed and the budget are fixed, so the run is
//! deterministic and takes a few seconds.

use la1_cover::StageCheckpoint;
use la1_farm::{journal, FarmPlan};
use la1_fault::CampaignConfig;
use la1_suite::core::checkpoint::{Snapshot, Trace};
use la1_suite::core::json;
use std::path::{Path, PathBuf};

/// SplitMix64: a fixed-seed source of positions and bytes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every committed golden file, in a fixed order.
fn goldens() -> Vec<Vec<u8>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for krate in ["core", "cover", "fault", "farm"] {
        let dir = root.join("crates").join(krate).join("golden");
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("golden directory")
            .map(|e| e.expect("golden entry").path())
            .collect();
        paths.sort();
        out.extend(paths.iter().map(|p| std::fs::read(p).expect("read golden")));
    }
    out
}

/// The plan the journal golden was written for, so mutated journals
/// get past the header check and exercise the result decoder.
fn journal_plan() -> FarmPlan {
    let mut config = CampaignConfig::new(1, 17);
    config.runs_per_fault = 1;
    FarmPlan::Campaign {
        config,
        jobs: 5,
        batched: false,
    }
}

/// Runs every loader on `bytes`; only a panic can fail.
fn feed(bytes: &[u8], scratch: &Path, plan: &FarmPlan) {
    let text = String::from_utf8_lossy(bytes);
    let _ = json::parse(&text);
    for line in text.lines() {
        let _ = json::parse(line);
    }
    let _ = Snapshot::parse(&text);
    let _ = Trace::parse(&text);
    let _ = Trace::recover(&text);
    let _ = StageCheckpoint::parse(&text);
    std::fs::write(scratch, bytes).expect("write scratch journal");
    let _ = journal::load(scratch, plan);
}

/// Mutations of one golden: bit flips, cuts at and inside every line,
/// and digit runs replaced by huge values.
fn mutations(golden: &[u8], rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for _ in 0..48 {
        let mut m = golden.to_vec();
        let at = rng.below(m.len());
        m[at] ^= 1 << rng.below(8);
        out.push(m);
    }
    let mut start = 0;
    for (i, &b) in golden.iter().enumerate() {
        if b == b'\n' {
            out.push(golden[..(start + i) / 2 + 1].to_vec());
            out.push(golden[..i].to_vec());
            out.push(golden[..=i].to_vec());
            start = i + 1;
        }
    }
    // every scalar field value (declared counts among them), plus a
    // sample of the array elements
    let (scalars, elements): (Vec<_>, Vec<_>) = digit_runs(golden)
        .into_iter()
        .partition(|&(from, _)| golden[..from].ends_with(b"\": "));
    let stride = elements.len().div_ceil(60).max(1);
    for &(from, to) in scalars.iter().chain(elements.iter().step_by(stride)) {
        for huge in [u64::MAX.to_string(), 10u64.pow(14).to_string()] {
            let mut m = golden[..from].to_vec();
            m.extend_from_slice(huge.as_bytes());
            m.extend_from_slice(&golden[to..]);
            out.push(m);
        }
    }
    out
}

/// `[from, to)` byte ranges of every maximal run of ASCII digits.
fn digit_runs(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let from = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((from, i));
        } else {
            i += 1;
        }
    }
    runs
}

fn scratch_path() -> PathBuf {
    std::env::temp_dir().join(format!("la1-loader-fuzz-{}.jsonl", std::process::id()))
}

#[test]
fn loaders_never_panic_on_arbitrary_bytes() {
    let plan = journal_plan();
    let scratch = scratch_path();
    let mut rng = Rng(0x1a_2004);
    // JSON punctuation, digits and letters of the formats' keywords
    // reach deeper into the parsers than uniform bytes do
    const ALPHABET: &[u8] = b"{}[]\",: \n0123456789-.eEtruefalsnkindversio\\u";
    for _ in 0..1500 {
        let len = rng.below(160);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.below(4) == 0 {
                    rng.next() as u8
                } else {
                    ALPHABET[rng.below(ALPHABET.len())]
                }
            })
            .collect();
        feed(&bytes, &scratch, &plan);
    }
    let _ = std::fs::remove_file(&scratch);
}

#[test]
fn loaders_never_panic_on_mutated_goldens() {
    let plan = journal_plan();
    let scratch = scratch_path().with_extension("golden.jsonl");
    let mut rng = Rng(0x1a_2005);
    let goldens = goldens();
    assert!(goldens.len() >= 18, "expected every committed golden");
    for golden in &goldens {
        for m in mutations(golden, &mut rng) {
            feed(&m, &scratch, &plan);
        }
    }
    let _ = std::fs::remove_file(&scratch);
}

#[test]
fn deep_nesting_is_a_typed_error() {
    let deep = format!("{}{}", "[".repeat(1 << 20), "]".repeat(1 << 20));
    assert!(json::parse(&deep).is_err());
    let line = format!("{{\"kind\": \"la1-trace\", \"version\": 1, \"x\": {deep}}}\n");
    assert!(Trace::parse(&line).is_err());
}
