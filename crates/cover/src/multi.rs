//! Multi-stream RTL coverage closure — scalar and bit-parallel.
//!
//! Where [`run_closure`](crate::run_closure) drives one stimulus
//! stream against the SystemC model, the multi-stream runners drive
//! `streams` independent seeded streams against the interpreted RTL
//! and *merge* their coverage: a bin is closed as soon as any stream
//! hits it.
//!
//! One body runs the streams over `ceil(streams / V::LANES)`
//! [`RtlDriver<V>`]s, one stream per lane, stepping each driver through
//! the whole epoch in turn. Its two instances produce the identical
//! [`MultiClosureReport`]:
//!
//! * [`run_closure_rtl`] — one lane per driver ([`LogicVec`]): one
//!   scalar driver per stream, streams executed one after another within
//!   each epoch;
//! * [`run_closure_rtl_batched`] — 64 lanes per driver ([`PackedVec`]):
//!   every compiled-netlist operation advances up to 64 streams at once
//!   (PPSFP). Per-lane pins are bit-identical to the scalar driver, so
//!   the merged bin sets, first-hit cycles and JSON reports are equal
//!   byte for byte — the equivalence the test suite pins at 1/2 banks
//!   and under LA-1B.
//!
//! Guidance retargets **all** guided streams from the *merged* unhit-bin
//! list at every epoch boundary (cooperative closure), and the
//! budget-or-full stopping rule is evaluated per epoch. Within an epoch
//! streams share nothing, which is what makes every lane width's
//! schedule coincide.

use crate::closure::{ClosureConfig, Generator};
use crate::collect::CoverageCollector;
use crate::model::{BinStats, CoverBin, CoverageModel};
use la1_core::checkpoint::{config_fingerprint, CheckpointError, Snapshot, Trace};
use la1_core::cycle_model::{BatchLaneModel, CycleObserver};
use la1_core::json::{Field, Report};
use la1_core::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver, RtlDriver};
use la1_core::spec::{BankOp, LaConfig};
use la1_core::stimulus::stream_seed;
use la1_core::workloads::{RandomMix, Workload};
use la1_rtl::{LaneValue, LogicVec, PackedVec};

/// A shared traffic preamble every closure stream runs before its
/// seeded stimulus starts — typically table-initialization traffic on
/// a large configuration, which can dwarf the closure run itself.
///
/// The cold path replays the recorded [`Trace`] cycle by cycle; the
/// warm path restores the RTL state [`Snapshot`]s captured after the
/// preamble and skips the replay entirely. The two are byte-equivalent
/// (the core differential test layer proves snapshot restore equals
/// straight-through execution), so a warm-started farm shard produces
/// the identical report — the `checkpoint` bench measures the speedup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosurePreamble {
    /// The recorded preamble traffic (the cold path, and the ground
    /// truth the snapshots are captured from).
    pub trace: Trace,
    /// Scalar RTL state after the preamble (`None` → replay the trace).
    pub snapshot: Option<Snapshot>,
    /// Batched RTL state after the preamble, all lanes identical
    /// (`None` → replay the trace broadcast across lanes).
    pub batch_snapshot: Option<Snapshot>,
}

impl ClosurePreamble {
    /// Records `cycles` of seeded write-heavy initialization traffic
    /// as a replayable trace (no snapshots: the cold preamble).
    pub fn record(config: &LaConfig, seed: u64, cycles: u64) -> ClosurePreamble {
        let mut mix = RandomMix::new(config, seed, 0.2, 0.7);
        let mut trace = Trace::new(config_fingerprint("rtl", config));
        for _ in 0..cycles {
            trace.record(&mix.next_cycle());
        }
        ClosurePreamble {
            trace,
            snapshot: None,
            batch_snapshot: None,
        }
    }

    /// Runs the recorded trace once through a scalar and a batched RTL
    /// driver and captures both post-preamble snapshots — the warm
    /// preamble every later stream restores instead of replaying.
    pub fn with_snapshots(mut self, config: &LaConfig) -> Result<ClosurePreamble, CheckpointError> {
        let design = LaRtl::build(config, None);
        let mut driver = LaRtlDriver::new(&design);
        self.replay(&mut driver);
        self.snapshot = Some(Snapshot::of_rtl(&driver)?);
        let mut batch = LaRtlBatchDriver::new(&design);
        self.replay(&mut batch);
        self.batch_snapshot = Some(Snapshot::of_rtl_batch(&batch)?);
        Ok(self)
    }

    /// Preamble length in cycles.
    pub fn cycles(&self) -> u64 {
        self.trace.cycles.len() as u64
    }

    /// Whether the warm path is available.
    pub fn is_warm(&self) -> bool {
        self.snapshot.is_some() && self.batch_snapshot.is_some()
    }

    /// Replays the trace into every lane of `driver`.
    fn replay<V: LaneValue>(&self, driver: &mut RtlDriver<V>) {
        let mut lanes: Vec<&[BankOp]> = vec![&[]; V::LANES];
        for ops in &self.trace.cycles {
            lanes.fill(ops);
            driver.cycle_lanes(&lanes, |_| {});
        }
    }

    /// A driver past the preamble: restored when the lane width's
    /// snapshot is there, replayed otherwise. Fingerprint-checked either
    /// way.
    fn driver<V: WarmLanes>(&self, design: &LaRtl) -> Result<RtlDriver<V>, CheckpointError> {
        if let Some(warm) = V::warm(self, design) {
            return warm;
        }
        let expected = config_fingerprint("rtl", design.config());
        if self.trace.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                found: self.trace.fingerprint,
                expected,
            });
        }
        let mut driver = RtlDriver::new(design);
        self.replay(&mut driver);
        Ok(driver)
    }
}

/// A driver restored from a warm preamble snapshot, if there is one.
type Warm<V> = Option<Result<RtlDriver<V>, CheckpointError>>;

/// A lane width closure runs at, and where its warm preamble state
/// lives in a [`ClosurePreamble`].
trait WarmLanes: LaneValue {
    fn warm(preamble: &ClosurePreamble, design: &LaRtl) -> Warm<Self>;
}

impl WarmLanes for LogicVec {
    fn warm(p: &ClosurePreamble, design: &LaRtl) -> Warm<Self> {
        p.snapshot.as_ref().map(|snap| snap.into_rtl(design))
    }
}

impl WarmLanes for PackedVec {
    fn warm(p: &ClosurePreamble, design: &LaRtl) -> Warm<Self> {
        p.batch_snapshot.as_ref().map(|snap| snap.into_rtl_batch(design))
    }
}

/// Outcome of one multi-stream closure run; all coverage figures are
/// over the merged (any-stream) bin sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiClosureReport {
    /// Bank count of the configuration.
    pub banks: u32,
    /// Whether the configuration was an LA-1B (burst) one.
    pub burst: bool,
    /// Whether guidance was on.
    pub guided: bool,
    /// Base seed the per-stream seeds derive from.
    pub seed: u64,
    /// Independent stimulus streams run.
    pub streams: u32,
    /// Per-stream cycle budget.
    pub budget: u64,
    /// Cycles each stream actually ran (lockstep, so lane-uniform).
    pub cycles_run: u64,
    /// Total stimulus volume: `streams * cycles_run`.
    pub lane_cycles: u64,
    /// Bins defined by the coverage model.
    pub bins_total: usize,
    /// Bins hit by at least one stream.
    pub bins_hit: usize,
    /// Tier-1 bins defined.
    pub tier1_total: usize,
    /// Tier-1 bins hit by at least one stream.
    pub tier1_hit: usize,
    /// Whether every bin closed within the budget.
    pub closed: bool,
    /// Per-stream cycles after which merged coverage was complete (one
    /// past the latest earliest-stream first hit); `None` when the
    /// budget ran out first.
    pub cycles_to_closure: Option<u64>,
    /// Names of the bins no stream hit, in model order.
    pub unhit: Vec<String>,
    /// Merged per-bin statistics in mergeable form — what the farm
    /// unions across closure shards ([`CoverageModel::merge_bins`]).
    /// Not part of [`Self::to_json`], which stays byte-pinned.
    pub bins: BinStats,
}

impl MultiClosureReport {
    /// Fraction of bins hit by at least one stream.
    pub fn coverage(&self) -> f64 {
        if self.bins_total == 0 {
            1.0
        } else {
            self.bins_hit as f64 / self.bins_total as f64
        }
    }

    /// Renders the deterministic JSON report: every field but the
    /// mergeable `bins`.
    pub fn to_json(&self) -> String {
        Report::new().fields(self.encode().without("bins")).render()
    }
}

// Full fidelity, for the farm journal: the report fields, then the
// bins as `{"name", "tier", "hits", "first_hit"}` rows.
la1_core::json_record!(MultiClosureReport {
    banks,
    burst,
    guided,
    seed,
    streams,
    budget,
    cycles_run,
    lane_cycles,
    bins_total,
    bins_hit,
    tier1_total,
    tier1_hit,
    closed,
    cycles_to_closure,
    unhit,
    bins
});

/// One stream's generator and its private coverage collector.
struct Stream {
    generator: Generator,
    collector: CoverageCollector,
}

fn make_streams(cfg: &ClosureConfig, guided: bool, streams: u32) -> Vec<Stream> {
    (0..streams)
        .map(|i| Stream {
            generator: Generator::for_stream(cfg, guided, stream_seed(cfg.seed, i as u64)),
            collector: CoverageCollector::new(CoverageModel::la1(&cfg.config)),
        })
        .collect()
}

/// Whether every bin is hit in the merged (any-stream) view.
fn merged_full(streams: &[Stream]) -> bool {
    let n = streams[0].collector.model().len();
    (0..n).all(|i| streams.iter().any(|s| s.collector.hits()[i] > 0))
}

/// The merged unhit-bin list all guided streams retarget from.
fn merged_unhit(streams: &[Stream]) -> Vec<CoverBin> {
    let model = streams[0].collector.model();
    model
        .bins()
        .iter()
        .enumerate()
        .filter(|(i, _)| streams.iter().all(|s| s.collector.hits()[*i] == 0))
        .map(|(_, b)| *b)
        .collect()
}

fn retarget_all(streams: &mut [Stream]) {
    let unhit = merged_unhit(streams);
    for s in streams.iter_mut() {
        s.generator.retarget(&unhit);
    }
}

/// Assembles the merged report once the loop has stopped: every
/// stream's per-bin statistics union via [`CoverageModel::merge_bins`]
/// (the same fold the farm applies across closure shards), and the
/// report figures derive from the merged map in model order.
fn merged_report(
    cfg: &ClosureConfig,
    guided: bool,
    streams: Vec<Stream>,
    cycles_run: u64,
) -> MultiClosureReport {
    let model = streams[0].collector.model().clone();
    let mut bins = BinStats::new();
    for s in &streams {
        CoverageModel::merge_bins(&mut bins, &s.collector.bin_stats());
    }
    let stat = |b: &CoverBin| &bins[&b.name()];
    let closed = model.bins().iter().all(|b| stat(b).hits > 0);
    let cycles_to_closure = if closed {
        model
            .bins()
            .iter()
            .map(|b| stat(b).first_hit.expect("closed bin has a first hit") + 1)
            .max()
    } else {
        None
    };
    let bins_hit = model.bins().iter().filter(|b| stat(b).hits > 0).count();
    let tier1_hit = model
        .bins()
        .iter()
        .filter(|b| b.tier() == 1 && stat(b).hits > 0)
        .count();
    let unhit = model
        .bins()
        .iter()
        .filter(|b| stat(b).hits == 0)
        .map(|b| b.name())
        .collect();
    MultiClosureReport {
        banks: cfg.config.banks,
        burst: cfg.config.is_burst(),
        guided,
        seed: cfg.seed,
        streams: streams.len() as u32,
        budget: cfg.budget,
        cycles_run,
        lane_cycles: streams.len() as u64 * cycles_run,
        bins_total: model.len(),
        bins_hit,
        tier1_total: model.tier1_len(),
        tier1_hit,
        closed,
        cycles_to_closure,
        unhit,
        bins,
    }
}

/// Closure over `streams` seeded streams, one per lane of
/// `ceil(streams / V::LANES)` drivers, each driver stepped through the
/// whole epoch in turn — the body of both entry points.
fn closure_rtl<V: WarmLanes>(
    cfg: &ClosureConfig,
    guided: bool,
    streams: u32,
    preamble: Option<&ClosurePreamble>,
) -> Result<MultiClosureReport, CheckpointError> {
    assert!(streams > 0, "at least one stream");
    let design = LaRtl::build(&cfg.config, None);
    let mut drivers = (0..(streams as usize).div_ceil(V::LANES))
        .map(|_| match preamble {
            Some(p) => p.driver(&design),
            None => Ok(RtlDriver::<V>::new(&design)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut state = make_streams(cfg, guided, streams);
    let mut ops: Vec<Vec<BankOp>> = vec![Vec::new(); V::LANES.min(streams as usize)];
    let mut run = 0u64;
    while run < cfg.budget && !merged_full(&state) {
        if guided {
            retarget_all(&mut state);
        }
        let step = cfg.epoch.min(cfg.budget - run);
        for (lanes, driver) in state.chunks_mut(V::LANES).zip(&mut drivers) {
            let ops = &mut ops[..lanes.len()];
            for _ in 0..step {
                for (buf, s) in ops.iter_mut().zip(lanes.iter_mut()) {
                    *buf = s.generator.next_cycle();
                }
                driver.cycle_lanes(ops, |_| {});
                for (lane, (s, ops)) in lanes.iter_mut().zip(ops.iter()).enumerate() {
                    s.collector
                        .observe(ops, &mut BatchLaneModel::new(driver, lane));
                }
            }
        }
        run += step;
    }
    Ok(merged_report(cfg, guided, state, run))
}

/// The scalar multi-stream reference: one [`LaRtlDriver`] per stream,
/// streams executed sequentially within each epoch. A pure function of
/// `(cfg, guided, streams)`.
///
/// # Panics
///
/// Panics if `streams` is zero.
pub fn run_closure_rtl(cfg: &ClosureConfig, guided: bool, streams: u32) -> MultiClosureReport {
    run_closure_rtl_from(cfg, guided, streams, None)
        .expect("no preamble, so no checkpoint error is possible")
}

/// [`run_closure_rtl`] with an optional shared [`ClosurePreamble`]
/// every stream runs (warm-restored or cold-replayed) before its
/// seeded stimulus starts. Coverage is collected over the closure
/// cycles only, so the warm and cold paths produce byte-identical
/// reports.
///
/// # Panics
///
/// Panics if `streams` is zero.
pub fn run_closure_rtl_from(
    cfg: &ClosureConfig,
    guided: bool,
    streams: u32,
    preamble: Option<&ClosurePreamble>,
) -> Result<MultiClosureReport, CheckpointError> {
    closure_rtl::<LogicVec>(cfg, guided, streams, preamble)
}

/// The bit-parallel multi-stream runner: the streams as lanes of
/// [`LaRtlBatchDriver`]s, 64 to a driver. Produces a report
/// byte-identical to [`run_closure_rtl`] with the same arguments.
///
/// # Panics
///
/// Panics if `streams` is zero.
pub fn run_closure_rtl_batched(
    cfg: &ClosureConfig,
    guided: bool,
    streams: u32,
) -> MultiClosureReport {
    run_closure_rtl_batched_from(cfg, guided, streams, None)
        .expect("no preamble, so no checkpoint error is possible")
}

/// [`run_closure_rtl_batched`] with an optional shared
/// [`ClosurePreamble`] applied to every lane before the seeded streams
/// start. Byte-identical to [`run_closure_rtl_from`] with the same
/// arguments.
///
/// # Panics
///
/// Panics if `streams` is zero.
pub fn run_closure_rtl_batched_from(
    cfg: &ClosureConfig,
    guided: bool,
    streams: u32,
    preamble: Option<&ClosurePreamble>,
) -> Result<MultiClosureReport, CheckpointError> {
    closure_rtl::<PackedVec>(cfg, guided, streams, preamble)
}
