//! Staged coverage closure: run the guided generator to a coverage
//! corner, checkpoint *everything* (model, collector, sequencer,
//! driver), then fan N continuation streams out of the checkpoint —
//! the SCY-style "save the hard-won preamble, explore from there"
//! flow.
//!
//! The stage checkpoint is a [`StageCheckpoint`]: the SystemC-level
//! [`Snapshot`](la1_core::checkpoint::Snapshot) from `la1-core` plus
//! the cover-side dynamic state the core format cannot know about
//! (coverage counters and the sample-history ring, the guided
//! generator's rng/plan/queues, the driver's parked items). It
//! serializes as the same versioned, fingerprint-pinned,
//! torn-line-tolerant JSONL as every other checkpoint in the suite.
//!
//! **Determinism contract.** Continuation stream 0 restores the
//! checkpoint *unchanged* — same rng state, same queues — so its
//! continuation is byte-identical to never having checkpointed at all
//! (pinned by the differential test layer, provided the stage-1 budget
//! is an epoch multiple so retarget boundaries align). Streams `1..N`
//! reseed the sequencer rng with
//! [`stream_seed`](la1_core::stimulus::stream_seed)`(seed, j)` and
//! diverge from the shared corner. [`run_staged`] round-trips the
//! checkpoint through its serialized form for *every* stream — the
//! fan-out only works if the format is faithful, so the production
//! path proves the format on every run.

use crate::closure::{ClosureConfig, Generator, GeneratorSnap};
use crate::collect::{BankSampleSnap, CollectorSnap, CoverageCollector};
use crate::guided::GuidedMixSnap;
use crate::model::CoverageModel;
use la1_core::checkpoint::{CheckpointError, Snapshot};
use la1_core::harness::run_abv_observed;
use la1_core::json::{Field, FieldError, Footer, Framing, Json, Record, Report};
use la1_core::sc_model::LaSystemC;
use la1_core::spec::LaConfig;
use la1_core::stimulus::{stream_seed, DriverSnap};

/// Stage-checkpoint format version written by this build.
pub const STAGE_VERSION: u64 = 1;

/// Parameters of one staged closure run.
#[derive(Debug, Clone)]
pub struct StagedConfig {
    /// The underlying closure setup (configuration, seed, epoch,
    /// traffic probabilities; its `budget` field is unused — the two
    /// stage budgets below replace it).
    pub closure: ClosureConfig,
    /// Whether guidance is on.
    pub guided: bool,
    /// Cycles of stage 1 — the shared run to the coverage corner. Keep
    /// it an epoch multiple so stream 0 stays byte-identical to a
    /// straight-through run (retarget boundaries align).
    pub stage1_budget: u64,
    /// Continuation streams to fan out of the checkpoint (stream 0 is
    /// the unperturbed continuation).
    pub streams: u32,
    /// Per-stream cycle budget for stage 2.
    pub stream_budget: u64,
}

impl StagedConfig {
    /// The default staged setup for a configuration: guided, a
    /// 2 000-cycle stage 1, four continuation streams of 4 000 cycles.
    pub fn new(config: LaConfig, seed: u64) -> StagedConfig {
        StagedConfig {
            closure: ClosureConfig::new(config, seed),
            guided: true,
            stage1_budget: 2_000,
            streams: 4,
            stream_budget: 4_000,
        }
    }
}

/// The fingerprint a stage checkpoint is pinned to: FNV-1a over the
/// guidance flag and the full closure configuration (seed, budgets,
/// probabilities, interface configuration) — any drift refuses to
/// restore instead of silently diverging.
pub fn staged_fingerprint(cfg: &StagedConfig) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("staged|{}|{:?}", cfg.guided, cfg.closure).bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything a closure stream is, frozen at an epoch boundary: the
/// SystemC model snapshot plus the cover-side stimulus and coverage
/// state. See the [module docs](self) for the format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageCheckpoint {
    /// [`staged_fingerprint`] of the owning configuration.
    pub fingerprint: u64,
    /// Cycles run when the checkpoint was taken.
    pub cycle: u64,
    /// The SystemC-level model snapshot.
    pub model: Snapshot,
    /// The coverage collector's counters and history ring.
    pub collector: CollectorSnap,
    /// The stimulus driver's protocol bookkeeping.
    pub driver: DriverSnap,
    /// The sequencer's rng and queues.
    pub generator: GeneratorSnap,
}

impl StageCheckpoint {
    /// Captures a stage checkpoint from a running closure stream.
    pub fn capture(
        cfg: &StagedConfig,
        sc: &LaSystemC,
        collector: &CoverageCollector,
        generator: &Generator,
    ) -> Result<StageCheckpoint, CheckpointError> {
        let model = Snapshot::of_systemc(&cfg.closure.config, sc)?;
        let (driver, gensnap) = generator.snapshot_state();
        Ok(StageCheckpoint {
            fingerprint: staged_fingerprint(cfg),
            cycle: collector.cycles(),
            model,
            collector: collector.snapshot_state(),
            driver,
            generator: gensnap,
        })
    }

    /// Rebuilds the full closure stream the checkpoint froze:
    /// fingerprint check first, then model, collector and generator in
    /// turn.
    pub fn restore(
        &self,
        cfg: &StagedConfig,
    ) -> Result<(LaSystemC, CoverageCollector, Generator), CheckpointError> {
        let expected = staged_fingerprint(cfg);
        if self.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                found: self.fingerprint,
                expected,
            });
        }
        let sc = self.model.into_systemc(&cfg.closure.config)?;
        let mut collector = CoverageCollector::new(CoverageModel::la1(&cfg.closure.config));
        collector
            .restore_state(&self.collector)
            .map_err(CheckpointError::Restore)?;
        let mut generator = Generator::for_stream(&cfg.closure, cfg.guided, 0);
        generator
            .restore_state(&self.driver, &self.generator)
            .map_err(CheckpointError::Restore)?;
        Ok((sc, collector, generator))
    }

    /// Serializes the checkpoint as JSONL: a header line, one line per
    /// section, an `end` footer, every line newline-terminated.
    pub fn to_jsonl(&self) -> String {
        STAGE.write(
            [
                ("fingerprint", Json::fingerprint(self.fingerprint)),
                ("cycle", Json::num(self.cycle)),
            ],
            &[
                Json::section(
                    "model",
                    Json::obj([("jsonl", Json::str(self.model.to_jsonl()))]),
                ),
                Json::section("collector", self.collector.encode()),
                Json::section("driver", self.driver.encode()),
                Json::section("gen", self.generator.encode()),
            ],
        )
    }

    /// Strict parser for [`StageCheckpoint::to_jsonl`] output. A file
    /// cut at any byte boundary yields [`CheckpointError::Truncated`]
    /// (torn trailing line or missing footer); a damaged line yields
    /// [`CheckpointError::Malformed`] naming it.
    pub fn parse(text: &str) -> Result<StageCheckpoint, CheckpointError> {
        let frame = STAGE.read_strict(text)?;
        let header = frame.header.record()?;
        let mut secs = frame.sections();
        let model_line = secs.next("model")?;
        let model = Snapshot::parse(model_line.record()?.str("jsonl")?).map_err(|e| {
            CheckpointError::Malformed {
                line: model_line.no,
                reason: format!("embedded model: {e}"),
            }
        })?;
        let collector = secs.next("collector")?.decode()?;
        let driver = secs.next("driver")?.decode()?;
        let generator = secs.next("gen")?.decode()?;
        secs.finish()?;
        Ok(StageCheckpoint {
            fingerprint: header.fingerprint("fingerprint")?,
            cycle: header.get("cycle")?,
            model,
            collector,
            driver,
            generator,
        })
    }
}

/// One continuation stream's stage-2 outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Stream index (0 is the unperturbed continuation).
    pub stream: u32,
    /// The rng seed the stream diverged with (`seed` itself for the
    /// unperturbed stream 0).
    pub seed: u64,
    /// Whether the sequencer rng was reseeded (false for stream 0).
    pub reseeded: bool,
    /// Stage-2 cycles the stream actually ran.
    pub cycles_run: u64,
    /// Bins hit by the stream's full history (stage 1 + its stage 2).
    pub bins_hit: usize,
    /// Bins this stream hit that stage 1 had not.
    pub new_hits: usize,
    /// Whether this stream alone reached full coverage.
    pub closed: bool,
}

/// Outcome of one [`run_staged`] campaign.
#[derive(Debug, Clone)]
pub struct StagedReport {
    /// Bank count of the configuration.
    pub banks: u32,
    /// Whether the configuration was an LA-1B (burst) one.
    pub burst: bool,
    /// Whether guidance was on.
    pub guided: bool,
    /// Base seed (stream seeds derive from it).
    pub seed: u64,
    /// Stage-1 cycle budget.
    pub stage1_budget: u64,
    /// Stage-1 cycles actually run.
    pub stage1_cycles: u64,
    /// Bins hit when the checkpoint was taken.
    pub stage1_bins_hit: usize,
    /// Bins defined by the coverage model.
    pub bins_total: usize,
    /// Serialized size of the stage checkpoint, in bytes.
    pub checkpoint_bytes: usize,
    /// Per-stream outcomes, in stream order.
    pub streams: Vec<StreamOutcome>,
    /// Bins hit by at least one stream (union).
    pub bins_hit: usize,
    /// Whether the union reached full coverage.
    pub closed: bool,
    /// Names of the bins no stream hit, in model order.
    pub unhit: Vec<String>,
}

impl StagedReport {
    /// Fraction of bins hit by at least one stream.
    pub fn coverage(&self) -> f64 {
        if self.bins_total == 0 {
            1.0
        } else {
            self.bins_hit as f64 / self.bins_total as f64
        }
    }

    /// Renders the deterministic JSON report.
    pub fn to_json(&self) -> String {
        let fields = la1_core::json_fields!(self, {
            banks, burst, guided, seed, stage1_budget, stage1_cycles, stage1_bins_hit, bins_total,
            checkpoint_bytes, bins_hit, closed, unhit
        });
        Report::new()
            .field("kind", &Json::str("staged-closure"))
            .fields(fields)
            .rows("streams", self.streams.iter().map(Field::encode))
            .render()
    }
}

/// Runs one staged closure campaign: stage 1 to the coverage corner,
/// checkpoint, fan-out, union report. Deterministic: a pure function
/// of `cfg`. Every stream restores from the *serialized* checkpoint,
/// so each run also proves the format round-trips.
pub fn run_staged(cfg: &StagedConfig) -> Result<StagedReport, CheckpointError> {
    // ---- stage 1: the shared run to the coverage corner
    let mut sc = LaSystemC::new(&cfg.closure.config);
    let mut collector = CoverageCollector::new(CoverageModel::la1(&cfg.closure.config));
    let mut generator = Generator::for_stream(&cfg.closure, cfg.guided, cfg.closure.seed);
    let mut run = 0u64;
    while run < cfg.stage1_budget && !collector.is_full() {
        if cfg.guided {
            generator.retarget(&collector.unhit());
        }
        let step = cfg.closure.epoch.min(cfg.stage1_budget - run);
        run_abv_observed(&mut sc, &mut generator, step, &mut collector);
        run += step;
    }
    let checkpoint = StageCheckpoint::capture(cfg, &sc, &collector, &generator)?;
    let text = checkpoint.to_jsonl();
    let stage1_hit: Vec<bool> = collector.hits().iter().map(|&h| h > 0).collect();
    let stage1_bins_hit = collector.covered();
    let stage1_cycles = run;

    // ---- stage 2: fan continuation streams out of the checkpoint
    let mut outcomes = Vec::with_capacity(cfg.streams as usize);
    let mut union_hit = stage1_hit.clone();
    for j in 0..cfg.streams {
        let restored = StageCheckpoint::parse(&text)?;
        let (mut sc, mut collector, mut generator) = restored.restore(cfg)?;
        let seed = if j == 0 {
            cfg.closure.seed
        } else {
            stream_seed(cfg.closure.seed, j as u64)
        };
        if j > 0 {
            generator.reseed(seed);
        }
        let mut run2 = 0u64;
        while run2 < cfg.stream_budget && !collector.is_full() {
            if cfg.guided {
                generator.retarget(&collector.unhit());
            }
            let step = cfg.closure.epoch.min(cfg.stream_budget - run2);
            run_abv_observed(&mut sc, &mut generator, step, &mut collector);
            run2 += step;
        }
        let mut new_hits = 0usize;
        for (i, &h) in collector.hits().iter().enumerate() {
            if h > 0 {
                if !stage1_hit[i] {
                    new_hits += 1;
                }
                union_hit[i] = true;
            }
        }
        outcomes.push(StreamOutcome {
            stream: j,
            seed,
            reseeded: j > 0,
            cycles_run: run2,
            bins_hit: collector.covered(),
            new_hits,
            closed: collector.is_full(),
        });
    }
    let model = CoverageModel::la1(&cfg.closure.config);
    let bins_hit = union_hit.iter().filter(|&&h| h).count();
    let unhit = model
        .bins()
        .iter()
        .zip(&union_hit)
        .filter(|(_, &h)| !h)
        .map(|(b, _)| b.name())
        .collect::<Vec<_>>();
    Ok(StagedReport {
        banks: cfg.closure.config.banks,
        burst: cfg.closure.config.is_burst(),
        guided: cfg.guided,
        seed: cfg.closure.seed,
        stage1_budget: cfg.stage1_budget,
        stage1_cycles,
        stage1_bins_hit,
        bins_total: model.len(),
        checkpoint_bytes: text.len(),
        streams: outcomes,
        bins_hit,
        closed: bins_hit == model.len(),
        unhit,
    })
}

// ---------------------------------------------------------------------
// section codecs

/// The stage-checkpoint stream: header, the four sections, and a footer
/// counting every line.
const STAGE: Framing = Framing {
    kind: "la1-stage",
    version: STAGE_VERSION,
    footer: Footer::Total("lines"),
};

la1_core::json_record!(BankSampleSnap {
    read: "r",
    write: "w",
    dv,
    wdone: "wd",
    perr: "pe"
});
la1_core::json_record!(CollectorSnap {
    cycle,
    hits,
    first_hit,
    history
});
la1_core::json_record!(StreamOutcome {
    stream,
    seed,
    reseeded,
    cycles_run,
    bins_hit,
    new_hits,
    closed
});

la1_core::json_record!(GuidedMixSnap { rng, plan, items });

impl Field for GeneratorSnap {
    fn encode(&self) -> Json {
        let (tag, body) = match self {
            GeneratorSnap::Guided(s) => ("guided", s.encode()),
            GeneratorSnap::Random(s) => ("random", s.encode()),
        };
        Json::obj([("t", Json::str(tag))]).extend(body)
    }

    fn decode(j: &Json) -> Result<GeneratorSnap, FieldError> {
        let r = Record::new(j)?;
        match r.str("t")? {
            "guided" => Ok(GeneratorSnap::Guided(Field::decode(j)?)),
            "random" => Ok(GeneratorSnap::Random(Field::decode(j)?)),
            tag => Err(r.unknown("t", tag)),
        }
    }
}
