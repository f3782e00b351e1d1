//! The coverage-closure loop: run seeded stimulus against the
//! SystemC-level model until every coverage bin is hit (or a cycle
//! budget runs out), guided or pure-random.
//!
//! [`run_closure`] is a campaign-style pure function of
//! ([`ClosureConfig`], guided flag): the same inputs produce a
//! byte-identical [`ClosureReport::to_json`]. The guided run retargets
//! its [`GuidedMix`] at every epoch boundary from the collector's
//! unhit-bin list; the baseline runs the same budget with no feedback
//! ([`RandomMix`] for plain LA-1, an unguided [`GuidedMix`] under
//! LA-1B, where blind traffic would violate the burst spacing rule).

use crate::collect::CoverageCollector;
use crate::guided::GuidedMix;
use crate::model::{CoverBin, CoverageModel};
use la1_core::harness::run_abv_observed;
use la1_core::json::{Field, Report};
use la1_core::sc_model::LaSystemC;
use la1_core::spec::{BankOp, LaConfig};
use la1_core::stimulus::{Driver, DriverSnap};
use la1_core::workloads::{RandomMix, Workload};

/// Parameters of one closure run.
#[derive(Debug, Clone)]
pub struct ClosureConfig {
    /// Interface configuration under stimulus.
    pub config: LaConfig,
    /// Generator seed.
    pub seed: u64,
    /// Maximum cycles to run.
    pub budget: u64,
    /// Cycles between guidance updates (epoch length).
    pub epoch: u64,
    /// Per-cycle read probability of the random fill.
    pub read_prob: f64,
    /// Per-cycle write probability of the random fill.
    pub write_prob: f64,
}

impl ClosureConfig {
    /// The default closure setup for a configuration: seed 1, a
    /// 400 000-cycle budget, 500-cycle epochs, balanced traffic.
    pub fn new(config: LaConfig, seed: u64) -> Self {
        ClosureConfig {
            config,
            seed,
            budget: 400_000,
            epoch: 500,
            read_prob: 0.45,
            write_prob: 0.45,
        }
    }
}

/// Outcome of one closure run.
#[derive(Debug, Clone)]
pub struct ClosureReport {
    /// Bank count of the configuration.
    pub banks: u32,
    /// Whether the configuration was an LA-1B (burst) one.
    pub burst: bool,
    /// Whether guidance was on.
    pub guided: bool,
    /// Generator seed.
    pub seed: u64,
    /// Cycle budget.
    pub budget: u64,
    /// Cycles actually simulated.
    pub cycles_run: u64,
    /// Bins defined by the coverage model.
    pub bins_total: usize,
    /// Bins hit at least once.
    pub bins_hit: usize,
    /// Tier-1 bins defined.
    pub tier1_total: usize,
    /// Tier-1 bins hit at least once.
    pub tier1_hit: usize,
    /// Whether every bin closed within the budget.
    pub closed: bool,
    /// Cycles after which coverage was complete (one past the latest
    /// first hit); `None` when the budget ran out first.
    pub cycles_to_closure: Option<u64>,
    /// Names of the bins still unhit, in model order.
    pub unhit: Vec<String>,
}

impl ClosureReport {
    /// Fraction of bins hit.
    pub fn coverage(&self) -> f64 {
        if self.bins_total == 0 {
            1.0
        } else {
            self.bins_hit as f64 / self.bins_total as f64
        }
    }

    /// Renders the deterministic JSON report.
    pub fn to_json(&self) -> String {
        Report::new().fields(self.encode()).render()
    }
}

la1_core::json_record!(ClosureReport {
    banks,
    burst,
    guided,
    seed,
    budget,
    cycles_run,
    bins_total,
    bins_hit,
    tier1_total,
    tier1_hit,
    closed,
    cycles_to_closure,
    unhit
});

/// The two sequencer flavours a closure stream drives, each behind
/// its own single-master [`Driver`] (the transaction-level agent of
/// one stream).
pub(crate) enum GenSeq {
    Guided(GuidedMix),
    Random(RandomMix),
}

/// One closure stream's stimulus agent: the chosen sequencer plus the
/// [`Driver`] that maps its items onto protocol-legal cycles.
pub struct Generator {
    driver: Driver,
    seq: GenSeq,
}

impl Generator {
    /// The generator one closure stream uses: guided runs (and any
    /// burst run, where blind traffic would violate the spacing rule)
    /// get a [`GuidedMix`]; the unguided baseline gets a [`RandomMix`].
    pub fn for_stream(cfg: &ClosureConfig, guided: bool, seed: u64) -> Generator {
        let seq = if guided || cfg.config.is_burst() {
            GenSeq::Guided(GuidedMix::new(
                &cfg.config,
                seed,
                cfg.read_prob,
                cfg.write_prob,
            ))
        } else {
            GenSeq::Random(RandomMix::new(
                &cfg.config,
                seed,
                cfg.read_prob,
                cfg.write_prob,
            ))
        };
        Generator {
            driver: Driver::new(&cfg.config),
            seq,
        }
    }

    /// Retargets a guided stream's directed plan at `unhit` (no-op for
    /// the random baseline). The retarget replaces the whole plan, so
    /// an item delayed out of the *old* plan is dropped with it — the
    /// driver's pending slot is cancelled alongside.
    pub fn retarget(&mut self, unhit: &[CoverBin]) {
        self.driver.cancel_pending(0);
        if let GenSeq::Guided(g) = &mut self.seq {
            g.retarget(unhit);
        }
    }

    /// Captures the stream's full stimulus state: the driver's
    /// protocol bookkeeping plus the sequencer's rng and queues.
    pub fn snapshot_state(&self) -> (DriverSnap, GeneratorSnap) {
        let seq = match &self.seq {
            GenSeq::Guided(g) => GeneratorSnap::Guided(g.snapshot_state()),
            GenSeq::Random(r) => GeneratorSnap::Random(r.snapshot_state()),
        };
        (self.driver.snapshot_state(), seq)
    }

    /// Restores state captured by [`Generator::snapshot_state`] into a
    /// generator built by [`Generator::for_stream`] with the same
    /// configuration and guidance flag. Errors when the sequencer
    /// flavour disagrees (a guided snapshot into a random baseline or
    /// vice versa) or the driver shapes mismatch.
    pub fn restore_state(
        &mut self,
        driver: &DriverSnap,
        seq: &GeneratorSnap,
    ) -> Result<(), String> {
        self.driver.restore_state(driver)?;
        match (&mut self.seq, seq) {
            (GenSeq::Guided(g), GeneratorSnap::Guided(s)) => g.restore_state(s),
            (GenSeq::Random(r), GeneratorSnap::Random(s)) => r.restore_state(s),
            (GenSeq::Guided(_), GeneratorSnap::Random(_)) => {
                return Err("random-baseline snapshot into a guided stream".to_string())
            }
            (GenSeq::Random(_), GeneratorSnap::Guided(_)) => {
                return Err("guided snapshot into a random-baseline stream".to_string())
            }
        }
        Ok(())
    }

    /// Reseeds the sequencer's rng (queues and plan stay) — how the
    /// staged flow turns one checkpoint into divergent continuation
    /// streams.
    pub fn reseed(&mut self, seed: u64) {
        match &mut self.seq {
            GenSeq::Guided(g) => g.reseed(seed),
            GenSeq::Random(r) => r.reseed(seed),
        }
    }
}

/// Serializable state of one closure stream's sequencer, tagged by
/// flavour so a checkpoint restores into the matching generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeneratorSnap {
    /// A guided (or burst-legal) stream.
    Guided(crate::guided::GuidedMixSnap),
    /// The unguided random baseline.
    Random(la1_core::workloads::RandomMixSnap),
}

impl Workload for Generator {
    fn next_cycle(&mut self) -> Vec<BankOp> {
        match &mut self.seq {
            GenSeq::Guided(g) => self.driver.cycle_from(g),
            GenSeq::Random(r) => self.driver.cycle_from(r),
        }
    }
}

/// Runs one closure campaign on the SystemC-level model (the fastest
/// full-protocol level) and returns its report. Deterministic: a pure
/// function of `(cfg, guided)`.
pub fn run_closure(cfg: &ClosureConfig, guided: bool) -> ClosureReport {
    let model = CoverageModel::la1(&cfg.config);
    let mut collector = CoverageCollector::new(model);
    let mut sc = LaSystemC::new(&cfg.config);

    let mut generator = Generator::for_stream(cfg, guided, cfg.seed);

    let mut run = 0u64;
    while run < cfg.budget && !collector.is_full() {
        if guided {
            generator.retarget(&collector.unhit());
        }
        let step = cfg.epoch.min(cfg.budget - run);
        run_abv_observed(&mut sc, &mut generator, step, &mut collector);
        run += step;
    }

    let closed = collector.is_full();
    ClosureReport {
        banks: cfg.config.banks,
        burst: cfg.config.is_burst(),
        guided,
        seed: cfg.seed,
        budget: cfg.budget,
        cycles_run: run,
        bins_total: collector.model().len(),
        bins_hit: collector.covered(),
        tier1_total: collector.model().tier1_len(),
        tier1_hit: collector.covered_tier1(),
        closed,
        cycles_to_closure: collector.cycles_to_full(),
        unhit: collector.unhit().iter().map(|b| b.name()).collect(),
    }
}
