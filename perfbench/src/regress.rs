//! The regression half of a workload: a nightly verification run on one
//! farm worker with a write-ahead journal — a fault campaign, a
//! coverage closure and a Table 1 exploration as farm plans — and the
//! Table 2 read-mode proof.
//!
//! Each plan runs through the farm's own entry point,
//! `FarmPlan::run_with`, on one worker. The benchmark appends every
//! result to the `Journal` from the emit callback, in the order
//! `run_with` would, so the jobs, the appends and the merge can be timed
//! from outside the crates.

use crate::harness::{Checks, Metrics};
use crate::sim::Traffic;
use crate::trace::Tracer;
use la1_asm::ExploreConfig;
use la1_bench::{table_config, TABLE2_NODE_BUDGET};
use la1_core::asm_model::LaAsmModel;
use la1_core::checkpoint::{config_fingerprint, Snapshot, Trace};
use la1_core::properties::rtl_read_mode_property;
use la1_core::rtl_model::LaRtl;
use la1_core::spec::LaConfig;
use la1_core::stimulus::stream_seed;
use la1_cover::{ClosureConfig, ClosurePreamble};
use la1_farm::{FarmJob, FarmPlan, FarmRunStats, Journal, MergedReport, RunPolicy};
use la1_fault::{run_campaign, run_campaign_batched, CampaignConfig};
use la1_smc::{ModelChecker, SmcConfig, SmcOutcome, SmcReport, Strategy, TransitionSystem};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Sizes of the regression, fixed per benchmark scale.
#[derive(Debug, Clone, Copy)]
pub struct RegressionSize {
    pub banks: u32,
    pub campaign_jobs: usize,
    pub campaign_preamble: u64,
    pub closure_jobs: u32,
    pub closure_streams: u32,
    pub closure_preamble: u64,
    pub explore_depth: usize,
    pub proof_banks: u32,
}

/// One farm plan and its journal file.
pub struct Plan {
    kind: &'static str,
    plan: FarmPlan,
    journal: PathBuf,
}

/// What one plan run produced.
pub struct PlanRun {
    pub elapsed: Duration,
    pub merged: MergedReport,
    pub json: String,
    pub stats: FarmRunStats,
    pub patterns: u64,
    pub job_s: Vec<f64>,
    pub append_us: Vec<f64>,
    pub merge_ms: f64,
    pub render_ms: f64,
    pub journal_bytes: u64,
}

impl Plan {
    fn new(kind: &'static str, plan: FarmPlan, out_dir: &Path) -> Plan {
        Plan {
            kind,
            plan,
            journal: out_dir.join(format!("journal-{kind}-{}.jsonl", std::process::id())),
        }
    }

    /// Runs the plan on one worker through `FarmPlan::run_with`,
    /// journaling each result, then renders the report. A job's time
    /// runs from the previous job's append to its own result, so the
    /// first job's time includes the plan's decomposition; the merge
    /// time runs from the last append to the return of `run_with`.
    pub fn run(&self, mut tracer: Option<&mut Tracer>) -> PlanRun {
        let plan_span = tracer
            .as_mut()
            .map(|t| t.begin(format!("plan.{}", self.kind)));
        let start = Instant::now();
        let mut journal =
            Journal::create(&self.journal, &self.plan).expect("create the farm journal");
        let mut job_s = Vec::new();
        let mut append_us = Vec::new();
        let mut patterns = 0;
        let mut spans: Vec<(String, Instant, Instant, Instant)> = Vec::new();
        let mut last = Instant::now();
        let (report, stats) =
            self.plan
                .run_with(1, &RunPolicy::default(), None, None, |id, r, attempts| {
                    let done = Instant::now();
                    journal.append(id, attempts, r);
                    let appended = Instant::now();
                    job_s.push((done - last).as_secs_f64());
                    append_us.push((appended - done).as_secs_f64() * 1e6);
                    patterns += r.patterns();
                    spans.push((format!("job.{}.{id}", self.kind), last, done, appended));
                    last = appended;
                });
        let merged_at = Instant::now();
        let json = report.to_json();
        let rendered = Instant::now();
        let elapsed = start.elapsed();
        if let Some(tr) = tracer.as_mut() {
            for (name, s, done, appended) in &spans {
                tr.leaf(name, *s, *done);
                tr.leaf("journal.append", *done, *appended);
            }
            tr.leaf("plan.merge", last, merged_at);
            tr.leaf("report.to_json", merged_at, rendered);
        }
        if let (Some(tr), Some(id)) = (tracer, plan_span) {
            tr.end(id);
        }
        PlanRun {
            elapsed,
            merged: report.merged,
            json,
            stats,
            patterns,
            job_s,
            append_us,
            merge_ms: (merged_at - last).as_secs_f64() * 1e3,
            render_ms: (rendered - merged_at).as_secs_f64() * 1e3,
            journal_bytes: std::fs::metadata(&self.journal).map_or(0, |m| m.len()),
        }
    }

    /// Deletes the journal file.
    pub fn remove_journal(&self) {
        let _ = std::fs::remove_file(&self.journal);
    }
}

/// The regression's plans and the extracted proof model.
pub struct Regression {
    pub campaign: Plan,
    pub closure: Plan,
    pub explore: Plan,
    campaign_config: CampaignConfig,
    closure_config: LaConfig,
    preamble: ClosurePreamble,
    ts: TransitionSystem,
}

/// Set-up step times of the regression plus the parts the traced run
/// reports on their own.
pub struct RegressionSetup {
    pub campaign_plan: Duration,
    pub closure_plan: Duration,
    pub explore_plan: Duration,
    pub proof_extract: Duration,
    pub preamble_record: Duration,
    pub extract: Duration,
}

impl Regression {
    /// Builds the three plans and extracts the proof model. The deep
    /// states the campaign and closure start from are recorded from the
    /// workload's own traffic.
    pub fn build(
        size: &RegressionSize,
        traffic: Traffic,
        seed: u64,
        out_dir: &Path,
    ) -> (Regression, RegressionSetup) {
        let t = Instant::now();
        let mut campaign_config = CampaignConfig::new(size.banks, stream_seed(seed, 1000));
        let mut gen = traffic.generator(&campaign_config.la1, stream_seed(seed, 1001));
        campaign_config.preamble = (0..size.campaign_preamble)
            .map(|_| gen.next_cycle())
            .collect();
        let campaign = Plan::new(
            "campaign",
            FarmPlan::Campaign {
                config: campaign_config.clone(),
                jobs: size.campaign_jobs,
                batched: true,
            },
            out_dir,
        );
        let campaign_plan = t.elapsed();

        let t = Instant::now();
        let closure_config = LaConfig::la1b(size.banks);
        let mut cfg = ClosureConfig::new(closure_config.clone(), stream_seed(seed, 2000));
        cfg.budget = 24_000;
        let mut gen = traffic.generator(&closure_config, stream_seed(seed, 2001));
        let mut trace = Trace::new(config_fingerprint("rtl", &closure_config));
        for _ in 0..size.closure_preamble {
            trace.record(&gen.next_cycle());
        }
        let preamble = ClosurePreamble {
            trace,
            snapshot: None,
            batch_snapshot: None,
        }
        .with_snapshots(&closure_config)
        .expect("snapshotting a freshly recorded preamble cannot fail");
        let preamble_record = t.elapsed();
        let closure = Plan::new(
            "closure",
            FarmPlan::Closure {
                cfg,
                jobs: size.closure_jobs,
                streams_per_job: size.closure_streams,
                guided: true,
                batched: true,
                preamble: Some(Box::new(preamble.clone())),
            },
            out_dir,
        );
        let closure_plan = t.elapsed();

        let t = Instant::now();
        let explore = Plan::new(
            "explore",
            FarmPlan::Explore {
                configs: vec![table_config(size.banks)],
                explore: ExploreConfig {
                    max_depth: Some(size.explore_depth),
                    max_states: 5_000_000,
                    max_transitions: 20_000_000,
                    stop_on_violation: true,
                    workers: Some(1),
                    ..ExploreConfig::default()
                },
            },
            out_dir,
        );
        let explore_plan = t.elapsed();

        let t = Instant::now();
        let rtl = LaRtl::build(&LaConfig::mc_small(size.proof_banks), None);
        let t_extract = Instant::now();
        let ts = rtl.extract();
        let extract = t_extract.elapsed();
        let proof_extract = t.elapsed();

        (
            Regression {
                campaign,
                closure,
                explore,
                campaign_config,
                closure_config,
                preamble,
                ts,
            },
            RegressionSetup {
                campaign_plan,
                closure_plan,
                explore_plan,
                proof_extract,
                preamble_record,
                extract,
            },
        )
    }

    /// The Table 2 read-mode proof on the extracted model, under the
    /// Table 2 node budget.
    pub fn prove(&self, tracer: Option<&mut Tracer>) -> (SmcReport, Duration) {
        let span = tracer.map(|t| (t.begin("proof.read_mode"), t));
        let start = Instant::now();
        let report = ModelChecker::new(
            &self.ts,
            SmcConfig {
                strategy: Strategy::Monolithic,
                node_budget: TABLE2_NODE_BUDGET,
                ..SmcConfig::default()
            },
        )
        .check(&rtl_read_mode_property())
        .expect("the read-mode property is in the safety subset");
        let elapsed = start.elapsed();
        if let Some((id, t)) = span {
            t.end(id);
        }
        (report, elapsed)
    }

    /// The once-per-run checks no timed plan covers: the farm-merged
    /// campaign equals the unsharded scalar campaign byte for byte.
    pub fn check_campaign(&self, campaign: &PlanRun, checks: &mut Checks) {
        let merged = match &campaign.merged {
            MergedReport::Campaign(m) => m.to_json(),
            _ => String::new(),
        };
        let unsharded = run_campaign(&self.campaign_config).to_json();
        checks.check(merged == unsharded, "farm", || {
            "farm-merged campaign matrix differs from the unsharded run_campaign".to_string()
        });
    }

    /// Per-plan verdicts of one round.
    pub fn check_round(
        &self,
        campaign: &PlanRun,
        closure: &PlanRun,
        explore: &PlanRun,
        proof: &SmcReport,
        checks: &mut Checks,
    ) {
        for run in [campaign, closure, explore] {
            checks.check(
                run.stats.failed == 0 && run.stats.retried == 0,
                "farm",
                || {
                    format!(
                        "{} failed and {} retried jobs",
                        run.stats.failed, run.stats.retried
                    )
                },
            );
        }
        match &campaign.merged {
            MergedReport::Campaign(m) => {
                checks.check(m.healthy.values().all(|&ok| ok), "fault", || {
                    format!("healthy controls hung: {:?}", m.healthy)
                })
            }
            _ => checks.check(false, "farm", || {
                "campaign plan merged to another kind".to_string()
            }),
        }
        match &closure.merged {
            MergedReport::Closure(c) => checks.check(c.closed, "cover", || {
                format!("closure left {} bins unhit: {:?}", c.unhit.len(), c.unhit)
            }),
            _ => checks.check(false, "farm", || {
                "closure plan merged to another kind".to_string()
            }),
        }
        match &explore.merged {
            MergedReport::Explore(e) => checks.check(e.all_pass(), "asm", || {
                "a property failed under exploration".to_string()
            }),
            _ => checks.check(false, "farm", || {
                "explore plan merged to another kind".to_string()
            }),
        }
        checks.check(matches!(proof.outcome, SmcOutcome::Proved), "smc", || {
            format!("read-mode proof ended {:?}", proof.outcome)
        });
    }

    /// Per-layer figures that need their own calls: the batched
    /// campaign's lane statistics, the explorer's own statistics, and a
    /// snapshot parse and restore of the closure preamble.
    pub fn traced_extras(&self, m: &mut Metrics) {
        let (_, batch) = run_campaign_batched(&self.campaign_config);
        m.put("fault.lane_cycles_saved", batch.lane_cycles_saved as f64);
        m.put(
            "fault.lanes_retired_share",
            batch.lanes_retired_early as f64 / batch.rtl_lane_runs.max(1) as f64,
        );

        let jobs = self.explore.plan.jobs();
        let FarmJob::Explore { config, explore } = &jobs[0] else {
            unreachable!("the explore plan holds explore jobs")
        };
        let r = LaAsmModel::new(config).model_check(explore.clone());
        let s = &r.stats;
        m.put("explore.states", s.states as f64);
        m.put("explore.transitions", s.transitions as f64);
        m.put("explore.dedup_hits", s.dedup_hits as f64);
        m.put("explore.peak_frontier", s.peak_frontier as f64);
        m.put(
            "explore.states_per_s",
            s.states as f64 / s.elapsed.as_secs_f64(),
        );

        let text = self
            .preamble
            .batch_snapshot
            .as_ref()
            .expect("the preamble is warm")
            .to_jsonl();
        let design = LaRtl::build(&self.closure_config, None);
        let mut restore_ms = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let snap = Snapshot::parse(&text).expect("a rendered snapshot parses");
            let driver = snap
                .into_rtl_batch(&design)
                .expect("the snapshot matches its design");
            restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(driver);
        }
        m.put("checkpoint.restore_ms", crate::harness::median(&restore_ms));
    }
}
