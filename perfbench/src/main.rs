//! The LA-1 stack's benchmark: end-to-end figures a verification
//! engineer sees, from an untraced run, and per-layer figures from a
//! separate traced run. See `perfbench/README.md`.
//!
//! Usage: `la1-perfbench --workload <npu_lookup|table_update> --seed <n>
//! --seconds <n> --trace <0|1>`, from the repository root; journals and
//! traces go to `.bench_build/perfbench`.
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! holds the unscaled host-time figures, the reference kernels' rates
//! and the sample counts, and the first line records the host (core count, effective parallelism from a
//! calibration spin, rustc version, source revision).

mod harness;
mod regress;
mod sim;
#[cfg(test)]
mod tests;
mod trace;

use harness::{
    median, peak_rss_mb, secs, Checks, Metrics, Reference, Stat, LEVELS, SETUP_STEPS, TIMED,
};
use la1_core::spec::LaConfig;
use la1_farm::MergedReport;
use regress::{Regression, RegressionSize};
use sim::{Sim, Traffic};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The seed kept out of every tuning run, for confirming a later claim.
pub const HELD_OUT_SEED: u64 = 20_040_216;

/// The workloads, by their `--workload` names.
pub const WORKLOADS: [(&str, Traffic); 2] = [
    ("npu_lookup", Traffic::Lookup),
    ("table_update", Traffic::TableUpdate),
];

/// Problem sizes. `full` is what the benchmark measures; `tiny` keeps
/// every code path and metric at a size the unit tests can afford.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub sim_banks: u32,
    /// Cycles per simulation slice.
    pub chunk_cycles: usize,
    /// Chunks whose exact counts are reported.
    pub window_chunks: usize,
    pub regression: RegressionSize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        sim_banks: 4,
        chunk_cycles: 2048,
        window_chunks: 2,
        regression: RegressionSize {
            banks: 4,
            campaign_jobs: 8,
            campaign_preamble: 200,
            closure_jobs: 8,
            closure_streams: 8,
            closure_preamble: 4000,
            explore_depth: 3,
            proof_banks: 2,
        },
    };

    pub const TINY: Scale = Scale {
        sim_banks: 2,
        chunk_cycles: 64,
        window_chunks: 2,
        regression: RegressionSize {
            banks: 1,
            campaign_jobs: 2,
            campaign_preamble: 20,
            closure_jobs: 2,
            closure_streams: 4,
            closure_preamble: 100,
            explore_depth: 2,
            proof_banks: 1,
        },
    };
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: &'static str,
    pub traffic: Traffic,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out_dir: PathBuf,
    pub scale: Scale,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
    /// Every exact count of the run, for determinism checks.
    pub exact: Vec<u64>,
    /// The unscaled host-time figures, the reference kernels' rates and
    /// the number of rounds and of each figure's samples.
    pub record: String,
}

/// One stage of a round.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Setup,
    Sim,
    Campaign,
    Closure,
    Explore,
    Proof,
}

/// A round interleaves simulation slices, the regression's plans and
/// repeated set-ups, so every metric samples the whole run. The shorter
/// plans repeat within a round to take more samples than the proof
/// allows.
const ROUND: [Stage; 26] = {
    use Stage::*;
    [
        Sim, Campaign, Closure, Setup, Campaign, Sim, Explore, Campaign, Sim, Campaign, Closure,
        Sim, Explore, Campaign, Sim, Campaign, Closure, Setup, Campaign, Sim, Explore, Campaign,
        Sim, Closure, Sim, Proof,
    ]
};

/// Samples of the host-time figures, keyed by metric name, each tagged
/// traced or not.
#[derive(Debug, Default)]
struct Samples(BTreeMap<&'static str, Vec<(bool, f64)>>);

impl Samples {
    fn push(&mut self, name: &'static str, traced: bool, v: f64) {
        self.0.entry(name).or_default().push((traced, v));
    }
    fn get(&self, name: &str, traced: bool) -> Vec<f64> {
        let all = self.0.get(name).map_or(&[][..], Vec::as_slice);
        all.iter().filter(|s| s.0 == traced).map(|s| s.1).collect()
    }
}

/// Times of every set-up, whole and step by step.
#[derive(Debug, Default)]
struct SetupLog {
    total_s: Vec<f64>,
    steps_ms: [Vec<f64>; SETUP_STEPS.len()],
    preamble_ms: Vec<f64>,
    extract_ms: Vec<f64>,
}

impl SetupLog {
    /// Builds everything a run measures from scratch; with `record`,
    /// logs the times.
    fn build(&mut self, cfg: &Config, record: bool) -> (Sim, Regression) {
        let scale = &cfg.scale;
        let start = Instant::now();
        let (sim, s) = Sim::build(
            &LaConfig::new(scale.sim_banks),
            cfg.traffic,
            cfg.seed,
            scale.chunk_cycles,
            scale.window_chunks,
            cfg.traced,
        );
        let (reg, r) = Regression::build(&scale.regression, cfg.traffic, cfg.seed, &cfg.out_dir);
        let total = start.elapsed();
        if record {
            self.total_s.push(secs(total));
            let steps = [
                s[0],
                s[1],
                s[2],
                r.campaign_plan,
                r.closure_plan,
                r.explore_plan,
                r.proof_extract,
            ];
            for (v, t) in self.steps_ms.iter_mut().zip(steps) {
                v.push(secs(t) * 1e3);
            }
            self.preamble_ms.push(secs(r.preamble_record) * 1e3);
            self.extract_ms.push(secs(r.extract) * 1e3);
        }
        (sim, reg)
    }
}

/// Runs one workload: set-up, a warm-up round, then timed rounds until
/// `seconds` have passed. The objects of the first set-up are the ones
/// measured; the rounds set up again from scratch, and those set-ups
/// give `setup_s`. In a traced run every second round is traced and
/// the rounds between stay untraced, so the run measures its own
/// overhead.
pub fn run(cfg: &Config) -> Outcome {
    let scale = &cfg.scale;
    let mut checks = Checks::new(cfg.workload, cfg.seed);
    std::fs::create_dir_all(&cfg.out_dir).expect("create the output directory");
    let mut host = Reference::new();
    let mut setups = SetupLog::default();
    let (mut sim, reg) = setups.build(cfg, false);

    let mut tracer = cfg.traced.then(|| Tracer::new(cfg.workload));
    let mut samples = Samples::default();
    let mut job_s: [Vec<f64>; 3] = Default::default();
    let (mut append_us, mut merge_ms, mut render_ms, mut check_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut retried, mut failed) = (0, 0);
    let mut first: Option<([String; 3], (usize, usize))> = None;
    let start = Instant::now();
    let min_rounds = if cfg.traced { 3 } else { 2 };
    let mut round = 0;
    let (campaign, closure, explore, proof) = loop {
        // round 0 is the warm-up; in a traced run odd rounds are traced
        let record = round > 0;
        let traced = cfg.traced && round % 2 == 1;
        let mut tr = if traced { tracer.as_mut() } else { None };
        let round_span = tr.as_mut().map(|t| t.begin(format!("round.{round}")));
        let (mut campaign, mut closure, mut explore, mut proof) = (None, None, None, None);
        let (mut round_merge, mut round_render) = (0.0, 0.0);
        for stage in ROUND {
            if record {
                host.sample();
            }
            let (plan, slot, kind) = match stage {
                Stage::Setup => {
                    drop(setups.build(cfg, record));
                    continue;
                }
                Stage::Sim => {
                    sim.run_chunk(record, tr.as_deref_mut());
                    continue;
                }
                Stage::Proof => {
                    let (report, dt) = reg.prove(tr.as_deref_mut());
                    if record {
                        samples.push("proof_s", traced, secs(dt));
                    }
                    if traced {
                        check_s.push(secs(report.stats.cpu_time));
                    }
                    proof = Some(report);
                    continue;
                }
                Stage::Campaign => (&reg.campaign, &mut campaign, 0),
                Stage::Closure => (&reg.closure, &mut closure, 1),
                Stage::Explore => (&reg.explore, &mut explore, 2),
            };
            let r = plan.run(tr.as_deref_mut());
            if record {
                match stage {
                    Stage::Campaign => samples.push(
                        "campaign_runs_per_s",
                        traced,
                        r.patterns as f64 / secs(r.elapsed),
                    ),
                    Stage::Closure => samples.push("closure_s", traced, secs(r.elapsed)),
                    _ => samples.push("explore_s", traced, secs(r.elapsed)),
                }
            }
            if traced {
                job_s[kind].extend(&r.job_s);
                append_us.extend(&r.append_us);
                round_merge += r.merge_ms;
                round_render += r.render_ms;
            }
            retried += r.stats.retried;
            failed += r.stats.failed;
            *slot = Some(r);
        }
        if let (Some(t), Some(id)) = (tr, round_span) {
            t.end(id);
        }
        if traced {
            merge_ms.push(round_merge);
            render_ms.push(round_render);
        }
        let (campaign, closure, explore, proof) = (
            campaign.expect("every round runs the campaign"),
            closure.expect("every round runs the closure"),
            explore.expect("every round runs the exploration"),
            proof.expect("every round runs the proof"),
        );
        reg.check_round(&campaign, &closure, &explore, &proof, &mut checks);
        // the merged reports and the proof's exact counts must repeat
        // round after round: any drift is a failure, not noise
        let reports = [
            campaign.json.clone(),
            closure.json.clone(),
            explore.json.clone(),
        ];
        let proof_key = (proof.stats.bdd_nodes, proof.stats.iterations);
        match &first {
            Some((r, p)) => {
                for (layer, (a, b)) in ["fault", "cover", "asm"].iter().zip(r.iter().zip(&reports))
                {
                    checks.check(a == b, layer, || {
                        format!("round {round}: merged report drifted")
                    });
                }
                checks.check(*p == proof_key, "smc", || {
                    format!("round {round}: proof (peak nodes, iterations) {proof_key:?} drifted from {p:?}")
                });
            }
            None => first = Some((reports, proof_key)),
        }
        round += 1;
        if round >= min_rounds
            && sim.chunks_done() >= scale.window_chunks
            && start.elapsed() >= Duration::from_secs_f64(cfg.seconds)
        {
            break (campaign, closure, explore, proof);
        }
    };
    eprintln!(
        "{}: {round} rounds, {} simulated cycles per level in {:.1}s",
        cfg.workload,
        sim.cycles(),
        secs(start.elapsed())
    );

    sim.check(&mut checks);
    reg.check_campaign(&campaign, &mut checks);
    for plan in [&reg.campaign, &reg.closure, &reg.explore] {
        plan.remove_journal();
    }
    let MergedReport::Closure(closure_report) = &closure.merged else {
        unreachable!("checked by check_round")
    };
    let cycles_to_closure = closure_report.cycles_to_closure.unwrap_or(u64::MAX);

    let mut exact = sim.exact_counts().unwrap_or_default();
    exact.extend([
        cycles_to_closure,
        proof.stats.bdd_nodes as u64,
        proof.stats.iterations as u64,
    ]);
    exact.extend(
        first
            .iter()
            .flat_map(|(r, _)| r.iter().map(|j| j.len() as u64)),
    );

    for (i, level) in LEVELS.iter().enumerate() {
        let name = TIMED[i].0;
        debug_assert!(name.ends_with(level));
        for traced in [false, true] {
            for rate in sim.rates(i, traced) {
                samples.push(name, traced, rate);
            }
        }
    }

    let mut m = Metrics::default();
    let mut raw: Vec<String> = Vec::new();
    if let Some(tracer) = tracer.as_mut() {
        sim.per_layer(&mut m, tracer);
        m.put("closure.lane_cycles", closure_report.lane_cycles as f64);
        m.put("closure.bins_hit", closure_report.bins_hit as f64);
        m.put("closure.bins_total", closure_report.bins_total as f64);
        m.put("checkpoint.record_ms", median(&setups.preamble_ms));
        m.put("fault.runs", campaign.patterns as f64);
        for (kind, v) in ["campaign", "closure", "explore"].iter().zip(&job_s) {
            m.put(&format!("farm.job_s.{kind}"), median(v));
        }
        m.put("farm.journal_append_us", median(&append_us));
        let journals = campaign.journal_bytes + closure.journal_bytes + explore.journal_bytes;
        m.put("farm.journal_bytes", journals as f64);
        m.put("farm.merge_ms", median(&merge_ms));
        m.put("farm.render_ms", median(&render_ms));
        m.put("farm.retried", retried as f64);
        m.put("farm.failed", failed as f64);
        reg.traced_extras(&mut m);
        m.put("smc.extract_ms", median(&setups.extract_ms));
        m.put("smc.check_s", median(&check_s));
        m.put("smc.iterations", proof.stats.iterations as f64);
        m.put(
            "smc.memory_mb",
            proof.stats.memory_bytes as f64 / (1024.0 * 1024.0),
        );
        m.put("smc.reachable_states", proof.stats.reachable_states);
        for (step, v) in SETUP_STEPS.iter().zip(&setups.steps_ms) {
            m.put(&format!("setup.{step}_ms"), median(v));
        }
        // how much worse each host-time figure reads when traced
        for (name, rate, stat) in TIMED {
            let plain = stat.of(&samples.get(name, false), rate);
            let traced = stat.of(&samples.get(name, true), rate);
            let worse = if rate { plain / traced } else { traced / plain };
            m.put(&format!("trace.overhead.{name}"), worse - 1.0);
        }
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!(
                "{} spans written to {}",
                tracer.span_count(),
                path.display()
            ),
            Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
        }
    } else {
        // host time is scaled to the nominal host speed, taken with the
        // figure's own statistic (see Reference); the raw figures go on
        // the record line
        let mut scaled = |name: &str, value: f64, rate: bool, stat: Stat| {
            raw.push(format!("\"{name}\": {value:?}"));
            let speed = host.speed(stat);
            m.put(name, if rate { value / speed } else { value * speed });
        };
        for (name, rate, stat) in TIMED {
            scaled(name, stat.of(&samples.get(name, false), rate), rate, stat);
        }
        scaled("setup_s", median(&setups.total_s), false, Stat::Median);
        m.put("cycles_to_closure", cycles_to_closure as f64);
        m.put("peak_bdd_nodes", proof.stats.bdd_nodes as f64);
        m.put("peak_rss_mb", peak_rss_mb());
    }
    for metric in &m.0 {
        checks.check(metric.value.is_finite(), "benchmark", || {
            format!("metric {} is not a finite number", metric.name)
        });
    }
    if !cfg.traced {
        // last, so that it counts every check above
        m.put("passed_fraction", checks.passed_fraction());
    }
    let counts: Vec<String> = samples
        .0
        .iter()
        .map(|(name, v)| format!("\"{name}\": {}", v.len()))
        .chain([format!("\"setup_s\": {}", setups.total_s.len())])
        .collect();
    Outcome {
        checks,
        metrics: m,
        exact,
        record: format!(
            "{{\"raw\": {{{}}}, \"host_reference\": {}, \"rounds\": {round}, \"samples\": {{{}}}}}",
            raw.join(", "),
            host.summary(),
            counts.join(", ")
        ),
    }
}

/// Renders the result object.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.checks.failed == 0,
        o.checks.attempted,
        o.checks.failed,
        metrics.join(", ")
    )
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: la1-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.map(|w| w.0).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.0 == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("--seconds takes a number")),
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    let &(name, traffic) = workload.unwrap_or_else(|| usage("--workload is required"));
    Config {
        workload: name,
        traffic,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        traced: traced.unwrap_or_else(|| usage("--trace is required")),
        out_dir: PathBuf::from(".bench_build/perfbench"),
        scale: Scale::FULL,
    }
}

fn main() {
    let cfg = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallelism = harness::effective_parallelism(nproc, Duration::from_millis(150));
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    println!(
        "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"effective_parallelism\": {parallelism:.3}, \"rustc\": \"{}\", \
         \"git_rev\": \"{}\", \"held_out_seed\": {HELD_OUT_SEED}}}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.traced,
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_GIT_REV"),
    );
    let outcome = run(&cfg);
    println!("{}", outcome.record);
    println!("{}", result_line(&outcome));
}
