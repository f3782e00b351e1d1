//! Runs the deterministic fault-injection campaign and prints the
//! cross-level detection matrix (crate `la1-fault`).
//!
//! Usage: `campaign [banks...] [--seed N] [--runs N] [--levels l1,l2]
//! [--batched] [--assert-speedup X] [--json <path>] [--smoke]`
//!
//! * `banks...` — bank counts to campaign over (default `1 2 4`);
//! * `--seed` — campaign seed (default 42); same seed + config gives
//!   byte-identical output;
//! * `--runs` — seeded runs per (fault, level) cell (default 3);
//! * `--levels` — comma-separated level filter (`asm`, `systemc`,
//!   `rtl`, `rtl+ovl`); default all four. `--levels rtl,rtl+ovl`
//!   isolates the bit-parallel levels for throughput measurement;
//! * `--batched` — run the RTL levels through the 64-lane parallel
//!   fault engine ([`la1_fault::run_campaign_batched`]) with fault
//!   dropping; verdicts are byte-identical to the scalar engine;
//! * `--assert-speedup X` — time the scalar engine too, assert the
//!   matrices match byte for byte and that batched is at least `X`×
//!   faster (implies `--batched`); both engines run alternately
//!   [`la1_bench::SPEEDUP_SAMPLES`] times and the ratio of their
//!   median times is judged;
//! * `--json` — write the machine-readable matrices (one JSON object
//!   per bank count, in a JSON array) to a file. Batched runs carry a
//!   `"perf"` object with `patterns_per_second` and (under
//!   `--assert-speedup`) `speedup_vs_scalar`;
//! * `--smoke` — gate mode for `scripts/check.sh`: exits non-zero
//!   unless every fault model is detected by at least one channel at
//!   the RTL+OVL level and the healthy design never hangs. Combined
//!   with `--batched`, additionally asserts batched == scalar.

use la1_bench::{opt_speedup, time_alternating, time_once, write_json_array, BenchArgs, Gate};
use la1_fault::{run_campaign, run_campaign_batched, CampaignConfig, FaultModel, Level};

/// Seeded runs the campaign executes: per level, one per supported
/// (fault, run) pair plus the healthy control. Level-independent work
/// counted identically for the scalar and batched engines.
fn pattern_count(config: &CampaignConfig) -> u64 {
    let mut n = 0u64;
    for &level in &config.levels {
        for &fault in &config.faults {
            if la1_fault::supports(fault, level) {
                n += config.runs_per_fault as u64;
            }
        }
        n += 1; // healthy control
    }
    n
}

fn parse_levels(spec: &str) -> Vec<Level> {
    spec.split(',')
        .map(|s| {
            Level::from_name(s.trim())
                .unwrap_or_else(|| panic!("unknown level '{s}' (asm, systemc, rtl, rtl+ovl)"))
        })
        .collect()
}

fn main() {
    let mut args = BenchArgs::parse();
    let seed: u64 = args.value("--seed", 42);
    let runs: u32 = args.value("--runs", 3);
    let levels: Option<Vec<Level>> = args.opt::<String>("--levels").map(|s| parse_levels(&s));
    let assert_speedup: Option<f64> = args.opt("--assert-speedup");
    let batched = args.flag("--batched") || assert_speedup.is_some();
    let json_path: Option<String> = args.opt("--json");
    let smoke = args.flag("--smoke");
    let banks_list = args.banks(&[1, 2, 4]);

    let mut jsons = Vec::new();
    let mut gate = Gate::new("campaign");
    for &banks in &banks_list {
        let mut config = CampaignConfig::new(banks, seed);
        config.runs_per_fault = runs;
        if let Some(levels) = &levels {
            config.levels = levels.clone();
        }
        let patterns = pattern_count(&config);

        // The scalar engine runs when it is the requested mode, or as
        // the verdict reference for batched smoke runs; a speedup gate
        // times both engines alternately and judges their medians.
        let (scalar, batched_run) = if assert_speedup.is_some() {
            let (scalar, batched_run) =
                time_alternating(|| run_campaign(&config), || run_campaign_batched(&config));
            (Some(scalar), Some(batched_run))
        } else {
            let scalar = (!batched || smoke).then(|| time_once(|| run_campaign(&config)));
            (scalar, batched.then(|| time_once(|| run_campaign_batched(&config))))
        };

        let (matrix, perf) = if let Some(((matrix, stats), elapsed)) = batched_run {
            println!("{}", stats.render());
            let speedup = scalar.as_ref().map(|(reference, scalar_elapsed)| {
                assert_eq!(
                    reference.to_json(),
                    matrix.to_json(),
                    "batched campaign diverged from scalar at {banks} bank(s)"
                );
                scalar_elapsed / elapsed.max(1e-9)
            });
            let pps = patterns as f64 / elapsed.max(1e-9);
            println!(
                "throughput: {patterns} patterns in {elapsed:.3}s = {pps:.1} patterns/s{}",
                speedup
                    .map(|s| format!(" ({s:.2}x vs scalar)"))
                    .unwrap_or_default()
            );
            if let (Some(floor), Some(s)) = (assert_speedup, speedup) {
                if s < floor {
                    gate.fail(format!(
                        "{banks} banks: batched speedup {s:.2}x below the {floor}x floor"
                    ));
                }
            }
            let speedup_json = opt_speedup(speedup);
            let perf = format!(
                "{{\"mode\": \"batched\", \"elapsed_seconds\": {elapsed:.4}, \
                 \"patterns\": {patterns}, \"patterns_per_second\": {pps:.1}, \
                 \"speedup_vs_scalar\": {speedup_json}, \"batch\": {}}}",
                stats.to_json()
            );
            (matrix, Some(perf))
        } else {
            let (matrix, elapsed) = scalar.expect("scalar mode always runs the scalar engine");
            let pps = patterns as f64 / elapsed.max(1e-9);
            let perf = format!(
                "{{\"mode\": \"scalar\", \"elapsed_seconds\": {elapsed:.4}, \
                 \"patterns\": {patterns}, \"patterns_per_second\": {pps:.1}, \
                 \"speedup_vs_scalar\": null}}"
            );
            (matrix, Some(perf))
        };

        println!("{}", matrix.render());
        jsons.push(matrix.to_json_with_perf(perf.as_deref()));
        if smoke {
            let gate_rtl_ovl = config.levels.contains(&Level::RtlOvl);
            for fault in FaultModel::ALL {
                if gate_rtl_ovl && !matrix.detected_at(fault, Level::RtlOvl) {
                    gate.fail(format!(
                        "{} banks: {} escaped every channel at rtl+ovl",
                        banks,
                        fault.name()
                    ));
                }
            }
            for (level, ok) in &matrix.healthy {
                if !ok {
                    gate.fail(format!("{banks} banks: healthy design hung at {level}"));
                }
            }
        }
    }
    if let Some(path) = json_path {
        write_json_array(&path, &jsons);
    }
    gate.finish(smoke || assert_speedup.is_some());
}
