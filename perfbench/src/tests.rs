use crate::harness::{per_layer, END_TO_END};
use crate::sim::Traffic;
use crate::{run, Config, Outcome, Scale, WORKLOADS};
use la1_core::json::{parse, Json};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tiny(workload: (&'static str, Traffic), seed: u64, traced: bool, tag: &str) -> Outcome {
    let (name, traffic) = workload;
    run(&Config {
        workload: name,
        traffic,
        seed,
        seconds: 0.0,
        traced,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_build/perfbench-tests")
            .join(format!("{tag}-{name}-{traced}")),
        scale: Scale::TINY,
    })
}

fn names(o: &Outcome) -> BTreeSet<String> {
    o.metrics.0.iter().map(|m| m.name.clone()).collect()
}

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer())
        .collect();
    let mut seen = BTreeSet::new();
    for (name, unit) in &all {
        assert!(
            well_formed(name, 64, "_.-") && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "bad metric name {name}"
        );
        assert!(well_formed(unit, 16, "_/%.-"), "bad unit {unit} of {name}");
        assert!(seen.insert(name.clone()), "metric {name} declared twice");
    }
    assert!(per_layer().len() <= 128);
}

fn json_list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {key}"))
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}"))
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        json_list(&doc, key)
            .iter()
            .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
    let workloads: Vec<&str> = json_list(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.0));
}

#[test]
fn tiny_passes_emit_exactly_the_catalog_and_pass_every_check() {
    let e2e: BTreeSet<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
    let layers: BTreeSet<String> = per_layer().into_iter().map(|m| m.0).collect();
    for workload in WORKLOADS {
        let name = workload.0;
        for (traced, expected) in [(false, &e2e), (true, &layers)] {
            let o = tiny(workload, 5, traced, "catalog");
            assert_eq!(&names(&o), expected, "{name} traced={traced}");
            assert_eq!(
                o.metrics.0.len(),
                expected.len(),
                "a metric was emitted twice"
            );
            assert_eq!(o.checks.failed, 0, "{name} traced={traced} failed a check");
            assert!(o.checks.attempted > 0);
            if !traced {
                assert_eq!(o.metrics.get("passed_fraction"), Some(1.0));
                // reported after every check, the finite-value ones too
                assert_eq!(
                    o.metrics.get("passed_fraction"),
                    Some(o.checks.passed_fraction())
                );
                for (name, _) in END_TO_END {
                    assert!(o.metrics.get(name).unwrap() > 0.0, "{name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn same_seed_gives_identical_exact_counts() {
    for workload in WORKLOADS {
        let a = tiny(workload, 9, false, "repeat-a");
        let b = tiny(workload, 9, false, "repeat-b");
        assert!(!a.exact.is_empty());
        assert_eq!(a.exact, b.exact, "{}", workload.0);
        for exact in ["cycles_to_closure", "peak_bdd_nodes"] {
            assert_eq!(a.metrics.get(exact), b.metrics.get(exact), "{exact}");
        }
    }
}

#[test]
fn the_workloads_differ_in_their_write_share() {
    let share = |w| {
        tiny(w, 3, true, "share")
            .metrics
            .get("stimulus.write_share")
            .unwrap()
    };
    let (lookup, update) = (share(WORKLOADS[0]), share(WORKLOADS[1]));
    assert!(
        lookup < 0.5 && update > 0.5,
        "lookup {lookup}, table update {update}"
    );
}
