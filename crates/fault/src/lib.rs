//! # la1-fault — deterministic fault-injection campaigns for the LA-1
//!
//! The paper's methodology argument is that the monitors written once
//! at the SystemC level and carried down to the RTL catch real bugs.
//! This crate closes the loop experimentally: it injects a library of
//! parameterized fault models ([`FaultModel`]) into any of the
//! executable refinement levels and measures which detection channel —
//! scoreboard, PSL monitor, OVL monitor, protocol-assert guard or
//! progress watchdog — catches each fault, how often, and how many
//! cycles after activation.
//!
//! Campaigns are **deterministic by construction**: a campaign is a
//! pure function of `(seed, config)`. Every run's fault plan (bank,
//! bit, activation cycle) and stimulus are drawn from a per-run RNG
//! seeded from the campaign seed and the run's coordinates, results
//! live in ordered maps, and no wall-clock time enters the matrix, so
//! [`DetectionMatrix::to_json`] is byte-identical across repeats.
//!
//! One runner, written once over lane engines, drives every level;
//! [`run_campaign`] and [`run_campaign_batched`] are its 1-lane and
//! 64-lane instances and give the same matrix byte for byte.
//!
//! ```
//! use la1_fault::{run_campaign, CampaignConfig, FaultModel, Level};
//!
//! let mut config = CampaignConfig::new(1, 7);
//! config.faults = vec![FaultModel::DropReadStrobe];
//! config.levels = vec![Level::SystemC];
//! let matrix = run_campaign(&config);
//! assert_eq!(matrix.to_json(), run_campaign(&config).to_json());
//! assert!(matrix.detected_at(FaultModel::DropReadStrobe, Level::SystemC));
//! ```

mod campaign;
mod models;
mod runner;

pub use campaign::{
    supports, CampaignConfig, CampaignShard, CellStats, DetectionMatrix, Level, MonitorStat,
};
pub use models::{FaultModel, FaultPlan, HostileMasterSeq, Injector};
pub use runner::{
    run_campaign, run_campaign_batched, run_campaign_batched_shard, run_campaign_shard, BatchStats,
};

#[cfg(test)]
mod tests;
