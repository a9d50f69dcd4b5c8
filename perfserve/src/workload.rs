//! The workloads: their cell specs (all derived from the workload
//! seed) and the shape of the client script that drives them.

use blu_core::runtime::wire::CellSpec;

/// Streaming observation window of every streaming cell, in
/// sub-frames (the CI churn-smoke setting).
pub const STREAM_WINDOW: u64 = 2_000;

/// Poisson UE/HT churn rate of every streaming cell, in milli-hertz
/// (0.3 Hz, the CI churn-smoke setting).
pub const CHURN_MILLIHZ: u64 = 300;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Healthy phased cells admitted up front, stepped to completion.
    PhasedFleet,
    /// An operator session over phased and streaming cells: add /
    /// step / status / metrics / remove.
    CtlMix,
}

/// Size of one workload instance. [`Shape::full`] is what the
/// benchmark runs; tests run [`Shape::mini`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Cells admitted up front (before any `step`).
    pub initial_cells: usize,
    /// Trace length of each cell, in seconds.
    pub seconds: u64,
    /// Rounds per `step` burst (fleet scripts).
    pub burst_rounds: u64,
    /// A forced `snapshot` after every this many bursts (fleet
    /// scripts) or cycles (`ctl_mix`).
    pub snapshot_every: usize,
    /// Operator cycles (`ctl_mix` only; 0 elsewhere).
    pub cycles: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::PhasedFleet, Workload::CtlMix];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PhasedFleet => "phased_fleet",
            Workload::CtlMix => "ctl_mix",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?} (phased_fleet | ctl_mix)"))
    }

    /// The benchmark's size of this workload.
    pub fn full(self) -> Shape {
        match self {
            Workload::PhasedFleet => Shape {
                initial_cells: 8,
                seconds: 20,
                burst_rounds: 4,
                snapshot_every: 5,
                cycles: 0,
            },
            Workload::CtlMix => Shape {
                initial_cells: 4,
                seconds: 6,
                burst_rounds: 1,
                snapshot_every: 4,
                cycles: 24,
            },
        }
    }

    /// A miniature with the same script and far less work, for the
    /// benchmark's own tests.
    pub fn mini(self) -> Shape {
        match self {
            Workload::PhasedFleet => Shape {
                initial_cells: 2,
                seconds: 6,
                burst_rounds: 8,
                snapshot_every: 2,
                cycles: 0,
            },
            Workload::CtlMix => Shape {
                initial_cells: 2,
                seconds: 6,
                burst_rounds: 1,
                snapshot_every: 2,
                cycles: 4,
            },
        }
    }

    /// Spec of the `index`-th cell the `iteration`-th iteration of this
    /// workload admits. Each cell's capture seed is derived from the
    /// workload seed, the iteration and the index, so every cell of a
    /// run has its own topology and the same workload seed always
    /// admits the same fleets in the same order.
    pub fn spec(self, shape: &Shape, seed: u64, iteration: usize, index: usize) -> CellSpec {
        let fleet_seed = splitmix64(splitmix64(seed) ^ iteration as u64);
        let cell_seed = splitmix64(fleet_seed ^ index as u64);
        let base = CellSpec::new(cell_seed, shape.seconds);
        let streaming = match self {
            Workload::PhasedFleet => false,
            // Alternate phased and streaming cells.
            Workload::CtlMix => index % 2 == 1,
        };
        if streaming {
            CellSpec {
                churn_millihz: CHURN_MILLIHZ,
                stream_window: STREAM_WINDOW,
                ..base
            }
        } else {
            base
        }
    }

    /// Every spec the `iteration`-th iteration admits, in admission
    /// order.
    pub fn specs(self, shape: &Shape, seed: u64, iteration: usize) -> Vec<CellSpec> {
        (0..shape.initial_cells + shape.cycles)
            .map(|i| self.spec(shape, seed, iteration, i))
            .collect()
    }
}

/// SplitMix64 finalizer: a bijective 64-bit mix, used to spread the
/// workload seed over cell seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
