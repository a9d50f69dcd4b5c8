//! Checks of the daemon's outputs against facts computed apart from
//! it: the batch robust loop (`robust::run_blu_robust` on
//! `capture_for_spec(spec)`), which shares no service, supervisor,
//! wire or persistence code with the daemon; for removed cells, the
//! supervised batch fleet stopped after the rounds the cell was
//! stepped; and the client's own bookkeeping.

use crate::session::{serve_robust, Iteration};
use blu_core::engine::CellGeometry;
use blu_core::robust::{run_blu_robust, RobustConfig, RobustRunReport, StreamingConfig};
use blu_core::runtime::capture_for_spec;
use blu_core::runtime::supervisor::{run_supervised_fleet, CellHealth, SupervisorConfig};
use blu_core::runtime::wire::{CellSpec, StatusReport};
use blu_traces::faults::FaultyCapture;
use std::collections::BTreeMap;
use std::time::Instant;

/// The robust configuration a daemon cell of `spec` runs under: the
/// daemon-wide configuration with the spec's streaming window layered
/// on, as the daemon does at admission.
pub fn cell_config(spec: &CellSpec) -> RobustConfig {
    let mut config = serve_robust();
    if spec.stream_window > 0 {
        config.streaming = Some(StreamingConfig::new(spec.stream_window as usize));
    }
    config
}

/// How far the batch path runs a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// To the end of its trace, with `robust::run_blu_robust`.
    End,
    /// For this many fleet rounds, with
    /// `supervisor::run_supervised_fleet` and `max_rounds` (the only
    /// public batch entry point that stops after a given number of
    /// rounds): what a cell removed after that many rounds was
    /// stepped through.
    Rounds(u64),
}

/// A cell run by the batch path.
pub struct Reference {
    /// The cell's spec.
    pub spec: CellSpec,
    /// How far it was run.
    pub extent: Extent,
    /// The cell's capture (dropped by the timed loop, which keeps
    /// only [`Reference::trace_len`] and [`Reference::cursor`]).
    pub capture: Option<FaultyCapture>,
    /// Sub-frames in the cell's trace.
    pub trace_len: u64,
    /// The sub-frame the batch run stopped at: its measurement
    /// sub-frames plus every TxOP it scheduled, DL sub-frames included.
    pub cursor: u64,
    /// Seconds `capture_for_spec` took.
    pub capture_secs: f64,
    /// The batch report.
    pub report: RobustRunReport,
    /// Seconds the batch run took.
    pub robust_secs: f64,
}

impl Reference {
    /// The cell's capture; only a reference made with the capture
    /// kept has one.
    pub fn capture(&self) -> &FaultyCapture {
        self.capture
            .as_ref()
            .expect("reference made without its capture")
    }
}

/// Run `spec` through the batch path as far as `extent`, timing each
/// call; keep the capture when `keep_capture`.
pub fn reference(spec: &CellSpec, extent: Extent, keep_capture: bool) -> Result<Reference, String> {
    let t0 = Instant::now();
    let capture = capture_for_spec(spec).map_err(|e| e.to_string())?;
    let capture_secs = t0.elapsed().as_secs_f64();
    let config = cell_config(spec);
    let t1 = Instant::now();
    let report = match extent {
        Extent::End => run_blu_robust(&capture, &config).map_err(|e| e.to_string())?,
        Extent::Rounds(rounds) => {
            let sup = SupervisorConfig {
                max_rounds: Some(rounds),
                ..SupervisorConfig::default()
            };
            let outcome = run_supervised_fleet(std::slice::from_ref(&capture), &config, &sup)
                .map_err(|e| e.to_string())?;
            if outcome.health.total_restarts() != 0 || outcome.health.quarantined() != 0 {
                return Err(format!("batch run of spec seed {}: restarted", spec.seed));
            }
            outcome
                .reports
                .into_iter()
                .next()
                .ok_or("no batch report")?
        }
    };
    let robust_secs = t1.elapsed().as_secs_f64();
    let geom = CellGeometry::derive(&capture.trace, &config.blu.emulation);
    Ok(Reference {
        spec: spec.clone(),
        extent,
        trace_len: geom.trace_len,
        cursor: report.measurement_subframes + report.metrics.subframes / geom.ul * geom.per_txop,
        capture: keep_capture.then_some(capture),
        capture_secs,
        report,
        robust_secs,
    })
}

/// References for `jobs` (spec index and extent) of `specs`, computed
/// on `threads` threads (one thread keeps the timings of each call
/// clean).
pub fn references(
    specs: &[CellSpec],
    jobs: &[(usize, Extent)],
    threads: usize,
    keep_capture: bool,
) -> Result<BTreeMap<usize, Reference>, String> {
    let threads = threads.clamp(1, jobs.len().max(1));
    let chunks: Vec<Vec<(usize, Extent)>> = (0..threads)
        .map(|t| jobs.iter().copied().skip(t).step_by(threads).collect())
        .collect();
    let results: Vec<Result<Vec<(usize, Reference)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(i, extent)| {
                            reference(&specs[i], extent, keep_capture).map(|r| (i, r))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("reference run panicked".into()))
            })
            .collect()
    });
    let mut out = BTreeMap::new();
    for chunk in results {
        out.extend(chunk?);
    }
    Ok(out)
}

fn check_health(what: &str, status: &StatusReport) -> Result<(), String> {
    if status.counters.restarts != 0 || status.counters.quarantined != 0 {
        return Err(format!(
            "{what}: {} supervisor restart(s), {} quarantined cell(s)",
            status.counters.restarts, status.counters.quarantined
        ));
    }
    for cell in &status.cells {
        if cell.restarts != 0 || cell.health == CellHealth::Quarantined {
            return Err(format!(
                "{what}: cell {} is {:?} after {} restart(s)",
                cell.cell, cell.health, cell.restarts
            ));
        }
    }
    Ok(())
}

/// Check one iteration. `refs` must hold a reference for every
/// admitted cell: run to its end for a cell that ends the script
/// resident, and for the rounds it was stepped for a removed cell.
pub fn check_iteration(it: &Iteration, refs: &BTreeMap<usize, Reference>) -> Result<(), String> {
    check_health("before the drain", &it.final_status)?;
    check_health("after the resume", &it.resumed_status)?;

    // Every admitted cell is accounted for: done at the end of its
    // trace, or removed with its final checkpoint on disk at the
    // sub-frame the batch path reaches in the rounds it was stepped.
    for cell in &it.cells {
        let drained = it
            .drained
            .iter()
            .find(|d| d.id == cell.id)
            .ok_or_else(|| format!("cell {} left no checkpoint", cell.id))?;
        let r = refs
            .get(&cell.index)
            .ok_or_else(|| format!("no batch reference for spec {}", cell.index))?;
        if cell.removed {
            if r.extent != Extent::Rounds(cell.rounds) {
                return Err(format!(
                    "removed cell {}: batch reference ran {:?}, the cell was stepped {} rounds",
                    cell.id, r.extent, cell.rounds
                ));
            }
            if drained.snap.cursor != cell.cursor || cell.cursor != r.cursor {
                return Err(format!(
                    "removed cell {} after {} rounds: final checkpoint at sub-frame {}, \
                     removed at {}, the batch path reaches {} in as many rounds",
                    cell.id, cell.rounds, drained.snap.cursor, cell.cursor, r.cursor
                ));
            }
            continue;
        }
        let (trace_len, end) = (r.trace_len, r.cursor);
        let status = it
            .final_status
            .cells
            .iter()
            .find(|c| c.cell == cell.id)
            .ok_or_else(|| format!("cell {} is missing from the final status", cell.id))?;
        if r.extent != Extent::End
            || !status.done
            || status.cursor != end
            || status.trace_len != trace_len
        {
            return Err(format!(
                "cell {}: done={} at {}/{} sub-frames; the batch run ended at {end} of {trace_len}",
                cell.id, status.done, status.cursor, status.trace_len
            ));
        }

        // The drained checkpoint agrees with the batch path.
        let snap = &drained.snap;
        let ours = (
            snap.metrics.bits_delivered.to_bits(),
            snap.metrics.subframes,
            snap.measurement_subframes,
            snap.verdicts.len(),
        );
        let batch = (
            r.report.metrics.bits_delivered.to_bits(),
            r.report.metrics.subframes,
            r.report.measurement_subframes,
            r.report.verdicts.len(),
        );
        if ours != batch || !snap.done {
            return Err(format!(
                "cell {} (spec {}): drained (bits, sub-frames, measurement sub-frames, \
                 inferences) = {ours:?}, batch path gives {batch:?}",
                cell.id, cell.index
            ));
        }
    }

    // After resume, every cell of the drained roster reports the
    // digest it had before the drain. Removed cells that come back
    // are counted as failed `remove`s, not here.
    for before in &it.final_status.cells {
        let after = it
            .resumed_status
            .cells
            .iter()
            .find(|c| c.cell == before.cell)
            .ok_or_else(|| format!("cell {} did not resume", before.cell))?;
        if after.digest != before.digest || after.cursor != before.cursor {
            return Err(format!(
                "cell {} resumed with digest {} at {}, drained with {} at {}",
                before.cell, after.digest, after.cursor, before.digest, before.cursor
            ));
        }
    }
    let expected = it.final_status.cells.len() + it.resurrected.len();
    if it.resumed_status.cells.len() != expected {
        return Err(format!(
            "resume brought back {} cells, expected {expected}",
            it.resumed_status.cells.len()
        ));
    }
    Ok(())
}
