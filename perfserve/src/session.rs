//! One iteration of a workload against a live daemon: start it on a
//! fresh directory, admit the initial fleet, run the client script to
//! its end, drain, restart over the drained directory and compare.

use crate::client::{Client, Ledger, Span};
use crate::workload::{Shape, Workload};
use blu_core::orchestrator::BluConfig;
use blu_core::robust::{RobustConfig, RobustSnapshot};
use blu_core::runtime::load_robust_checkpoint;
use blu_core::runtime::supervisor::SupervisorConfig;
use blu_core::runtime::wire::{CellSpec, Request, Response, StatusReport, WIRE_VERSION};
use blu_core::runtime::{BluService, ServiceConfig, ServiceHandle};
use blu_core::EmulationConfig;
use blu_phy::cell::CellConfig;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// `step` rounds that run every resident cell to its end (a burst
/// stops early once every cell is done).
pub const TO_COMPLETION: u64 = 1_000_000;

/// The robust configuration `blu serve` runs its cells under by
/// default (10 resource blocks on the testbed SISO cell).
pub fn serve_robust() -> RobustConfig {
    let mut cell = CellConfig::testbed_siso();
    cell.numerology.n_rbs = 10;
    RobustConfig::new(BluConfig::new(EmulationConfig::new(cell)))
}

/// The daemon's configuration: `blu serve` defaults (manual stepping,
/// the 2000-sub-frame checkpoint grid, fleet cache off, the default
/// fleet worker count) rooted at `dir`.
pub fn serve_config(dir: &Path, resume: bool) -> ServiceConfig {
    let mut config = ServiceConfig::new(serve_robust(), dir.to_path_buf());
    config.resume = resume;
    config.supervisor = SupervisorConfig {
        max_restarts: 3,
        ..SupervisorConfig::default()
    };
    config
}

/// A cell as the client tracked it.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// Daemon-assigned id.
    pub id: u64,
    /// Index of its spec in [`Workload::specs`].
    pub index: usize,
    /// Cursor at the last `status`, or at removal.
    pub cursor: u64,
    /// Whether the client removed it.
    pub removed: bool,
    /// Whether the last `status` reported it done.
    pub done: bool,
    /// Fleet rounds the client asked for while the cell was resident
    /// and not yet reported done (counted by the client, not read from
    /// the daemon).
    pub rounds: u64,
}

/// A cell's checkpoint as the drain left it on disk.
#[derive(Debug, Clone)]
pub struct Drained {
    /// Daemon-assigned id.
    pub id: u64,
    /// Index of its spec in [`Workload::specs`].
    pub index: usize,
    /// Whether the client removed it before the drain.
    pub removed: bool,
    /// Size of the checkpoint file, in bytes.
    pub bytes: u64,
    /// The decoded snapshot.
    pub snap: RobustSnapshot,
}

/// Everything one iteration measured and kept for checking.
#[derive(Debug)]
pub struct Iteration {
    /// Daemon start plus admission of the initial fleet, seconds.
    pub setup_s: f64,
    /// Process CPU seconds of the same (the client's think time
    /// between the round trips costs only the accept loop's polls).
    pub setup_cpu_s: f64,
    /// Restart over the drained directory until `hello` is answered.
    pub resume_s: f64,
    /// Process CPU seconds of the same.
    pub resume_cpu_s: f64,
    /// Bytes in the checkpoint directory after the drain.
    pub checkpoint_bytes: u64,
    /// Every command, in the order sent (step spans carry their
    /// advance).
    pub spans: Vec<Span>,
    /// Per-verb account.
    pub ledger: Ledger,
    /// Every admitted cell, in admission order.
    pub cells: Vec<Admitted>,
    /// The last `status` before the drain.
    pub final_status: StatusReport,
    /// The `status` after the resume.
    pub resumed_status: StatusReport,
    /// Every checkpoint the drain left, removed cells' included.
    pub drained: Vec<Drained>,
    /// Removed cells that came back on resume.
    pub resurrected: Vec<u64>,
}

impl Iteration {
    fn spans_of<'a>(&'a self, verb: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.verb == verb)
    }

    /// Round-trip times of every command of `verb`, in milliseconds.
    pub fn ms_of(&self, verb: &str) -> Vec<f64> {
        self.spans_of(verb).map(|s| s.secs() * 1e3).collect()
    }

    /// Process CPU time of every command of `verb`, in milliseconds.
    pub fn cpu_ms_of(&self, verb: &str) -> Vec<f64> {
        self.spans_of(verb).map(|s| s.cpu * 1e3).collect()
    }

    /// Sub-frames each `step` advanced per process CPU second it took
    /// (steps that advanced nothing are left out).
    pub fn step_cpu_rates(&self) -> Vec<f64> {
        self.spans_of("step")
            .filter(|s| s.advance > 0 && s.cpu > 0.0)
            .map(|s| s.advance as f64 / s.cpu)
            .collect()
    }

    /// Total `step` round-trip time, in seconds.
    pub fn step_secs(&self) -> f64 {
        self.spans_of("step").map(Span::secs).sum()
    }

    /// Process CPU time of every `step` round trip, in seconds.
    pub fn step_cpu_secs(&self) -> f64 {
        self.spans_of("step").map(|s| s.cpu).sum()
    }

    /// Emulated sub-frames advanced by every `step`.
    pub fn advanced(&self) -> u64 {
        self.spans_of("step").map(|s| s.advance).sum()
    }
}

/// Process CPU seconds so far (0 where the clock cannot be read; the
/// timed loop refuses a run whose CPU figures come out 0).
fn process_cpu_secs() -> f64 {
    crate::host::process_cpu_secs().unwrap_or(0.0)
}

fn expect_status(resp: Response) -> Result<StatusReport, String> {
    match resp {
        Response::Status(status) => Ok(status),
        other => Err(format!("status: unexpected reply {other:?}")),
    }
}

fn expect_done(verb: &str, resp: Response) -> Result<Option<u64>, String> {
    match resp {
        Response::Done { cell } => Ok(cell),
        other => Err(format!("{verb}: unexpected reply {other:?}")),
    }
}

/// The client side of one daemon session: the tracked roster plus the
/// attribution of each `step`'s advance.
struct Session {
    client: Client,
    cells: Vec<Admitted>,
    last_status: Option<StatusReport>,
    last_rounds: u64,
}

impl Session {
    fn add(&mut self, index: usize, spec: &CellSpec) -> Result<(), String> {
        let resp = self.client.call(&Request::AddCell { spec: spec.clone() })?;
        let id = expect_done("add", resp)?.ok_or("add: no cell id in reply")?;
        self.cells.push(Admitted {
            id,
            index,
            cursor: 0,
            removed: false,
            done: false,
            rounds: 0,
        });
        Ok(())
    }

    fn step(&mut self, rounds: u64) -> Result<(), String> {
        let mut running = 0;
        for cell in self.cells.iter_mut().filter(|c| !c.removed && !c.done) {
            cell.rounds += rounds;
            running += 1;
        }
        let resp = self.client.call(&Request::Step { rounds });
        if let Some(span) = self.client.spans.last_mut() {
            span.running = running;
        }
        expect_done("step", resp?).map(|_| ())
    }

    /// Read status and credit the cursor advance since the previous
    /// status to the most recent `step`.
    fn status(&mut self) -> Result<bool, String> {
        let status = expect_status(self.client.call(&Request::Status)?)?;
        let mut advance = 0u64;
        for cs in &status.cells {
            let cell = self
                .cells
                .iter_mut()
                .find(|c| c.id == cs.cell && !c.removed)
                .ok_or_else(|| {
                    format!("status reports cell {} the client never admitted", cs.cell)
                })?;
            advance += cs.cursor.checked_sub(cell.cursor).ok_or_else(|| {
                format!(
                    "cell {} moved back from {} to {}",
                    cs.cell, cell.cursor, cs.cursor
                )
            })?;
            cell.cursor = cs.cursor;
            cell.done = cs.done;
        }
        let resident = self.cells.iter().filter(|c| !c.removed).count();
        if status.cells.len() != resident {
            return Err(format!(
                "status lists {} cells, the client has {resident} resident",
                status.cells.len()
            ));
        }
        let rounds = status.counters.rounds - self.last_rounds;
        self.last_rounds = status.counters.rounds;
        if let Some(step) = self
            .client
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.verb == "step")
        {
            step.advance += advance;
            step.rounds += rounds;
        }
        let all_done = status.cells.iter().all(|c| c.done);
        self.last_status = Some(status);
        Ok(all_done)
    }

    fn remove_oldest(&mut self) -> Result<(), String> {
        let cell = self
            .cells
            .iter_mut()
            .find(|c| !c.removed)
            .ok_or("remove: no resident cell")?;
        cell.removed = true;
        let id = cell.id;
        let resp = self.client.call(&Request::RemoveCell { cell: id })?;
        match expect_done("remove", resp)? {
            Some(got) if got == id => Ok(()),
            other => Err(format!("remove of cell {id} answered for {other:?}")),
        }
    }

    fn simple(&mut self, req: Request) -> Result<(), String> {
        let verb = crate::client::verb(&req);
        match self.client.call(&req)? {
            Response::Done { .. } | Response::Bye | Response::Metrics { .. } => Ok(()),
            other => Err(format!("{verb}: unexpected reply {other:?}")),
        }
    }
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("listing {}: {e}", dir.display()))?;
        total += entry
            .metadata()
            .map_err(|e| format!("sizing {}: {e}", entry.path().display()))?
            .len();
    }
    Ok(total)
}

fn stop(client: &mut Client, handle: ServiceHandle) -> Result<(), String> {
    match client.call(&Request::Shutdown)? {
        Response::Bye => {}
        other => return Err(format!("shutdown: unexpected reply {other:?}")),
    }
    handle.wait().map_err(|e| format!("daemon exited with {e}"))
}

/// Run one iteration of `workload` over `specs` in the fresh
/// directory `dir`; the client's think times are drawn from
/// `think_seed`.
pub fn run_iteration(
    workload: Workload,
    shape: &Shape,
    specs: &[CellSpec],
    dir: &Path,
    think_seed: u64,
) -> Result<Iteration, String> {
    if dir.exists() {
        return Err(format!("{} already exists", dir.display()));
    }

    // Set-up: daemon start plus the initial fleet's round trips (the
    // client's think time between them is not set-up).
    let cpu0 = process_cpu_secs();
    let t0 = Instant::now();
    let handle = BluService::start(serve_config(dir, false)).map_err(|e| e.to_string())?;
    let start_s = t0.elapsed().as_secs_f64();
    let mut s = Session {
        client: Client::new(handle.addr(), think_seed),
        cells: Vec::new(),
        last_status: None,
        last_rounds: 0,
    };
    for (i, spec) in specs.iter().enumerate().take(shape.initial_cells) {
        s.add(i, spec)?;
    }
    let setup_s = start_s + s.client.spans.iter().map(Span::secs).sum::<f64>();
    let setup_cpu_s = process_cpu_secs() - cpu0;

    match workload {
        Workload::PhasedFleet => {
            let mut bursts = 0usize;
            loop {
                s.step(shape.burst_rounds)?;
                bursts += 1;
                if s.status()? {
                    break;
                }
                if bursts.is_multiple_of(shape.snapshot_every) {
                    s.simple(Request::Snapshot)?;
                }
            }
        }
        Workload::CtlMix => {
            for c in 0..shape.cycles {
                let index = shape.initial_cells + c;
                s.add(index, &specs[index])?;
                s.step(shape.burst_rounds)?;
                s.status()?;
                s.simple(Request::Metrics)?;
                s.remove_oldest()?;
                if (c + 1).is_multiple_of(shape.snapshot_every) {
                    s.simple(Request::Snapshot)?;
                }
            }
            s.step(TO_COMPLETION)?;
            if !s.status()? {
                return Err("ctl_mix: cells still running after a step to completion".into());
            }
        }
    }
    let final_status = s.last_status.take().ok_or("no status was read")?;

    // Drain: graceful shutdown persists every resident cell.
    stop(&mut s.client, handle)?;
    let checkpoint_bytes = dir_bytes(dir)?;
    let mut drained = Vec::new();
    for cell in &s.cells {
        let path = dir.join(format!("cell-{}.json", cell.id));
        let bytes = std::fs::metadata(&path)
            .map_err(|e| format!("cell {} left no checkpoint: {e}", cell.id))?
            .len();
        let snap = load_robust_checkpoint(&path).map_err(|e| e.to_string())?;
        drained.push(Drained {
            id: cell.id,
            index: cell.index,
            removed: cell.removed,
            bytes,
            snap,
        });
    }

    // Resume over the drained directory: restart plus the first
    // `hello` round trip.
    let cpu1 = process_cpu_secs();
    let t1 = Instant::now();
    let handle = BluService::start(serve_config(dir, true)).map_err(|e| e.to_string())?;
    let restart_s = t1.elapsed().as_secs_f64();
    s.client.retarget(handle.addr());
    match s.client.call(&Request::Hello {
        version: WIRE_VERSION,
    })? {
        Response::Hello { .. } => {}
        other => return Err(format!("hello: unexpected reply {other:?}")),
    }
    let resume_s = restart_s + s.client.spans.last().map_or(0.0, Span::secs);
    let resume_cpu_s = process_cpu_secs() - cpu1;
    let resumed_status = expect_status(s.client.call(&Request::Status)?)?;
    let removed: BTreeMap<u64, ()> = s
        .cells
        .iter()
        .filter(|c| c.removed)
        .map(|c| (c.id, ()))
        .collect();
    let resurrected: Vec<u64> = resumed_status
        .cells
        .iter()
        .map(|c| c.cell)
        .filter(|id| removed.contains_key(id))
        .collect();
    for _ in &resurrected {
        s.client.ledger.fail("remove");
    }
    stop(&mut s.client, handle)?;

    Ok(Iteration {
        setup_s,
        setup_cpu_s,
        resume_s,
        resume_cpu_s,
        checkpoint_bytes,
        spans: s.client.spans,
        ledger: s.client.ledger,
        cells: s.cells,
        final_status,
        resumed_status,
        drained,
        resurrected,
    })
}
