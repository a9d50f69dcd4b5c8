//! The benchmark's wire client: one connection per command, set up
//! exactly as `blu ctl` sets it up (a read deadline and nothing else),
//! every request through [`wire::roundtrip`].
//!
//! [`wire::roundtrip`]: blu_core::runtime::wire::roundtrip

use crate::workload::splitmix64;
use blu_core::runtime::wire::{roundtrip, Request, Response, DEFAULT_MAX_FRAME};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Read deadline of every command (the `blu ctl` default).
pub const READ_TIMEOUT: Duration = Duration::from_secs(600);

/// The verb of a request, as `blu ctl` names it.
pub fn verb(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "hello",
        Request::AddCell { .. } => "add",
        Request::RemoveCell { .. } => "remove",
        Request::Step { .. } => "step",
        Request::Status => "status",
        Request::Metrics => "metrics",
        Request::Snapshot => "snapshot",
        Request::Drain => "drain",
        Request::Shutdown => "shutdown",
    }
}

/// Attempted and failed commands per verb. A failure is a transport
/// error or an `Error`, `Busy` or `Rejected` reply; the script adds
/// removed cells that come back on resume as failed `remove`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// verb → (attempted, failed)
    pub verbs: BTreeMap<&'static str, (u64, u64)>,
}

impl Ledger {
    /// Count one attempt of `verb`.
    pub fn attempt(&mut self, verb: &'static str) {
        self.verbs.entry(verb).or_default().0 += 1;
    }

    /// Count one failure of `verb` (its attempt is counted apart).
    pub fn fail(&mut self, verb: &'static str) {
        self.verbs.entry(verb).or_default().1 += 1;
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: &Ledger) {
        for (verb, (a, f)) in &other.verbs {
            let e = self.verbs.entry(verb).or_default();
            e.0 += a;
            e.1 += f;
        }
    }

    /// Total (attempted, failed).
    pub fn totals(&self) -> (u64, u64) {
        self.verbs
            .values()
            .fold((0, 0), |(a, f), &(va, vf)| (a + va, f + vf))
    }
}

/// One command as the client saw it.
#[derive(Debug, Clone)]
pub struct Span {
    /// The command's verb.
    pub verb: &'static str,
    /// When the client began to connect.
    pub start: Instant,
    /// When the reply was decoded (or the transport failed).
    pub end: Instant,
    /// CPU seconds the whole process (the daemon's threads and the
    /// client) spent between `start` and `end`; 0 where the process
    /// clock cannot be read.
    pub cpu: f64,
    /// Emulated sub-frames the command advanced the fleet by (filled
    /// in for `step` once the following `status` is read).
    pub advance: u64,
    /// Fleet rounds the command ran (filled in for `step` from the
    /// next `status`'s counters).
    pub rounds: u64,
    /// Cells still running when a `step` was sent.
    pub running: u64,
}

impl Span {
    /// Round-trip time in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Upper end of the client's think time before each command, in
/// microseconds: one period of the daemon's 5 ms accept poll.
pub const THINK_MAX_US: u64 = 5_000;

/// A closed-loop single-threaded client of one daemon.
///
/// Before each command the client thinks for a seeded random
/// 0–5 ms, outside every round trip. Without it, each command would
/// reach the daemon at a phase of the accept loop's 5 ms poll fixed by
/// the previous command's handling time, and round trips would jump by
/// whole poll periods from one run to the next.
pub struct Client {
    addr: SocketAddr,
    think: u64,
    /// Every command's account.
    pub ledger: Ledger,
    /// Every command, in the order sent.
    pub spans: Vec<Span>,
}

impl Client {
    /// A client of the daemon at `addr`, its think times drawn from
    /// `seed`.
    pub fn new(addr: SocketAddr, seed: u64) -> Self {
        Client {
            addr,
            think: seed,
            ledger: Ledger::default(),
            spans: Vec::new(),
        }
    }

    fn think(&mut self) {
        self.think = splitmix64(self.think);
        std::thread::sleep(Duration::from_micros(self.think % THINK_MAX_US));
    }

    /// Point the client at a restarted daemon, keeping its account.
    pub fn retarget(&mut self, addr: SocketAddr) {
        self.addr = addr;
    }

    /// Send one command over a fresh connection and read the reply.
    /// Refusals (`Error`, `Busy`, `Rejected`) and transport errors are
    /// counted as failed and returned as `Err`.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let verb = verb(req);
        self.ledger.attempt(verb);
        self.think();
        let cpu0 = crate::host::process_cpu_secs();
        let start = Instant::now();
        let result = send(self.addr, req);
        let end = Instant::now();
        let cpu = match (cpu0, crate::host::process_cpu_secs()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        self.spans.push(Span {
            verb,
            start,
            end,
            cpu,
            advance: 0,
            rounds: 0,
            running: 0,
        });
        let outcome = match result {
            Ok(Response::Error { message }) => Err(format!("{verb}: daemon error: {message}")),
            Ok(Response::Busy) => Err(format!("{verb}: daemon busy")),
            Ok(Response::Rejected { reason }) => Err(format!("{verb}: rejected: {reason}")),
            Ok(resp) => Ok(resp),
            Err(e) => Err(format!("{verb}: transport: {e}")),
        };
        if outcome.is_err() {
            self.ledger.fail(verb);
        }
        outcome
    }
}

fn send(addr: SocketAddr, req: &Request) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("configuring socket: {e}"))?;
    roundtrip(&mut stream, req, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())
}
