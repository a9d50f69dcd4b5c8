//! One benchmark run: the timed loop (`--trace 0`) or the traced run
//! (`--trace 1`), its checks, its record and its result line.

use crate::check::{check_iteration, references, Extent, Reference};
use crate::client::Ledger;
use crate::layers::{figures, TraceInputs};
use crate::session::{run_iteration, Iteration};
use crate::stats::{median, percentile};
use crate::workload::{splitmix64, Shape, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The end-to-end metrics every timed run prints, with their units.
/// Every time among them is process CPU time (`CLOCK_PROCESS_CPUTIME_ID`:
/// the daemon's threads and the client together), which leaves out
/// the time the host steals and the time threads wait for a core. The
/// wall-clock figures of the same commands go to the run record: on a
/// shared host whose steal swings between a few and 60% of the CPU
/// time wanted, they moved by 40% and more between runs of the same
/// code, beyond any bound a metric may have.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("subframes_per_cpu_s", "1/s"),
    ("status_cpu_ms_p50", "ms"),
    ("status_cpu_ms_p90", "ms"),
    ("add_cpu_ms_p50", "ms"),
    ("resume_cpu_s", "s"),
    ("checkpoint_bytes", "B"),
    ("peak_rss_mb", "MiB"),
    ("effective_mbps", "Mbit/s"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("capture.ms_per_cell", "ms"),
    ("robust.subframes_per_s", "1/s"),
    ("robust.inferences", "count"),
    ("robust.stream_refines", "count"),
    ("robust.stream_share", "ratio"),
    ("stage.measure_ms", "ms"),
    ("stage.infer_ms", "ms"),
    ("stage.generate_ms", "ms"),
    ("stage.schedule_ms", "ms"),
    ("stage.transmit_ms", "ms"),
    ("stage.transmit_ns_per_subframe", "ns"),
    ("stage.stream_refine_ms", "ms"),
    ("service.step_ms_per_round", "ms"),
    ("service.rounds", "count"),
    ("service.overhead_frac", "ratio"),
    ("service.clone_ms", "ms"),
    ("service.digest_ms", "ms"),
    ("fleet.speedup", "ratio"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes_per_cell", "B"),
    ("wire.hello_ms_p50", "ms"),
    ("wire.status_bytes", "B"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("blueprint.exact_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
];

/// Fewest `status` round trips a timed run collects, so its p90 has
/// ten samples beyond it.
pub const MIN_STATUS: usize = 100;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its size.
    pub shape: Shape,
    /// Workload seed; every cell seed derives from it.
    pub seed: u64,
    /// Seconds of whole iterations to measure (a timed run always
    /// completes at least one).
    pub seconds: f64,
    /// Run the traced run instead of the timed loop.
    pub trace: bool,
    /// Directory the run works in (created fresh, removed at the end).
    pub dir: PathBuf,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Per-verb account of every command.
    pub ledger: Ledger,
    /// Metric name → (value, unit), in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable record lines (host, bases, per-verb account).
    pub record: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let (attempted, failed) = self.ledger.totals();
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Indices of the specs whose cells end the script resident and so run
/// to their end: the whole fleet, or `ctl_mix`'s last admissions.
pub fn finishing(workload: Workload, shape: &Shape) -> Vec<usize> {
    let total = shape.initial_cells + shape.cycles;
    match workload {
        Workload::CtlMix => (total - shape.initial_cells..total).collect(),
        _ => (0..total).collect(),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A cell's effective uplink throughput in Mbit/s: delivered bits
/// over every elapsed sub-frame, measurement overhead charged.
fn effective_mbps(snap: &blu_core::robust::RobustSnapshot) -> f64 {
    let total = snap.metrics.subframes + snap.measurement_subframes;
    snap.metrics.bits_delivered / (total.max(1) as f64 * 1_000.0)
}

/// Run, time and check the `iteration`-th iteration. The batch
/// references of the cells that finish are computed before the daemon
/// session, and those of removed cells after it, once the rounds they
/// were stepped are known; both lie outside the timing. Returns the
/// iteration, its references and the seconds its daemon session took.
pub fn checked_iteration(
    opts: &Options,
    iteration: usize,
    tag: &str,
) -> Result<(Iteration, BTreeMap<usize, Reference>, f64), String> {
    let specs = opts.workload.specs(&opts.shape, opts.seed, iteration);
    // The traced run times every batch run on one thread and keeps the
    // captures for the layer timings.
    let (threads, keep_capture) = if opts.trace {
        (1, true)
    } else {
        (crate::host::nproc(), false)
    };
    let to_end: Vec<(usize, Extent)> = finishing(opts.workload, &opts.shape)
        .into_iter()
        .map(|i| (i, Extent::End))
        .collect();
    let mut refs = references(&specs, &to_end, threads, keep_capture)?;
    let dir = opts.dir.join(tag);
    let think_seed = splitmix64(opts.seed ^ splitmix64(iteration as u64));
    let t0 = Instant::now();
    let it = run_iteration(opts.workload, &opts.shape, &specs, &dir, think_seed)?;
    let secs = t0.elapsed().as_secs_f64();
    let removed: Vec<(usize, Extent)> = it
        .cells
        .iter()
        .filter(|c| c.removed)
        .map(|c| (c.index, Extent::Rounds(c.rounds)))
        .collect();
    refs.extend(references(&specs, &removed, threads, keep_capture)?);
    check_iteration(&it, &refs).map_err(|e| format!("{tag}: check failed: {e}"))?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok((it, refs, secs))
}

/// Run the benchmark as `opts` asks. Any failed check is an error.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.dir.exists() {
        std::fs::remove_dir_all(&opts.dir)
            .map_err(|e| format!("clearing {}: {e}", opts.dir.display()))?;
    }
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("creating {}: {e}", opts.dir.display()))?;
    let result = if opts.trace {
        traced(opts)
    } else {
        timed(opts)
    };
    let _ = std::fs::remove_dir_all(&opts.dir);
    result
}

/// What the timed loop keeps of an iteration (its snapshots and
/// status replies are dropped at once, so memory stays flat however
/// many iterations a run makes).
struct Kept {
    setup_s: f64,
    setup_cpu_s: f64,
    resume_s: f64,
    resume_cpu_s: f64,
    checkpoint_bytes: f64,
    status_ms: Vec<f64>,
    status_cpu_ms: Vec<f64>,
    add_ms: Vec<f64>,
    add_cpu_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    step_cpu_rates: Vec<f64>,
    step_s: f64,
    step_cpu_s: f64,
    advanced: u64,
    effective_mbps: Vec<f64>,
    resurrected: usize,
}

impl Kept {
    fn of(it: &Iteration) -> Kept {
        Kept {
            setup_s: it.setup_s,
            setup_cpu_s: it.setup_cpu_s,
            resume_s: it.resume_s,
            resume_cpu_s: it.resume_cpu_s,
            checkpoint_bytes: it.checkpoint_bytes as f64,
            status_ms: it.ms_of("status"),
            status_cpu_ms: it.cpu_ms_of("status"),
            add_ms: it.ms_of("add"),
            add_cpu_ms: it.cpu_ms_of("add"),
            snapshot_ms: it.ms_of("snapshot"),
            step_cpu_rates: it.step_cpu_rates(),
            step_s: it.step_secs(),
            step_cpu_s: it.step_cpu_secs(),
            advanced: it.advanced(),
            effective_mbps: it.drained.iter().map(|d| effective_mbps(&d.snap)).collect(),
            resurrected: it.resurrected.len(),
        }
    }
}

fn timed(opts: &Options) -> Result<Outcome, String> {
    let ticks0 = crate::host::cpu_ticks();
    let t0 = Instant::now();
    let mut measured = 0.0;
    let mut kept = Vec::new();
    let mut ledger = Ledger::default();
    loop {
        let i = kept.len();
        let (it, _, secs) = checked_iteration(opts, i, &format!("iter-{i}"))?;
        ledger.merge(&it.ledger);
        kept.push(Kept::of(&it));
        drop(it);
        crate::host::trim_heap();
        measured += secs;
        let statuses: usize = kept.iter().map(|k| k.status_ms.len()).sum();
        if measured >= opts.seconds && statuses >= MIN_STATUS {
            break;
        }
    }

    if kept
        .iter()
        .any(|k| k.step_cpu_s <= 0.0 || k.setup_cpu_s <= 0.0 || k.resume_cpu_s <= 0.0)
    {
        return Err(
            "the process CPU clock measured no time during set-up, `step` or resume".into(),
        );
    }
    let all =
        |f: fn(&Kept) -> &Vec<f64>| -> Vec<f64> { kept.iter().flat_map(f).copied().collect() };
    let per_it = |f: fn(&Kept) -> f64| -> Vec<f64> { kept.iter().map(f).collect() };
    let status = all(|k| &k.status_ms);
    let rates = all(|k| &k.effective_mbps);
    let step_s: f64 = per_it(|k| k.step_s).iter().sum();
    let step_cpu_s: f64 = per_it(|k| k.step_cpu_s).iter().sum();
    let advanced: u64 = kept.iter().map(|k| k.advanced).sum();
    let status_cpu = all(|k| &k.status_cpu_ms);
    let step_rates = all(|k| &k.step_cpu_rates);
    let values = [
        median(&per_it(|k| k.setup_cpu_s))?,
        median(&step_rates)?,
        percentile(&status_cpu, 0.5)?,
        percentile(&status_cpu, 0.9).map_err(|e| format!("status_cpu_ms_p90: {e}"))?,
        median(&all(|k| &k.add_cpu_ms))?,
        median(&per_it(|k| k.resume_cpu_s))?,
        median(&per_it(|k| k.checkpoint_bytes))?,
        peak_rss_mb()?,
        rates.iter().sum::<f64>() / rates.len() as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();

    let steal = crate::host::steal_share(ticks0, crate::host::cpu_ticks())
        .map_or_else(|| "unknown".into(), |s| format!("{:.1}%", s * 100.0));
    let snapshot = all(|k| &k.snapshot_ms);
    let mut record = vec![
        format!(
            "{} iteration(s): {measured:.2} s of daemon sessions in {:.2} s; {} status, {} add, \
             {} snapshot commands; {advanced} sub-frames over {step_s:.3} s of step round trips \
             ({step_cpu_s:.3} s of process CPU time)",
            kept.len(),
            t0.elapsed().as_secs_f64(),
            status.len(),
            all(|k| &k.add_ms).len(),
            snapshot.len(),
        ),
        format!(
            "wall clock (not gated): set-up {:.4} s, resume {:.4} s (medians over iterations); \
             status round trip p50 {:.4} ms p90 {:.4} ms; add p50 {:.4} ms; forced snapshot \
             p50 {:.4} ms",
            median(&per_it(|k| k.setup_s))?,
            median(&per_it(|k| k.resume_s))?,
            percentile(&status, 0.5)?,
            percentile(&status, 0.9)?,
            median(&all(|k| &k.add_ms))?,
            median(&snapshot)?,
        ),
        format!(
            "sub-frames per CPU second: median over {} step round trips that advanced the fleet",
            step_rates.len()
        ),
        format!("host steal during the run: {steal} of the CPU time this machine wanted"),
        format!(
            "sub-frames per wall-clock second of step round trips {:.4} (median over \
             iterations; not a gated metric)",
            median(&per_it(|k| k.advanced as f64 / k.step_s))?
        ),
    ];
    let resurrected: usize = kept.iter().map(|k| k.resurrected).sum();
    if resurrected > 0 {
        record.push(format!(
            "{resurrected} removed cell(s) came back on resume (counted as failed removes)"
        ));
    }
    Ok(Outcome {
        ledger,
        metrics,
        record,
    })
}

/// Pin (or unpin) the daemon's fleet engine to one worker. The
/// engine reads the variable on every round; it is set only between
/// daemon sessions, when no round runs.
fn pin_one_worker(pin: bool) {
    if pin {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    } else {
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}

fn traced(opts: &Options) -> Result<Outcome, String> {
    let previous = std::env::var_os("RAYON_NUM_THREADS");
    let (parallel, refs, _) = checked_iteration(opts, 0, "default-workers")?;
    pin_one_worker(true);
    let single = checked_iteration(opts, 0, "one-worker");
    match previous {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => pin_one_worker(false),
    }
    let (single, _, _) = single?;

    let scratch = opts.dir.join("layers");
    let figs = figures(&TraceInputs {
        refs: &refs,
        parallel: &parallel,
        single: &single,
        scratch: &scratch,
    })?;

    let mut metrics = Vec::new();
    let mut record = Vec::new();
    for (name, unit) in PER_LAYER {
        let f = figs
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| format!("layer metric {name} was not measured"))?;
        if f.unit != unit {
            return Err(format!(
                "layer metric {name} measured in {}, not {unit}",
                f.unit
            ));
        }
        metrics.push((name, f.value, unit));
        record.push(format!("{name} = {:.6} {unit}  ({})", f.value, f.base));
    }
    let mut by_verb: BTreeMap<&str, f64> = BTreeMap::new();
    for span in &single.spans {
        *by_verb.entry(span.verb).or_default() += span.secs();
    }
    let total: f64 = by_verb.values().sum();
    let shares: Vec<String> = by_verb
        .iter()
        .map(|(verb, secs)| format!("{verb} {secs:.4} s ({:.1}%)", secs / total * 100.0))
        .collect();
    record.push(format!(
        "round-trip time of the one-worker replay by verb, of {total:.4} s: {}",
        shares.join(", ")
    ));
    let spans = spans_tsv(&single);
    let spans_path = opts.dir.parent().unwrap_or(Path::new(".")).join(format!(
        "spans-{}-seed{}.tsv",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&spans_path, spans)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    record.push(format!(
        "spans of the one-worker replay: {}",
        spans_path.display()
    ));

    let mut ledger = parallel.ledger.clone();
    ledger.merge(&single.ledger);
    Ok(Outcome {
        ledger,
        metrics,
        record,
    })
}

/// The traced replay's spans: verb, start and end (seconds from the
/// first command), rounds and cursor advance.
fn spans_tsv(it: &Iteration) -> String {
    let Some(origin) = it.spans.first().map(|s| s.start) else {
        return String::new();
    };
    let mut out = String::from("verb\tstart_s\tend_s\trounds\tadvance\n");
    for s in &it.spans {
        let _ = writeln!(
            out,
            "{}\t{:.6}\t{:.6}\t{}\t{}",
            s.verb,
            (s.start - origin).as_secs_f64(),
            (s.end - origin).as_secs_f64(),
            s.rounds,
            s.advance
        );
    }
    out
}
