//! Per-layer timings, taken from outside: each layer's public calls
//! are timed on the run's own specs, captures, drained snapshots and
//! `status` replies, and the sum of the timed calls (each multiplied
//! by how often the traced run made it) is reconciled with the traced
//! `step` time.

use crate::check::{cell_config, Extent, Reference};
use crate::client::Span;
use crate::session::{serve_config, serve_robust, Iteration};
use crate::stats::median;
use blu_core::blueprint::{topology_accuracy, InferenceBackend};
use blu_core::engine::{
    run_pipeline, CellContext, CellSnapshot, GenerateStage, InferStage, MeasureFidelity,
    MeasureStage, SchedulePolicy, ScheduleStage, Stage, StageFlow, StageKind, StreamInferStage,
    SubframeObserver, TransmitFeed, TransmitStage,
};
use blu_core::error::BluError;
use blu_core::robust::RobustSnapshot;
use blu_core::runtime::wire::{decode_response, encode_response, Request, Response, WIRE_VERSION};
use blu_core::runtime::{
    load_robust_checkpoint, save_robust_checkpoint, snapshot_digest, BluService, BreakerConfig,
};
use blu_core::NullObserver;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions of each sub-millisecond call, so one timing is not a
/// single clock read.
const REPS: u32 = 20;

/// `hello` commands behind `wire.hello_ms_p50`.
const HELLOS: usize = 60;

/// One per-layer figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// What it is a share or a mean of.
    pub base: String,
}

fn fig(name: &'static str, value: f64, unit: &'static str, base: impl Into<String>) -> Figure {
    Figure {
        name,
        value,
        unit,
        base: base.into(),
    }
}

/// Mean seconds of `f` over [`REPS`] calls.
fn time_mean<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..REPS {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() / f64::from(REPS)
}

/// A stage wrapped so its `run` is timed.
struct Timed<'a> {
    inner: &'a mut dyn Stage,
    spent: Duration,
}

impl Stage for Timed<'_> {
    fn kind(&self) -> StageKind {
        self.inner.kind()
    }

    fn run(
        &mut self,
        ctx: &mut CellContext<'_, '_>,
        observer: &mut dyn SubframeObserver,
    ) -> Result<StageFlow, BluError> {
        let t0 = Instant::now();
        let flow = self.inner.run(ctx, observer);
        self.spent += t0.elapsed();
        flow
    }
}

/// Seconds in each of the five stages, composed the way
/// `orchestrator::run_blu` composes them, plus the sub-frames the
/// transmit stage drove.
fn time_stages(reference: &Reference) -> Result<([f64; 5], u64), String> {
    let trace = &reference.capture().trace;
    let config = serve_robust().blu;
    let backend = InferenceBackend::default();
    let mut snap = CellSnapshot::fresh(
        trace.ground_truth.n_clients,
        trace.access.len() as u64,
        0,
        0.0,
        BreakerConfig::default(),
    );
    let mut ctx = CellContext::new(
        trace,
        None,
        &config.emulation,
        &config.inference,
        &backend,
        &mut snap,
    );
    let mut measure = MeasureStage {
        t_samples: config.t_samples,
        fidelity: MeasureFidelity::Strict {
            what: "measurement phase",
        },
    };
    let mut infer = InferStage { gate: None };
    let mut generate = GenerateStage;
    let mut schedule = ScheduleStage {
        policy: SchedulePolicy::FullRun,
    };
    let mut transmit = TransmitStage {
        feed: TransmitFeed::Estimator,
    };
    let mut timed: Vec<Timed> = [
        &mut measure as &mut dyn Stage,
        &mut infer,
        &mut generate,
        &mut schedule,
        &mut transmit,
    ]
    .into_iter()
    .map(|inner| Timed {
        inner,
        spent: Duration::ZERO,
    })
    .collect();
    {
        let mut stages: Vec<&mut dyn Stage> =
            timed.iter_mut().map(|t| t as &mut dyn Stage).collect();
        run_pipeline(&mut ctx, &mut stages, &mut NullObserver).map_err(|e| e.to_string())?;
    }
    let transmitted = ctx
        .last_report
        .as_ref()
        .map_or(0, |report| report.metrics.subframes);
    let mut secs = [0.0; 5];
    for (slot, t) in secs.iter_mut().zip(&timed) {
        *slot = t.spent.as_secs_f64();
    }
    Ok((secs, transmitted))
}

/// Seconds of one `StreamInferStage` call on a copy of `snap`.
fn time_stream_refine(reference: &Reference, snap: &RobustSnapshot) -> Result<f64, String> {
    let config = cell_config(&reference.spec);
    let streaming = config.streaming.ok_or("stream refine on a phased cell")?;
    let mut stage = StreamInferStage {
        confidence_floor: config.confidence_floor,
        refine_deadline_steps: streaming.refine_deadline_steps,
    };
    let mut total = 0.0;
    for _ in 0..REPS {
        let mut copy = snap.clone();
        let mut ctx = CellContext::new(
            &reference.capture().trace,
            Some(&reference.capture().script),
            &config.blu.emulation,
            &config.blu.inference,
            &config.backend,
            &mut copy,
        );
        let t0 = Instant::now();
        stage
            .run(&mut ctx, &mut NullObserver)
            .map_err(|e| e.to_string())?;
        total += t0.elapsed().as_secs_f64();
    }
    Ok(total / f64::from(REPS))
}

/// Median and mean of `hello` round trips, in milliseconds, over
/// fresh connections to a daemon with no cells: what every command
/// pays the wire and the accept loop before any engine work.
fn hello_ms(dir: &Path) -> Result<(f64, f64), String> {
    let handle = BluService::start(serve_config(dir, false)).map_err(|e| e.to_string())?;
    let mut client = crate::client::Client::new(handle.addr(), HELLOS as u64);
    for _ in 0..HELLOS {
        client.call(&Request::Hello {
            version: WIRE_VERSION,
        })?;
    }
    client.call(&Request::Shutdown)?;
    handle.wait().map_err(|e| e.to_string())?;
    let ms: Vec<f64> = client
        .spans
        .iter()
        .filter(|s| s.verb == "hello")
        .map(|s| s.secs() * 1e3)
        .collect();
    Ok((median(&ms)?, ms.iter().sum::<f64>() / ms.len() as f64))
}

/// Cell-steps the daemon made in `it`: for every burst, the rounds it
/// ran times the cells still running when it began (an upper bound:
/// a cell that ends inside a burst is counted to its end).
fn cell_steps(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.verb == "step")
        .map(|s| s.rounds * s.running)
        .sum()
}

/// Everything the traced run measured.
pub struct TraceInputs<'a> {
    /// The batch reference of every spec, timed on one thread.
    pub refs: &'a BTreeMap<usize, Reference>,
    /// The replay with the daemon's default fleet workers.
    pub parallel: &'a Iteration,
    /// The replay pinned to one fleet worker.
    pub single: &'a Iteration,
    /// A scratch directory inside the run's directory.
    pub scratch: &'a Path,
}

/// Every per-layer figure of a traced run.
pub fn figures(t: &TraceInputs) -> Result<Vec<Figure>, String> {
    let refs = t.refs;
    let single = t.single;
    let n_refs = refs.len() as f64;
    let mut out = Vec::new();

    // capture
    let capture_s: f64 = refs.values().map(|r| r.capture_secs).sum();
    out.push(fig(
        "capture.ms_per_cell",
        capture_s * 1e3 / n_refs,
        "ms",
        format!("mean over {} specs", refs.len()),
    ));

    // robust: every cell as far as the daemon stepped it, the cells
    // that finish to their end and removed cells for their rounds.
    let to_end: Vec<&Reference> = refs.values().filter(|r| r.extent == Extent::End).collect();
    let robust_s: f64 = refs.values().map(|r| r.robust_secs).sum();
    let robust_sf: u64 = refs.values().map(|r| r.cursor).sum();
    let cells_base = format!(
        "{} cells: {} run to their end, {} for the rounds they were stepped before removal",
        refs.len(),
        to_end.len(),
        refs.len() - to_end.len()
    );
    out.push(fig(
        "robust.subframes_per_s",
        robust_sf as f64 / robust_s,
        "1/s",
        format!("{robust_sf} sub-frames over {robust_s:.4} s, one thread; {cells_base}"),
    ));
    out.push(fig(
        "robust.inferences",
        refs.values()
            .map(|r| r.report.verdicts.len())
            .sum::<usize>() as f64,
        "count",
        format!("summed over {cells_base}"),
    ));
    out.push(fig(
        "robust.stream_refines",
        refs.values().map(|r| r.report.stream_refines).sum::<u64>() as f64,
        "count",
        format!("summed over {cells_base}"),
    ));
    let stream_s = refs
        .values()
        .filter(|r| r.spec.stream_window > 0)
        .fold(0.0, |acc, r| acc + r.robust_secs);
    out.push(fig(
        "robust.stream_share",
        stream_s / robust_s,
        "ratio",
        format!(
            "{stream_s:.4} s in streaming cells / {robust_s:.4} s batch time of {cells_base}; \
             {:.3} of the one-worker step time",
            stream_s / t.single.step_secs()
        ),
    ));

    // stage: the phased pipeline over the traces of the cells the
    // daemon ran to their end.
    let mut stage_s = [0.0; 5];
    let mut transmitted = 0u64;
    for r in &to_end {
        let (secs, sf) = time_stages(r)?;
        for (acc, s) in stage_s.iter_mut().zip(secs) {
            *acc += s;
        }
        transmitted += sf;
    }
    let names = [
        "stage.measure_ms",
        "stage.infer_ms",
        "stage.generate_ms",
        "stage.schedule_ms",
        "stage.transmit_ms",
    ];
    for (name, s) in names.into_iter().zip(stage_s) {
        out.push(fig(
            name,
            s * 1e3 / to_end.len() as f64,
            "ms",
            format!(
                "per cell, mean over the {} cells run to their end",
                to_end.len()
            ),
        ));
    }
    out.push(fig(
        "stage.transmit_ns_per_subframe",
        stage_s[4] * 1e9 / transmitted.max(1) as f64,
        "ns",
        format!("{transmitted} UL sub-frames the transmit stage decoded"),
    ));

    // Drained snapshots of the traced replay.
    let drained = &single.drained;
    let n_drained = drained.len() as f64;
    let streaming: Vec<_> = drained.iter().filter(|d| d.snap.stream.is_some()).collect();
    let mut refine_s = 0.0;
    for d in &streaming {
        refine_s += time_stream_refine(&refs[&d.index], &d.snap)?;
    }
    let (refine_ms, refine_base) = if streaming.is_empty() {
        // A phased workload has no streaming snapshot: refine the
        // first cell's batch run as a streaming cell instead.
        let (r, snap) = streaming_stand_in(refs, t.scratch)?;
        (
            time_stream_refine(&r, &snap)? * 1e3,
            "one streaming stand-in of the first spec".to_string(),
        )
    } else {
        (
            refine_s * 1e3 / streaming.len() as f64,
            format!("mean over {} streaming snapshots", streaming.len()),
        )
    };
    out.push(fig("stage.stream_refine_ms", refine_ms, "ms", refine_base));

    // service
    let step_one = single.step_secs();
    let step_par = t.parallel.step_secs();
    let rounds = single.final_status.counters.rounds;
    out.push(fig(
        "service.step_ms_per_round",
        step_one * 1e3 / rounds.max(1) as f64,
        "ms",
        format!("{rounds} rounds, one fleet worker"),
    ));
    out.push(fig(
        "service.rounds",
        rounds as f64,
        "count",
        "status counters.rounds",
    ));
    // The batch time of exactly the rounds the daemon ran.
    let robust_equiv = robust_s;
    out.push(fig(
        "service.overhead_frac",
        1.0 - robust_equiv / step_one,
        "ratio",
        format!(
            "1 - {robust_equiv:.4} s batch time of the stepped rounds / {step_one:.4} s traced step time"
        ),
    ));
    let clone_s: f64 = drained
        .iter()
        .map(|d| time_mean(|| d.snap.clone()))
        .sum::<f64>()
        / n_drained;
    out.push(fig(
        "service.clone_ms",
        clone_s * 1e3,
        "ms",
        format!("per cell, mean over {} drained snapshots", drained.len()),
    ));
    let digest_s: f64 = drained
        .iter()
        .map(|d| time_mean(|| snapshot_digest(&d.snap)))
        .sum::<f64>()
        / n_drained;
    out.push(fig(
        "service.digest_ms",
        digest_s * 1e3,
        "ms",
        format!("per cell, mean over {} drained snapshots", drained.len()),
    ));

    // fleet
    out.push(fig(
        "fleet.speedup",
        step_one / step_par,
        "ratio",
        format!("{step_one:.4} s one-worker step time / {step_par:.4} s default-worker step time"),
    ));

    // checkpoint
    let ckpt_dir = t.scratch.join("checkpoint-layer");
    let mut save_s = 0.0;
    let mut load_s = 0.0;
    for d in drained {
        let path = ckpt_dir.join(format!("cell-{}.json", d.id));
        save_s += time_mean(|| save_robust_checkpoint(&path, &d.snap));
        load_s += time_mean(|| load_robust_checkpoint(&path));
        load_robust_checkpoint(&path).map_err(|e| e.to_string())?;
    }
    out.push(fig(
        "checkpoint.save_ms",
        save_s * 1e3 / n_drained,
        "ms",
        format!("per cell, mean over {} drained snapshots", drained.len()),
    ));
    out.push(fig(
        "checkpoint.load_ms",
        load_s * 1e3 / n_drained,
        "ms",
        format!("per cell, mean over {} drained snapshots", drained.len()),
    ));
    let bytes: u64 = drained.iter().map(|d| d.bytes).sum();
    out.push(fig(
        "checkpoint.bytes_per_cell",
        bytes as f64 / n_drained,
        "B",
        format!("mean over {} drained checkpoint files", drained.len()),
    ));

    // wire
    let (hello_p50, hello_mean) = hello_ms(&t.scratch.join("hello"))?;
    out.push(fig(
        "wire.hello_ms_p50",
        hello_p50,
        "ms",
        format!("{HELLOS} hellos, each on a fresh connection (mean {hello_mean:.3} ms)"),
    ));
    let status = Response::Status(single.final_status.clone());
    let encoded = encode_response(&status).map_err(|e| e.to_string())?;
    out.push(fig(
        "wire.status_bytes",
        encoded.len() as f64,
        "B",
        format!("final status of {} cells", single.final_status.cells.len()),
    ));
    out.push(fig(
        "wire.encode_us",
        time_mean(|| encode_response(&status)) * 1e6,
        "us",
        "one status reply",
    ));
    out.push(fig(
        "wire.decode_us",
        time_mean(|| decode_response(&encoded)) * 1e6,
        "us",
        "one status reply",
    ));

    // blueprint
    let phased: Vec<_> = drained
        .iter()
        .filter(|d| !d.removed && d.snap.stream.is_none())
        .collect();
    let scored: Vec<_> = if phased.is_empty() {
        drained.iter().filter(|d| !d.removed).collect()
    } else {
        phased
    };
    let mut exact = 0.0;
    let mut with_blueprint = 0usize;
    for d in &scored {
        if let Some(bp) = &d.snap.blueprint {
            let truth = &refs[&d.index].capture().trace.ground_truth;
            exact += topology_accuracy(truth, &bp.topology).exact_fraction();
            with_blueprint += 1;
        }
    }
    out.push(fig(
        "blueprint.exact_frac",
        exact / with_blueprint.max(1) as f64,
        "ratio",
        format!(
            "mean over {with_blueprint} {} cells' final blueprints",
            if scored.iter().any(|d| d.snap.stream.is_some()) {
                "streaming"
            } else {
                "phased"
            }
        ),
    ));

    // trace: what the timed layers do not explain of the step time.
    let steps = cell_steps(&single.spans);
    // One grid save per crossing; a cell that ends saves once more
    // unless its end is itself on the grid.
    let grid = serve_config(t.scratch, false).every_subframes;
    let saves: u64 = single
        .cells
        .iter()
        .map(|c| {
            if c.removed {
                c.cursor / grid
            } else {
                c.cursor.div_ceil(grid)
            }
        })
        .sum();
    // Every `step` command also pays what a `hello` pays: the accept
    // poll, the connection and the frames.
    let step_commands = single.spans.iter().filter(|s| s.verb == "step").count();
    let explained = robust_equiv
        + clone_s * steps as f64
        + save_s / n_drained * saves as f64
        + hello_mean / 1e3 * step_commands as f64;
    out.push(fig(
        "trace.residual_frac",
        1.0 - explained / step_one,
        "ratio",
        format!(
            "base {step_one:.4} s traced step time; explained {explained:.4} s = \
             batch {robust_equiv:.4} s + {steps} clones + {saves} checkpoint saves + \
             {step_commands} hello-equivalent round trips"
        ),
    ));
    Ok(out)
}

/// A streaming snapshot for a workload without streaming cells: the
/// first spec run to its end as a streaming cell by the batch path.
fn streaming_stand_in(
    refs: &BTreeMap<usize, Reference>,
    scratch: &Path,
) -> Result<(Reference, RobustSnapshot), String> {
    let first = refs.values().next().ok_or("no specs")?;
    let spec = blu_core::runtime::wire::CellSpec {
        stream_window: crate::workload::STREAM_WINDOW,
        churn_millihz: crate::workload::CHURN_MILLIHZ,
        ..first.spec.clone()
    };
    let r = crate::check::reference(&spec, Extent::End, true)?;
    let mut config = cell_config(&spec);
    let dir = scratch.join("stand-in");
    config.checkpoint = Some(blu_core::engine::CheckpointPolicy {
        dir: dir.clone(),
        every_subframes: 0,
        resume: false,
    });
    blu_core::robust::run_blu_robust(r.capture(), &config).map_err(|e| e.to_string())?;
    let snap = load_robust_checkpoint(&dir.join("cell-0.json")).map_err(|e| e.to_string())?;
    Ok((r, snap))
}
