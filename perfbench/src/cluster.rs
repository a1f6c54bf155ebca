//! `hk_cluster`: horizontal kernel SVM on the in-process MapReduce
//! `Cluster` through `ppml_core::jobs::train_kernel_on_cluster`, plus the
//! helper that reads per-iteration boundaries from the cluster's own
//! `TaskAttempt` and `BroadcastBytes` events.

use std::sync::Arc;
use std::time::Instant;

use ppml_core::jobs::{train_kernel_on_cluster, ClusterTuning};
use ppml_core::{AdmmConfig, HorizontalKernelSvm, KernelConsensusModel};
use ppml_data::{synth, Dataset, Partition};
use ppml_kernel::Kernel;
use ppml_mapreduce::JobMetrics;
use ppml_svm::{KernelSvm, SvmParams};
use ppml_telemetry::{self as telemetry, Event, EventKind, RingSink};

use crate::{cpu, stats, Metrics, M};

/// Rows of the higgs-like data set, before the 80/20 split.
const ROWS: usize = 2000;
/// ADMM iterations per training run.
pub const ITERS: usize = 100;
/// Training rows of the RBF model the serving phase loads.
const SERVED_ROWS: usize = 400;
/// Ring capacity; one training run emits well under this many events.
const RING: usize = 1 << 14;

/// A call made with a [`RingSink`] installed, with its wall and CPU time.
pub struct TracedCall<T> {
    pub value: T,
    pub cpu_s: f64,
    /// Telemetry clock just before and just after the call.
    pub call_ns: u64,
    pub end_ns: u64,
    pub events: Vec<Event>,
}

/// Runs `f` with a fresh [`RingSink`] installed as the telemetry sink.
pub fn traced_call<T>(f: impl FnOnce() -> Result<T, String>) -> Result<TracedCall<T>, String> {
    let ring = RingSink::new(RING);
    telemetry::install(Arc::clone(&ring) as Arc<dyn telemetry::Sink>);
    let cpu0 = cpu::process_cpu();
    let call_ns = telemetry::now_ns();
    let value = f();
    let end_ns = telemetry::now_ns();
    let cpu_s = (cpu::process_cpu() - cpu0).as_secs_f64();
    telemetry::uninstall();
    let value = value?;
    if ring.recorded() > RING as u64 {
        return Err(format!("{} events overflowed the ring", ring.recorded()));
    }
    Ok(TracedCall {
        value,
        cpu_s,
        call_ns,
        end_ns,
        events: ring.snapshot(),
    })
}

impl<T> TracedCall<T> {
    /// When the first map task was handed to a worker.
    pub fn first_dispatch_ns(&self) -> Result<u64, String> {
        self.events
            .iter()
            .find(|e| matches!(e.kind, EventKind::TaskAttempt { .. }))
            .map(|e| e.t_ns)
            .ok_or_else(|| "cluster emitted no task attempt".to_string())
    }

    /// Durations of each iteration: first dispatch to the first
    /// iteration's `BroadcastBytes`, then between consecutive ones.
    pub fn iteration_ms(&self) -> Result<Vec<f64>, String> {
        let mut prev = self.first_dispatch_ns()?;
        let mut out = Vec::new();
        for e in &self.events {
            if let EventKind::BroadcastBytes { .. } = e.kind {
                out.push(e.t_ns.saturating_sub(prev) as f64 / 1e6);
                prev = e.t_ns;
            }
        }
        Ok(out)
    }

    fn attempts(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskAttempt { .. }))
            .count()
    }

    /// The `mapreduce.*` per-layer metrics read from the events.
    pub fn report(&self, iters: usize, out: &mut Metrics) -> Result<(), String> {
        out.put(
            "mapreduce.iter_ms_p50",
            stats::percentile(&self.iteration_ms()?, 0.5)?,
        );
        out.put(
            "mapreduce.attempts_per_task",
            (iters * M) as f64 / self.attempts().max(1) as f64,
        );
        out.put(
            "mapreduce.first_dispatch_ms",
            (self.first_dispatch_ns()? - self.call_ns) as f64 / 1e6,
        );
        Ok(())
    }
}

/// Generated inputs of `hk_cluster` and the in-process reference model.
pub struct Hk {
    pub parts: Vec<Dataset>,
    pub test: Dataset,
    pub cfg: AdmmConfig,
    /// `Debug` rendering of the in-process model: f64 fields print in
    /// round-trip form, so equal strings mean bit-identical models.
    reference: String,
    /// Training rows of the RBF model the serving phase loads.
    served_rows: Dataset,
}

impl Hk {
    pub fn generate(seed: u64) -> Result<Hk, String> {
        let data = synth::higgs_like(ROWS, seed);
        let (train, test) = data.split(0.8, seed).map_err(|e| e.to_string())?;
        let parts = Partition::horizontal(&train, M, seed).map_err(|e| e.to_string())?;
        // γ ≈ 1/features, the bandwidth the repository's figures use here.
        let cfg = AdmmConfig::default()
            .with_max_iter(ITERS)
            .with_kernel(Kernel::Rbf { gamma: 1.0 / 28.0 })
            .with_seed(seed);
        let inproc = HorizontalKernelSvm::train(&parts, &cfg, None)
            .map_err(|e| format!("in-process kernel trainer: {e}"))?;
        let served_rows: Vec<usize> = (0..SERVED_ROWS.min(train.len())).collect();
        Ok(Hk {
            parts,
            test,
            cfg,
            reference: format!("{:?}", inproc.model),
            served_rows: train.select(&served_rows),
        })
    }

    /// `draws` data sets made from `seed`, their in-process references
    /// trained concurrently.
    pub fn generate_draws(seed: u64, draws: u64) -> Result<Vec<Hk>, String> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..draws)
                .map(|i| {
                    scope.spawn(move || Hk::generate(seed.wrapping_mul(draws).wrapping_add(i)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference training thread"))
                .collect()
        })
    }

    /// Wall and CPU seconds of `HorizontalKernelSvm::train` alone on this
    /// draw: the single-process baseline.
    pub fn inproc_baseline(&self) -> Result<(f64, f64), String> {
        let cpu0 = cpu::process_cpu();
        let t0 = Instant::now();
        let inproc = HorizontalKernelSvm::train(&self.parts, &self.cfg, None)
            .map_err(|e| format!("in-process kernel trainer: {e}"))?;
        let wall = t0.elapsed().as_secs_f64();
        let cpu_s = (cpu::process_cpu() - cpu0).as_secs_f64();
        if format!("{:?}", inproc.model) != self.reference {
            return Err("in-process kernel trainer is not deterministic".into());
        }
        Ok((wall, cpu_s))
    }

    /// The RBF model the serving phase loads, trained centrally with the
    /// workload's kernel and `C`.
    pub fn served_model(&self) -> Result<KernelSvm, String> {
        let params = SvmParams {
            c: self.cfg.c,
            kernel: self.cfg.kernel,
            ..SvmParams::default()
        };
        KernelSvm::train(&self.served_rows, &params).map_err(|e| format!("served RBF model: {e}"))
    }
}

/// One cluster training run.
pub struct Run {
    /// Call to first task dispatch: landmarks, learner set-up, cluster
    /// start and block load.
    pub setup_s: f64,
    /// First dispatch to return.
    pub train_s: f64,
    pub round_ms: Vec<f64>,
    pub metrics: JobMetrics,
    pub model: KernelConsensusModel,
    /// The model equals the in-process trainer's, bit for bit.
    pub ok: bool,
    pub call: TracedCall<()>,
}

pub fn train_once(hk: &Hk) -> Result<Run, String> {
    let mut result = None;
    let call = traced_call(|| {
        result = Some(
            train_kernel_on_cluster(&hk.parts, &hk.cfg, None, ClusterTuning::default())
                .map_err(|e| format!("cluster kernel trainer: {e}"))?,
        );
        Ok(())
    })?;
    let (outcome, metrics) = result.expect("set by a successful call");
    let first = call.first_dispatch_ns()?;
    let round_ms = call.iteration_ms()?;
    if round_ms.len() != metrics.iterations {
        return Err(format!(
            "{} iteration events for {} iterations",
            round_ms.len(),
            metrics.iterations
        ));
    }
    Ok(Run {
        setup_s: (first - call.call_ns) as f64 / 1e9,
        train_s: (call.end_ns - first) as f64 / 1e9,
        round_ms,
        ok: format!("{:?}", outcome.model) == hk.reference,
        model: outcome.model,
        metrics,
        call,
    })
}
