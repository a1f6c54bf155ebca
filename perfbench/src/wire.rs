//! `hl_pairwise` / `hl_paillier`: horizontal linear SVM trained by a
//! coordinator and M = 4 learner threads over loopback-TCP
//! `EventTransport`, through the public `ppml_core::secagg` entry points.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ppml_core::jobs::{train_linear_on_cluster, ClusterTuning};
use ppml_core::secagg::{coordinate_linear_secagg, learn_linear_secagg};
use ppml_core::{AdmmConfig, DistributedTiming, HorizontalLinearSvm, SecAggConfig};
use ppml_data::{synth, Dataset, Partition};
use ppml_svm::LinearSvm;
use ppml_transport::{Courier, EventTransport, LinkStats, Message, PartyId, RetryPolicy};

use crate::trace::{Op, Timed, WireSpan};
use crate::{cluster, cpu, stats, Metrics, M};

/// Rows of the cancer-like data set, before the 80/20 split.
const ROWS: usize = 569;
/// Per-message socket timeout of every endpoint.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the coordinator waits for its learners to dial in.
const CONNECT_DEADLINE: Duration = Duration::from_secs(10);

/// Generated inputs of one wire workload and the reference model every
/// training run must reproduce bit for bit.
pub struct Wire {
    pub parts: Vec<Dataset>,
    pub test: Dataset,
    pub cfg: AdmmConfig,
    pub secagg: SecAggConfig,
    pub reference: LinearSvm,
}

impl Wire {
    pub fn generate(seed: u64, secagg: SecAggConfig, rounds: usize) -> Result<Wire, String> {
        let data = synth::cancer_like(ROWS, seed);
        let (train, test) = data.split(0.8, seed).map_err(|e| e.to_string())?;
        let parts = Partition::horizontal(&train, M, seed).map_err(|e| e.to_string())?;
        let cfg = AdmmConfig::default().with_max_iter(rounds).with_seed(seed);
        let (reference, _) = train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default())
            .map_err(|e| format!("reference cluster run: {e}"))?;
        Ok(Wire {
            parts,
            test,
            cfg,
            secagg,
            reference: reference.model,
        })
    }

    pub fn features(&self) -> usize {
        self.test.features()
    }
}

/// One complete distributed training run.
pub struct Run {
    /// First bind to the coordinator's first round broadcast.
    pub setup_s: f64,
    /// First round broadcast to the coordinator's return.
    pub train_s: f64,
    /// Coordinator broadcast to broadcast, one entry per round.
    pub round_ms: Vec<f64>,
    /// Wire bytes the coordinator accounted (broadcasts plus shares).
    pub bytes: usize,
    pub model: LinearSvm,
    /// Every learner's model equals the coordinator's and the reference.
    pub ok: bool,
    /// Spans of every party; only round boundaries unless traced.
    pub spans: Vec<WireSpan>,
    /// Link counters summed over every party.
    pub link: LinkStats,
}

fn loopback() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

pub fn same_bits(a: &LinearSvm, b: &LinearSvm) -> bool {
    a.bias().to_bits() == b.bias().to_bits()
        && a.weights().len() == b.weights().len()
        && a.weights()
            .iter()
            .zip(b.weights())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

type LearnerOut = Result<(LinearSvm, Vec<WireSpan>, LinkStats), String>;

/// Trains once: binds M + 1 fresh endpoints, runs the protocol, checks
/// every party's model and returns the measurements.
pub fn train_once(w: &Wire, traced: bool) -> Result<Run, String> {
    let coord_id = M as PartyId;
    let timing = DistributedTiming::default();
    let cfg = w.cfg;
    let secagg = w.secagg;
    let base = Instant::now();
    let coord = EventTransport::bind(
        coord_id,
        loopback(),
        HashMap::new(),
        RetryPolicy::tcp_link(),
        IO_TIMEOUT,
    )
    .map_err(|e| format!("bind coordinator: {e}"))?;
    let addr = coord.local_addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = w
            .parts
            .iter()
            .enumerate()
            .map(|(p, part)| {
                scope.spawn(move || -> LearnerOut {
                    let party = p as PartyId;
                    let t = EventTransport::bind(
                        party,
                        loopback(),
                        HashMap::from([(coord_id, addr)]),
                        RetryPolicy::tcp_link(),
                        IO_TIMEOUT,
                    )
                    .map_err(|e| format!("bind learner {p}: {e}"))?;
                    let mut courier =
                        Courier::new(Timed::new(t, base, traced), RetryPolicy::tcp_default());
                    // The event loop dials lazily: announce to open the link.
                    courier
                        .send_unreliable(coord_id, &Message::Heartbeat { nonce: p as u64 })
                        .map_err(|e| format!("learner {p} announce: {e}"))?;
                    let model = learn_linear_secagg(&mut courier, M, part, &cfg, timing, secagg)
                        .map_err(|e| format!("learner {p}: {e}"))?;
                    let (spans, link) = courier.into_inner().finish();
                    Ok((model, spans, link))
                })
            })
            .collect();

        let deadline = Instant::now() + CONNECT_DEADLINE;
        while coord.connected_parties().len() < M {
            if Instant::now() > deadline {
                return Err("learners never dialed in".to_string());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        let mut courier = Courier::new(Timed::new(coord, base, traced), RetryPolicy::tcp_default());
        let outcome =
            coordinate_linear_secagg(&mut courier, M, w.features(), &cfg, None, timing, secagg)
                .map_err(|e| format!("coordinator: {e}"));
        let end_ns = base.elapsed().as_nanos() as u64;
        let (mut spans, mut link) = courier.into_inner().finish();
        let mut learner_models = Vec::with_capacity(M);
        for h in handles {
            let (model, s, l) = h
                .join()
                .map_err(|_| "learner thread panicked".to_string())??;
            learner_models.push(model);
            spans.extend(s);
            link = link.merged(l);
        }
        let outcome = outcome?;

        let starts = round_starts(&spans, coord_id);
        let rounds = outcome.history.len();
        if starts.len() != rounds + 1 {
            return Err(format!(
                "saw {} round broadcasts for {rounds} rounds",
                starts.len()
            ));
        }
        let first = starts[&0];
        let round_ms = starts
            .values()
            .zip(starts.values().skip(1))
            .map(|(a, b)| (b - a) as f64 / 1e6)
            .collect();
        let ok = same_bits(&outcome.model, &w.reference)
            && learner_models.iter().all(|l| same_bits(l, &outcome.model));
        Ok(Run {
            setup_s: first as f64 / 1e9,
            train_s: (end_ns - first) as f64 / 1e9,
            round_ms,
            bytes: outcome.metrics.bytes_broadcast + outcome.metrics.bytes_shuffled,
            model: outcome.model,
            ok,
            spans,
            link,
        })
    })
}

/// Start of each round: the coordinator's first consensus broadcast
/// carrying that iteration (the last one is the final `done` broadcast).
fn round_starts(spans: &[WireSpan], coord: PartyId) -> BTreeMap<u64, u64> {
    let mut starts = BTreeMap::new();
    for s in spans {
        if s.party == coord && s.op == Op::Send && s.kind == "consensus" {
            let at = starts.entry(s.round).or_insert(s.start_ns);
            *at = (*at).min(s.start_ns);
        }
    }
    starts
}

fn is_share(kind: &str) -> bool {
    kind == "masked_share" || kind == "cipher_share"
}

/// Per-round samples of the wire layers, accumulated over training runs.
#[derive(Default)]
pub struct WireLayers {
    send_us: Vec<f64>,
    collect_wait_ms: Vec<f64>,
    learner_compute_ms: Vec<f64>,
    coord_fold_ms: Vec<f64>,
    authority_ms: Vec<f64>,
    straggler_ms: Vec<f64>,
    round_ns: u64,
    covered_ns: u64,
    rounds: usize,
    frames: u64,
    retries: u64,
}

impl WireLayers {
    /// Folds one traced run's spans into the samples.
    pub fn add(&mut self, run: &Run) {
        let coord = M as PartyId;
        let starts = round_starts(&run.spans, coord);
        let rounds = starts.len().saturating_sub(1);
        self.rounds += rounds;
        self.frames += run.link.frames_sent;
        self.retries += run.link.retries;

        let mut by_party: BTreeMap<PartyId, Vec<&WireSpan>> = BTreeMap::new();
        for s in &run.spans {
            by_party.entry(s.party).or_default().push(s);
            if s.op == Op::Send {
                self.send_us.push((s.end_ns - s.start_ns) as f64 / 1e3);
            }
        }
        for spans in by_party.values_mut() {
            spans.sort_by_key(|s| s.start_ns);
        }

        let empty = Vec::new();
        let coord_spans = by_party.get(&coord).unwrap_or(&empty);
        let bounds: Vec<(u64, u64)> = starts
            .values()
            .zip(starts.values().skip(1))
            .map(|(&a, &b)| (a, b))
            .collect();
        for (r, &(lo, hi)) in bounds.iter().enumerate() {
            let r = r as u64;
            let inside: Vec<&&WireSpan> = coord_spans
                .iter()
                .filter(|s| s.start_ns >= lo && s.start_ns < hi)
                .collect();
            let wait: u64 = inside
                .iter()
                .filter(|s| s.op == Op::Recv)
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            self.collect_wait_ms.push(wait as f64 / 1e6);
            let arrivals: Vec<u64> = inside
                .iter()
                .filter(|s| s.op == Op::Recv && is_share(s.kind) && s.round == r)
                .map(|s| s.end_ns)
                .collect();
            let mut intervals: Vec<(u64, u64)> =
                inside.iter().map(|s| (s.start_ns, s.end_ns)).collect();
            if let (Some(&first), Some(&last)) = (arrivals.iter().min(), arrivals.iter().max()) {
                self.straggler_ms.push((last - first) as f64 / 1e6);
                // Fold: last share in to next consensus out, minus the
                // authority round trip (its child span) under paillier.
                let fold = (last, hi);
                let agg_out = inside
                    .iter()
                    .find(|s| s.op == Op::Send && s.kind == "cipher_agg" && s.round == r)
                    .map(|s| s.start_ns);
                let sum_in = inside
                    .iter()
                    .find(|s| s.op == Op::Recv && s.kind == "cipher_sum" && s.round == r)
                    .map(|s| s.end_ns);
                let children: Vec<(u64, u64)> = match (agg_out, sum_in) {
                    (Some(a), Some(b)) => vec![(a, b)],
                    _ => Vec::new(),
                };
                self.coord_fold_ms
                    .push(stats::self_time_ns(fold, &children) as f64 / 1e6);
                intervals.push(fold);
            }
            self.round_ns += hi - lo;
            self.covered_ns += stats::covered_ns((lo, hi), &intervals);
        }

        for (&party, spans) in &by_party {
            if party == coord {
                continue;
            }
            let mut consensus_in: BTreeMap<u64, u64> = BTreeMap::new();
            let mut agg_in: BTreeMap<u64, u64> = BTreeMap::new();
            for s in spans {
                match (s.op, s.kind) {
                    (Op::Recv, "consensus") => {
                        consensus_in.entry(s.round).or_insert(s.end_ns);
                    }
                    (Op::Recv, "cipher_agg") => {
                        agg_in.entry(s.round).or_insert(s.end_ns);
                    }
                    (Op::Send, k) if is_share(k) => {
                        if let Some(t) = consensus_in.remove(&s.round) {
                            self.learner_compute_ms.push((s.start_ns - t) as f64 / 1e6);
                        }
                    }
                    (Op::Send, "cipher_sum") => {
                        if let Some(t) = agg_in.remove(&s.round) {
                            self.authority_ms.push((s.start_ns - t) as f64 / 1e6);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// The per-layer metrics of the wire layers.
    pub fn report(&self, out: &mut Metrics) -> Result<(), String> {
        let p50 = |v: &[f64]| stats::percentile(v, 0.5);
        let rounds = self.rounds.max(1) as f64;
        out.put("transport.send_us", p50(&self.send_us)?);
        out.put("transport.frames_per_round", self.frames as f64 / rounds);
        out.put("transport.retries_per_round", self.retries as f64 / rounds);
        out.put("core.collect_wait_ms", p50(&self.collect_wait_ms)?);
        out.put("core.learner_compute_ms", p50(&self.learner_compute_ms)?);
        out.put("core.coord_fold_ms", p50(&self.coord_fold_ms)?);
        out.put(
            "core.authority_decrypt_ms",
            if self.authority_ms.is_empty() {
                0.0
            } else {
                p50(&self.authority_ms)?
            },
        );
        out.put(
            "core.straggler_gap_ms",
            stats::percentile(&self.straggler_ms, 0.9)?,
        );
        out.put(
            "core.unattributed_frac",
            1.0 - self.covered_ns as f64 / self.round_ns.max(1) as f64,
        );
        Ok(())
    }
}

/// Single-process baselines on the same inputs: the in-process trainer
/// and the in-process MapReduce cluster, each timed for wall and CPU.
pub fn baselines(w: &Wire, out: &mut Metrics) -> Result<(), String> {
    let mut wall = Vec::new();
    let mut inproc_cpu = Vec::new();
    for _ in 0..3 {
        let cpu0 = cpu::process_cpu();
        let t0 = Instant::now();
        let outcome = HorizontalLinearSvm::train(&w.parts, &w.cfg, None)
            .map_err(|e| format!("in-process trainer: {e}"))?;
        wall.push(t0.elapsed().as_secs_f64());
        inproc_cpu.push((cpu::process_cpu() - cpu0).as_secs_f64());
        if !same_bits(&outcome.model, &w.reference) {
            return Err("in-process trainer disagrees with the cluster reference".into());
        }
    }
    let traced = cluster::traced_call(|| {
        train_linear_on_cluster(&w.parts, &w.cfg, None, ClusterTuning::default())
            .map(|(o, _)| o.model)
            .map_err(|e| format!("reference cluster run: {e}"))
    })?;
    if !same_bits(&traced.value, &w.reference) {
        return Err("cluster rerun disagrees with the cluster reference".into());
    }
    let iters = w.cfg.max_iter as f64;
    out.put("core.inproc_train_s", stats::median(&wall));
    out.put(
        "mapreduce.cpu_overhead_ms_per_iter",
        (traced.cpu_s - stats::median(&inproc_cpu)) * 1e3 / iters,
    );
    traced.report(w.cfg.max_iter, out)
}
