//! The repository benchmark: end-to-end and per-layer metrics of private
//! training and serving.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hl_pairwise --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload is one pass of the system: train a model privately
//! (for 60% of `--seconds`, as many training runs as fit), check it bit
//! for bit against a single-process reference, save it, then load it into
//! the serving engine and score held-out rows over HTTP and frames for the
//! remaining 40%. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! runs the same pass untraced and then traced, prints the per-layer
//! metrics plus the tracing overhead, and writes the spans to `out/`.
//! The last line of standard output is the JSON result; the same result
//! with its header goes to `out/`.

mod cluster;
mod cpu;
mod header;
mod micro;
mod serve;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ppml_core::SecAggConfig;
use ppml_serve::SavedModel;

use crate::header::Header;
use crate::serve::Probe;

/// Learners per training run (the paper's M).
pub const M: usize = 4;
/// Rounds per `hl_pairwise` training run.
const PAIRWISE_ROUNDS: usize = 400;
/// Rounds per `hl_paillier` training run.
const PAILLIER_ROUNDS: usize = 100;
/// Data draws per `hk_cluster` run.
const HK_DRAWS: u64 = 6;
/// Share of `--seconds` spent training; the rest is serving.
const TRAIN_SHARE: f64 = 0.6;

/// End-to-end metrics and their units, reported by every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("bytes_per_round", "B"),
    ("cpu_ms_per_round", "ms"),
    ("test_accuracy", "fraction"),
    ("score_rows_per_s", "rows/s"),
    ("http_ms_p50", "ms"),
    ("http_ms_p90", "ms"),
    ("frames_ms_p50", "ms"),
    ("frames_ms_p90", "ms"),
    ("cpu_us_per_row", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, reported by every traced run.
/// `overhead.<metric>` for each end-to-end metric follows them.
const PER_LAYER: &[(&str, &str)] = &[
    ("transport.send_us", "us"),
    ("transport.frames_per_round", "frames/round"),
    ("transport.retries_per_round", "retries/round"),
    ("core.collect_wait_ms", "ms"),
    ("core.learner_compute_ms", "ms"),
    ("core.coord_fold_ms", "ms"),
    ("core.authority_decrypt_ms", "ms"),
    ("core.straggler_gap_ms", "ms"),
    ("core.unattributed_frac", "fraction"),
    ("crypto.paillier_encrypt_us", "us"),
    ("crypto.paillier_decrypt_us", "us"),
    ("crypto.paillier_keygen_ms", "ms"),
    ("masks.mask_share_us", "us"),
    ("serve.engine_us_b1", "us"),
    ("serve.engine_us_b64", "us"),
    ("http.front_ms_p50", "ms"),
    ("frames.front_us_p50", "us"),
    ("http.generator_late_ms", "ms"),
    ("core.inproc_train_s", "s"),
    ("mapreduce.cpu_overhead_ms_per_iter", "ms"),
    ("mapreduce.iter_ms_p50", "ms"),
    ("mapreduce.attempts_per_task", "fraction"),
    ("mapreduce.first_dispatch_ms", "ms"),
];

/// Wire-layer metrics, which read 0 on a workload with no wire.
const WIRE_LAYERS: &[&str] = &[
    "transport.send_us",
    "transport.frames_per_round",
    "transport.retries_per_round",
    "core.collect_wait_ms",
    "core.learner_compute_ms",
    "core.coord_fold_ms",
    "core.authority_decrypt_ms",
    "core.straggler_gap_ms",
    "core.unattributed_frac",
];

/// Named metric values.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> Result<f64, String> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    HlPairwise,
    HlPaillier,
    HkCluster,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "hl_pairwise" => Some(Workload::HlPairwise),
            "hl_paillier" => Some(Workload::HlPaillier),
            "hk_cluster" => Some(Workload::HkCluster),
            _ => None,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let mut take = |k: &str| map.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if let Some(k) = map.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Spans kept for the trace file, written when the run ends.
#[derive(Default)]
struct SpanLog {
    lines: String,
    kept: usize,
    dropped: usize,
}

/// At most this many spans go to the trace file; the rest are counted.
const SPAN_CAP: usize = 200_000;

impl SpanLog {
    fn push(&mut self, name: &str, party: i64, parent: &str, start_ns: u64, end_ns: u64) {
        if self.kept >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        self.kept += 1;
        let _ = writeln!(
            self.lines,
            "{{\"name\":\"{name}\",\"party\":{party},\"parent\":\"{parent}\",\
             \"start_ns\":{start_ns},\"end_ns\":{end_ns}}}"
        );
    }
}

/// One measured pass over a workload.
struct Pass {
    e2e: Metrics,
    layers: Metrics,
    attempted: usize,
    failed: usize,
    /// Sample counts behind the percentiles, for the printed summary.
    samples: BTreeMap<&'static str, usize>,
}

/// Training-phase results common to both kinds of trainer: one entry
/// per training run, reported as medians over the runs so that a burst of
/// host noise during one run moves the result little.
#[derive(Default)]
struct Training {
    setup_s: Vec<f64>,
    train_s: Vec<f64>,
    round_p50: Vec<f64>,
    round_p90: Vec<f64>,
    bytes_per_round: Vec<f64>,
    cpu_ms_per_round: Vec<f64>,
    rounds: usize,
    failed_rounds: usize,
}

impl Training {
    fn add(
        &mut self,
        (setup_s, train_s): (f64, f64),
        round_ms: &[f64],
        bytes: usize,
        cpu_s: f64,
        ok: bool,
    ) -> Result<(), String> {
        let rounds = round_ms.len();
        self.rounds += rounds;
        if !ok {
            self.failed_rounds += rounds;
        }
        self.setup_s.push(setup_s);
        self.train_s.push(train_s);
        self.round_p50.push(stats::percentile(round_ms, 0.5)?);
        self.round_p90.push(stats::percentile(round_ms, 0.9)?);
        self.bytes_per_round.push(bytes as f64 / rounds as f64);
        self.cpu_ms_per_round.push(cpu_s * 1e3 / rounds as f64);
        Ok(())
    }

    /// Medians over this draw's training runs.
    fn summary(&self) -> [(&'static str, f64); 6] {
        [
            ("setup_s", stats::median(&self.setup_s)),
            ("train_s", stats::median(&self.train_s)),
            ("round_ms_p50", stats::median(&self.round_p50)),
            ("round_ms_p90", stats::median(&self.round_p90)),
            ("bytes_per_round", stats::median(&self.bytes_per_round)),
            ("cpu_ms_per_round", stats::median(&self.cpu_ms_per_round)),
        ]
    }
}

/// Means over data draws of each draw's training medians.
fn training_means(draws: &[Training]) -> Metrics {
    let mut out = Metrics::default();
    let summaries: Vec<_> = draws.iter().map(Training::summary).collect();
    for (i, (name, _)) in summaries[0].iter().enumerate() {
        let sum: f64 = summaries.iter().map(|s| s[i].1).sum();
        out.put(name, sum / summaries.len() as f64);
    }
    out
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    log: &mut SpanLog,
) -> Result<Pass, String> {
    let train_budget = seconds * TRAIN_SHARE;
    let mut layers = Metrics::default();
    // One `Training` per data draw; the wire workloads use one draw.
    let mut draws: Vec<Training> = Vec::new();
    let (served, test, accuracy, share_len) = match workload {
        Workload::HlPairwise | Workload::HlPaillier => {
            let (secagg, rounds) = if workload == Workload::HlPairwise {
                (SecAggConfig::pairwise(), PAIRWISE_ROUNDS)
            } else {
                (SecAggConfig::paillier(), PAILLIER_ROUNDS)
            };
            let w = wire::Wire::generate(seed, secagg, rounds)?;
            let mut t = Training::default();
            let mut acc = wire::WireLayers::default();
            let mut model = None;
            let start = Instant::now();
            while model.is_none() || start.elapsed().as_secs_f64() < train_budget {
                let cpu0 = cpu::process_cpu();
                let run = wire::train_once(&w, traced)?;
                let cpu_s = (cpu::process_cpu() - cpu0).as_secs_f64();
                t.add(
                    (run.setup_s, run.train_s),
                    &run.round_ms,
                    run.bytes,
                    cpu_s,
                    run.ok,
                )?;
                if traced {
                    acc.add(&run);
                    let parent = format!("train{}", t.train_s.len());
                    for s in &run.spans {
                        let op = match s.op {
                            trace::Op::Send => "send",
                            trace::Op::Recv => "recv",
                        };
                        let name = format!("transport.{op}.{}", s.kind);
                        let round = format!("{parent}/round{}", s.round);
                        log.push(&name, s.party.into(), &round, s.start_ns, s.end_ns);
                    }
                }
                model = Some(run.model);
            }
            draws.push(t);
            if traced {
                acc.report(&mut layers)?;
                wire::baselines(&w, &mut layers)?;
            }
            let model = model.expect("at least one training run");
            let accuracy = model.accuracy(&w.test);
            let share_len = w.features() + 1;
            (SavedModel::Linear(model), w.test, accuracy, share_len)
        }
        Workload::HkCluster => {
            // The kernel QP's work varies by a third between data draws,
            // so each run trains on several draws and averages them.
            let hks = cluster::Hk::generate_draws(seed, HK_DRAWS)?;
            draws.resize_with(hks.len(), Training::default);
            let mut accuracy = vec![None; hks.len()];
            let mut cluster_cpu = Vec::new();
            let start = Instant::now();
            for k in 0.. {
                if k >= hks.len() && start.elapsed().as_secs_f64() >= train_budget {
                    break;
                }
                let d = k % hks.len();
                let run = cluster::train_once(&hks[d])?;
                let bytes = run.metrics.bytes_broadcast + run.metrics.bytes_shuffled;
                draws[d].add(
                    (run.setup_s, run.train_s),
                    &run.round_ms,
                    bytes,
                    run.call.cpu_s,
                    run.ok,
                )?;
                if d == 0 {
                    cluster_cpu.push(run.call.cpu_s);
                }
                if traced {
                    let parent = format!("draw{d}/train{}", draws[d].train_s.len());
                    let mut prev = run.call.first_dispatch_ns()?;
                    log.push("mapreduce.setup", -1, &parent, run.call.call_ns, prev);
                    for (i, ms) in run.round_ms.iter().enumerate() {
                        let end = prev + (ms * 1e6) as u64;
                        log.push(&format!("mapreduce.iteration{i}"), -1, &parent, prev, end);
                        prev = end;
                    }
                    if k == 0 {
                        run.call.report(cluster::ITERS, &mut layers)?;
                    }
                }
                accuracy[d] = Some(run.model.accuracy(&hks[d].test));
            }
            if traced {
                for name in WIRE_LAYERS {
                    layers.put(name, 0.0);
                }
                let (inproc_wall, inproc_cpu) = hks[0].inproc_baseline()?;
                layers.put("core.inproc_train_s", inproc_wall);
                layers.put(
                    "mapreduce.cpu_overhead_ms_per_iter",
                    (stats::median(&cluster_cpu) - inproc_cpu) * 1e3 / cluster::ITERS as f64,
                );
            }
            let accuracy = accuracy.iter().flatten().sum::<f64>() / hks.len() as f64;
            let first = hks.into_iter().next().expect("at least one draw");
            let share_len = first.cfg.landmarks + 1;
            let served = SavedModel::Kernel(first.served_model()?);
            (served, first.test, accuracy, share_len)
        }
    };

    let probe = Probe::new(&served, &test)?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out/: {e}"))?;
    let model_path = out_dir().join(format!("model-{seed}.bin"));
    let s = serve::serve(&served, &probe, &model_path, seed, seconds - train_budget)?;
    let _ = std::fs::remove_file(&model_path);

    let mut e2e = training_means(&draws);
    let train_setup_s = e2e.get("setup_s")?;
    e2e.put("setup_s", train_setup_s + s.setup_s);
    let p = |v: &[f64], q| stats::percentile(v, q);
    e2e.put("test_accuracy", accuracy);
    let frames = s.frames_windows()?;
    e2e.put("score_rows_per_s", frames.rows_per_s);
    e2e.put("http_ms_p50", p(&s.http_ms, 0.5)?);
    e2e.put("http_ms_p90", p(&s.http_ms, 0.9)?);
    e2e.put("frames_ms_p50", frames.p50_ms);
    e2e.put("frames_ms_p90", frames.p90_ms);
    e2e.put("cpu_us_per_row", s.cpu_s * 1e6 / s.rows as f64);
    e2e.put("peak_rss_mb", cpu::peak_rss_mb());

    if traced {
        micro::crypto(seed, &mut layers)?;
        micro::masks(seed, share_len, &mut layers)?;
        serve::engine_layers(&served, &probe, &mut layers)?;
        let b1_ms = layers.get("serve.engine_us_b1")? / 1e3;
        layers.put("http.front_ms_p50", e2e.get("http_ms_p50")? - b1_ms);
        layers.put(
            "frames.front_us_p50",
            e2e.get("frames_ms_p50")? * 1e3 - layers.get("serve.engine_us_b64")?,
        );
        layers.put("http.generator_late_ms", p(&s.late_ms, 0.9)?);
        for (name, start, end) in &s.spans {
            log.push(name, -1, "serve", *start, *end);
        }
    }

    println!(
        "set-up: training {train_setup_s:.6} s, serving {:.6} s",
        s.setup_s
    );
    let sum = |f: fn(&Training) -> usize| draws.iter().map(f).sum::<usize>();
    let rounds = sum(|t| t.rounds);
    let samples = BTreeMap::from([
        ("data draws", draws.len()),
        ("training runs", sum(|t| t.train_s.len())),
        ("rounds", rounds),
        ("http requests", s.http_ms.len()),
        ("frames requests", s.frames.len()),
        ("serving windows", frames.windows),
    ]);
    Ok(Pass {
        e2e,
        layers,
        attempted: rounds + s.attempted,
        failed: sum(|t| t.failed_rounds) + s.failed,
        samples,
    })
}

fn json_metrics(values: &[(String, f64, String)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in values.iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{comma}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn run(args: &Args) -> Result<(String, bool), String> {
    let workload = Workload::parse(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let header = Header::collect(&args.workload, args.seed, args.trace)?;
    println!("header {}", header.to_json());
    let mut log = SpanLog::default();
    let steal0 = cpu::host_steal_ticks();
    let wall0 = Instant::now();
    let base = measure(workload, args.seed, args.seconds, false, &mut log)?;
    let mut values: Vec<(String, f64, String)> = Vec::new();
    let (attempted, failed, shown) = if args.trace {
        let traced = measure(workload, args.seed, args.seconds, true, &mut log)?;
        for (name, unit) in PER_LAYER {
            values.push((name.to_string(), traced.layers.get(name)?, unit.to_string()));
        }
        for (name, unit) in END_TO_END {
            let delta = traced.e2e.get(name)? - base.e2e.get(name)?;
            values.push((format!("overhead.{name}"), delta, unit.to_string()));
        }
        let path = out_dir().join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        std::fs::write(&path, &log.lines).map_err(|e| format!("write spans: {e}"))?;
        println!(
            "spans: {} written to {}, {} beyond the cap dropped",
            log.kept,
            path.display(),
            log.dropped
        );
        (
            base.attempted + traced.attempted,
            base.failed + traced.failed,
            traced,
        )
    } else {
        for (name, unit) in END_TO_END {
            values.push((name.to_string(), base.e2e.get(name)?, unit.to_string()));
        }
        (base.attempted, base.failed, base)
    };
    // Steal is not a metric of the program, but a run that lost much CPU
    // to other guests on the host is not comparable with one that did not.
    let steal_s = cpu::host_steal_ticks().saturating_sub(steal0) as f64 / 100.0;
    let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    println!(
        "host steal: {:.2}% of the CPU time over the run",
        100.0 * steal_s / (cpus * wall0.elapsed().as_secs_f64())
    );
    for (what, n) in &shown.samples {
        println!("samples: {n} {what}");
    }
    for (name, value, unit) in &values {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    let correct = failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&values)
    );
    let file = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    header::write_result(&header, &result, &file)?;
    Ok((result, correct))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((result, correct)) => {
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: an output check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
