//! The serving phase every workload ends with: the trained model saved as
//! `PPMLMODL`, loaded into one `ppml_serve::Engine` and served by both
//! fronts from this process — `router` behind `ppml_telemetry::HttpServer`
//! and `FrameServer`.
//!
//! HTTP is an open loop: batch-1 `POST /score` requests on a Poisson
//! schedule at [`HTTP_RATE`], each sent on its own thread so that no reply
//! holds back the next send, and each timed from when it was due.
//! Frames is a closed loop: one persistent connection sending batch-64
//! requests back to back. Every reply is checked bit for bit against
//! in-process `Engine::score_batch` on the same rows.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppml_data::rng::Rng64;
use ppml_data::Dataset;
use ppml_serve::{router, Engine, FrameScoreClient, FrameServer, SavedModel};
use ppml_telemetry::{request, HttpServer, MetricsRegistry};

use crate::{cpu, stats, Metrics};

/// Offered HTTP load, requests per second: below what one connection at
/// a time can carry through the front.
const HTTP_RATE: f64 = 30.0;
/// Rows per frames request.
const FRAMES_BATCH: usize = 64;
/// Model loads timed for the set-up median.
const SETUPS: usize = 9;
/// Calls timed per engine microbenchmark.
const ENGINE_CALLS: usize = 2000;

/// Salt separating the arrival schedule from the data streams.
const SCHEDULE_SALT: u64 = 0x5CED_0A11_7E57_0001;

/// The rows served and the margins the in-process engine gives them.
pub struct Probe {
    features: usize,
    /// One `POST /score` body per test row, written in round-trip form
    /// so the server parses exactly these f64s.
    bodies: Vec<Vec<u8>>,
    /// In-process margin of each row scored alone.
    single: Vec<f64>,
    /// Frames batches (64 consecutive rows of the cyclic test stream)
    /// and their in-process margins.
    batches: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Probe {
    pub fn new(model: &SavedModel, test: &Dataset) -> Result<Probe, String> {
        let engine = Engine::new(model.clone(), 0);
        let features = test.features();
        let n = test.len();
        let score = |xs: &[f64]| {
            engine
                .score_batch(features, xs)
                .map_err(|e| format!("in-process engine: {e}"))
        };
        let mut bodies = Vec::with_capacity(n);
        let mut single = Vec::with_capacity(n);
        for i in 0..n {
            let row = test.sample(i);
            let mut body = String::new();
            for (j, v) in row.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(body, "{sep}{v}");
            }
            body.push('\n');
            bodies.push(body.into_bytes());
            single.push(score(row)?[0]);
        }
        // The cyclic row stream repeats its batch boundaries after
        // n / gcd(n, 64) batches.
        let mut batches = Vec::new();
        let mut start = 0;
        loop {
            let xs: Vec<f64> = (0..FRAMES_BATCH)
                .flat_map(|k| test.sample((start + k) % n).iter().copied())
                .collect();
            let margins = score(&xs)?;
            batches.push((xs, margins));
            start = (start + FRAMES_BATCH) % n;
            if start == 0 {
                break;
            }
        }
        Ok(Probe {
            features,
            bodies,
            single,
            batches,
        })
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Parses a `/score` reply and checks label and margin bits.
fn http_reply_ok(status: u16, body: &str, want: f64) -> bool {
    let mut lines = body.lines();
    let (Some(line), None) = (lines.next(), lines.next()) else {
        return false;
    };
    let Some((label, margin)) = line.split_once(' ') else {
        return false;
    };
    let want_label = if want >= 0.0 { "1" } else { "-1" };
    status == 200
        && label == want_label
        && margin.parse::<f64>().map(f64::to_bits) == Ok(want.to_bits())
}

/// Both fronts over one engine.
struct Fronts {
    http: HttpServer,
    frames: FrameServer,
    client: FrameScoreClient,
}

impl Fronts {
    fn shutdown(self) {
        drop(self.client);
        self.http.shutdown();
        self.frames.shutdown();
    }
}

/// Loads the model and brings both fronts up, ending at the first
/// answered request on each.
fn bring_up(path: &Path, probe: &Probe) -> Result<(Fronts, bool), String> {
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let model = SavedModel::load(path).map_err(|e| format!("load model: {e}"))?;
    let engine = Engine::new(model, bytes);
    let registry = Arc::new(MetricsRegistry::new());
    let http = HttpServer::serve("127.0.0.1:0", router(Arc::clone(&engine), registry))
        .map_err(|e| format!("http front: {e}"))?;
    let frames =
        FrameServer::serve("127.0.0.1:0", engine).map_err(|e| format!("frames front: {e}"))?;
    let (status, body) = request(
        &http.local_addr().to_string(),
        "POST",
        "/score",
        &probe.bodies[0],
    )
    .map_err(|e| format!("first http request: {e}"))?;
    let mut ok = http_reply_ok(status, &body, probe.single[0]);
    let mut client = FrameScoreClient::connect(&frames.local_addr().to_string())
        .map_err(|e| format!("frames connect: {e}"))?;
    let (xs, want) = &probe.batches[0];
    let got = client
        .score(probe.features as u32, xs.clone())
        .map_err(|e| format!("first frames request: {e}"))?;
    ok &= bits_equal(&got, want);
    Ok((
        Fronts {
            http,
            frames,
            client,
        },
        ok,
    ))
}

/// What the serving phase measured.
pub struct Served {
    pub setup_s: f64,
    pub http_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// Start (ns from phase start) and latency of every frames request.
    pub frames: Vec<(u64, f64)>,
    pub rows: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// (front, start_ns, end_ns) of every request, from phase start.
    pub spans: Vec<(&'static str, u64, u64)>,
}

/// Frames results read per one-second window of the serving phase.
pub struct FramesWindows {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub rows_per_s: f64,
    pub windows: usize,
}

/// Width of a serving window.
const WINDOW_NS: u64 = 1_000_000_000;

impl Served {
    /// Frames latency percentiles and throughput, each computed within
    /// every whole one-second window and reported as the median over the
    /// windows, so a burst of host noise moves the result little.
    pub fn frames_windows(&self) -> Result<FramesWindows, String> {
        let windows = (self.wall_s * 1e9) as u64 / WINDOW_NS;
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows as usize];
        for &(start, ms) in &self.frames {
            if let Some(w) = per.get_mut((start / WINDOW_NS) as usize) {
                w.push(ms);
            }
        }
        if per.is_empty() {
            return Err("the serving phase is shorter than one window".into());
        }
        let mut p50 = Vec::new();
        let mut p90 = Vec::new();
        let mut rows = Vec::new();
        for w in &per {
            p50.push(stats::percentile(w, 0.5)?);
            p90.push(stats::percentile(w, 0.9)?);
            rows.push((w.len() * FRAMES_BATCH) as f64 * 1e9 / WINDOW_NS as f64);
        }
        Ok(FramesWindows {
            p50_ms: stats::median(&p50),
            p90_ms: stats::median(&p90),
            rows_per_s: stats::median(&rows),
            windows: per.len(),
        })
    }
}

/// Saves `model` to `path`, times [`SETUPS`] bring-ups and then serves
/// for `seconds` under the two client loops.
pub fn serve(
    model: &SavedModel,
    probe: &Probe,
    path: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Served, String> {
    model
        .save(path)
        .map_err(|e| format!("save model to {}: {e}", path.display()))?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut attempted = 0;
    let mut failed = 0;
    let mut fronts = None;
    for _ in 0..SETUPS {
        if let Some(f) = fronts.take() {
            Fronts::shutdown(f);
        }
        let t0 = Instant::now();
        let (f, ok) = bring_up(path, probe)?;
        setups.push(t0.elapsed().as_secs_f64());
        attempted += 2;
        failed += usize::from(!ok) * 2;
        fronts = Some(f);
    }
    let mut fronts = fronts.expect("at least one bring-up");
    let http_addr = fronts.http.local_addr().to_string();
    let client = &mut fronts.client;

    let cpu0 = cpu::process_cpu();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let (http_side, frames_side) = std::thread::scope(|scope| {
        let http_side = scope.spawn(|| {
            let mut rng = Rng64::new(seed ^ SCHEDULE_SALT);
            let mut pending = std::collections::VecDeque::new();
            let mut replies = Vec::new();
            let mut due = start;
            for k in 0.. {
                let gap = -(1.0 - rng.unit_f64()).ln() / HTTP_RATE;
                due += Duration::from_secs_f64(gap);
                if due >= end {
                    break;
                }
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let row = k % probe.bodies.len();
                let addr = &http_addr;
                // One thread per request keeps the loop open: a slow
                // reply never delays the next request's send.
                pending.push_back(scope.spawn(move || {
                    let ok = match request(addr, "POST", "/score", &probe.bodies[row]) {
                        Ok((status, body)) => http_reply_ok(status, &body, probe.single[row]),
                        Err(_) => false,
                    };
                    (due, sent, Instant::now(), ok)
                }));
                while pending.front().is_some_and(|h| h.is_finished()) {
                    let h = pending.pop_front().expect("checked non-empty");
                    replies.push(h.join().expect("http request thread"));
                }
            }
            for h in pending {
                replies.push(h.join().expect("http request thread"));
            }
            let mut latency = Vec::with_capacity(replies.len());
            let mut late = Vec::with_capacity(replies.len());
            let mut spans = Vec::with_capacity(replies.len());
            let mut bad = 0usize;
            for (due, sent, done, ok) in replies {
                bad += usize::from(!ok);
                latency.push((done - due).as_secs_f64() * 1e3);
                late.push((sent - due).as_secs_f64() * 1e3);
                spans.push(("http.request", ns(due), ns(done)));
            }
            (latency, late, spans, bad)
        });
        let frames_side = scope.spawn(|| {
            let mut timed = Vec::new();
            let mut bad = 0usize;
            for k in 0.. {
                if Instant::now() >= end {
                    break;
                }
                let (xs, want) = &probe.batches[k % probe.batches.len()];
                let xs = xs.clone();
                let t0 = Instant::now();
                let got = client.score(probe.features as u32, xs);
                let t1 = Instant::now();
                let ok = matches!(&got, Ok(m) if bits_equal(m, want));
                bad += usize::from(!ok);
                timed.push((ns(t0), ns(t1)));
                if got.is_err() {
                    // The connection is unusable after an I/O error.
                    break;
                }
            }
            (timed, bad)
        });
        (
            http_side.join().expect("http client thread"),
            frames_side.join().expect("frames client thread"),
        )
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = (cpu::process_cpu() - cpu0).as_secs_f64();
    fronts.shutdown();

    let (http_ms, late_ms, mut spans, http_bad) = http_side;
    let (frames_timed, frames_bad) = frames_side;
    spans.extend(frames_timed.iter().map(|&(a, b)| ("frames.request", a, b)));
    let frames: Vec<(u64, f64)> = frames_timed
        .iter()
        .map(|&(a, b)| (a, (b - a) as f64 / 1e6))
        .collect();
    attempted += http_ms.len() + frames.len();
    failed += http_bad + frames_bad;
    Ok(Served {
        setup_s: stats::median(&setups),
        rows: http_ms.len() + frames.len() * FRAMES_BATCH,
        http_ms,
        late_ms,
        frames,
        wall_s,
        cpu_s,
        attempted,
        failed,
        spans,
    })
}

/// Median wall time of `Engine::score_batch` at batch 1 and batch 64.
pub fn engine_layers(model: &SavedModel, probe: &Probe, out: &mut Metrics) -> Result<(), String> {
    let engine = Engine::new(model.clone(), 0);
    let one = &probe.batches[0].0[..probe.features];
    let many = &probe.batches[0].0;
    for (name, xs) in [("serve.engine_us_b1", one), ("serve.engine_us_b64", many)] {
        let mut samples = Vec::with_capacity(ENGINE_CALLS);
        for _ in 0..ENGINE_CALLS {
            let t0 = Instant::now();
            let margins = engine
                .score_batch(probe.features, std::hint::black_box(xs))
                .map_err(|e| format!("engine: {e}"))?;
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(margins);
        }
        out.put(name, stats::median(&samples));
    }
    Ok(())
}
