//! Shared plumbing for the fleet binaries (`ppml-coordinator`,
//! `ppml-learner`, `ppml-worker`): flag parsing, the training flags the
//! coordinator and learners must agree on, telemetry set-up, the
//! event-loop socket endpoint, and typed exit codes with a one-line
//! stderr reason.
//!
//! Scripts and CI drive these daemons and need to distinguish *why* a
//! process died without parsing prose — a learner that exited because the
//! whole run lost quorum is a different signal than one that hit a bad
//! flag. The contract, shared by every fleet binary:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | anything not covered below (solver failures, internal errors) |
//! | 2 | usage or configuration error (bad or unknown flag, bad dataset, bad range) |
//! | 3 | I/O or checkpoint error (unreadable/incompatible snapshot, sink) |
//! | 4 | transport or protocol error (timeout, dead peer, bad frame) |
//! | 5 | the run lost quorum — every learner was declared dropped |
//!
//! Exactly one `binary-name: reason` line is printed to stderr on any
//! nonzero exit (usage errors additionally print the usage block).

use std::collections::{BTreeMap, HashMap};
use std::net::{Ipv4Addr, SocketAddr};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppml_core::{AdmmConfig, SecAggConfig, SecAggKind, TrainError};
use ppml_data::{synth, Dataset, Partition};
use ppml_telemetry::{
    self as telemetry, FanoutSink, JsonlSink, MetricsServer, MetricsSink, Sink, SummarySink,
};
use ppml_transport::{Courier, EventTransport, PartyId, RetryPolicy};

/// Usage or configuration error.
pub const EXIT_USAGE: u8 = 2;
/// I/O or checkpoint error.
pub const EXIT_IO: u8 = 3;
/// Transport or protocol error.
pub const EXIT_TRANSPORT: u8 = 4;
/// The run lost quorum (every learner dropped).
pub const EXIT_DROPPED: u8 = 5;

/// A failure carrying the exit code it should terminate the process with
/// and the one-line reason to print on stderr.
#[derive(Debug)]
pub struct CliError {
    /// Process exit code, per the table in the module docs.
    pub code: u8,
    /// One-line human reason.
    pub msg: String,
}

impl CliError {
    /// Usage/configuration error (exit 2).
    pub fn usage(msg: impl Into<String>) -> Self {
        Self {
            code: EXIT_USAGE,
            msg: msg.into(),
        }
    }

    /// I/O or checkpoint error (exit 3).
    pub fn io(msg: impl Into<String>) -> Self {
        Self {
            code: EXIT_IO,
            msg: msg.into(),
        }
    }

    /// Transport or protocol error (exit 4).
    pub fn transport(msg: impl Into<String>) -> Self {
        Self {
            code: EXIT_TRANSPORT,
            msg: msg.into(),
        }
    }

    /// The exit code as [`ExitCode`].
    pub fn exit_code(&self) -> ExitCode {
        ExitCode::from(self.code)
    }
}

impl From<TrainError> for CliError {
    fn from(e: TrainError) -> Self {
        let code = match &e {
            TrainError::BadConfig { .. } | TrainError::BadPartition { .. } => EXIT_USAGE,
            TrainError::Checkpoint { .. } => EXIT_IO,
            TrainError::Transport(_) | TrainError::Protocol { .. } => EXIT_TRANSPORT,
            TrainError::Dropped { .. } => EXIT_DROPPED,
            _ => 1,
        };
        Self {
            code,
            msg: e.to_string(),
        }
    }
}

/// A fleet binary's `main`: parses `--key value` flags against the
/// binary's `known` keys, runs it, and maps a failure to one
/// `bin: reason` stderr line (plus the usage block for usage errors)
/// and its typed exit code.
pub fn main(
    bin: &str,
    usage: &str,
    known: &[&str],
    run: impl FnOnce(Flags) -> Result<(), CliError>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_flags(&args, known).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if e.code == EXIT_USAGE {
                eprintln!("{bin}: {}\n{usage}", e.msg);
            } else {
                eprintln!("{bin}: {}", e.msg);
            }
            e.exit_code()
        }
    }
}

/// Parsed `--key value` flags.
pub type Flags = BTreeMap<String, String>;

/// Parses `--key value` pairs; a key outside `known` is a usage error,
/// so a typo or a retired flag never silently falls back to a default.
pub fn parse_flags(args: &[String], known: &[&str]) -> Result<Flags, CliError> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| CliError::usage(format!("expected --flag, got {flag}")))?;
        if !known.contains(&key) {
            return Err(CliError::usage(format!("unknown flag --{key}")));
        }
        let value = it
            .next()
            .ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

/// `--key` parsed as `T`, or `None` when absent.
pub fn optional<T: std::str::FromStr>(flags: &Flags, key: &str) -> Result<Option<T>, CliError> {
    flags
        .get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::usage(format!("--{key}: bad value {v}")))
        })
        .transpose()
}

/// `--key` parsed as `T`, or `default` when absent.
pub fn numeric<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, CliError> {
    Ok(optional(flags, key)?.unwrap_or(default))
}

/// The training set-up `ppml-coordinator` and `ppml-learner` each
/// derive from [`Training::FLAGS`]: the same synthetic dataset and its
/// horizontal partition, the ADMM configuration and the
/// secure-aggregation backend. No training data crosses the wire.
pub struct Training {
    /// `--iters`, `--c`, `--rho`, `--seed`, `--tol`.
    pub cfg: AdmmConfig,
    /// `--secagg`, `--secagg-threshold`, validated for the learner count.
    pub secagg: SecAggConfig,
    /// `--dataset`, `--n`, `--data-seed`.
    pub dataset: Dataset,
    /// `dataset` split over the learners under `--part-seed`.
    pub parts: Vec<Dataset>,
}

impl Training {
    /// The flags both binaries must pass identically: each drives the
    /// same deterministic protocol from its own copy of the config.
    pub const FLAGS: &'static [&'static str] = &[
        "dataset",
        "n",
        "data-seed",
        "part-seed",
        "iters",
        "c",
        "rho",
        "seed",
        "tol",
        "secagg",
        "secagg-threshold",
    ];

    /// Parses and validates the training flags for `learners` parties.
    pub fn from_flags(flags: &Flags, learners: usize) -> Result<Self, CliError> {
        let mut cfg = AdmmConfig::default()
            .with_max_iter(numeric(flags, "iters", 12)?)
            .with_c(numeric(flags, "c", 50.0)?)
            .with_rho(numeric(flags, "rho", 100.0)?)
            .with_seed(numeric(flags, "seed", 11)?);
        if let Some(tol) = optional(flags, "tol")? {
            cfg = cfg.with_tol(tol);
        }
        let kind = match flags.get("secagg") {
            Some(v) => v
                .parse::<SecAggKind>()
                .map_err(|e| CliError::usage(format!("--secagg: {e}")))?,
            None => SecAggKind::Pairwise,
        };
        let mut secagg = SecAggConfig::new(kind);
        if let Some(t) = optional(flags, "secagg-threshold")? {
            secagg = secagg.with_threshold(t);
        }
        secagg
            .validate(learners)
            .map_err(|e| CliError::usage(e.to_string()))?;
        let n: usize = numeric(flags, "n", 96)?;
        let seed: u64 = numeric(flags, "data-seed", 5)?;
        let dataset = match flags.get("dataset").map(String::as_str).unwrap_or("blobs") {
            "cancer" => synth::cancer_like(n, seed),
            "higgs" => synth::higgs_like(n, seed),
            "ocr" => synth::ocr_like(n, seed),
            "blobs" => synth::blobs(n, seed),
            "xor" => synth::xor_like(n, seed),
            other => return Err(CliError::usage(format!("unknown dataset {other}"))),
        };
        let parts = Partition::horizontal(&dataset, learners, numeric(flags, "part-seed", 1)?)
            .map_err(|e| CliError::usage(e.to_string()))?;
        Ok(Self {
            cfg,
            secagg,
            dataset,
            parts,
        })
    }
}

/// The process's telemetry, installed from `--telemetry PATH` (JSONL
/// events plus a summary at exit) and `--metrics-addr HOST:PORT` (live
/// Prometheus endpoint) as one fanout sink.
pub struct Telemetry {
    summary: Option<(Arc<SummarySink>, String)>,
    _metrics: Option<MetricsServer>,
}

impl Telemetry {
    /// Installs the sinks the flags ask for. Call it before the
    /// transport binds so connection-phase frames are captured too.
    pub fn install(flags: &Flags) -> Result<Self, CliError> {
        let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
        let summary = match flags.get("telemetry") {
            Some(path) => {
                let jsonl = JsonlSink::create(Path::new(path))
                    .map_err(|e| CliError::io(format!("--telemetry {path}: {e}")))?;
                let summary = SummarySink::new();
                sinks.push(jsonl);
                sinks.push(summary.clone());
                Some((summary, path.clone()))
            }
            None => None,
        };
        let metrics = match flags.get("metrics-addr") {
            Some(addr) => {
                let sink = MetricsSink::new();
                let server = MetricsServer::serve(addr, Arc::clone(sink.registry()))
                    .map_err(|e| CliError::io(format!("--metrics-addr {addr}: {e}")))?;
                sinks.push(sink);
                // Scrape scripts and the integration tests parse this line.
                println!("metrics on {}", server.local_addr());
                Some(server)
            }
            None => None,
        };
        if !sinks.is_empty() {
            telemetry::install(FanoutSink::new(sinks));
        }
        Ok(Self {
            summary,
            _metrics: metrics,
        })
    }

    /// Uninstalls the sinks and, under `--telemetry`, prints the
    /// summary and a `{prefix}telemetry written to PATH` line.
    pub fn finish(self, prefix: &str) {
        if let Some((summary, path)) = self.summary {
            telemetry::uninstall();
            print!("{}", summary.render());
            println!("{prefix}telemetry written to {path}");
        }
    }
}

/// Binds `party`'s event-loop endpoint on loopback `port` (0 picks a
/// free one) and wraps it in a courier. `peers` are dialed lazily on
/// first send. The link retries briefly (`tcp_link`) and the courier
/// owns end-to-end persistence (`tcp_default`): a long link schedule
/// would multiply with the courier's and stall broadcasts on one dead
/// peer.
pub fn dial(
    party: PartyId,
    port: u16,
    peers: HashMap<PartyId, SocketAddr>,
) -> Result<Courier<EventTransport>, CliError> {
    let transport = EventTransport::bind(
        party,
        SocketAddr::from((Ipv4Addr::LOCALHOST, port)),
        peers,
        RetryPolicy::tcp_link(),
        Duration::from_secs(5),
    )
    .map_err(|e| CliError::transport(e.to_string()))?;
    Ok(Courier::new(transport, RetryPolicy::tcp_default()))
}

/// Waits until `expect` learners have dialed in to `transport`, or
/// fails with a transport error after `timeout_secs`.
pub fn wait_for_learners(
    transport: &EventTransport,
    expect: usize,
    timeout_secs: u64,
) -> Result<(), CliError> {
    let deadline = Instant::now() + Duration::from_secs(timeout_secs);
    loop {
        let now = transport.connected_parties().len();
        if now >= expect {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(CliError::transport(format!(
                "only {now}/{expect} learners connected within {timeout_secs}s"
            )));
        }
        // Connection phase only, bounded by --connect-timeout: a 20 ms
        // poll costs at most 20 ms once per run, never per round.
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_errors_map_to_the_documented_exit_codes() {
        let cases: Vec<(TrainError, u8)> = vec![
            (
                TrainError::BadConfig {
                    reason: "rho".into(),
                },
                EXIT_USAGE,
            ),
            (
                TrainError::BadPartition {
                    reason: "empty".into(),
                },
                EXIT_USAGE,
            ),
            (
                TrainError::Checkpoint {
                    reason: "crc".into(),
                },
                EXIT_IO,
            ),
            (
                TrainError::Transport(ppml_transport::TransportError::Timeout),
                EXIT_TRANSPORT,
            ),
            (
                TrainError::Protocol {
                    reason: "bad frame".into(),
                },
                EXIT_TRANSPORT,
            ),
            (TrainError::Dropped { parties: vec![0] }, EXIT_DROPPED),
        ];
        for (err, want) in cases {
            let cli = CliError::from(err);
            assert_eq!(cli.code, want, "{}", cli.msg);
            assert!(!cli.msg.is_empty());
        }
    }

    #[test]
    fn uncategorized_errors_fall_back_to_one() {
        let cli = CliError::from(TrainError::Qp(ppml_qp::QpError::InvalidBounds {
            lo: 1.0,
            hi: 0.0,
        }));
        assert_eq!(cli.code, 1);
    }

    #[test]
    fn constructors_carry_their_codes() {
        assert_eq!(CliError::usage("x").code, EXIT_USAGE);
        assert_eq!(CliError::io("x").code, EXIT_IO);
        assert_eq!(CliError::transport("x").code, EXIT_TRANSPORT);
    }
}
