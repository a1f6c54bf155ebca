//! Coordinator daemon for distributed HL-SVM training over TCP.
//!
//! Binds a listening socket, waits for `--learners` peers to dial in,
//! then drives the consensus rounds of the paper's Fig. 2 star topology:
//! broadcast `(z, s)`, collect one masked share per learner, decode the
//! cancelled sum, repeat. Raw data never reaches this process — only
//! masked fixed-point shares do.
//!
//! ```text
//! ppml-coordinator --learners 3 [--port 7100] [--dataset blobs --n 96]
//!                  [--data-seed 5] [--iters 12] [--c 50] [--rho 100]
//!                  [--seed 11] [--tol T] [--round-timeout SECS]
//!                  [--secagg pairwise|shamir|paillier] [--secagg-threshold T]
//!                  [--out model.txt] [--telemetry events.jsonl]
//!                  [--metrics-addr 127.0.0.1:0]
//!                  [--checkpoint run.ckpt] [--resume run.ckpt]
//!
//! `--round-timeout` bounds each collection round: a learner whose share
//! has not arrived when it expires is declared dropped, the secure sum is
//! re-keyed over the survivors, and training continues without it.
//!
//! `--secagg` picks the secure-aggregation backend (all parties must
//! agree): `pairwise` (default) is the paper's §V masking with re-keying
//! on dropout; `shamir` is t-of-m threshold sharing where dropout needs
//! no re-key round at all (`--secagg-threshold` overrides t, default
//! max(2, ceil(2m/3))); `paillier` is additively homomorphic encryption
//! with learner 0 as key authority — the expensive baseline, kept live
//! for comparison. All three produce bit-identical models on the same
//! membership schedule. Checkpoint/resume is pairwise-only.
//!
//! `--telemetry PATH` streams structured events (round opens/closes,
//! deadline misses, dropout declarations, re-key epochs, wire traffic) as
//! JSONL to `PATH` and prints a human summary at exit. Events carry only
//! sizes, timings and counts — never shares or model coordinates.
//!
//! `--checkpoint PATH` writes a crash-consistent snapshot of the run
//! after every accepted round (write-temp, fsync, atomic rename). If the
//! coordinator process dies mid-run, restart it with the same flags plus
//! `--resume PATH`: it re-binds the port, waits for the surviving
//! learners to re-dial, re-keys the secure sum over them and continues
//! from the first round the snapshot had not yet completed — the final
//! model is bit-identical to the uninterrupted run.
//!
//! `--metrics-addr HOST:PORT` additionally serves the live metrics
//! registry in Prometheus text format at `http://HOST:PORT/metrics` for
//! the lifetime of the run (`metrics on ADDR` is printed with the bound
//! address; port 0 picks a free one). The endpoint exposes the same
//! scalar aggregates — counters, gauges, log2 histograms — and nothing
//! else. The same server also answers `GET /cluster` with the per-learner
//! cluster view: counter deltas each learner relays in-band at its round
//! boundaries, folded into labelled `ppml_cluster_*` series plus a
//! `ppml_straggler_score` gauge per learner (watch it live with
//! `ppml-trace --live HOST:PORT`).
//! ```
//!
//! Exit codes are typed (see `ppml::cli`): 2 usage/config, 3
//! I/O/checkpoint, 4 transport/protocol, 5 all learners dropped.
//!
//! Both sides regenerate the same synthetic dataset from
//! `(--dataset, --n, --data-seed)` so the coordinator knows the feature
//! count and can report accuracy, without any training data crossing the
//! wire. Start the matching learners with `ppml-learner` (see README).

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use ppml::cli::{self, numeric, CliError, Flags, Telemetry, Training};
use ppml::core::distributed::feature_count;
use ppml::core::secagg::coordinate_linear_secagg_with_recovery;
use ppml::core::{Checkpoint, DistributedTiming, RecoveryOptions};
use ppml::transport::PartyId;

const USAGE: &str = "usage:\n  ppml-coordinator --learners M [--port P] [--dataset <cancer|higgs|ocr|blobs|xor>]\n                   \
     [--n N] [--data-seed S] [--part-seed S] [--iters T] [--c C] [--rho RHO] [--seed S]\n                   \
     [--tol TOL] [--connect-timeout SECS] [--round-timeout SECS] [--out MODEL]\n                   \
     [--secagg <pairwise|shamir|paillier>] [--secagg-threshold T]\n                   \
     [--telemetry EVENTS.jsonl] [--metrics-addr HOST:PORT]\n                   \
     [--checkpoint RUN.ckpt] [--resume RUN.ckpt]";

const FLAGS: &[&str] = &[
    "learners",
    "port",
    "connect-timeout",
    "round-timeout",
    "out",
    "telemetry",
    "metrics-addr",
    "checkpoint",
    "resume",
];

fn run(flags: Flags) -> Result<(), CliError> {
    // Every flag is validated before anything binds, so a bad value
    // fails fast instead of after the connect wait.
    let learners: usize = numeric(&flags, "learners", 0)?;
    if learners == 0 {
        return Err(CliError::usage("--learners must be at least 1"));
    }
    let port: u16 = numeric(&flags, "port", 0)?;
    let connect_timeout: u64 = numeric(&flags, "connect-timeout", 30)?;
    let round_timeout: u64 = numeric(&flags, "round-timeout", 30)?;
    let Training {
        cfg,
        secagg,
        dataset,
        parts,
    } = Training::from_flags(&flags, learners)?;
    let features = feature_count(&parts)?;

    // Crash recovery: `--checkpoint` snapshots after every accepted
    // round; `--resume` restores such a snapshot and continues the run.
    let mut recovery = RecoveryOptions::default();
    if let Some(path) = flags.get("checkpoint") {
        recovery = recovery.with_checkpoint(path);
    }
    let resumed = match flags.get("resume") {
        Some(path) => {
            let ckpt = Checkpoint::load(Path::new(path))?;
            ckpt.check_compatible(learners, features, cfg.seed)?;
            println!(
                "resuming from {path}: next round {}, epoch {}, {} survivors",
                ckpt.next_round,
                ckpt.epoch,
                ckpt.alive.len()
            );
            let survivors = ckpt.alive.len();
            recovery = recovery.with_resume(ckpt);
            Some(survivors)
        }
        None => None,
    };
    // A resumed coordinator only waits for the snapshot's survivors —
    // learners dropped before the crash stay dropped.
    let expect_connected = resumed.unwrap_or(learners);

    let telemetry = Telemetry::install(&flags)?;
    let mut courier = cli::dial(learners as PartyId, port, HashMap::new())?;
    // The learner scripts and the example parse this line.
    println!("listening on {}", courier.transport().local_addr());
    cli::wait_for_learners(courier.transport(), expect_connected, connect_timeout)?;
    println!(
        "all {expect_connected} learners connected, training with {secagg_name} aggregation",
        secagg_name = secagg.kind
    );

    let timing = DistributedTiming::default()
        .with_round_deadline(Duration::from_secs(round_timeout))
        .with_learner_patience(Duration::from_secs(round_timeout.max(1) * 4));
    let outcome = coordinate_linear_secagg_with_recovery(
        &mut courier,
        learners,
        features,
        &cfg,
        None,
        timing,
        secagg,
        recovery,
    )?;

    if !outcome.dropped.is_empty() {
        println!("dropped learners (in order): {:?}", outcome.dropped);
    }
    println!(
        "converged in {} rounds, final |dz|^2 = {:.3e}",
        outcome.metrics.iterations,
        outcome.history.z_delta.last().copied().unwrap_or(0.0)
    );
    println!(
        "network: {} broadcast bytes, {} share bytes",
        outcome.metrics.bytes_broadcast, outcome.metrics.bytes_shuffled
    );
    println!("training accuracy: {:.4}", outcome.model.accuracy(&dataset));
    println!("model: {}", outcome.model.to_text());
    if let Some(path) = flags.get("out") {
        std::fs::write(path, outcome.model.to_text())
            .map_err(|e| CliError::io(format!("--out {path}: {e}")))?;
        println!("wrote {path}");
    }
    telemetry.finish("");
    Ok(())
}

fn main() -> ExitCode {
    cli::main(
        "ppml-coordinator",
        USAGE,
        &[Training::FLAGS, FLAGS].concat(),
        run,
    )
}
