//! Learner daemon for distributed HL-SVM training over TCP.
//!
//! Regenerates its horizontal partition deterministically from the CLI
//! flags (the same `(--dataset, --n, --data-seed, --learners, --part-seed)`
//! the coordinator uses — no training data ever crosses the wire), dials
//! the coordinator, then answers each consensus broadcast with the local
//! ADMM step's pairwise-masked share until the `done` round arrives.
//!
//! ```text
//! ppml-learner --party 0 --learners 3 --coordinator 127.0.0.1:7100
//!              [--dataset blobs --n 96] [--data-seed 5] [--iters 12]
//!              [--c 50] [--rho 100] [--seed 11] [--tol T]
//!              [--patience SECS]
//!              [--secagg pairwise|shamir|paillier] [--secagg-threshold T]
//!              [--telemetry events.jsonl]
//!              [--metrics-addr 127.0.0.1:0] [--defect-after R]
//!              [--lag-ms N] [--rejoin true]
//!
//! `--patience` bounds how long the learner waits between coordinator
//! protocol frames; when it expires the process exits with an error
//! instead of waiting forever on a dead coordinator.
//!
//! `--secagg` and `--secagg-threshold` pick the secure-aggregation
//! backend and must match the coordinator's flags exactly (see
//! `ppml-coordinator`): `pairwise` (default), `shamir` (no re-key on
//! dropout) or `paillier` (learner 0 is the key authority).
//!
//! `--telemetry PATH` streams this learner's structured events (round
//! participation, re-key epochs, wire traffic) as JSONL to `PATH` and
//! prints a summary at exit. Events carry only sizes, timings and counts.
//!
//! `--metrics-addr HOST:PORT` additionally serves the live metrics
//! registry in Prometheus text format at `http://HOST:PORT/metrics`
//! (`metrics on ADDR` is printed with the bound address; port 0 picks a
//! free one).
//!
//! `--rejoin true` makes this a *re-admission*: instead of waiting for
//! the round-0 broadcast, the learner sends Join probes until the
//! coordinator answers with a Welcome carrying the current iterate, then
//! participates normally (duals warm-start at zero). Use it to bring a
//! previously-dropped learner back into a live run.
//!
//! `--defect-after R` is fault injection for drills and trace demos: the
//! learner participates correctly for rounds `< R`, then silently stops
//! answering consensus broadcasts while still ACKing frames — exactly
//! the failure mode only the coordinator's round deadline can catch. The
//! process then exits with a transport-timeout error once its own
//! patience runs out; that exit is the injected fault working, not a bug.
//!
//! `--lag-ms N` is the gentler sibling: the learner sleeps N ms before
//! every local step but otherwise participates correctly. Use it to
//! exercise the coordinator's straggler scorer (`ppml_straggler_score`
//! on its `/cluster` endpoint and `slow_learner` events in its JSONL)
//! without losing the learner.
//! ```
//!
//! Every training flag must match the coordinator's, as both sides drive
//! the same deterministic protocol from their own copy of the config.
//!
//! Exit codes are typed (see `ppml::cli`): 2 usage/config, 3
//! I/O/checkpoint, 4 transport/protocol.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use ppml::cli::{self, numeric, optional, CliError, Flags, Telemetry, Training};
use ppml::core::secagg::{
    learn_linear_secagg, learn_linear_secagg_with_defect, rejoin_linear_secagg,
};
use ppml::core::DistributedTiming;
use ppml::transport::{Message, PartyId};

const USAGE: &str = "usage:\n  ppml-learner --party I --learners M --coordinator HOST:PORT\n               \
     [--dataset <cancer|higgs|ocr|blobs|xor>] [--n N] [--data-seed S] [--part-seed S]\n               \
     [--iters T] [--c C] [--rho RHO] [--seed S] [--tol TOL] [--patience SECS]\n               \
     [--secagg <pairwise|shamir|paillier>] [--secagg-threshold T]\n               \
     [--telemetry EVENTS.jsonl] [--metrics-addr HOST:PORT] [--defect-after R]\n               \
     [--lag-ms N] [--rejoin true]";

const FLAGS: &[&str] = &[
    "party",
    "learners",
    "coordinator",
    "patience",
    "telemetry",
    "metrics-addr",
    "defect-after",
    "lag-ms",
    "rejoin",
];

fn run(flags: Flags) -> Result<(), CliError> {
    // Every flag is validated before the transport binds.
    let learners: usize = numeric(&flags, "learners", 0)?;
    if learners == 0 {
        return Err(CliError::usage("--learners must be at least 1"));
    }
    let party: usize =
        optional(&flags, "party")?.ok_or_else(|| CliError::usage("--party is required"))?;
    if party >= learners {
        return Err(CliError::usage(format!(
            "--party {party} out of range 0..{learners}"
        )));
    }
    let coordinator: SocketAddr = flags
        .get("coordinator")
        .ok_or_else(|| CliError::usage("--coordinator is required"))?
        .parse()
        .map_err(|e| CliError::usage(format!("--coordinator: {e}")))?;
    let rejoin = match flags.get("rejoin").map(String::as_str) {
        None | Some("false") | Some("0") | Some("no") => false,
        Some("true") | Some("1") | Some("yes") => true,
        Some(v) => {
            return Err(CliError::usage(format!(
                "--rejoin: bad value {v} (use true or false)"
            )))
        }
    };
    let defect_after: Option<u64> = optional(&flags, "defect-after")?;
    if rejoin && defect_after.is_some() {
        return Err(CliError::usage("--rejoin and --defect-after are exclusive"));
    }
    let lag_ms: u64 = numeric(&flags, "lag-ms", 0)?;
    let patience: u64 = numeric(&flags, "patience", 60)?;
    let Training {
        cfg, secagg, parts, ..
    } = Training::from_flags(&flags, learners)?;
    let my_part = &parts[party];

    let telemetry = Telemetry::install(&flags)?;
    let coord_id = learners as PartyId;
    let mut courier = cli::dial(
        party as PartyId,
        0,
        HashMap::from([(coord_id, coordinator)]),
    )?;

    println!(
        "learner {party}: {} local samples, dialing {coordinator}",
        my_part.len()
    );
    // The transport dials lazily on first send; announce ourselves so the
    // coordinator sees this learner as connected before broadcasting.
    courier
        .send_unreliable(
            coord_id,
            &Message::Heartbeat {
                nonce: party as u64,
            },
        )
        .map_err(|e| CliError::transport(e.to_string()))?;
    if lag_ms > 0 {
        println!("learner {party}: straggler injection armed, +{lag_ms}ms per round");
        ppml::core::set_injected_lag(Duration::from_millis(lag_ms));
    }
    let timing = DistributedTiming::default()
        .with_round_deadline(Duration::from_secs(patience.max(1)))
        .with_learner_patience(Duration::from_secs(patience.max(1)));
    let model = if rejoin {
        println!("learner {party}: asking to rejoin the run at {coordinator}");
        rejoin_linear_secagg(&mut courier, learners, my_part, &cfg, timing, secagg)
    } else if let Some(after) = defect_after {
        println!("learner {party}: fault injection armed, defecting after round {after}");
        learn_linear_secagg_with_defect(
            &mut courier,
            learners,
            my_part,
            &cfg,
            timing,
            secagg,
            after,
        )
    } else {
        learn_linear_secagg(&mut courier, learners, my_part, &cfg, timing, secagg)
    }?;
    println!("learner {party}: done");
    println!("consensus model: {}", model.to_text());
    telemetry.finish(&format!("learner {party}: "));
    Ok(())
}

fn main() -> ExitCode {
    cli::main(
        "ppml-learner",
        USAGE,
        &[Training::FLAGS, FLAGS].concat(),
        run,
    )
}
