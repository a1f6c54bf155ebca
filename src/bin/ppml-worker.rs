//! MapReduce worker daemon: serves map tasks to a `TaskScheduler` driver.
//!
//! One OS process per worker. The worker derives its resident blocks
//! deterministically from the CLI flags — block `b` of a `--blocks B`
//! job lives on worker `1 + (b % M)` of `--workers M` — materialises
//! their payloads locally from `(--job, --data-seed)`, registers with
//! the driver, then answers `task_dispatch` frames with `task_result`
//! frames until `shutdown`. Raw block data never crosses the wire; only
//! task descriptors and map outputs do (DESIGN.md §13).
//!
//! ```text
//! ppml-worker --party 1 --workers 2 --driver 127.0.0.1:7400
//!             [--job <wordcount|spin>] [--data-seed S] [--blocks B]
//!             [--patience SECS] [--lag-ms N] [--die-after-tasks N]
//!             [--fail-blocks 0,3]
//!             [--telemetry events.jsonl]
//!
//! `--party` is 1-based: the driver is party 0, workers are 1..=M.
//!
//! `--patience` bounds how long the worker waits between driver frames;
//! when it expires the process exits with a transport error instead of
//! waiting forever on a dead driver.
//!
//! Fault injection for chaos drills (each mirrors a `FaultPlan` worker
//! fault): `--lag-ms N` sleeps N ms before every map task (straggler —
//! speculation bait); `--die-after-tasks N` exits mid-way through the
//! Nth dispatched task without replying, indistinguishable from a
//! SIGKILL to the driver; `--fail-blocks a,b` reports failure for those
//! blocks instead of mapping them (bounded-retry exercise).
//! ```
//!
//! Exit codes are typed (see `ppml::cli`): 2 usage/config, 3 I/O,
//! 4 transport/protocol. An injected `--die-after-tasks` death exits 0 —
//! that exit is the fault working, not an error.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use ppml::cli::{self, numeric, optional, CliError, Flags, Telemetry};
use ppml::mapreduce::{process_job, WorkerOptions};
use ppml::transport::PartyId;

const USAGE: &str =
    "usage:\n  ppml-worker --party I --workers M --driver HOST:PORT\n              \
     [--job <wordcount|spin>] [--data-seed S] [--blocks B]\n              \
     [--patience SECS] [--lag-ms N] [--die-after-tasks N]\n              \
     [--fail-blocks 0,3]\n              \
     [--telemetry EVENTS.jsonl]";

const FLAGS: &[&str] = &[
    "party",
    "workers",
    "driver",
    "job",
    "data-seed",
    "blocks",
    "patience",
    "lag-ms",
    "die-after-tasks",
    "fail-blocks",
    "telemetry",
];

fn run(flags: Flags) -> Result<(), CliError> {
    let workers: usize = numeric(&flags, "workers", 0)?;
    if workers == 0 {
        return Err(CliError::usage("--workers must be at least 1"));
    }
    let party: usize =
        optional(&flags, "party")?.ok_or_else(|| CliError::usage("--party is required"))?;
    if party == 0 || party > workers {
        return Err(CliError::usage(format!(
            "--party {party} out of range 1..={workers} (0 is the driver)"
        )));
    }
    let driver: SocketAddr = flags
        .get("driver")
        .ok_or_else(|| CliError::usage("--driver is required"))?
        .parse()
        .map_err(|e| CliError::usage(format!("--driver: {e}")))?;
    let job_name = flags.get("job").map(String::as_str).unwrap_or("wordcount");
    let job = process_job(job_name)
        .ok_or_else(|| CliError::usage(format!("--job: unknown job {job_name}")))?;
    let seed: u64 = numeric(&flags, "data-seed", 42)?;
    let total_blocks: u64 = numeric(&flags, "blocks", workers as u64)?;
    // Static placement shared with the driver: block b lives on worker
    // 1 + (b mod M). Residency is derived, never transferred.
    let resident: Vec<u64> = (0..total_blocks)
        .filter(|b| 1 + (b % workers as u64) as usize == party)
        .collect();

    let mut opts = WorkerOptions {
        lag: Duration::from_millis(numeric(&flags, "lag-ms", 0)?),
        idle_timeout: Duration::from_secs(numeric(&flags, "patience", 30u64)?.max(1)),
        die_on_task: optional(&flags, "die-after-tasks")?.map(|n: usize| n.max(1)),
        ..Default::default()
    };
    if let Some(v) = flags.get("fail-blocks") {
        for part in v.split(',').filter(|p| !p.is_empty()) {
            opts.fail_blocks.push(
                part.trim()
                    .parse()
                    .map_err(|_| CliError::usage(format!("--fail-blocks: bad value {part}")))?,
            );
        }
    }

    // Telemetry first, so the dial and registration frames are captured.
    let telemetry = Telemetry::install(&flags)?;
    let mut courier = cli::dial(party as PartyId, 0, HashMap::from([(0, driver)]))?;

    println!(
        "worker {party}: job {job_name}, {} resident blocks of {total_blocks}, dialing {driver}",
        resident.len()
    );
    let report =
        ppml::mapreduce::worker::serve(&mut courier, 0, job.as_ref(), seed, &resident, &opts)
            .map_err(|e| CliError::transport(e.to_string()))?;
    if report.died {
        // The injected mid-task death fired; this is the drill working.
        println!(
            "worker {party}: injected death after {} tasks",
            report.tasks_done
        );
    } else {
        println!(
            "worker {party}: done, {} tasks, {} cancels",
            report.tasks_done, report.cancels_seen
        );
    }
    telemetry.finish(&format!("worker {party}: "));
    Ok(())
}

fn main() -> ExitCode {
    cli::main("ppml-worker", USAGE, FLAGS, run)
}
