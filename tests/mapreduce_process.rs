//! OS-process MapReduce chaos drills: a `TaskScheduler` driver in this
//! test process driving real `ppml-worker` children over loopback TCP.
//!
//! The in-crate unit tests prove the scheduler's logic over loopback
//! threads; these prove the *operational* story with actual processes:
//!
//! - SIGKILL a worker mid-task — its task re-queues on the survivors
//!   and the job result is bit-identical to the fault-free in-process
//!   reference (`run_local`);
//! - race a speculative duplicate against a straggling worker — the
//!   copy wins, the result is bit-identical, and the loser is told it
//!   lost (a `task_cancel` frame it acknowledges before exiting);
//! - exhaust a task's retry budget — a typed `TaskFailed` error within
//!   a bounded wall clock, never a hang;
//! - the `ppml-worker` binary honors the repo-wide typed exit code and
//!   one-line stderr contract.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ppml::mapreduce::{process_job, run_local, MapReduceError, TaskPolicy, TaskScheduler};
use ppml::transport::{Courier, EventTransport, RetryPolicy};

const WORKER: &str = env!("CARGO_BIN_EXE_ppml-worker");
const SEED: u64 = 42;

/// Spawns one `ppml-worker` child dialing `driver`.
fn spawn_worker(
    party: usize,
    workers: usize,
    blocks: u64,
    driver: SocketAddr,
    extra: &[&str],
) -> Child {
    let mut argv: Vec<String> = [
        "--party",
        &party.to_string(),
        "--workers",
        &workers.to_string(),
        "--blocks",
        &blocks.to_string(),
        "--driver",
        &driver.to_string(),
        "--job",
        "wordcount",
        "--data-seed",
        &SEED.to_string(),
        "--patience",
        "30",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    argv.extend(extra.iter().map(|s| s.to_string()));
    Command::new(WORKER)
        .args(&argv)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ppml-worker")
}

/// Binds the driver endpoint (party 0, workers dial in) and wraps it in
/// a `TaskScheduler`.
fn driver(policy: TaskPolicy) -> (TaskScheduler<EventTransport>, SocketAddr) {
    let transport = EventTransport::bind(
        0,
        "127.0.0.1:0".parse().expect("loopback addr"),
        HashMap::new(),
        RetryPolicy::tcp_link(),
        Duration::from_secs(5),
    )
    .expect("bind driver transport");
    let addr = transport.local_addr();
    let courier = Courier::new(transport, RetryPolicy::tcp_default());
    let sched = TaskScheduler::new(courier, process_job("wordcount").expect("job"), policy);
    (sched, addr)
}

fn reference(blocks: &[u64]) -> Vec<u8> {
    let job = process_job("wordcount").expect("job");
    run_local(job.as_ref(), SEED, blocks, &[])
}

/// SIGKILL a worker while it is crunching a map task: the driver's
/// attempt timeout declares it dead, re-queues its tasks on survivors,
/// and the distributed result stays bit-identical to `run_local`.
#[test]
fn sigkilled_worker_requeues_bit_identically() {
    let blocks: Vec<u64> = (0..6).collect();
    let (mut sched, addr) = driver(TaskPolicy {
        attempt_timeout: Duration::from_secs(1),
        speculate: false,
        ..TaskPolicy::default()
    });
    // Worker 3 is slowed so it is reliably *mid-task* when the kill
    // lands; workers 1 and 2 are healthy survivors.
    let survivors: Vec<Child> = (1..=2).map(|p| spawn_worker(p, 3, 6, addr, &[])).collect();
    let victim = spawn_worker(3, 3, 6, addr, &["--lag-ms", "400"]);
    sched
        .register_workers(3, Duration::from_secs(30))
        .expect("all three workers register");

    // A real SIGKILL, delivered once the round is underway.
    let killer = std::thread::spawn({
        let pid = victim.id();
        move || {
            std::thread::sleep(Duration::from_millis(150));
            // Child::kill needs &mut; signal by pid so the round can run
            // in this thread meanwhile.
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            pid
        }
    });
    let result = sched
        .run_round(&blocks, &[])
        .expect("round survives the kill");
    killer.join().expect("killer thread");
    assert_eq!(result, reference(&blocks), "kill changed the answer");
    assert_eq!(sched.metrics.workers_lost, 1);
    assert_eq!(sched.alive_workers(), 2);

    sched.shutdown();
    let out = victim.wait_with_output().expect("victim worker");
    assert!(!out.status.success(), "the victim must die by signal");
    for child in survivors {
        let out = child.wait_with_output().expect("survivor worker");
        assert!(out.status.success(), "a survivor failed");
    }
}

/// A straggling worker is raced by a speculative duplicate: the copy
/// wins, the result is bit-identical, and the loser acknowledges the
/// cancel for its obsolete attempt before exiting cleanly.
#[test]
fn speculative_copy_beats_straggler_and_loser_is_cancelled() {
    let blocks: Vec<u64> = (0..4).collect();
    let (mut sched, addr) = driver(TaskPolicy {
        attempt_timeout: Duration::from_secs(8),
        speculate: true,
        speculation_factor: 1.5,
        locality_wait: Duration::from_millis(30),
        ..TaskPolicy::default()
    });
    let fast = spawn_worker(1, 2, 4, addr, &[]);
    let slow = spawn_worker(2, 2, 4, addr, &["--lag-ms", "500"]);
    sched
        .register_workers(2, Duration::from_secs(30))
        .expect("both workers register");

    let result = sched.run_round(&blocks, &[]).expect("round completes");
    assert_eq!(result, reference(&blocks), "speculation changed the answer");
    assert!(
        sched.metrics.task_speculations >= 1,
        "no speculation fired: {:?}",
        sched.metrics
    );
    assert!(sched.cancels_sent >= 1, "the loser was never cancelled");

    sched.shutdown();
    let mut cancels_acknowledged = 0usize;
    for child in [fast, slow] {
        let out = child.wait_with_output().expect("worker exit");
        assert!(out.status.success(), "a worker failed");
        let text = String::from_utf8(out.stdout).expect("utf-8 worker stdout");
        let line = text
            .lines()
            .find(|l| l.contains("done,"))
            .unwrap_or_else(|| panic!("no completion line in:\n{text}"));
        let cancels: usize = line
            .rsplit_once(", ")
            .and_then(|(_, tail)| tail.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable completion line: {line}"));
        cancels_acknowledged += cancels;
    }
    assert!(
        cancels_acknowledged >= 1,
        "no worker acknowledged losing the race"
    );
}

/// A task that fails on every worker burns its bounded retry budget and
/// surfaces a typed error — in bounded time, never a hang.
#[test]
fn retry_exhaustion_is_typed_and_bounded() {
    let blocks: Vec<u64> = (0..4).collect();
    let (mut sched, addr) = driver(TaskPolicy {
        max_attempts: 2,
        speculate: false,
        ..TaskPolicy::default()
    });
    let workers: Vec<Child> = (1..=2)
        .map(|p| spawn_worker(p, 2, 4, addr, &["--fail-blocks", "0"]))
        .collect();
    sched
        .register_workers(2, Duration::from_secs(30))
        .expect("both workers register");

    let t0 = Instant::now();
    match sched.run_round(&blocks, &[]) {
        Err(MapReduceError::TaskFailed { block, attempts }) => {
            assert_eq!(block.0, 0);
            assert_eq!(attempts, 2);
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "retry exhaustion took {:?} — that is a hang, not a bound",
        t0.elapsed()
    );
    sched.shutdown();
    for child in workers {
        let out = child.wait_with_output().expect("worker exit");
        assert!(
            out.status.success(),
            "failing blocks must not kill the worker"
        );
    }
}

fn run_to_exit(argv: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(WORKER)
        .args(argv)
        .output()
        .expect("run ppml-worker");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The worker binary honors the repo's typed exit code and one-line
/// stderr contract (`ppml::cli`).
#[test]
fn worker_exit_codes_are_typed() {
    // 2 — usage: missing required flags (plus the usage block).
    let (code, stderr) = run_to_exit(&["--workers", "2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("ppml-worker:") && stderr.contains("usage:"),
        "{stderr}"
    );

    // 2 — usage: the driver is party 0, not a valid worker id.
    let (code, stderr) =
        run_to_exit(&["--party", "0", "--workers", "2", "--driver", "127.0.0.1:9"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("0 is the driver"), "{stderr}");

    // 2 — usage: unknown job name.
    let (code, stderr) = run_to_exit(&[
        "--party",
        "1",
        "--workers",
        "1",
        "--driver",
        "127.0.0.1:9",
        "--job",
        "no-such-job",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown job"), "{stderr}");

    // 2 — usage: unknown flags are rejected, including the retired
    // `--transport` switch (otherwise this would dial and exit 4).
    let (code, stderr) = run_to_exit(&[
        "--party",
        "1",
        "--workers",
        "1",
        "--driver",
        "127.0.0.1:9",
        "--patience",
        "1",
        "--transport",
        "threads",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some("ppml-worker: unknown flag --transport"),
        "{stderr}"
    );

    // 4 — transport: nobody is listening on the discard port.
    let (code, stderr) = run_to_exit(&[
        "--party",
        "1",
        "--workers",
        "1",
        "--driver",
        "127.0.0.1:9",
        "--patience",
        "1",
    ]);
    assert_eq!(code, Some(4), "{stderr}");
    assert!(stderr.contains("ppml-worker:"), "{stderr}");
}
