//! Round-level fault cases the secure-aggregation backends must handle
//! the same way: a key authority that goes quiet mid-round, and a learner
//! that dies right after its last share, so that only the final `done`
//! broadcast can notice.

use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use ppml::core::distributed::feature_count;
use ppml::core::secagg::{coordinate_linear_secagg, learn_linear_secagg};
use ppml::core::{AdmmConfig, DistributedOutcome, DistributedTiming, SecAggConfig, TrainError};
use ppml::data::{synth, Dataset, Partition};
use ppml::svm::LinearSvm;
use ppml::telemetry::{self, EventKind, RingSink};
use ppml::transport::{Courier, LinkFilter, LoopbackHub, NetFaultPlan, PartyId, RetryPolicy};

/// Telemetry is process-global: a test capturing events must not see
/// another test's coordinator (same party id, same event kinds).
static TELEMETRY_GUARD: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    TELEMETRY_GUARD
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn setup(m: usize, rounds: usize) -> (Vec<Dataset>, AdmmConfig) {
    let ds = synth::blobs(64, 3);
    let parts = Partition::horizontal(&ds, m, 2).expect("partition");
    let cfg = AdmmConfig::default().with_max_iter(rounds).with_seed(9);
    (parts, cfg)
}

type Learners = Vec<thread::JoinHandle<Result<LinearSvm, TrainError>>>;
type Timed = (Result<DistributedOutcome, TrainError>, Duration);

/// Starts one learner thread per partition and the coordinator on its own
/// thread. Returns the coordinator's result with its wall-clock time, or
/// `None` if it is still running after `limit` (its thread is then left
/// behind), plus the learner handles.
fn start(
    parts: &[Dataset],
    cfg: &AdmmConfig,
    secagg: SecAggConfig,
    timing: DistributedTiming,
    plan: NetFaultPlan,
    limit: Duration,
) -> (Option<Timed>, Learners) {
    let m = parts.len();
    let hub = LoopbackHub::with_faults(m + 1, plan);
    let learners = parts
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            let cfg = *cfg;
            thread::spawn(move || learn_linear_secagg(&mut courier, m, &part, &cfg, timing, secagg))
        })
        .collect();
    let features = feature_count(parts).expect("partitions");
    let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
    let cfg = *cfg;
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let started = Instant::now();
        let outcome =
            coordinate_linear_secagg(&mut courier, m, features, &cfg, None, timing, secagg);
        let _ = tx.send((outcome, started.elapsed()));
    });
    (rx.recv_timeout(limit).ok(), learners)
}

fn join(learners: Learners) -> Vec<Result<LinearSvm, TrainError>> {
    learners
        .into_iter()
        .map(|h| h.join().expect("learner thread"))
        .collect()
}

/// The Paillier coordinator waits for the key authority's decrypted sum
/// under one round deadline. An authority whose `CipherSum` never arrives
/// is dropped when that deadline passes, and since nobody else holds the
/// private key the run ends with a typed error instead of waiting forever.
#[test]
fn paillier_coordinator_drops_an_authority_whose_sum_never_arrives() {
    let _guard = guard();
    let (parts, cfg) = setup(2, 3);
    let deadline = Duration::from_millis(300);
    let timing = DistributedTiming::default()
        .with_round_deadline(deadline)
        .with_learner_patience(Duration::from_secs(2));
    let cipher_sum = 22;
    let plan =
        NetFaultPlan::none().drop_frames(LinkFilter::any().from(0).kind(cipher_sum), u32::MAX);
    let limit = 2 * deadline + Duration::from_secs(1);
    let (coordinator, learners) =
        start(&parts, &cfg, SecAggConfig::paillier(), timing, plan, limit);
    let (outcome, elapsed) =
        coordinator.unwrap_or_else(|| panic!("coordinator still waiting after {limit:?}"));
    match outcome {
        Err(TrainError::Dropped { parties }) => assert_eq!(parties, vec![0]),
        other => panic!("expected the authority to be dropped, got {other:?}"),
    }
    assert!(elapsed <= limit, "took {elapsed:?}");
    for (p, result) in join(learners).into_iter().enumerate() {
        assert!(result.is_err(), "learner {p} cannot finish without a done");
    }
}

/// A learner that dies right after its last share has contributed to
/// every round, so the model is unchanged; only the final `done`
/// broadcast can notice it is gone. Every backend must then report it
/// the same way: in `dropped`, with one `Dropout` event at the round
/// count.
#[test]
fn a_learner_lost_at_the_done_broadcast_is_reported_alike_by_every_backend() {
    let _guard = guard();
    const ROUNDS: usize = 3;
    let (parts, cfg) = setup(3, ROUNDS);
    let timing = DistributedTiming::default()
        .with_round_deadline(Duration::from_millis(300))
        .with_learner_patience(Duration::from_secs(2));
    let limit = Duration::from_secs(20);
    let victim: PartyId = 1;
    // With telemetry on, each round the victim sends its share (Shamir:
    // a distribution and a summed share) and one telemetry delta.
    for (secagg, frames_per_round) in [
        (SecAggConfig::pairwise(), 2),
        (SecAggConfig::shamir(), 3),
        (SecAggConfig::paillier(), 2),
    ] {
        let name = secagg.kind.as_str();
        let (clean, learners) = start(&parts, &cfg, secagg, timing, NetFaultPlan::none(), limit);
        let clean = clean.expect("clean run").0.expect("clean run");
        join(learners);

        let ring = RingSink::new(1 << 14);
        telemetry::install(ring.clone());
        let plan = NetFaultPlan::none().kill_party_after(victim, frames_per_round * ROUNDS as u32);
        let (outcome, learners) = start(&parts, &cfg, secagg, timing, plan, limit);
        let finals = join(learners);
        telemetry::uninstall();
        let outcome = outcome
            .unwrap_or_else(|| panic!("{name}: coordinator still running"))
            .0
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        assert_eq!(
            outcome.model, clean.model,
            "{name}: the victim's input counts"
        );
        assert_eq!(outcome.dropped, vec![victim], "{name}");
        let dropouts: Vec<(u32, u64)> = ring
            .snapshot()
            .into_iter()
            .filter(|e| e.party == 3)
            .filter_map(|e| match e.kind {
                EventKind::Dropout { party, iteration } => Some((party, iteration)),
                _ => None,
            })
            .collect();
        assert_eq!(dropouts, vec![(victim, ROUNDS as u64)], "{name}");
        for (p, result) in finals.iter().enumerate() {
            if p as PartyId == victim {
                assert!(result.is_err(), "{name}: the victim cannot finish");
            } else {
                assert_eq!(result.as_ref().expect("survivor"), &outcome.model, "{name}");
            }
        }
    }
}
