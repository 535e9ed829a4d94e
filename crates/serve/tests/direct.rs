//! Proof that every read answers on the caller's thread from one stored
//! serving set: all five query shapes — `top_k` and batches spanning
//! shards included — complete from the **old** epoch, whole, while the
//! publish gate is **held** by a publisher paused partway through
//! building, and after a publisher **panicked** there. A read path that
//! acquired any router-level mutex would deadlock (held gate) or fail
//! (poisoned gate) here, and one that read a shard store before the
//! publisher's single store would answer a mixed epoch.
//!
//! Runs its own threads only; safe under `RUST_TEST_THREADS=1`.

use std::cmp::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use lmm_engine::{RankSnapshot, Staleness};
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocId, SiteId};
use lmm_serve::{ServeConfig, ShardedServer};

/// 4 sites x 2 docs over 2 shards (sites 0–1 → shard 0, 2–3 → shard 1).
fn snapshot(epoch: u64, scores: Vec<f64>, staleness: Staleness) -> RankSnapshot {
    let n = scores.len();
    let members = (0..n / 2)
        .map(|s| vec![DocId(2 * s), DocId(2 * s + 1)])
        .collect::<Vec<_>>();
    let site_of = (0..n).map(|d| SiteId(d / 2)).collect::<Vec<_>>();
    RankSnapshot::new(
        epoch,
        "test".into(),
        Arc::new(scores),
        None,
        Arc::new(members),
        Arc::new(site_of),
        staleness,
    )
}

fn scores_v1() -> Vec<f64> {
    vec![0.05, 0.10, 0.20, 0.15, 0.08, 0.12, 0.18, 0.12]
}

/// Epoch 2 moves one document in each shard.
fn snapshot_v2() -> RankSnapshot {
    let mut scores = scores_v1();
    scores[0] = 0.06; // shard 0
    scores[6] = 0.17; // shard 1
    snapshot(2, scores, Staleness::Full)
}

fn server() -> Arc<ShardedServer> {
    Arc::new(
        ShardedServer::start(
            ShardMap::uniform(4, 2).unwrap(),
            &snapshot(1, scores_v1(), Staleness::Full),
            ServeConfig::default(),
        )
        .unwrap(),
    )
}

/// Starts publishing epoch 2 and returns once shard 0's store is built:
/// the publisher then parks holding the gate until the returned sender
/// fires — a stable mid-publish state, not a race window.
fn hold_after_shard_0(server: &Arc<ShardedServer>) -> (JoinHandle<()>, mpsc::Sender<()>) {
    let (paused_tx, paused_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let publisher = {
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            let report = server
                .publish_paced(&snapshot_v2(), &move |shard| {
                    if shard == 0 {
                        paused_tx.send(()).expect("test alive");
                        resume_rx.recv().expect("released");
                    }
                })
                .expect("publish succeeds");
            assert_eq!(report.shards_rebuilt, 2);
        })
    };
    paused_rx.recv().unwrap();
    (publisher, resume_tx)
}

/// Publishes epoch 2 with a publisher that panics right after building
/// shard 0, unwinding with the gate held.
fn panic_after_shard_0(server: &Arc<ShardedServer>) {
    let publisher = {
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            let _ = server.publish_paced(&snapshot_v2(), &|shard| {
                assert!(shard != 0, "publisher dies mid-publish");
            });
        })
    };
    assert!(
        publisher.join().is_err(),
        "the publisher must have panicked"
    );
}

/// Every shape after epoch 2 is stored: each answer comes whole from
/// `snapshot_v2`.
fn assert_every_shape_serves_epoch_2(server: &ShardedServer) {
    assert_eq!(server.epoch(), 2);
    assert_eq!(server.score(DocId(6)).unwrap(), (2, 0.17));
    assert_eq!(
        server.score_batch(&[DocId(0), DocId(7)]).unwrap(),
        (2, vec![0.06, 0.12])
    );
    assert_eq!(
        server.top_k(3).unwrap(),
        (
            2,
            vec![(DocId(2), 0.20), (DocId(6), 0.17), (DocId(3), 0.15)]
        )
    );
    assert_eq!(
        server.top_k_for_site(SiteId(0), 2).unwrap(),
        (2, vec![(DocId(1), 0.10), (DocId(0), 0.06)])
    );
    assert_eq!(
        server.compare(DocId(0), DocId(6)).unwrap(),
        (2, Ordering::Less)
    );
}

#[test]
fn point_reads_complete_while_the_publish_gate_is_held() {
    let server = server();
    let (publisher, resume) = hold_after_shard_0(&server);

    // Shard 0's epoch-2 store is built but not stored: every point shape
    // still answers epoch 1, on this thread, without touching the gate.
    assert_eq!(server.epoch(), 1);
    assert_eq!(server.score(DocId(0)).unwrap(), (1, 0.05));
    assert_eq!(server.score(DocId(6)).unwrap(), (1, 0.18));
    assert_eq!(
        server.score_batch(&[DocId(0), DocId(2)]).unwrap(),
        (1, vec![0.05, 0.20])
    );
    assert_eq!(
        server.top_k_for_site(SiteId(3), 1).unwrap(),
        (1, vec![(DocId(6), 0.18)])
    );
    assert_eq!(
        server.compare(DocId(4), DocId(5)).unwrap(),
        (1, Ordering::Less)
    );

    resume.send(()).unwrap();
    publisher.join().expect("publisher panicked");
    assert_eq!(server.score(DocId(0)).unwrap(), (2, 0.06));
}

#[test]
fn top_k_and_cross_shard_reads_answer_the_old_epoch_while_a_publish_builds() {
    let server = server();
    let (publisher, resume) = hold_after_shard_0(&server);

    // Reads that span both shards — one built at epoch 2, one not yet —
    // answer epoch 1 whole: nothing gathers, retries or waits.
    assert_eq!(
        server.top_k(3).unwrap(),
        (
            1,
            vec![(DocId(2), 0.20), (DocId(6), 0.18), (DocId(3), 0.15)]
        )
    );
    assert_eq!(
        server.score_batch(&[DocId(0), DocId(7)]).unwrap(),
        (1, vec![0.05, 0.12])
    );
    assert_eq!(
        server.compare(DocId(0), DocId(6)).unwrap(),
        (1, Ordering::Less)
    );
    assert_eq!(server.stats().latency.count(), 3);

    resume.send(()).unwrap();
    publisher.join().expect("publisher panicked");
    assert_every_shape_serves_epoch_2(&server);
}

#[test]
fn point_reads_survive_a_poisoned_publish_gate() {
    let server = server();
    panic_after_shard_0(&server);

    // The dead publisher never stored: every read, `top_k` included,
    // answers epoch 1 whole.
    assert_eq!(server.epoch(), 1);
    assert_eq!(server.score(DocId(1)).unwrap(), (1, 0.10));
    assert_eq!(server.score(DocId(6)).unwrap(), (1, 0.18));
    assert_eq!(
        server.top_k_for_site(SiteId(0), 2).unwrap(),
        (1, vec![(DocId(1), 0.10), (DocId(0), 0.05)])
    );
    assert_eq!(
        server.top_k(3).unwrap(),
        (
            1,
            vec![(DocId(2), 0.20), (DocId(6), 0.18), (DocId(3), 0.15)]
        )
    );
}

#[test]
fn the_next_publish_goes_ahead_after_a_publisher_panics() {
    let server = server();
    panic_after_shard_0(&server);

    // The poisoned gate recovers: the set the dead publisher left is the
    // one it found, so the retry builds on it like any publish.
    let report = server.publish(&snapshot_v2()).unwrap();
    assert_eq!((report.epoch, report.shards_rebuilt), (2, 2));
    assert_every_shape_serves_epoch_2(&server);
}
