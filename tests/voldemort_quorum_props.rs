//! Property tests for Voldemort's quorum coordination (ISSUE 4): with
//! R+W>N, a quorum read observes every committed write no matter which
//! replicas crashed or slowed; the deterministic and parallel fan-out
//! paths agree result-for-result on the same op schedule; hint
//! replay never resurrects an overwritten version; and `get_all` batches
//! by node instead of running one quorum per key.
//!
//! Case count defaults to 24 and is raised in CI with
//! `QUORUM_PROPTEST_CASES=64` (the vendored proptest has no env support
//! of its own).

use bytes::Bytes;
use li_commons::clock::{VectorClock, Versioned};
use li_commons::ring::{HashRing, NodeId};
use li_commons::shard::ShardMode;
use li_commons::sim::{SimClock, SimNetwork};
use li_voldemort::{
    QuorumConfig, ReadFanOut, StoreClient, StoreDef, VoldemortCluster, VoldemortError,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn quorum_cases() -> ProptestConfig {
    let cases = std::env::var("QUORUM_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    ProptestConfig::with_cases(cases)
}

/// (node_count, N, R, W) with 1 <= R,W <= N <= node_count and R+W > N.
fn quorum_shape() -> impl Strategy<Value = (u16, usize, usize, usize)> {
    (3u16..=7)
        .prop_flat_map(|nodes| (Just(nodes), 2usize..=3))
        .prop_flat_map(|(nodes, n)| (Just(nodes), Just(n), 1usize..=n))
        .prop_flat_map(|(nodes, n, w)| {
            let r_min = (n + 1).saturating_sub(w).max(1);
            (Just(nodes), Just(n), r_min..=n, Just(w))
        })
}

fn build_cluster(
    nodes: u16,
    n: usize,
    r: usize,
    w: usize,
    clock: Arc<SimClock>,
) -> Arc<VoldemortCluster> {
    let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    let ring = HashRing::balanced(16, &ids).unwrap();
    let cluster = VoldemortCluster::with_parts(ring, SimNetwork::reliable(), clock).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(n, r, w))
        .unwrap();
    cluster
}

/// Read-modify-write through `client`: merge all observed sibling clocks
/// into the base so a success reconciles and dominates what was read.
fn rmw_put(
    client: &StoreClient,
    key: &[u8],
    value: Bytes,
) -> Result<VectorClock, VoldemortError> {
    let siblings = client.get(key)?;
    let base = siblings
        .iter()
        .fold(VectorClock::new(), |acc, v| acc.merged(&v.clock));
    client.put(key, &base, value)
}

proptest! {
    #![proptest_config(quorum_cases())]

    /// The durability property behind R+W>N: every write the client acked
    /// is observed by a quorum read after the cluster heals — the sibling
    /// set contains a version whose clock descends from the acked clock —
    /// regardless of which replicas were crashed or slowed while writing,
    /// and regardless of which fan-out mode performs the final read.
    #[test]
    fn prop_committed_writes_visible_after_heal(
        shape in quorum_shape(),
        crash in proptest::collection::vec(0u16..7, 0..3),
        slow in proptest::collection::vec((0u16..7, 1u64..10), 0..3),
        ops in proptest::collection::vec((0u8..4, 0u8..=255), 4..28),
        crash_at in 0usize..10,
    ) {
        let (nodes, n, r, w) = shape;
        let clock = Arc::new(SimClock::new());
        let cluster = build_cluster(nodes, n, r, w, clock.clone());
        let writers = [cluster.client("s").unwrap(), cluster.client("s").unwrap()];
        let crash: Vec<NodeId> = crash
            .iter()
            .map(|&c| NodeId(c % nodes))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for &(node, ms) in &slow {
            cluster.network().set_link_latency(
                StoreClient::CLIENT_NODE,
                NodeId(node % nodes),
                Duration::from_millis(ms),
            );
        }

        // Interleaved writers; the fault set drops mid-schedule.
        let mut acked: Vec<(Vec<u8>, VectorClock)> = Vec::new();
        for (i, &(key_choice, value_byte)) in ops.iter().enumerate() {
            if i == crash_at.min(ops.len() - 1) {
                for &node in &crash {
                    cluster.network().crash(node);
                }
            }
            let key = format!("k{key_choice}").into_bytes();
            let value = Bytes::from(vec![value_byte]);
            if let Ok(write_clock) = rmw_put(&writers[i % 2], &key, value) {
                acked.push((key, write_clock));
            }
        }

        // Heal and drain the recovery machinery: restart crashed nodes,
        // readmit banned ones via probes, replay hints.
        for &node in &crash {
            cluster.network().restart(node);
        }
        cluster.network().heal_all();
        for _ in 0..50 {
            clock.advance(Duration::from_secs(6));
            cluster.run_failure_probes();
            cluster.deliver_hints();
            if cluster.pending_hints() == 0 && cluster.detector().banned_nodes().is_empty() {
                break;
            }
        }
        prop_assert_eq!(cluster.pending_hints(), 0, "hints must drain after heal");
        // Let the detector's sample window (10s) expire: failure samples
        // from the crash epoch would otherwise combine with the first
        // post-heal success to trip the ratio ban mid-verification.
        clock.advance(Duration::from_secs(30));

        // Every acked write is observed, through every fan-out mode.
        for mode in [ShardMode::Deterministic, ShardMode::Parallel] {
            let reader = cluster.client("s").unwrap().with_quorum_config(QuorumConfig {
                mode,
                read_fan_out: ReadFanOut::All,
                ..QuorumConfig::default()
            });
            for (key, write_clock) in &acked {
                let siblings = reader.get(key).map_err(|e| {
                    TestCaseError::fail(format!("read of acked key failed in {mode:?}: {e}"))
                })?;
                prop_assert!(
                    siblings.iter().any(|v| v.clock.descends_from(write_clock)),
                    "acked write not covered by any sibling (mode {:?}, clock {:?}, got {:?})",
                    mode, write_clock, siblings
                );
            }
        }
        cluster.fan_out_pool().wait_idle();
    }

    /// Mode equivalence: the same op schedule — including a crash/restart
    /// epoch — produces identical per-op results (values *and* error
    /// shapes) and identical final reads under the deterministic and
    /// parallel quorum paths. The crash epoch is kept short enough
    /// (detector `min_samples` = 10) that no mode's failure-sample count
    /// can ban a node the others still consider available.
    #[test]
    fn prop_parallel_matches_serial_result_for_result(
        shape in quorum_shape(),
        crash_node in 0u16..7,
        ops in proptest::collection::vec((0u8..4, 0u8..=255), 4..20),
        crash_at in 0usize..16,
    ) {
        let (nodes, n, r, w) = shape;
        let crash_at = crash_at.min(ops.len().saturating_sub(1));
        let restart_at = (crash_at + 4).min(ops.len());
        let crash_node = NodeId(crash_node % nodes);

        let mut per_mode: Vec<(Vec<String>, Vec<String>)> = Vec::new();
        for mode in [ShardMode::Deterministic, ShardMode::Parallel] {
            let clock = Arc::new(SimClock::new());
            let cluster = build_cluster(nodes, n, r, w, clock);
            let client = cluster.client("s").unwrap().with_quorum_config(QuorumConfig {
                mode,
                ..QuorumConfig::default()
            });
            let mut results: Vec<String> = Vec::new();
            for (i, &(key_choice, value_byte)) in ops.iter().enumerate() {
                if i == crash_at {
                    cluster.network().crash(crash_node);
                }
                if i == restart_at {
                    cluster.network().restart(crash_node);
                }
                let key = format!("k{key_choice}").into_bytes();
                let value = Bytes::from(vec![value_byte]);
                results.push(format!("{:?}", rmw_put(&client, &key, value)));
                // Parallel mode acks a put at W and finishes the replication
                // wave on pool threads; quiesce between ops so the schedule
                // compares quorum semantics, not background-write timing.
                cluster.fan_out_pool().wait_idle();
            }
            cluster.network().restart(crash_node);
            // Flush parallel stragglers and park/replay hints so the final
            // read compares converged state, not in-flight state.
            cluster.fan_out_pool().wait_idle();
            for _ in 0..8 {
                if cluster.deliver_hints() == 0 && cluster.pending_hints() == 0 {
                    break;
                }
            }
            let mut final_reads: Vec<String> = Vec::new();
            for key_choice in 0u8..4 {
                let key = format!("k{key_choice}").into_bytes();
                final_reads.push(format!("{:?}", client.get(&key)));
            }
            per_mode.push((results, final_reads));
        }

        let (inline_results, inline_reads) = &per_mode[0];
        let (parallel_results, parallel_reads) = &per_mode[1];
        prop_assert_eq!(
            inline_results, parallel_results,
            "op results diverged between deterministic and parallel paths"
        );
        prop_assert_eq!(
            inline_reads, parallel_reads,
            "final reads diverged between deterministic and parallel paths"
        );
    }
}

/// Satellite: hinted-handoff replay racing a concurrent client put. The
/// hint carries the clock of the write that missed its replica; by the
/// time the replica recovers, a newer put has superseded it. Replaying
/// the hint must not resurrect the overwritten version — `deliver_hints`
/// drops it on the vector-clock obsolescence check and counts it.
#[test]
fn replayed_hint_does_not_resurrect_overwritten_version() {
    let cluster = VoldemortCluster::new(32, 4).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(2, 1, 2))
        .unwrap();
    let client = cluster.client("s").unwrap();
    let prefs = cluster.ring().preference_list(b"k", 2).unwrap();

    // v1 while replica 1 is down: W=2 met as 1 live ack + 1 hint.
    cluster.network().crash(prefs[1]);
    let c1 = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
    assert_eq!(cluster.pending_hints(), 1);

    // Replica 1 recovers and v2 lands on the full preference list before
    // the hint replays.
    cluster.network().restart(prefs[1]);
    let c2 = client.put(b"k", &c1, Bytes::from_static(b"v2")).unwrap();
    let fresh = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
    assert_eq!(fresh.len(), 1);
    assert_eq!(fresh[0].clock, c2);

    // The stale hint is dropped, not delivered.
    assert_eq!(cluster.deliver_hints(), 0, "obsolete hint must not deliver");
    assert_eq!(cluster.pending_hints(), 0, "dropped hint must not re-park");
    let snapshot = cluster.metrics().snapshot();
    assert_eq!(snapshot.counter("voldemort.hints.dropped_obsolete"), Some(1));

    // The replica still holds exactly the newer version.
    let after = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
    assert_eq!(after.len(), 1, "hint replay resurrected an old version");
    assert_eq!(after[0].clock, c2);
    assert_eq!(after[0].value.as_ref(), b"v2");
}

/// Counterpart: a hint that is *concurrent* with (not dominated by) the
/// replica's current version must still deliver, surfacing as a sibling
/// for read-time resolution.
#[test]
fn concurrent_hint_still_delivers_as_sibling() {
    let cluster = VoldemortCluster::new(32, 4).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(2, 1, 2))
        .unwrap();
    let client = cluster.client("s").unwrap();
    let prefs = cluster.ring().preference_list(b"k", 2).unwrap();

    cluster.network().crash(prefs[1]);
    let c_hint = client.put_initial(b"k", Bytes::from_static(b"A")).unwrap();
    assert_eq!(cluster.pending_hints(), 1);

    // A concurrent branch lands directly on the recovered replica: a clock
    // the hint neither descends from nor dominates.
    cluster.network().restart(prefs[1]);
    let c_other = VectorClock::new().incremented(prefs[1].0);
    assert!(!c_other.descends_from(&c_hint));
    assert!(!c_hint.descends_from(&c_other));
    cluster
        .node(prefs[1])
        .unwrap()
        .force_put("s", b"k", Versioned::new(c_other.clone(), Bytes::from_static(b"B")))
        .unwrap();

    assert_eq!(cluster.deliver_hints(), 1, "concurrent hint must deliver");
    let siblings = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
    assert_eq!(siblings.len(), 2, "hint and concurrent put must coexist");
    let snapshot = cluster.metrics().snapshot();
    // The counter is registered by the replay pass but never incremented.
    assert_eq!(
        snapshot.counter("voldemort.hints.dropped_obsolete").unwrap_or(0),
        0
    );
}

/// Satellite regression: `get_all` must batch keys by replica node — one
/// multi-get per contacted node — instead of one independent quorum per
/// key. Counted via the per-node `multiget.count`/`get.count` metrics.
#[test]
fn get_all_batches_one_multiget_per_node() {
    let cluster = VoldemortCluster::new(32, 3).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 2))
        .unwrap();
    let client = cluster.client("s").unwrap();
    let keys: Vec<Vec<u8>> = (0..20).map(|i| format!("k{i}").into_bytes()).collect();
    for key in &keys {
        client.put_initial(key, Bytes::from(format!("v-{key:?}"))).unwrap();
    }

    let before = cluster.metrics().snapshot();
    let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let got = client.get_all(&key_refs).unwrap();
    let after = cluster.metrics().snapshot();

    assert_eq!(got.len(), keys.len());
    for key in &keys {
        assert_eq!(got[key][0].value, Bytes::from(format!("v-{key:?}")));
    }

    let delta = after.delta(&before);
    let multigets = delta.counter_sum("voldemort.node");
    // All per-node counters share the `voldemort.node<id>.` prefix, so sum
    // the two we care about individually.
    let multiget_calls: u64 = (0..3)
        .filter_map(|i| delta.counter(&format!("voldemort.node{i}.multiget.count")))
        .sum();
    let single_gets: u64 = (0..3)
        .filter_map(|i| delta.counter(&format!("voldemort.node{i}.get.count")))
        .sum();
    assert!(
        multiget_calls <= 3,
        "expected at most one multi-get per node for 20 keys, got {multiget_calls} \
         (total node-counter delta {multigets})"
    );
    assert_eq!(
        single_gets, 0,
        "get_all must not fall back to per-key single gets"
    );
}
