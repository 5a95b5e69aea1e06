//! Property tests for the group-commit ingest path (C-26's invariants).
//!
//! The tentpole claim: routing produce through the per-partition
//! [`GroupQueue`] changes *how often* the partition lock is taken, never
//! *what lands in the log*. Under random producer counts, batch splits,
//! and key distributions, the grouped path must be byte-identical to the
//! legacy one-append-per-produce path — same `content_fingerprint`, same
//! offsets — in both `ShardMode::Deterministic` and
//! `ShardMode::Parallel`. A second property drives real concurrent
//! producer threads and checks conservation, contiguity, and per-thread
//! FIFO order.
//!
//! Case count defaults to 24; CI raises it with
//! `KAFKA_INGEST_PROPTEST_CASES=64` (the vendored proptest has no env
//! support compiled in, so the knob is read manually).

use li_commons::metrics::MetricsRegistry;
use li_commons::shard::ShardMode;
use li_commons::sim::SimClock;
use li_kafka::log::LogConfig;
use li_kafka::message::MessageSet;
use li_kafka::{AckMode, KafkaCluster};
use proptest::prelude::*;
use std::sync::Arc;

fn cases(default: u32) -> u32 {
    std::env::var("KAFKA_INGEST_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn cluster_with(mode: ShardMode, config: &LogConfig, partitions: u32) -> Arc<KafkaCluster> {
    let cluster = KafkaCluster::with_shard_mode(
        1,
        config.clone(),
        Arc::new(SimClock::new()),
        &MetricsRegistry::new(),
        mode,
    )
    .unwrap();
    cluster.create_topic("ingest", partitions).unwrap();
    cluster
}

/// One producer-visible batch: which partition it targets and the
/// payloads it carries (already split the way the producer would split).
#[derive(Debug, Clone)]
struct SendBatch {
    partition: u32,
    payloads: Vec<Vec<u8>>,
}

fn batches_strategy(partitions: u32) -> impl Strategy<Value = Vec<SendBatch>> {
    proptest::collection::vec(
        (
            0..partitions,
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 1..12),
        )
            .prop_map(|(partition, payloads)| SendBatch { partition, payloads }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// Grouped produce ≡ legacy produce, byte for byte. The same random
    /// batch sequence is replayed against three single-broker clusters —
    /// legacy `produce_frames`, grouped Deterministic, grouped Parallel —
    /// and every partition must end with identical `log_end`,
    /// `content_fingerprint`, and per-batch base offsets.
    #[test]
    fn prop_grouped_produce_matches_legacy_bytes_and_offsets(
        partitions in 1u32..5,
        flush_every in 1u64..5,
        segment_bytes in prop_oneof![Just(1usize << 20), 128usize..1024],
        batches in (1u32..5).prop_flat_map(batches_strategy),
    ) {
        let config = LogConfig {
            flush_interval_messages: flush_every,
            flush_interval: std::time::Duration::from_secs(3600),
            segment_bytes,
            ..LogConfig::default()
        };
        let legacy = cluster_with(ShardMode::Parallel, &config, partitions);
        let det = cluster_with(ShardMode::Deterministic, &config, partitions);
        let par = cluster_with(ShardMode::Parallel, &config, partitions);

        for batch in &batches {
            let partition = batch.partition % partitions;
            let set = MessageSet::from_payloads(batch.payloads.clone());
            let frames = set.encode();
            let messages = set.messages.len() as u64;
            let payload_bytes = set.payload_bytes();

            let legacy_offset = legacy
                .broker_for("ingest", partition).unwrap()
                .produce_frames("ingest", partition, &frames, messages, payload_bytes)
                .unwrap();
            let det_receipt = det
                .produce_frames_grouped(
                    "ingest", partition, frames.clone(), messages, payload_bytes,
                    AckMode::Leader,
                )
                .unwrap();
            let par_receipt = par
                .produce_frames_grouped(
                    "ingest", partition, frames, messages, payload_bytes,
                    AckMode::Leader,
                )
                .unwrap();
            // Leader ack always reports the append offset — and it matches
            // the legacy path exactly (single-threaded, so the grouped
            // drainer commits inline in arrival order).
            prop_assert_eq!(det_receipt.base_offset, Some(legacy_offset));
            prop_assert_eq!(par_receipt.base_offset, Some(legacy_offset));
        }

        legacy.flush_all();
        det.flush_all();
        par.flush_all();
        for p in 0..partitions {
            let legacy_log = legacy.broker_for("ingest", p).unwrap().log("ingest", p).unwrap();
            let det_log = det.broker_for("ingest", p).unwrap().log("ingest", p).unwrap();
            let par_log = par.broker_for("ingest", p).unwrap().log("ingest", p).unwrap();
            prop_assert_eq!(det_log.log_end(), legacy_log.log_end(), "partition {}", p);
            prop_assert_eq!(par_log.log_end(), legacy_log.log_end(), "partition {}", p);
            prop_assert_eq!(
                det_log.content_fingerprint(),
                legacy_log.content_fingerprint(),
                "deterministic twin diverged on partition {}", p
            );
            prop_assert_eq!(
                par_log.content_fingerprint(),
                legacy_log.content_fingerprint(),
                "parallel path diverged on partition {}", p
            );
            prop_assert!(det_log.verify_contiguity().is_ok());
            prop_assert!(par_log.verify_contiguity().is_ok());
        }
    }

    /// Real concurrent producers against the Parallel grouped path: no
    /// message lost or duplicated, the log stays contiguous, and each
    /// thread's sends land in its own send order within each partition
    /// (admission order is commit order — the queue is FIFO).
    #[test]
    fn prop_concurrent_grouped_produce_conserves_and_orders(
        threads in 1usize..6,
        per_thread in 1usize..30,
        partitions in 1u32..4,
        ack_seed in any::<u8>(),
    ) {
        let config = LogConfig {
            flush_interval_messages: 1,
            flush_interval: std::time::Duration::from_secs(3600),
            ..LogConfig::default()
        };
        let cluster = cluster_with(ShardMode::Parallel, &config, partitions);
        let acks = [AckMode::Leader, AckMode::FullIsr, AckMode::None];

        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cluster = cluster.clone();
                std::thread::spawn(move || {
                    let mut offsets: Vec<(u32, u64)> = Vec::new();
                    for seq in 0..per_thread {
                        let partition = ((t + seq) as u32) % partitions;
                        let set = MessageSet::from_payloads([format!("t{t}-s{seq}")]);
                        let frames = set.encode();
                        let payload_bytes = set.payload_bytes();
                        let ack = acks[(ack_seed as usize + t + seq) % acks.len()];
                        let receipt = cluster
                            .produce_frames_grouped(
                                "ingest", partition, frames, 1, payload_bytes, ack,
                            )
                            .unwrap();
                        prop_assert_eq!(receipt.base_offset.is_none(), ack == AckMode::None);
                        if let Some(offset) = receipt.base_offset {
                            offsets.push((partition, offset));
                        }
                    }
                    Ok(offsets)
                })
            })
            .collect();
        let mut acked: Vec<Vec<(u32, u64)>> = Vec::new();
        for handle in handles {
            acked.push(handle.join().unwrap()?);
        }

        cluster.flush_all();
        let mut landed = 0usize;
        let mut per_thread_seen: Vec<Vec<Vec<usize>>> =
            vec![vec![Vec::new(); partitions as usize]; threads];
        for p in 0..partitions {
            let log = cluster.broker_for("ingest", p).unwrap().log("ingest", p).unwrap();
            prop_assert!(log.verify_contiguity().is_ok());
            let (messages, _) = log.read(0, usize::MAX).unwrap();
            landed += messages.len();
            for (_, message) in &messages {
                let text = String::from_utf8(message.payload.to_vec()).unwrap();
                let (t, s) = text[1..].split_once("-s").unwrap();
                per_thread_seen[t.parse::<usize>().unwrap()][p as usize]
                    .push(s.parse::<usize>().unwrap());
            }
        }
        // Conservation: every send landed exactly once.
        prop_assert_eq!(landed, threads * per_thread);
        // Per-thread FIFO within each partition.
        for rows in &per_thread_seen {
            for seqs in rows {
                prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
            }
        }
        // Acked offsets per thread+partition strictly increase too.
        for offsets in &acked {
            for p in 0..partitions {
                let mine: Vec<u64> = offsets
                    .iter()
                    .filter(|(part, _)| *part == p)
                    .map(|(_, o)| *o)
                    .collect();
                prop_assert!(mine.windows(2).all(|w| w[0] < w[1]), "{mine:?}");
            }
        }
    }
}
