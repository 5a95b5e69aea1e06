//! The broker: a set of partition logs.
//!
//! The partition index is hash-striped (PR 7): produce and fetch resolve a
//! topic-partition through one short stripe lock instead of a broker-wide
//! map lock, so partitions hosted on the same broker never contend on the
//! index. The striping is semantics-free — the index is read-mostly and
//! each [`PartitionLog`] has its own interior locking — so the
//! deterministic twin ([`ShardMode::Deterministic`], one stripe) exists
//! only to keep lock behavior replayable under the chaos harness.
//!
//! A broker knows nothing of replication or group commit: the cluster
//! ([`crate::KafkaCluster`]) owns each partition's replicas and ingest
//! queue, and calls [`Broker::append_groups_local`] on the current leader
//! to commit a drained batch.

use std::collections::HashMap;
use std::sync::Arc;

use li_commons::metrics::{Counter, Gauge, Histo, MetricsRegistry};
use li_commons::shard::{ShardMode, ShardedLock};
use li_commons::sim::Clock;

use crate::ingest::GroupFrames;
use crate::log::{LogConfig, PartitionLog};
use crate::message::{FetchChunk, KafkaError, Message, MessageSet};

/// Index stripes per broker in [`ShardMode::Parallel`].
const INDEX_STRIPES: usize = 16;

/// Per-broker observability under `kafka.broker<id>.`: messages and bytes
/// through produce and fetch, plus one `log_end` gauge per hosted
/// topic-partition (`kafka.topic.<topic>.<partition>.log_end`).
#[derive(Debug, Clone)]
struct BrokerMetrics {
    produce_messages: Counter,
    bytes_in: Counter,
    fetch_messages: Counter,
    bytes_out: Counter,
    /// Producer frame groups committed through the group-commit path.
    produce_groups: Counter,
    /// Groups per drained batch — the group-commit amortization factor
    /// (1 = no batching happened; higher = fewer lock acquisitions).
    groups_per_commit: Histo,
}

impl BrokerMetrics {
    fn new(registry: &Arc<MetricsRegistry>, id: u16) -> Self {
        let scope = registry.scope(format!("kafka.broker{id}"));
        BrokerMetrics {
            produce_messages: scope.counter("produce.messages"),
            bytes_in: scope.counter("produce.bytes_in"),
            fetch_messages: scope.counter("fetch.messages"),
            bytes_out: scope.counter("fetch.bytes_out"),
            produce_groups: scope.counter("produce.groups"),
            groups_per_commit: scope.histogram("produce.groups_per_commit"),
        }
    }
}

/// One hosted topic-partition: its log and the pre-resolved `log_end`
/// gauge, so the produce hot path does a single index lookup.
#[derive(Clone)]
struct PartitionEntry {
    log: Arc<PartitionLog>,
    log_end: Gauge,
}

/// A Kafka broker: "a topic is divided into multiple partitions and each
/// broker stores one or more of those partitions" (§V.A). The broker holds
/// no consumer state whatsoever — that is the point.
pub struct Broker {
    id: u16,
    config: LogConfig,
    clock: Arc<dyn Clock>,
    logs: ShardedLock<HashMap<(String, u32), PartitionEntry>>,
    registry: Arc<MetricsRegistry>,
    metrics: BrokerMetrics,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let hosted: usize = self.logs.lock_all().iter().map(|g| g.len()).sum();
        f.debug_struct("Broker")
            .field("id", &self.id)
            .field("partitions", &hosted)
            .finish()
    }
}

impl Broker {
    /// Creates a standalone broker reporting into a private metrics
    /// registry; cluster-managed brokers share one via
    /// [`Broker::with_metrics`].
    pub fn new(id: u16, config: LogConfig, clock: Arc<dyn Clock>) -> Self {
        Self::with_metrics(id, config, clock, &MetricsRegistry::new())
    }

    /// Creates a broker reporting under `kafka.broker<id>.` in `registry`.
    pub fn with_metrics(
        id: u16,
        config: LogConfig,
        clock: Arc<dyn Clock>,
        registry: &Arc<MetricsRegistry>,
    ) -> Self {
        Self::with_shard_mode(id, config, clock, registry, ShardMode::Parallel)
    }

    /// [`Broker::with_metrics`] with an explicit index shard mode
    /// (deterministic = one stripe, for chaos replays).
    pub fn with_shard_mode(
        id: u16,
        config: LogConfig,
        clock: Arc<dyn Clock>,
        registry: &Arc<MetricsRegistry>,
        mode: ShardMode,
    ) -> Self {
        Broker {
            id,
            config,
            clock,
            logs: ShardedLock::with_mode(mode, INDEX_STRIPES, HashMap::new),
            registry: Arc::clone(registry),
            metrics: BrokerMetrics::new(registry, id),
        }
    }

    /// Resolves a topic-partition to its entry via one stripe lock.
    fn entry(&self, topic: &str, partition: u32) -> Result<PartitionEntry, KafkaError> {
        self.logs
            .lock(&(topic, partition))
            .get(&(topic.to_string(), partition))
            .cloned()
            .ok_or_else(|| KafkaError::UnknownTopicPartition(topic.to_string(), partition))
    }

    /// This broker's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Creates (idempotently) the log for a topic-partition.
    pub fn create_partition(&self, topic: &str, partition: u32) {
        let mut stripe = self.logs.lock(&(topic, partition));
        stripe
            .entry((topic.to_string(), partition))
            .or_insert_with(|| PartitionEntry {
                log: Arc::new(PartitionLog::new(self.config.clone(), self.clock.clone())),
                log_end: self
                    .registry
                    .gauge(&format!("kafka.topic.{topic}.{partition}.log_end")),
            });
    }

    /// The log of a topic-partition.
    pub fn log(&self, topic: &str, partition: u32) -> Result<Arc<PartitionLog>, KafkaError> {
        Ok(self.entry(topic, partition)?.log)
    }

    /// Appends one (possibly wrapper) message; returns its offset.
    pub fn produce_message(
        &self,
        topic: &str,
        partition: u32,
        message: &Message,
    ) -> Result<u64, KafkaError> {
        let entry = self.entry(topic, partition)?;
        let offset = entry.log.append(message);
        self.metrics.produce_messages.inc();
        self.metrics.bytes_in.add(message.payload.len() as u64);
        entry.log_end.set(entry.log.log_end() as i64);
        Ok(offset)
    }

    /// Appends every message of a set under **one** log lock acquisition
    /// (the set is encoded into a single buffer first); returns the first
    /// offset.
    pub fn produce(
        &self,
        topic: &str,
        partition: u32,
        set: &MessageSet,
    ) -> Result<u64, KafkaError> {
        let entry = self.entry(topic, partition)?;
        let first = entry.log.append_set(set);
        self.metrics.produce_messages.add(set.messages.len() as u64);
        self.metrics.bytes_in.add(set.payload_bytes() as u64);
        entry.log_end.set(entry.log.log_end() as i64);
        Ok(first)
    }

    /// Appends an already-encoded message set (a producer wire buffer, a
    /// mirrored or replicated chunk) verbatim, without decoding it —
    /// `messages` and `payload_bytes` are the caller's accounting for the
    /// buffer. Returns the base offset.
    pub fn produce_frames(
        &self,
        topic: &str,
        partition: u32,
        frames: &[u8],
        messages: u64,
        payload_bytes: usize,
    ) -> Result<u64, KafkaError> {
        let entry = self.entry(topic, partition)?;
        let first = entry.log.append_frames(frames)?;
        self.metrics.produce_messages.add(messages);
        self.metrics.bytes_in.add(payload_bytes as u64);
        entry.log_end.set(entry.log.log_end() as i64);
        Ok(first)
    }

    /// Appends a drained batch of frame groups to the hosted partition
    /// log under **one** lock acquisition (`append_frames_multi`), then
    /// updates produce metrics and the `log_end` gauge once — the
    /// primitive the cluster's group-commit sink calls on the partition's
    /// leader. Returns the base offset of the batch's first buffer.
    pub fn append_groups_local(
        &self,
        topic: &str,
        partition: u32,
        groups: &[GroupFrames<'_>],
    ) -> Result<u64, KafkaError> {
        let entry = self.entry(topic, partition)?;
        let buffers: Vec<&[u8]> = groups.iter().map(|g| g.frames).collect();
        let base = entry.log.append_frames_multi(&buffers)?;
        let (mut messages, mut payload_bytes) = (0u64, 0u64);
        for group in groups {
            messages += group.messages;
            payload_bytes += group.payload_bytes;
        }
        self.metrics.produce_messages.add(messages);
        self.metrics.bytes_in.add(payload_bytes);
        self.metrics.produce_groups.add(groups.len() as u64);
        self.metrics.groups_per_commit.record(groups.len() as u64);
        entry.log_end.set(entry.log.log_end() as i64);
        Ok(base)
    }

    /// Pull fetch: raw stored messages from `offset`, bounded by
    /// `max_bytes`. The consumer unwraps compression.
    ///
    /// Thin adapter over [`Broker::fetch_chunks`]; payloads of the decoded
    /// messages still alias segment memory.
    pub fn fetch(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_bytes: usize,
    ) -> Result<(Vec<(u64, Message)>, u64), KafkaError> {
        let (chunks, next) = self.fetch_chunks(topic, partition, offset, max_bytes)?;
        let mut messages = Vec::new();
        for chunk in &chunks {
            for item in chunk {
                messages.push(item?);
            }
        }
        Ok((messages, next))
    }

    /// Zero-copy pull fetch: frame-aligned [`FetchChunk`] views of the
    /// partition log's own segment storage, bounded by `max_bytes`. No
    /// payload byte is copied and no lock is held while the caller decodes.
    pub fn fetch_chunks(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_bytes: usize,
    ) -> Result<(Vec<FetchChunk>, u64), KafkaError> {
        let (chunks, next) = self.log(topic, partition)?.read_chunks(offset, max_bytes)?;
        for chunk in &chunks {
            self.metrics.fetch_messages.add(chunk.messages);
            self.metrics.bytes_out.add(chunk.payload_bytes() as u64);
        }
        Ok((chunks, next))
    }

    /// Replaces a partition's log with a fresh one (replication layer:
    /// resetting a divergent replica before re-replication).
    pub fn reset_partition(&self, topic: &str, partition: u32) {
        let mut stripe = self.logs.lock(&(topic, partition));
        let log = Arc::new(PartitionLog::new(self.config.clone(), self.clock.clone()));
        match stripe.get_mut(&(topic.to_string(), partition)) {
            Some(entry) => entry.log = log,
            None => {
                stripe.insert(
                    (topic.to_string(), partition),
                    PartitionEntry {
                        log,
                        log_end: self
                            .registry
                            .gauge(&format!("kafka.topic.{topic}.{partition}.log_end")),
                    },
                );
            }
        }
    }

    /// Forces the log-level flush of every partition (time-policy tick /
    /// shutdown).
    pub fn flush_all(&self) {
        for stripe in self.logs.lock_all() {
            for entry in stripe.values() {
                entry.log.flush();
            }
        }
    }

    /// Runs the retention SLA on every partition; returns segments deleted.
    pub fn enforce_retention(&self) -> usize {
        self.logs
            .lock_all()
            .iter()
            .flat_map(|stripe| stripe.values())
            .map(|entry| entry.log.enforce_retention())
            .sum()
    }

    /// Topic-partitions hosted here.
    pub fn partitions(&self) -> Vec<(String, u32)> {
        let mut keys: Vec<(String, u32)> = self
            .logs
            .lock_all()
            .iter()
            .flat_map(|stripe| stripe.keys().cloned())
            .collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_commons::sim::SimClock;

    fn broker() -> Broker {
        Broker::new(0, LogConfig::default(), Arc::new(SimClock::new()))
    }

    #[test]
    fn produce_fetch_cycle() {
        let b = broker();
        b.create_partition("events", 0);
        let set = MessageSet::from_payloads(["a", "b", "c"]);
        let first = b.produce("events", 0, &set).unwrap();
        assert_eq!(first, 0);
        let (messages, next) = b.fetch("events", 0, 0, usize::MAX).unwrap();
        assert_eq!(messages.len(), 3);
        assert!(next > 0);
    }

    #[test]
    fn unknown_partition_rejected() {
        let b = broker();
        assert!(matches!(
            b.fetch("nope", 0, 0, 100),
            Err(KafkaError::UnknownTopicPartition(_, 0))
        ));
        assert!(b
            .produce("nope", 0, &MessageSet::from_payloads(["x"]))
            .is_err());
    }

    #[test]
    fn create_partition_idempotent() {
        let b = broker();
        b.create_partition("t", 0);
        b.produce("t", 0, &MessageSet::from_payloads(["x"])).unwrap();
        b.create_partition("t", 0); // must not wipe the log
        let (messages, _) = b.fetch("t", 0, 0, usize::MAX).unwrap();
        assert_eq!(messages.len(), 1);
    }

    #[test]
    fn partitions_are_independent_logs() {
        let b = broker();
        b.create_partition("t", 0);
        b.create_partition("t", 1);
        b.produce("t", 0, &MessageSet::from_payloads(["only in 0"])).unwrap();
        assert_eq!(b.fetch("t", 0, 0, usize::MAX).unwrap().0.len(), 1);
        assert!(b.fetch("t", 1, 0, usize::MAX).unwrap().0.is_empty());
    }

    #[test]
    fn index_lookup_does_not_cross_stripes() {
        // Holding one partition's index stripe must not block produce on a
        // partition in a different stripe.
        let b = Arc::new(broker());
        b.create_partition("t", 0);
        let other = (1..1000u32)
            .find(|p| b.logs.stripe_of(&("t", *p)) != b.logs.stripe_of(&("t", 0u32)))
            .expect("a partition in another stripe");
        b.create_partition("t", other);
        let guard = b.logs.lock(&("t", 0u32));
        let b2 = b.clone();
        let h = std::thread::spawn(move || {
            b2.produce("t", other, &MessageSet::from_payloads(["x"]))
                .unwrap()
        });
        assert_eq!(h.join().unwrap(), 0);
        drop(guard);
    }
}
