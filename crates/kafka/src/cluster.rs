//! The cluster: brokers, per-partition replication state, and ZooKeeper
//! registration.
//!
//! One type owns every partition's leader, followers, in-sync replica set
//! and group-commit queue, plus the set of failed brokers. A topic made
//! with [`KafkaCluster::create_topic`] has replication factor 1 — the
//! degenerate case: the leader is the only replica, its high watermark is
//! its own `visible_end`, and a [`AckMode::FullIsr`] ship only flushes the
//! leader log. The replication protocol itself (follower catch-up, broker
//! failure and recovery, leader election) lives in [`crate::replication`].

use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use li_commons::bufio;
use li_commons::metrics::MetricsRegistry;
use li_commons::shard::ShardMode;
use li_commons::sim::{Clock, RealClock};
use li_zk::{CreateMode, Session, ZooKeeper};

use crate::broker::Broker;
use crate::ingest::{AckMode, GroupFrames, GroupQueue, IngestSink, ProduceReceipt};
use crate::log::LogConfig;
use crate::message::{FetchChunk, KafkaError, MessageSet};

/// Which brokers hold a partition, and which of them are in sync.
#[derive(Debug, Clone)]
pub(crate) struct Replicas {
    pub(crate) leader: u16,
    pub(crate) followers: Vec<u16>,
    /// The in-sync replica set. A broker leaves on crash and rejoins only
    /// after catching up to the leader's visible end; leader elections
    /// are restricted to this set.
    pub(crate) isr: BTreeSet<u16>,
}

/// One topic-partition's cluster-level record: its replicas and its
/// group-commit queue. The queue lives here rather than on a broker
/// because it must survive a leader failover: producers keep enqueueing
/// against the partition while the sink resolves whoever currently leads
/// it.
pub(crate) struct Partition {
    pub(crate) replicas: RwLock<Replicas>,
    queue: GroupQueue,
}

/// A Kafka cluster: brokers, topic→partition→replica metadata, and the
/// coordination service used by consumer groups. "Kafka uses Zookeeper for
/// ... detecting the addition and the removal of brokers and consumers"
/// (§V.C); brokers and partition ownership are registered under
/// `/brokers`.
pub struct KafkaCluster {
    zk: ZooKeeper,
    session: Session,
    clock: Arc<dyn Clock>,
    config: LogConfig,
    mode: ShardMode,
    brokers: Vec<Arc<Broker>>,
    /// topic -> partition -> replication state.
    topics: RwLock<HashMap<String, Vec<Arc<Partition>>>>,
    /// Brokers currently failed.
    pub(crate) down: RwLock<HashSet<u16>>,
    metrics: Arc<MetricsRegistry>,
}

impl std::fmt::Debug for KafkaCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KafkaCluster")
            .field("brokers", &self.brokers.len())
            .field("topics", &self.topics.read().keys().collect::<Vec<_>>())
            .finish()
    }
}

impl KafkaCluster {
    /// Builds a cluster of `broker_count` brokers with default log config
    /// and the real clock.
    pub fn new(broker_count: u16) -> Result<Arc<Self>, KafkaError> {
        Self::with_parts(broker_count, LogConfig::default(), Arc::new(RealClock::new()))
    }

    /// Fully-injected constructor.
    pub fn with_parts(
        broker_count: u16,
        config: LogConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Arc<Self>, KafkaError> {
        Self::with_metrics(broker_count, config, clock, &MetricsRegistry::new())
    }

    /// Fully-injected constructor that reports into a shared metrics
    /// registry (names under `kafka.`; the embedded coordination service
    /// reports under `zk.`).
    pub fn with_metrics(
        broker_count: u16,
        config: LogConfig,
        clock: Arc<dyn Clock>,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Arc<Self>, KafkaError> {
        Self::with_shard_mode(broker_count, config, clock, registry, ShardMode::Parallel)
    }

    /// [`KafkaCluster::with_metrics`] with an explicit shard mode for the
    /// brokers' index striping and the partitions' group-commit queues.
    /// [`ShardMode::Deterministic`] commits one produce call per log append,
    /// byte-identical to one [`crate::log::PartitionLog::append_frames`]
    /// per produce — the chaos harness twin.
    pub fn with_shard_mode(
        broker_count: u16,
        config: LogConfig,
        clock: Arc<dyn Clock>,
        registry: &Arc<MetricsRegistry>,
        mode: ShardMode,
    ) -> Result<Arc<Self>, KafkaError> {
        let zk = ZooKeeper::with_metrics(registry);
        let session = zk.connect();
        session.create_recursive("/brokers/ids", Vec::new(), CreateMode::Persistent)?;
        session.create_recursive("/brokers/topics", Vec::new(), CreateMode::Persistent)?;
        let metrics = Arc::clone(registry);
        let brokers: Vec<Arc<Broker>> = (0..broker_count)
            .map(|id| {
                let broker = Arc::new(Broker::with_shard_mode(
                    id,
                    config.clone(),
                    clock.clone(),
                    &metrics,
                    mode,
                ));
                let _ = session.create(
                    &format!("/brokers/ids/{id}"),
                    Vec::new(),
                    CreateMode::Persistent,
                );
                broker
            })
            .collect();
        Ok(Arc::new(KafkaCluster {
            zk,
            session,
            clock,
            config,
            mode,
            brokers,
            topics: RwLock::new(HashMap::new()),
            down: RwLock::new(HashSet::new()),
            metrics,
        }))
    }

    /// The log configuration every broker of this cluster was built with.
    pub fn log_config(&self) -> &LogConfig {
        &self.config
    }

    /// The shard mode the cluster's brokers and ingest queues run in.
    pub fn shard_mode(&self) -> ShardMode {
        self.mode
    }

    /// The metrics registry every broker, producer, and consumer of this
    /// cluster reports into (names under `kafka.`).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The coordination service (consumer groups connect here).
    pub fn zookeeper(&self) -> &ZooKeeper {
        &self.zk
    }

    /// The cluster clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Creates a topic with `num_partitions` and replication factor 1,
    /// spread round-robin across brokers, and registers it in ZooKeeper.
    pub fn create_topic(&self, topic: &str, num_partitions: u32) -> Result<(), KafkaError> {
        self.create_replicated_topic(topic, num_partitions, 1)
    }

    /// Creates a topic whose partition `p` is replicated on brokers
    /// `p, p+1, .. p+replication-1 (mod broker count)`, the first being
    /// the leader, and registers it in ZooKeeper. An existing topic is
    /// rejected, never reset: re-creating it would readmit a crashed or
    /// stale replica to the ISR.
    pub fn create_replicated_topic(
        &self,
        topic: &str,
        num_partitions: u32,
        replication: usize,
    ) -> Result<(), KafkaError> {
        let brokers = self.brokers.len();
        if replication == 0 || replication > brokers {
            return Err(KafkaError::Group(format!(
                "replication {replication} invalid for {brokers} brokers"
            )));
        }
        let mut topics = self.topics.write();
        if topics.contains_key(topic) {
            return Err(KafkaError::Group(format!("topic `{topic}` exists")));
        }
        let mut partitions = Vec::with_capacity(num_partitions as usize);
        for partition in 0..num_partitions {
            let replicas: Vec<u16> = (0..replication)
                .map(|r| ((partition as usize + r) % brokers) as u16)
                .collect();
            for &b in &replicas {
                self.brokers[b as usize].create_partition(topic, partition);
            }
            let ids: Vec<String> = replicas.iter().map(u16::to_string).collect();
            self.session.create_recursive(
                &format!("/brokers/topics/{topic}/{partition}"),
                ids.join(",").into_bytes(),
                CreateMode::Persistent,
            )?;
            partitions.push(Arc::new(Partition {
                replicas: RwLock::new(Replicas {
                    leader: replicas[0],
                    followers: replicas[1..].to_vec(),
                    // All replicas start empty, hence in sync.
                    isr: replicas.iter().copied().collect(),
                }),
                queue: GroupQueue::new(self.mode, self.config.ingest_queue_bytes),
            }));
        }
        topics.insert(topic.to_string(), partitions);
        Ok(())
    }

    /// The cluster-level record of `topic`/`partition`.
    pub(crate) fn partition(
        &self,
        topic: &str,
        partition: u32,
    ) -> Result<Arc<Partition>, KafkaError> {
        self.topics
            .read()
            .get(topic)
            .and_then(|partitions| partitions.get(partition as usize))
            .cloned()
            .ok_or_else(|| KafkaError::UnknownTopicPartition(topic.to_string(), partition))
    }

    /// A snapshot of every partition's record, as `(topic, partition,
    /// record)`.
    pub(crate) fn all_partitions(&self) -> Vec<(String, u32, Arc<Partition>)> {
        self.topics
            .read()
            .iter()
            .flat_map(|(topic, partitions)| {
                (0u32..).zip(partitions).map(|(p, state)| (topic.clone(), p, state.clone()))
            })
            .collect()
    }

    /// Number of partitions of `topic`.
    pub fn num_partitions(&self, topic: &str) -> Result<u32, KafkaError> {
        self.topics
            .read()
            .get(topic)
            .map(|partitions| partitions.len() as u32)
            .ok_or_else(|| KafkaError::UnknownTopicPartition(topic.to_string(), 0))
    }

    /// The broker currently leading `topic`/`partition` (it follows
    /// leader elections).
    pub fn broker_for(&self, topic: &str, partition: u32) -> Result<Arc<Broker>, KafkaError> {
        Ok(self.brokers[self.leader_of(topic, partition)? as usize].clone())
    }

    /// The current leader broker id of a partition.
    pub fn leader_of(&self, topic: &str, partition: u32) -> Result<u16, KafkaError> {
        Ok(self.partition(topic, partition)?.replicas.read().leader)
    }

    /// The partition's current in-sync replica set, sorted. Crashed
    /// brokers leave it immediately; recovered brokers rejoin only after
    /// catching up to the leader's visible end.
    pub fn isr_of(&self, topic: &str, partition: u32) -> Result<Vec<u16>, KafkaError> {
        let state = self.partition(topic, partition)?;
        let isr = state.replicas.read().isr.iter().copied().collect();
        Ok(isr)
    }

    /// The broker `leader`, or an error while it is down (a client
    /// refreshes metadata after a failover and retries).
    pub(crate) fn live_leader(
        &self,
        topic: &str,
        partition: u32,
        leader: u16,
    ) -> Result<&Arc<Broker>, KafkaError> {
        if self.down.read().contains(&leader) {
            return Err(KafkaError::Group(format!(
                "leader {leader} down for {topic}/{partition}"
            )));
        }
        Ok(&self.brokers[leader as usize])
    }

    /// Group-commit produce of an already-encoded frame group: enqueues it
    /// into the partition's [`GroupQueue`] and drives the drainer protocol
    /// — `N` concurrent producers on one partition cost one leader-log
    /// lock acquisition, one flush check, one consumer wakeup and (for
    /// [`AckMode::FullIsr`]) one replication ship per drained *batch*, not
    /// per producer (see [`crate::ingest`]). Blocks per `ack`:
    ///
    /// * [`AckMode::None`] — returns without waiting; no offset.
    /// * [`AckMode::Leader`] — returns after the leader's local append.
    /// * [`AckMode::FullIsr`] — returns only after every live replica
    ///   holds the bytes; the message is committed (below the high
    ///   watermark) the moment the call returns, with no
    ///   [`KafkaCluster::replicate`] pump needed.
    pub fn produce_frames_grouped(
        &self,
        topic: &str,
        partition: u32,
        frames: Bytes,
        messages: u64,
        payload_bytes: usize,
        ack: AckMode,
    ) -> Result<ProduceReceipt, KafkaError> {
        let state = self.partition(topic, partition)?;
        let sink = PartitionSink {
            cluster: self,
            topic,
            partition,
            state: &state,
        };
        state
            .queue
            .produce(&sink, frames, messages, payload_bytes as u64, ack)
    }

    /// [`KafkaCluster::produce_frames_grouped`] for a message set, encoded
    /// once outside every lock.
    pub fn produce_with_ack(
        &self,
        topic: &str,
        partition: u32,
        set: &MessageSet,
        ack: AckMode,
    ) -> Result<ProduceReceipt, KafkaError> {
        let messages = set.messages.len() as u64;
        self.produce_frames_grouped(
            topic,
            partition,
            set.encode().into(),
            messages,
            set.payload_bytes(),
            ack,
        )
    }

    /// Drains every partition's group-commit queue (flush-on-close: makes
    /// sure no [`AckMode::None`] group is still waiting for a drainer).
    pub fn flush_ingest(&self) {
        for (topic, partition, state) in self.all_partitions() {
            let sink = PartitionSink {
                cluster: self,
                topic: &topic,
                partition,
                state: &state,
            };
            state.queue.drain_with(&sink);
        }
    }

    /// The high watermark: the largest offset visible on *every* live
    /// replica. Messages past it are not yet committed. With replication
    /// factor 1 it is the leader's `visible_end`.
    pub fn high_watermark(&self, topic: &str, partition: u32) -> Result<u64, KafkaError> {
        let state = self.partition(topic, partition)?;
        let replicas = state.replicas.read();
        self.watermark(topic, partition, &replicas)
    }

    /// [`KafkaCluster::high_watermark`] over an already-read replica set.
    fn watermark(
        &self,
        topic: &str,
        partition: u32,
        replicas: &Replicas,
    ) -> Result<u64, KafkaError> {
        let down = self.down.read();
        let mut hw = None::<u64>;
        for &b in std::iter::once(&replicas.leader).chain(&replicas.followers) {
            if !down.contains(&b) {
                let end = self.brokers[b as usize].log(topic, partition)?.visible_end();
                hw = Some(hw.map_or(end, |hw| hw.min(end)));
            }
        }
        Ok(hw.unwrap_or(0))
    }

    /// Zero-copy committed fetch: frame-aligned [`FetchChunk`] views of
    /// the current leader's log from `offset`, bounded by `max_bytes` and
    /// stopping at the high watermark — a consumer can never observe a
    /// message that a leader failover could lose. Every reader of the
    /// cluster ([`crate::SimpleConsumer`], [`crate::mirror::MirrorMaker`],
    /// [`crate::mirror::WarehouseLoader`]) goes through here.
    pub fn fetch_chunks(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_bytes: usize,
    ) -> Result<(Vec<FetchChunk>, u64), KafkaError> {
        let state = self.partition(topic, partition)?;
        let (leader, hw) = {
            let replicas = state.replicas.read();
            let leader = self.live_leader(topic, partition, replicas.leader)?;
            (leader, self.watermark(topic, partition, &replicas)?)
        };
        let (mut chunks, next) = leader.fetch_chunks(topic, partition, offset, max_bytes)?;
        if next <= hw {
            return Ok((chunks, next));
        }
        // Keep only whole frames that end at or below the watermark.
        let mut next = offset;
        let mut kept = 0;
        for chunk in &mut chunks {
            let limit = hw.saturating_sub(chunk.base_offset) as usize;
            let (mut end, mut messages) = (0usize, 0u64);
            while let bufio::FrameBounds::Record { end: frame_end, .. } =
                bufio::frame_bounds(&chunk.data, end)
            {
                if frame_end > limit {
                    break;
                }
                end = frame_end;
                messages += 1;
            }
            if messages == 0 {
                break;
            }
            next = chunk.base_offset + end as u64;
            kept += 1;
            if end < chunk.data.len() {
                chunk.data = chunk.data.slice(..end);
                chunk.messages = messages;
                break;
            }
        }
        chunks.truncate(kept);
        Ok((chunks, next))
    }

    /// All brokers.
    pub fn brokers(&self) -> &[Arc<Broker>] {
        &self.brokers
    }

    /// Flushes everything (time-policy tick / shutdown): first drains the
    /// group-commit queues, then forces every broker's log-level flush.
    pub fn flush_all(&self) {
        self.flush_ingest();
        for broker in &self.brokers {
            broker.flush_all();
        }
    }

    /// Runs retention everywhere; returns segments deleted.
    pub fn enforce_retention(&self) -> usize {
        self.brokers.iter().map(|b| b.enforce_retention()).sum()
    }
}

/// The one [`IngestSink`]: a drained batch appends to whoever *currently*
/// leads the partition (one lock acquisition via the leader broker's
/// group append), and a FullIsr ship pushes the leader's bytes to every
/// live follower once per batch. A downed leader fails the whole batch:
/// every waiting producer sees the error and nothing is appended.
struct PartitionSink<'a> {
    cluster: &'a KafkaCluster,
    topic: &'a str,
    partition: u32,
    state: &'a Partition,
}

impl IngestSink for PartitionSink<'_> {
    fn append_groups(&self, groups: &[GroupFrames<'_>]) -> Result<u64, KafkaError> {
        let leader = self.state.replicas.read().leader;
        self.cluster
            .live_leader(self.topic, self.partition, leader)?
            .append_groups_local(self.topic, self.partition, groups)
    }

    fn ship(&self) -> Result<(), KafkaError> {
        self.cluster.ship(self.topic, self.partition, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageSet;
    use li_commons::sim::SimClock;

    /// One broker hosting topic `t` with one partition (replication 1).
    fn single() -> Arc<KafkaCluster> {
        let cluster =
            KafkaCluster::with_parts(1, LogConfig::default(), Arc::new(SimClock::new())).unwrap();
        cluster.create_topic("t", 1).unwrap();
        cluster
    }

    #[test]
    fn topic_partitions_spread_over_brokers() {
        let cluster = KafkaCluster::new(3).unwrap();
        cluster.create_topic("events", 7).unwrap();
        assert_eq!(cluster.num_partitions("events").unwrap(), 7);
        let mut per_broker = [0usize; 3];
        for p in 0..7 {
            let broker = cluster.broker_for("events", p).unwrap();
            per_broker[broker.id() as usize] += 1;
        }
        assert_eq!(per_broker, [3, 2, 2]);
    }

    #[test]
    fn duplicate_topic_rejected() {
        let cluster = KafkaCluster::new(1).unwrap();
        cluster.create_topic("t", 1).unwrap();
        assert!(cluster.create_topic("t", 1).is_err());
    }

    #[test]
    fn topic_registered_in_zookeeper() {
        let cluster = KafkaCluster::new(2).unwrap();
        cluster.create_topic("news", 4).unwrap();
        let session = cluster.zookeeper().connect();
        let children = session.children("/brokers/topics/news").unwrap();
        assert_eq!(children.len(), 4);
    }

    #[test]
    fn produce_via_cluster_routing() {
        let cluster = KafkaCluster::new(2).unwrap();
        cluster.create_topic("t", 2).unwrap();
        cluster
            .produce_with_ack(
                "t",
                1,
                &MessageSet::from_payloads(["hello"]),
                AckMode::Leader,
            )
            .unwrap();
        let (chunks, _) = cluster
            .broker_for("t", 1)
            .unwrap()
            .fetch_chunks("t", 1, 0, usize::MAX)
            .unwrap();
        assert_eq!(chunks.iter().map(|c| c.messages).sum::<u64>(), 1);
    }

    #[test]
    fn grouped_produce_matches_legacy_bytes_and_counts_groups() {
        let legacy = Broker::new(0, LogConfig::default(), Arc::new(SimClock::new()));
        let grouped = single();
        legacy.create_partition("t", 0);
        for i in 0..10 {
            let set = MessageSet::from_payloads([format!("m-{i}")]);
            let frames = set.encode();
            let payload = set.payload_bytes();
            let offset = legacy.log("t", 0).unwrap().append_frames(&frames).unwrap();
            let receipt = grouped
                .produce_frames_grouped("t", 0, frames.into(), 1, payload, AckMode::Leader)
                .unwrap();
            assert_eq!(receipt.base_offset, Some(offset));
        }
        let (a, b) = (
            legacy.log("t", 0).unwrap(),
            grouped.broker_for("t", 0).unwrap().log("t", 0).unwrap(),
        );
        assert_eq!(a.log_end(), b.log_end());
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
    }

    #[test]
    fn grouped_produce_none_ack_lands_after_flush_ingest() {
        let b = single();
        let set = MessageSet::from_payloads(["fire"]);
        let frames = set.encode().into();
        let receipt = b
            .produce_frames_grouped("t", 0, frames, 1, set.payload_bytes(), AckMode::None)
            .unwrap();
        assert_eq!(receipt.base_offset, None);
        b.flush_ingest();
        let mut consumer = crate::SimpleConsumer::new(b, "t", 0).unwrap();
        assert_eq!(consumer.poll().unwrap().len(), 1);
    }

    #[test]
    fn full_isr_on_unreplicated_topic_acks_at_the_leader_offset() {
        let b = single();
        let set = MessageSet::from_payloads(["x"]);
        let frames = set.encode().into();
        let receipt = b
            .produce_frames_grouped("t", 0, frames, 1, set.payload_bytes(), AckMode::FullIsr)
            .unwrap();
        assert_eq!(receipt.base_offset, Some(0));
    }
}
