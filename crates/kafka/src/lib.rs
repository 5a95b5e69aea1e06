//! # li-kafka — log-structured pub/sub messaging (Kafka reproduction)
//!
//! Paper §V: "We developed a system called Kafka for collecting and
//! delivering event data. Kafka adopts a messaging API to support both
//! real time and offline consumption of this data. Since event data is 2-3
//! orders magnitude larger than data handled in traditional messaging
//! systems, we made a few unconventional yet practical design choices to
//! make our system simple, efficient and scalable."
//!
//! Those choices, and where they live here:
//!
//! * **Simple storage** ([`log`]) — a partition is a set of segment files;
//!   messages are addressed by *logical offset* (next id = id + message
//!   length), not per-message ids with an index; messages become visible
//!   only after a flush.
//! * **Efficient transfer** ([`producer`], [`net`]) — producers batch
//!   message sets and compress them ([`li_commons::compress`]); brokers
//!   hand out stored bytes without re-copying (the `sendfile` analog, with
//!   an explicit 4-copy baseline for the benchmark).
//! * **Distributed consumer state** ([`consumer`]) — brokers keep no
//!   per-consumer state; consumers own their offsets, can rewind, and
//!   retention is a simple time-based SLA.
//! * **Distributed coordination** ([`group`]) — consumer groups rebalance
//!   through ZooKeeper ([`li_zk`]): partition ownership, rebalance
//!   triggering on membership change, and offset storage.
//! * **Intra-cluster replication** ([`replication`]) — the paper's future
//!   work: one [`KafkaCluster`] type owns every partition's leader, ISR and
//!   high watermark; replication factor 1 is the degenerate case.
//! * **Pipelines** ([`mirror`]) — embedded consumers mirror live clusters
//!   into an offline cluster; [`audit`] reproduces the paper's end-to-end
//!   count-auditing scheme.
//! * **Baseline** ([`baseline`]) — a traditional message queue (per-message
//!   ids, broker-side ack state) for the design-choice benchmarks.
//!
//! Each partition has one write path and one read path. Writes are
//! encoded frames enqueued into the partition's group-commit queue
//! ([`ingest`]) by [`KafkaCluster::produce_frames_grouped`] (or
//! [`KafkaCluster::produce_with_ack`], which encodes a set first); a
//! drained batch lands on the leader with one
//! [`log::PartitionLog::append_frames_multi`]. Reads are zero-copy
//! [`FetchChunk`] views from [`KafkaCluster::fetch_chunks`], which stops
//! at the high watermark; [`SimpleConsumer::poll`] is the one eager
//! decode on top. [`log::PartitionLog::append_frames`], one append per
//! call, is what follower catch-up uses and the oracle the group-commit
//! property tests compare against.
//!
//! ```
//! use li_kafka::{KafkaCluster, Producer, SimpleConsumer};
//!
//! let cluster = KafkaCluster::new(2)?;
//! cluster.create_topic("activity", 4)?;
//!
//! let producer = Producer::new(cluster.clone()).with_batch_size(8);
//! for i in 0..32 {
//!     producer.send("activity", format!("event-{i}"))?;
//! }
//! producer.flush()?;
//!
//! // Consumers own their offsets; the broker keeps no consumer state.
//! let mut total = 0;
//! for partition in 0..4 {
//!     let mut consumer = SimpleConsumer::new(cluster.clone(), "activity", partition)?;
//!     total += consumer.poll()?.len();
//! }
//! assert_eq!(total, 32);
//! # Ok::<(), li_kafka::KafkaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod baseline;
pub mod broker;
pub mod cluster;
pub mod consumer;
pub mod group;
pub mod ingest;
pub mod log;
pub mod message;
pub mod mirror;
pub mod net;
pub mod producer;
pub mod replication;

pub use broker::Broker;
pub use cluster::KafkaCluster;
pub use consumer::{MessageStream, SimpleConsumer};
pub use group::GroupConsumer;
pub use ingest::{AckMode, ProduceReceipt};
pub use message::{FetchChunk, KafkaError, Message, MessageSet};
pub use producer::{Partitioner, Producer};
