//! Consumers: pull fetches, blocking message streams, consumer-owned state.
//!
//! "The information about how much each consumer has consumed is not
//! maintained by the broker, but by the consumer itself" (§V.B). The
//! consumer issues pull requests `(offset, max_bytes)`, and "the message
//! stream iterator never terminates. If there are currently no more
//! messages to consume, the iterator blocks until new messages are
//! published."

use li_commons::metrics::Gauge;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cluster::KafkaCluster;
use crate::message::{KafkaError, Message, MessageSet};

/// A consumer of one topic-partition, tracking its own offset.
pub struct SimpleConsumer {
    cluster: Arc<KafkaCluster>,
    topic: String,
    partition: u32,
    offset: u64,
    max_bytes: usize,
    /// First-class consumer lag (`kafka.consumer.<topic>.<partition>.lag`):
    /// log-end offset minus this consumer's position, refreshed on every
    /// poll/seek.
    lag: Gauge,
}

impl SimpleConsumer {
    /// Opens a consumer at offset 0.
    pub fn new(
        cluster: Arc<KafkaCluster>,
        topic: &str,
        partition: u32,
    ) -> Result<Self, KafkaError> {
        // Validate the topic-partition exists up front.
        cluster.broker_for(topic, partition)?;
        let lag = cluster
            .metrics()
            .gauge(&format!("kafka.consumer.{topic}.{partition}.lag"));
        Ok(SimpleConsumer {
            cluster,
            topic: topic.to_string(),
            partition,
            offset: 0,
            max_bytes: 512 * 1024,
            lag,
        })
    }

    fn refresh_lag(&self) {
        if let Ok(broker) = self.cluster.broker_for(&self.topic, self.partition) {
            if let Ok(log) = broker.log(&self.topic, self.partition) {
                self.lag.set(log.log_end().saturating_sub(self.offset) as i64);
            }
        }
    }

    /// Builder: per-fetch byte budget (the paper's "maximum number of
    /// bytes to fetch", typically hundreds of kilobytes).
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = max_bytes.max(1);
        self
    }

    /// Current position (next offset to fetch).
    pub fn position(&self) -> u64 {
        self.offset
    }

    /// Repositions the consumer ("a consumer can deliberately rewind back
    /// to an old offset and re-consume data").
    pub fn seek(&mut self, offset: u64) {
        self.offset = offset;
        self.refresh_lag();
    }

    /// One pull: fetches from the current offset, unwraps compressed
    /// batches, advances the offset. Returns `(wrapper_offset, message)`
    /// pairs — acknowledging an offset implies everything before it.
    ///
    /// The fetch is committed-only and zero-copy end to end: the cluster
    /// hands back [`crate::message::FetchChunk`] views of the partition
    /// leader's segment storage, up to the high watermark,
    /// and uncompressed payloads are `Bytes` sub-slices of those chunks —
    /// no byte of payload is copied between the log and this method's
    /// caller. Compressed wrappers are decompressed here, outside any
    /// broker lock, into one buffer their inner payloads then alias.
    pub fn poll(&mut self) -> Result<Vec<(u64, Message)>, KafkaError> {
        let (chunks, next) = self.cluster.fetch_chunks(
            &self.topic,
            self.partition,
            self.offset,
            self.max_bytes,
        )?;
        let mut out = Vec::with_capacity(chunks.iter().map(|c| c.messages as usize).sum());
        for chunk in &chunks {
            for item in chunk {
                let (offset, message) = item?;
                match message.codec {
                    // Fast path: the message IS the view — push it as is.
                    li_commons::compress::Codec::None => out.push((offset, message)),
                    _ => {
                        for inner in MessageSet::unwrap_message(&message)? {
                            out.push((offset, inner));
                        }
                    }
                }
            }
        }
        self.offset = next;
        self.refresh_lag();
        Ok(out)
    }

    /// Blocks until data is available or `timeout` passes.
    pub fn wait_for_data(&self, timeout: Duration) -> Result<bool, KafkaError> {
        let broker = self.cluster.broker_for(&self.topic, self.partition)?;
        Ok(broker
            .log(&self.topic, self.partition)?
            .wait_for_data(self.offset, timeout))
    }
}

/// Handle to stop a [`MessageStream`] from another thread.
#[derive(Debug, Clone, Default)]
pub struct StreamShutdown {
    flag: Arc<AtomicBool>,
}

impl StreamShutdown {
    /// Signals the stream to end after its current wait.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The never-terminating blocking iterator of §V.A:
/// `for message in stream { ... }`.
pub struct MessageStream {
    consumer: SimpleConsumer,
    pending: std::collections::VecDeque<(u64, Message)>,
    shutdown: StreamShutdown,
    wait_slice: Duration,
}

impl MessageStream {
    /// Creates a stream over one topic-partition (the paper's
    /// `createMessageStreams`). Returns the stream and its shutdown handle.
    pub fn new(
        cluster: Arc<KafkaCluster>,
        topic: &str,
        partition: u32,
    ) -> Result<(Self, StreamShutdown), KafkaError> {
        let shutdown = StreamShutdown::default();
        Ok((
            MessageStream {
                consumer: SimpleConsumer::new(cluster, topic, partition)?,
                pending: std::collections::VecDeque::new(),
                shutdown: shutdown.clone(),
                wait_slice: Duration::from_millis(50),
            },
            shutdown,
        ))
    }

    /// Current underlying offset.
    pub fn position(&self) -> u64 {
        self.consumer.position()
    }
}

impl Iterator for MessageStream {
    type Item = Message;

    fn next(&mut self) -> Option<Message> {
        loop {
            if let Some((_, message)) = self.pending.pop_front() {
                return Some(message);
            }
            if self.shutdown.is_shutdown() {
                return None;
            }
            match self.consumer.poll() {
                Ok(batch) if !batch.is_empty() => {
                    self.pending.extend(batch);
                }
                Ok(_) => {
                    // Nothing yet: block until publish or shutdown check.
                    let _ = self.consumer.wait_for_data(self.wait_slice);
                }
                Err(_) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageSet;

    fn cluster_with_topic() -> Arc<KafkaCluster> {
        let cluster = KafkaCluster::new(1).unwrap();
        cluster.create_topic("t", 1).unwrap();
        cluster
    }

    fn produce(cluster: &Arc<KafkaCluster>, payloads: &[&str]) {
        cluster
            .broker_for("t", 0)
            .unwrap()
            .produce("t", 0, &MessageSet::from_payloads(payloads.iter().map(|s| s.to_string())))
            .unwrap();
    }

    #[test]
    fn poll_advances_and_seek_rewinds() {
        let cluster = cluster_with_topic();
        produce(&cluster, &["a", "b", "c"]);
        let mut consumer = SimpleConsumer::new(cluster, "t", 0).unwrap();
        let batch = consumer.poll().unwrap();
        assert_eq!(batch.len(), 3);
        assert!(consumer.poll().unwrap().is_empty(), "caught up");
        // Rewind to the second message's offset and re-consume.
        let second_offset = batch[1].0;
        consumer.seek(second_offset);
        let again = consumer.poll().unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again[0].1.payload.as_ref(), b"b");
    }

    #[test]
    fn consumer_state_is_client_side() {
        // Two independent consumers each get their own full copy —
        // the broker tracks nothing.
        let cluster = cluster_with_topic();
        produce(&cluster, &["x", "y"]);
        let mut c1 = SimpleConsumer::new(cluster.clone(), "t", 0).unwrap();
        let mut c2 = SimpleConsumer::new(cluster, "t", 0).unwrap();
        assert_eq!(c1.poll().unwrap().len(), 2);
        assert_eq!(c2.poll().unwrap().len(), 2);
    }

    #[test]
    fn max_bytes_paginates() {
        let cluster = cluster_with_topic();
        produce(&cluster, &["0123456789"; 20]);
        let mut consumer = SimpleConsumer::new(cluster, "t", 0)
            .unwrap()
            .with_max_bytes(40);
        let mut total = 0;
        let mut polls = 0;
        loop {
            let batch = consumer.poll().unwrap();
            if batch.is_empty() {
                break;
            }
            total += batch.len();
            polls += 1;
        }
        assert_eq!(total, 20);
        assert!(polls > 5, "pagination expected, got {polls} polls");
    }

    #[test]
    fn compressed_batches_transparent_to_consumer() {
        let cluster = cluster_with_topic();
        let set = MessageSet::from_payloads((0..50).map(|i| format!("event {i} event")));
        let wrapper = set.compressed();
        cluster
            .broker_for("t", 0)
            .unwrap()
            .produce_message("t", 0, &wrapper)
            .unwrap();
        let mut consumer = SimpleConsumer::new(cluster, "t", 0).unwrap();
        let batch = consumer.poll().unwrap();
        assert_eq!(batch.len(), 50);
        assert_eq!(batch[7].1.payload.as_ref(), b"event 7 event");
    }

    #[test]
    fn stream_blocks_then_delivers() {
        let cluster = cluster_with_topic();
        let (stream, shutdown) = MessageStream::new(cluster.clone(), "t", 0).unwrap();
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for message in stream {
                seen.push(String::from_utf8_lossy(&message.payload).into_owned());
                if seen.len() == 3 {
                    break;
                }
            }
            seen
        });
        // Publish after the stream is already waiting.
        std::thread::sleep(Duration::from_millis(30));
        produce(&cluster, &["a"]);
        std::thread::sleep(Duration::from_millis(10));
        produce(&cluster, &["b", "c"]);
        let seen = handle.join().unwrap();
        assert_eq!(seen, vec!["a", "b", "c"]);
        shutdown.shutdown();
    }

    #[test]
    fn consumer_past_retention_recovers_at_log_start() {
        use crate::log::LogConfig;
        use li_commons::sim::SimClock;
        let clock = SimClock::new();
        let cluster = crate::cluster::KafkaCluster::with_parts(
            1,
            LogConfig {
                segment_bytes: 64,
                retention: Duration::from_secs(100),
                ..LogConfig::default()
            },
            Arc::new(clock.clone()),
        )
        .unwrap();
        cluster.create_topic("t", 1).unwrap();
        produce_n(&cluster, 30);
        let mut consumer = SimpleConsumer::new(cluster.clone(), "t", 0).unwrap();
        // Consumer never polls; retention deletes the old segments.
        clock.advance(Duration::from_secs(200));
        produce_n(&cluster, 3);
        assert!(cluster.enforce_retention() > 0);
        // Its offset 0 is now out of range: the standard recovery is to
        // reset to log_start (losing only what the SLA already discarded).
        let err = consumer.poll().unwrap_err();
        let crate::message::KafkaError::OffsetOutOfRange { log_start, .. } = err else {
            panic!("expected OffsetOutOfRange, got {err:?}");
        };
        consumer.seek(log_start);
        assert_eq!(consumer.poll().unwrap().len(), 3);
    }

    fn produce_n(cluster: &Arc<crate::cluster::KafkaCluster>, n: usize) {
        cluster
            .broker_for("t", 0)
            .unwrap()
            .produce(
                "t",
                0,
                &MessageSet::from_payloads((0..n).map(|i| format!("m{i}"))),
            )
            .unwrap();
    }

    #[test]
    fn stream_shutdown_terminates_iterator() {
        let cluster = cluster_with_topic();
        let (stream, shutdown) = MessageStream::new(cluster, "t", 0).unwrap();
        let handle = std::thread::spawn(move || stream.count());
        std::thread::sleep(Duration::from_millis(20));
        shutdown.shutdown();
        assert_eq!(handle.join().unwrap(), 0);
    }
}
