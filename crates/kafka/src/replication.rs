//! Intra-cluster replication — the paper's stated future work, built out.
//!
//! §V.D closes with: "One of the most important features that we plan to
//! add in the future is intra-cluster replication." This module implements
//! it the way Kafka 0.8 eventually did, reusing this crate's logs:
//!
//! * each partition has a **leader** broker and follower brokers;
//! * producers write to the leader; **followers pull** from the leader's
//!   log, byte-for-byte, so logical offsets are identical on every replica;
//! * the **high watermark** is the offset up to which every in-sync
//!   replica has the data — consumers only ever see committed messages;
//! * the cluster tracks each partition's **ISR** (in-sync replica set):
//!   a replica is dropped from it when it crashes and re-admitted only
//!   once it has caught back up to the leader's visible end;
//! * on leader failure, the live **ISR** follower with the longest log is
//!   elected leader (it is a superset of every committed message) — an
//!   out-of-sync replica is never elected (no unclean leader election),
//!   so a partition with no eligible replica goes offline until one
//!   returns, and `AckMode::FullIsr` acknowledgements survive any crash
//!   sequence the single-failure budget allows;
//! * a recovered broker whose log diverged (it led writes that were never
//!   committed) is reset and re-replicated from the new leader.
//!
//! All of this state — replicas, ISR, the failed-broker set — lives on
//! [`KafkaCluster`]; this module holds the protocol that moves it.

use std::collections::HashSet;

use crate::cluster::{KafkaCluster, Partition};
use crate::message::KafkaError;

impl KafkaCluster {
    /// One replication pump: every live follower pulls the bytes it is
    /// missing from its leader's log. Returns messages copied.
    pub fn replicate(&self) -> Result<usize, KafkaError> {
        let down = self.down.read().clone();
        let mut copied = 0;
        for (topic, partition, state) in self.all_partitions() {
            if down.contains(&state.replicas.read().leader) {
                continue;
            }
            copied += self.catch_up(&topic, partition, &state, &down)?;
        }
        Ok(copied)
    }

    /// Pulls every live follower of one partition up to its leader's
    /// visible end — the per-partition body of
    /// [`KafkaCluster::replicate`], also invoked by the FullIsr ship.
    /// Returns messages copied.
    fn catch_up(
        &self,
        topic: &str,
        partition: u32,
        state: &Partition,
        down: &HashSet<u16>,
    ) -> Result<usize, KafkaError> {
        let (leader, followers) = {
            let replicas = state.replicas.read();
            (replicas.leader, replicas.followers.clone())
        };
        let brokers = self.brokers();
        let leader_log = brokers[leader as usize].log(topic, partition)?;
        let target = leader_log.visible_end();
        let mut copied = 0;
        let mut synced: Vec<u16> = vec![leader];
        for f in followers {
            if down.contains(&f) {
                continue;
            }
            let mut follower_log = brokers[f as usize].log(topic, partition)?;
            let mut from = follower_log.log_end();
            if from > leader_log.log_end() {
                // Divergent follower (was a leader with an uncommitted
                // tail): reset and re-replicate from scratch.
                brokers[f as usize].reset_partition(topic, partition);
                follower_log = brokers[f as usize].log(topic, partition)?;
                from = 0;
            }
            // Pull the leader's stored bytes verbatim: appending the
            // frame-aligned chunks untouched keeps logical offsets
            // identical on every replica without decoding a single
            // message.
            let (chunks, _) = leader_log.read_chunks(from, usize::MAX)?;
            for chunk in &chunks {
                follower_log.append_frames(&chunk.data)?;
                copied += chunk.messages as usize;
            }
            if follower_log.log_end() >= target {
                synced.push(f);
            }
        }
        // Replicas that reached the leader's visible end (re)join the ISR
        // — the only gate through which a recovered broker becomes
        // electable again.
        state.replicas.write().isr.extend(synced);
        Ok(copied)
    }

    /// The FullIsr ship: flushes the partition's current leader log (every
    /// appended byte becomes pull-visible) and catches every live follower
    /// up to it. The in-sync replica set is "live replicas right now" —
    /// with the chaos harness's single-failure budget and replication
    /// factor 3 that always leaves a surviving copy for failover. With
    /// replication factor 1 the flush is the whole ship.
    pub(crate) fn ship(
        &self,
        topic: &str,
        partition: u32,
        state: &Partition,
    ) -> Result<(), KafkaError> {
        let leader = state.replicas.read().leader;
        self.live_leader(topic, partition, leader)?
            .log(topic, partition)?
            .flush();
        let down = self.down.read().clone();
        self.catch_up(topic, partition, state, &down)?;
        Ok(())
    }

    /// Fails a broker: it leaves every partition's ISR, and partitions it
    /// led elect the live **in-sync** replica with the longest log as new
    /// leader. A stale (restarted, not yet caught-up) replica is never
    /// elected — no unclean leader election — so a partition with no
    /// eligible replica goes offline until one returns, preserving every
    /// `FullIsr`-acknowledged byte.
    pub fn fail_broker(&self, broker: u16) -> Result<Vec<(String, u32, u16)>, KafkaError> {
        self.down.write().insert(broker);
        let down = self.down.read().clone();
        let mut elections = Vec::new();
        for (topic, partition, state) in self.all_partitions() {
            let mut replicas = state.replicas.write();
            replicas.isr.remove(&broker);
            if replicas.leader != broker {
                continue;
            }
            // Longest-log election among live ISR members.
            let candidate = replicas
                .followers
                .iter()
                .filter(|b| !down.contains(b) && replicas.isr.contains(b))
                .max_by_key(|&&b| {
                    self.brokers()[b as usize]
                        .log(&topic, partition)
                        .map(|l| l.log_end())
                        .unwrap_or(0)
                })
                .copied();
            let Some(new_leader) = candidate else {
                continue; // partition offline until an ISR replica returns
            };
            replicas.followers.retain(|&b| b != new_leader);
            replicas.followers.push(broker);
            replicas.leader = new_leader;
            elections.push((topic, partition, new_leader));
        }
        Ok(elections)
    }

    /// Brings a broker back; it rejoins as a follower everywhere. Any
    /// partition whose local log has diverged from the current leader is
    /// reset here so the next [`KafkaCluster::replicate`] recopies
    /// it from scratch. Divergence is detected by byte-prefix
    /// fingerprint, not length: a crashed leader can rejoin with an
    /// uncommitted tail its successor overwrote with different records
    /// of the *same* framed length, which a length-only check (and the
    /// high watermark, which counts this replica again the moment it is
    /// live) would silently accept.
    pub fn recover_broker(&self, broker: u16) {
        self.down.write().remove(&broker);
        let down = self.down.read().clone();
        let brokers = self.brokers();
        for (topic, partition, state) in self.all_partitions() {
            let replicas = state.replicas.read().clone();
            if replicas.leader == broker
                || down.contains(&replicas.leader)
                || !replicas.followers.contains(&broker)
            {
                continue;
            }
            let Ok(local) = brokers[broker as usize].log(&topic, partition) else {
                continue;
            };
            let end = local.log_end();
            if end == 0 {
                continue;
            }
            let Ok(leader_log) = brokers[replicas.leader as usize].log(&topic, partition) else {
                continue;
            };
            let overlap = end.min(leader_log.log_end());
            if end > leader_log.log_end()
                || local.prefix_fingerprint(overlap) != leader_log.prefix_fingerprint(overlap)
            {
                brokers[broker as usize].reset_partition(&topic, partition);
            }
        }
    }

    /// Chaos invariant checker: every *live* replica of the partition
    /// holds a byte-identical log (same end offset, same content
    /// fingerprint). Call after pumping [`KafkaCluster::replicate`]
    /// to convergence.
    pub fn verify_replica_identity(&self, topic: &str, partition: u32) -> Result<(), String> {
        let state = self.partition(topic, partition).map_err(|e| e.to_string())?;
        let replicas = state.replicas.read().clone();
        let down = self.down.read().clone();
        let brokers = self.brokers();
        let leader_log = brokers[replicas.leader as usize]
            .log(topic, partition)
            .map_err(|e| e.to_string())?;
        let (want_end, want_print) = (leader_log.log_end(), leader_log.content_fingerprint());
        for &b in &replicas.followers {
            if down.contains(&b) {
                continue;
            }
            let log = brokers[b as usize]
                .log(topic, partition)
                .map_err(|e| e.to_string())?;
            if log.log_end() != want_end || log.content_fingerprint() != want_print {
                return Err(format!(
                    "replica {b} of {topic}/{partition} diverges from leader {}: \
                     end {} vs {want_end}, fingerprint {:#x} vs {want_print:#x}",
                    replicas.leader,
                    log.log_end(),
                    log.content_fingerprint()
                ));
            }
        }
        Ok(())
    }
}

/// Chaos-scheduler hooks: a crash fails the broker (triggering
/// longest-log leader elections), a restart recovers it as a follower.
impl li_commons::chaos::FaultHooks for KafkaCluster {
    fn crash(&self, node: li_commons::ring::NodeId) {
        let _ = self.fail_broker(node.0);
    }

    fn restart(&self, node: li_commons::ring::NodeId) {
        self.recover_broker(node.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::AckMode;
    use crate::log::LogConfig;
    use crate::message::MessageSet;
    use li_commons::sim::SimClock;
    use std::sync::Arc;

    fn replicated() -> (Arc<KafkaCluster>, Arc<KafkaCluster>) {
        let cluster =
            KafkaCluster::with_parts(3, LogConfig::default(), Arc::new(SimClock::new())).unwrap();
        let replicated = cluster.clone();
        replicated.create_replicated_topic("t", 1, 3).unwrap();
        (cluster, replicated)
    }

    fn payloads(rc: &KafkaCluster, from: u64) -> Vec<String> {
        let (chunks, _) = rc.fetch_chunks("t", 0, from, usize::MAX).unwrap();
        chunks
            .iter()
            .flat_map(|chunk| chunk.decode().unwrap())
            .map(|(_, m)| String::from_utf8_lossy(&m.payload).into_owned())
            .collect()
    }

    #[test]
    fn uncommitted_messages_invisible_until_replicated() {
        let (_c, rc) = replicated();
        rc.produce_with_ack(
            "t",
            0,
            &MessageSet::from_payloads(["a", "b"]),
            AckMode::Leader,
        )
        .unwrap();
        assert_eq!(rc.high_watermark("t", 0).unwrap(), 0, "followers empty");
        assert!(payloads(&rc, 0).is_empty(), "nothing committed yet");
        rc.replicate().unwrap();
        assert!(rc.high_watermark("t", 0).unwrap() > 0);
        assert_eq!(payloads(&rc, 0), vec!["a", "b"]);
    }

    #[test]
    fn leader_failover_keeps_all_committed_messages() {
        let (_c, rc) = replicated();
        rc.produce_with_ack(
            "t",
            0,
            &MessageSet::from_payloads(["committed-1", "committed-2"]),
            AckMode::Leader,
        )
        .unwrap();
        rc.replicate().unwrap();
        let old_leader = rc.leader_of("t", 0).unwrap();
        // An uncommitted write sneaks in right before the crash.
        rc.produce_with_ack(
            "t",
            0,
            &MessageSet::from_payloads(["uncommitted"]),
            AckMode::Leader,
        )
        .unwrap();

        let elections = rc.fail_broker(old_leader).unwrap();
        assert_eq!(elections.len(), 1);
        let new_leader = rc.leader_of("t", 0).unwrap();
        assert_ne!(new_leader, old_leader);
        // Committed survives; the uncommitted tail is gone (it was never
        // visible to consumers in the first place).
        assert_eq!(payloads(&rc, 0), vec!["committed-1", "committed-2"]);
        // Writes continue on the new leader.
        rc.produce_with_ack(
            "t",
            0,
            &MessageSet::from_payloads(["after-failover"]),
            AckMode::Leader,
        )
        .unwrap();
        rc.replicate().unwrap();
        assert_eq!(
            payloads(&rc, 0),
            vec!["committed-1", "committed-2", "after-failover"]
        );
    }

    #[test]
    fn produce_to_downed_leader_rejected() {
        let (_c, rc) = replicated();
        let leader = rc.leader_of("t", 0).unwrap();
        rc.fail_broker(leader).unwrap();
        // After metadata refresh (leader_of), produces go to the new leader.
        rc.produce_with_ack("t", 0, &MessageSet::from_payloads(["x"]), AckMode::Leader)
            .unwrap();
        // But a client pinned to the old leader errors... we model that by
        // failing everyone: all down -> produce fails.
        let l2 = rc.leader_of("t", 0).unwrap();
        rc.fail_broker(l2).unwrap();
        let l3 = rc.leader_of("t", 0).unwrap();
        rc.fail_broker(l3).unwrap();
        assert!(rc
            .produce_with_ack("t", 0, &MessageSet::from_payloads(["y"]), AckMode::Leader)
            .is_err());
    }

    #[test]
    fn divergent_recovered_broker_is_reset_and_caught_up() {
        let (c, rc) = replicated();
        rc.produce_with_ack(
            "t",
            0,
            &MessageSet::from_payloads(["base"]),
            AckMode::Leader,
        )
        .unwrap();
        rc.replicate().unwrap();
        let old_leader = rc.leader_of("t", 0).unwrap();
        // Uncommitted tail on the old leader, then crash.
        rc.produce_with_ack(
            "t",
            0,
            &MessageSet::from_payloads(["tail-1", "tail-2", "tail-3"]),
            AckMode::Leader,
        )
        .unwrap();
        rc.fail_broker(old_leader).unwrap();
        rc.produce_with_ack(
            "t",
            0,
            &MessageSet::from_payloads(["new-era"]),
            AckMode::Leader,
        )
        .unwrap();
        rc.replicate().unwrap();

        // Old leader returns with a longer-but-divergent log.
        rc.recover_broker(old_leader);
        rc.replicate().unwrap();
        // Its log now mirrors the new leader exactly.
        let new_leader = rc.leader_of("t", 0).unwrap();
        let a = c.brokers()[old_leader as usize].log("t", 0).unwrap().log_end();
        let b = c.brokers()[new_leader as usize].log("t", 0).unwrap().log_end();
        assert_eq!(a, b, "divergent replica reset to leader's history");
        assert_eq!(payloads(&rc, 0), vec!["base", "new-era"]);
    }

    #[test]
    fn equal_length_divergent_tail_detected_on_rejoin() {
        // Found by the chaos harness: the old leader's uncommitted tail
        // and the new leader's first write can have the *same* framed
        // length, so a length-only divergence check lets the stale
        // replica rejoin, count toward the high watermark, and win a
        // later longest-log election with bytes no consumer ever saw.
        let (c, rc) = replicated();
        rc.produce_with_ack(
            "t",
            0,
            &MessageSet::from_payloads(["base"]),
            AckMode::Leader,
        )
        .unwrap();
        rc.replicate().unwrap();
        let old_leader = rc.leader_of("t", 0).unwrap();
        rc.produce_with_ack(
            "t",
            0,
            &MessageSet::from_payloads(["AAAA"]),
            AckMode::Leader,
        )
        .unwrap();
        rc.fail_broker(old_leader).unwrap();
        // Same framed length, different bytes.
        rc.produce_with_ack(
            "t",
            0,
            &MessageSet::from_payloads(["BBBB"]),
            AckMode::Leader,
        )
        .unwrap();
        rc.replicate().unwrap();
        let new_leader = rc.leader_of("t", 0).unwrap();
        let leader_end = c.brokers()[new_leader as usize].log("t", 0).unwrap().log_end();
        let stale_end = c.brokers()[old_leader as usize].log("t", 0).unwrap().log_end();
        assert_eq!(leader_end, stale_end, "precondition: equal lengths, divergent bytes");

        rc.recover_broker(old_leader);
        rc.replicate().unwrap();
        rc.verify_replica_identity("t", 0).unwrap();
        assert_eq!(payloads(&rc, 0), vec!["base", "BBBB"]);
    }

    #[test]
    fn stale_recovered_replica_is_never_elected_leader() {
        // Found by the ack-durability chaos scenario: crash a follower,
        // FullIsr-produce while it is down, restart it (stale), then
        // crash the leader before the stale replica catches up. Electing
        // by longest *live* log alone would hand leadership to a replica
        // missing FullIsr-acked bytes, whose new appends then overwrite
        // them. The ISR gate must keep the partition offline instead.
        let (_c, rc) = replicated();
        assert_eq!(rc.isr_of("t", 0).unwrap(), vec![0, 1, 2]);
        rc.produce_with_ack("t", 0, &MessageSet::from_payloads(["m1"]), AckMode::FullIsr)
            .unwrap();

        let leader = rc.leader_of("t", 0).unwrap();
        let follower = rc.isr_of("t", 0).unwrap().into_iter().find(|&b| b != leader).unwrap();
        rc.fail_broker(follower).unwrap();
        assert!(!rc.isr_of("t", 0).unwrap().contains(&follower));
        // Acked by the two live ISR replicas while `follower` is down.
        rc.produce_with_ack("t", 0, &MessageSet::from_payloads(["m2"]), AckMode::FullIsr)
            .unwrap();
        // The follower restarts stale: live again, but not in sync —
        // re-admission happens only through a catch-up, which we withhold.
        rc.recover_broker(follower);
        assert!(!rc.isr_of("t", 0).unwrap().contains(&follower));

        // Leader dies; the only other ISR member takes over.
        rc.fail_broker(leader).unwrap();
        let second = rc.leader_of("t", 0).unwrap();
        assert_ne!(second, leader);
        assert_ne!(second, follower, "stale replica must not win the election");
        // And when the second leader dies too, the stale replica still
        // must not be elected: the partition goes offline instead.
        rc.fail_broker(second).unwrap();
        assert_eq!(rc.leader_of("t", 0).unwrap(), second, "leadership frozen");
        assert!(rc
            .produce_with_ack("t", 0, &MessageSet::from_payloads(["m3"]), AckMode::Leader)
            .is_err());

        // An ISR member returning brings the partition back with every
        // FullIsr-acked byte intact, and catch-up re-admits the laggard.
        rc.recover_broker(second);
        for _ in 0..4 {
            if rc.replicate().unwrap() == 0 {
                break;
            }
        }
        assert_eq!(payloads(&rc, 0), vec!["m1", "m2"]);
        assert!(rc.isr_of("t", 0).unwrap().contains(&follower));
        rc.verify_replica_identity("t", 0).unwrap();
    }

    #[test]
    fn high_watermark_monotonic_through_churn() {
        let (_c, rc) = replicated();
        let mut last_hw = 0;
        for round in 0..10u32 {
            rc.produce_with_ack(
                "t",
                0,
                &MessageSet::from_payloads([format!("m{round}")]),
                AckMode::Leader,
            )
            .unwrap();
            rc.replicate().unwrap();
            let hw = rc.high_watermark("t", 0).unwrap();
            assert!(hw >= last_hw, "hw went backwards at round {round}");
            last_hw = hw;
        }
        // 10 committed messages, all visible, none duplicated.
        assert_eq!(payloads(&rc, 0).len(), 10);
    }

    #[test]
    fn full_isr_ack_is_committed_without_a_replicate_pump() {
        let (_c, rc) = replicated();
        let receipt = rc
            .produce_with_ack("t", 0, &MessageSet::from_payloads(["durable"]), AckMode::FullIsr)
            .unwrap();
        assert_eq!(receipt.base_offset, Some(0));
        // Committed the moment the call returns: the high watermark covers
        // it and a committed fetch serves it — no replicate() ran.
        assert!(rc.high_watermark("t", 0).unwrap() > 0);
        assert_eq!(payloads(&rc, 0), vec!["durable"]);
        rc.verify_replica_identity("t", 0).unwrap();
    }

    #[test]
    fn leader_ack_leaves_followers_behind_until_replicated() {
        let (_c, rc) = replicated();
        let receipt = rc
            .produce_with_ack("t", 0, &MessageSet::from_payloads(["fast"]), AckMode::Leader)
            .unwrap();
        assert_eq!(receipt.base_offset, Some(0));
        assert_eq!(rc.high_watermark("t", 0).unwrap(), 0, "not shipped");
        rc.replicate().unwrap();
        assert_eq!(payloads(&rc, 0), vec!["fast"]);
    }

    #[test]
    fn full_isr_acked_message_survives_leader_crash() {
        let (_c, rc) = replicated();
        rc.produce_with_ack("t", 0, &MessageSet::from_payloads(["must-survive"]), AckMode::FullIsr)
            .unwrap();
        // Leader-acked tail that never ships...
        rc.produce_with_ack("t", 0, &MessageSet::from_payloads(["may-die"]), AckMode::Leader)
            .unwrap();
        let leader = rc.leader_of("t", 0).unwrap();
        rc.fail_broker(leader).unwrap();
        // ...the FullIsr message is still served after failover; the
        // unshipped Leader-acked tail is the (bounded) loss.
        assert_eq!(payloads(&rc, 0), vec!["must-survive"]);
    }

    #[test]
    fn none_ack_returns_no_offset_and_flush_ingest_is_idle_safe() {
        let (_c, rc) = replicated();
        let receipt = rc
            .produce_with_ack("t", 0, &MessageSet::from_payloads(["ff"]), AckMode::None)
            .unwrap();
        assert_eq!(receipt.base_offset, None);
        rc.flush_ingest();
        rc.replicate().unwrap();
        assert_eq!(payloads(&rc, 0), vec!["ff"]);
    }

    #[test]
    fn produce_with_ack_to_fully_downed_partition_errors() {
        let (_c, rc) = replicated();
        for _ in 0..3 {
            let l = rc.leader_of("t", 0).unwrap();
            rc.fail_broker(l).unwrap();
        }
        for ack in [AckMode::Leader, AckMode::FullIsr] {
            assert!(rc
                .produce_with_ack("t", 0, &MessageSet::from_payloads(["x"]), ack)
                .is_err());
        }
    }

    #[test]
    fn invalid_replication_factor_rejected() {
        let cluster =
            KafkaCluster::with_parts(2, LogConfig::default(), Arc::new(SimClock::new())).unwrap();
        let rc = cluster;
        assert!(rc.create_replicated_topic("t", 1, 3).is_err());
        assert!(rc.create_replicated_topic("t", 1, 0).is_err());
    }

    #[test]
    fn recreating_a_replicated_topic_is_rejected_and_keeps_its_state() {
        // A second create must not reset the partition: that would hand
        // leadership back to a downed broker and readmit it to the ISR.
        let (_c, rc) = replicated();
        rc.produce_with_ack("t", 0, &MessageSet::from_payloads(["kept"]), AckMode::FullIsr)
            .unwrap();
        let first = rc.leader_of("t", 0).unwrap();
        rc.fail_broker(first).unwrap();
        let (leader, isr) = (rc.leader_of("t", 0).unwrap(), rc.isr_of("t", 0).unwrap());
        assert_ne!(leader, first);
        assert!(!isr.contains(&first));

        assert!(rc.create_replicated_topic("t", 1, 3).is_err());
        assert!(rc.create_topic("t", 1).is_err());
        assert_eq!(rc.leader_of("t", 0).unwrap(), leader);
        assert_eq!(rc.isr_of("t", 0).unwrap(), isr);
        assert_eq!(payloads(&rc, 0), vec!["kept"]);
    }
}
