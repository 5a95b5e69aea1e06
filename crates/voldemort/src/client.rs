//! The client API of Figure II.2 and the quorum coordination behind it.
//!
//! ```text
//! 1) VectorClock<V> get (K key)
//! 2) put (K key, VectorClock<V> value)
//! 3) VectorClock<V> get (K key, T transform)
//! 4) put (K key, VectorClock<V> value, T transform)
//! 5) applyUpdate(UpdateAction action, int retries)
//! ```
//!
//! This client implements **client-side routing** (the paper notes routing
//! is pluggable between client and server side): it holds the full
//! topology, computes the preference list, talks to R/W replicas itself,
//! performs read repair on stale replicas, and parks hinted-handoff writes
//! on fallback nodes when replicas are unreachable.
//!
//! # Parallel quorum I/O
//!
//! Replica requests go through the [`li_commons::exec`] fan-out executor:
//! the call completes as soon as R (or W) replicas acknowledge, and
//! stragglers are demoted to background read repair (gets) or hinted
//! handoff (puts) instead of adding their latency to the caller. Each
//! client runs in one [`ShardMode`], set in its [`QuorumConfig`], and it
//! hands the executor the cluster's shared pool iff that mode is Parallel:
//!
//! * [`ShardMode::Deterministic`] (default) — replayable inline
//!   execution; simulated latencies overlap by accounting (the reported
//!   [`QuorumStats::sim_latency`] is the R-th fastest replica, not the
//!   sum), which is what the chaos harness replays byte-identically.
//! * [`ShardMode::Parallel`] — real worker threads from the cluster's
//!   shared pool, with optional per-node deadlines
//!   ([`QuorumConfig::per_node_timeout`], fed into the failure detector as
//!   failures so slow nodes back off to banned) and *hedged reads*
//!   ([`QuorumConfig::hedge`]: after a quantile-derived delay, one backup
//!   request goes to the next replica; `get.hedged` / `get.hedge_won`
//!   count the rate and usefulness).

use bytes::Bytes;
use li_commons::clock::{resolve_siblings, VectorClock, Versioned};
use li_commons::exec::{fan_out, FanOutOptions, FanOutPool, FanOutTask, LateHandler};
use li_commons::metrics::{Counter, Histo};
use li_commons::ring::NodeId;
use li_commons::shard::ShardMode;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::cluster::VoldemortCluster;
use crate::error::VoldemortError;
use crate::server::Hint;
use crate::store::StoreDef;

/// A server-side transform (API methods 3 and 4): runs against the stored
/// value *on the node*, saving the round trip of shipping the whole value.
/// "For example, if the value is a list, we can run a transformed get to
/// retrieve a sub-list or a transformed put to append an entity to a list."
pub trait Transform: Send + Sync {
    /// Maps the stored value on a transformed get.
    fn on_get(&self, value: &[u8]) -> Bytes;

    /// Produces the new stored value from the current one and the client's
    /// input on a transformed put.
    fn on_put(&self, current: Option<&[u8]>, input: &[u8]) -> Bytes;
}

/// The read-modify-write closure for [`StoreClient::apply_update`]: given
/// the current siblings (empty when absent), produce the new value, or
/// `None` to abort.
pub type UpdateAction<'a> = &'a dyn Fn(&[Versioned<Bytes>]) -> Option<Bytes>;

/// One replica's read reply: simulated link latency plus the versions held.
type ReadReply = (Duration, Vec<Versioned<Bytes>>);

/// Late-straggler handler for read fan-outs.
type ReadLateHandler = LateHandler<ReadReply, VoldemortError>;

/// One node's batched multi-get task: per-key version lists in request order.
type MultiGetTask = FanOutTask<(NodeId, Vec<Vec<Versioned<Bytes>>>), VoldemortError>;

/// Which side coordinates requests. "Voldemort supports both server and
/// client side routing by moving the routing and associated modules"
/// (§II.B): with client-side routing the client talks to every replica
/// itself; with server-side routing it makes one hop to a coordinator
/// node, which then fans out to the replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMode {
    /// The client holds the topology and coordinates quorums itself.
    ClientSide,
    /// All requests funnel through the given coordinator node.
    ServerSide(NodeId),
}

/// How many replicas a quorum read contacts up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadFanOut {
    /// Contact the first R available replicas; a failure pulls in the next
    /// replica as a backup (cheapest; a slow replica inside the first R
    /// still hurts unless hedging covers it).
    #[default]
    Quorum,
    /// Contact all N replicas and complete on the first R answers — the
    /// paper's parallel quorum, which masks any N−R slow replicas.
    All,
}

/// Hedged-read tuning: if the quorum is unmet after a delay derived from
/// the observed replica latency distribution, one backup request goes to
/// the next untried replica. Only meaningful under
/// [`ShardMode::Parallel`].
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Latency quantile the delay is derived from (e.g. 0.95: hedge when
    /// the primary is slower than 95% of observed replica calls).
    pub quantile: f64,
    /// Lower clamp on the derived delay (also used before any latency has
    /// been observed).
    pub min_delay: Duration,
    /// Upper clamp on the derived delay.
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            quantile: 0.95,
            min_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(50),
        }
    }
}

/// Per-client quorum I/O tuning. The default — deterministic inline
/// fan-out, quorum-sized read fan-out, no deadlines, no hedging, no
/// latency sleeping — reproduces the exact request sequence of the
/// pre-parallel client, which is what seeded chaos replays depend on.
#[derive(Debug, Clone, Default)]
pub struct QuorumConfig {
    /// Execution mode: inline and replayable, or on the cluster's pool.
    pub mode: ShardMode,
    /// Read fan-out width (see [`ReadFanOut`]).
    pub read_fan_out: ReadFanOut,
    /// Per-node deadline: a replica whose simulated latency exceeds this
    /// counts as failed (`VoldemortError::Timeout`) and is reported to the
    /// failure detector, so persistently slow nodes get banned and backed
    /// off exactly like dead ones.
    pub per_node_timeout: Option<Duration>,
    /// Hedged-read tuning (Parallel mode only).
    pub hedge: Option<HedgeConfig>,
    /// Sleep the simulated per-link latency on each replica call (used by
    /// benchmarks so wall-clock percentiles reflect the simulated
    /// network; tests leave this off and read the accounted
    /// [`QuorumStats::sim_latency`] instead).
    pub simulate_latency: bool,
}

/// What one quorum operation observed — the accounting the chaos harness
/// checks its R-th-fastest-replica bound against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuorumStats {
    /// Simulated completion latency: the R-th smallest replica latency
    /// among the successes (replicas overlap).
    pub sim_latency: Duration,
    /// Replica requests launched (primaries + backups + hedges).
    pub contacted: usize,
    /// Hedge requests launched.
    pub hedges: usize,
    /// Hedge requests whose response completed the quorum.
    pub hedge_wins: usize,
}

/// Client-side observability under the cluster registry's
/// `voldemort.client.` prefix: end-to-end latency per API call, quorum
/// outcomes, writes that needed a hint to meet W (sloppy quorum), and the
/// hedged-read counters.
#[derive(Debug, Clone)]
struct ClientMetrics {
    get_latency: Histo,
    put_latency: Histo,
    gets_ok: Counter,
    puts_ok: Counter,
    quorum_read_failures: Counter,
    quorum_write_failures: Counter,
    hinted_writes: Counter,
    hedged: Counter,
    hedge_won: Counter,
    get_sim_latency: Histo,
    put_sim_latency: Histo,
    replica_latency: Histo,
}

impl ClientMetrics {
    fn new(cluster: &VoldemortCluster) -> Self {
        let scope = cluster.metrics().scope("voldemort.client");
        ClientMetrics {
            get_latency: scope.histogram("get.latency_ns"),
            put_latency: scope.histogram("put.latency_ns"),
            gets_ok: scope.counter("get.ok"),
            puts_ok: scope.counter("put.ok"),
            quorum_read_failures: scope.counter("quorum.read_failures"),
            quorum_write_failures: scope.counter("quorum.write_failures"),
            hinted_writes: scope.counter("put.hinted"),
            hedged: scope.counter("get.hedged"),
            hedge_won: scope.counter("get.hedge_won"),
            get_sim_latency: scope.histogram("get.sim_latency_ns"),
            put_sim_latency: scope.histogram("put.sim_latency_ns"),
            replica_latency: scope.histogram("replica.latency_ns"),
        }
    }
}

/// Delivers one replica-bound message, enforcing the per-node deadline and
/// maintaining the failure detector. Returns the simulated link latency.
fn replica_deliver(
    cluster: &VoldemortCluster,
    origin: NodeId,
    node: NodeId,
    timeout: Option<Duration>,
    sleep: bool,
) -> Result<Duration, VoldemortError> {
    match cluster.network().deliver(origin, node) {
        Ok(latency) => {
            if let Some(deadline) = timeout {
                if latency > deadline {
                    // The caller gives up at the deadline (sleep only that
                    // long) and the slow node is penalized like a dead one,
                    // so the detector's ban/backoff covers chronic
                    // stragglers too.
                    if sleep {
                        std::thread::sleep(deadline);
                    }
                    cluster.detector().record_failure(node);
                    return Err(VoldemortError::Timeout(node));
                }
            }
            if sleep {
                std::thread::sleep(latency);
            }
            Ok(latency)
        }
        Err(net) => {
            cluster.detector().record_failure(node);
            Err(VoldemortError::Net(node, net))
        }
    }
}

/// A client bound to one store.
pub struct StoreClient {
    cluster: Arc<VoldemortCluster>,
    store: StoreDef,
    routing: RoutingMode,
    config: QuorumConfig,
    metrics: ClientMetrics,
}

impl StoreClient {
    /// Virtual node id the client occupies on the simulated network.
    pub const CLIENT_NODE: NodeId = NodeId(u16::MAX);

    pub(crate) fn new(cluster: Arc<VoldemortCluster>, store: StoreDef) -> Self {
        let metrics = ClientMetrics::new(&cluster);
        StoreClient {
            cluster,
            store,
            routing: RoutingMode::ClientSide,
            config: QuorumConfig::default(),
            metrics,
        }
    }

    /// Switches to server-side routing through `coordinator`: every
    /// request pays one extra hop to the coordinator, which then runs the
    /// replica fan-out (the module relocation the pluggable architecture
    /// allows).
    #[must_use]
    pub fn with_server_routing(mut self, coordinator: NodeId) -> Self {
        self.routing = RoutingMode::ServerSide(coordinator);
        self
    }

    /// Replaces the quorum I/O configuration (execution mode, read width,
    /// per-node deadline, hedging).
    #[must_use]
    pub fn with_quorum_config(mut self, config: QuorumConfig) -> Self {
        self.config = config;
        self
    }

    /// The active quorum I/O configuration.
    pub fn quorum_config(&self) -> &QuorumConfig {
        &self.config
    }

    /// The node that acts as the origin of replica traffic.
    fn origin(&self) -> NodeId {
        match self.routing {
            RoutingMode::ClientSide => Self::CLIENT_NODE,
            RoutingMode::ServerSide(coordinator) => coordinator,
        }
    }

    /// For server-side routing: the client -> coordinator hop itself.
    fn enter(&self) -> Result<(), VoldemortError> {
        if let RoutingMode::ServerSide(coordinator) = self.routing {
            self.cluster
                .network()
                .deliver(Self::CLIENT_NODE, coordinator)
                .map_err(|e| VoldemortError::Net(coordinator, e))?;
        }
        Ok(())
    }

    /// The store definition this client operates under.
    pub fn store_def(&self) -> &StoreDef {
        &self.store
    }

    fn preference_list(&self, key: &[u8]) -> Result<Vec<NodeId>, VoldemortError> {
        self.cluster.route(&self.store, key)
    }

    /// The worker pool, only when this client actually runs parallel.
    fn pool(&self) -> Option<Arc<FanOutPool>> {
        (self.config.mode == ShardMode::Parallel).then(|| self.cluster.fan_out_pool())
    }

    /// Attempts one remote call inline, maintaining the failure detector.
    fn call<T>(
        &self,
        node: NodeId,
        op: impl FnOnce() -> Result<T, VoldemortError>,
    ) -> Result<T, VoldemortError> {
        let detector = self.cluster.detector();
        match self.cluster.network().deliver(self.origin(), node) {
            Ok(_latency) => {
                let result = op();
                // An application-level rejection (e.g. ObsoleteVersion) is
                // a *successful* interaction for liveness purposes.
                detector.record_success(node);
                result
            }
            Err(net) => {
                detector.record_failure(node);
                Err(VoldemortError::Net(node, net))
            }
        }
    }

    /// Preference-list nodes that exist and the failure detector considers
    /// available, in preference order.
    fn available_replicas(&self, prefs: &[NodeId]) -> Vec<NodeId> {
        let detector = self.cluster.detector();
        prefs
            .iter()
            .copied()
            .filter(|&n| detector.is_available(n) && self.cluster.node(n).is_ok())
            .collect()
    }

    /// The hedge delay for this moment, derived from the replica-latency
    /// histogram (Parallel mode with hedging configured only).
    fn hedge_delay(&self) -> Option<Duration> {
        if self.config.mode != ShardMode::Parallel {
            return None;
        }
        let cfg = self.config.hedge.as_ref()?;
        let observed = self.metrics.replica_latency.snapshot();
        let delay = if observed.count() == 0 {
            cfg.min_delay
        } else {
            Duration::from_nanos(observed.quantile(cfg.quantile))
        };
        Some(delay.clamp(cfg.min_delay, cfg.max_delay))
    }

    /// Builds the replica-get task for `node`. `'static` because Parallel
    /// mode stragglers may outlive this call.
    fn get_task(
        &self,
        node: NodeId,
        key: &[u8],
    ) -> FanOutTask<(Duration, Vec<Versioned<Bytes>>), VoldemortError> {
        let cluster = Arc::clone(&self.cluster);
        let store = self.store.name.clone();
        let key = Bytes::copy_from_slice(key);
        let origin = self.origin();
        let timeout = self.config.per_node_timeout;
        let sleep = self.config.simulate_latency;
        FanOutTask::new(u64::from(node.0), move || {
            let server = cluster.node(node)?;
            let latency = replica_deliver(&cluster, origin, node, timeout, sleep)?;
            let result = server.get(&store, &key);
            cluster.detector().record_success(node);
            result.map(|versions| (latency, versions))
        })
    }

    /// API method 1: quorum get. Returns all concurrent siblings (empty
    /// when the key is absent); conflict resolution is the application's
    /// job, per the Dynamo design.
    pub fn get(&self, key: &[u8]) -> Result<Vec<Versioned<Bytes>>, VoldemortError> {
        self.get_internal(key, None).map(|(versions, _)| versions)
    }

    /// Like [`StoreClient::get`], also reporting the fan-out accounting
    /// ([`QuorumStats`]) for this operation.
    pub fn get_with_stats(
        &self,
        key: &[u8],
    ) -> Result<(Vec<Versioned<Bytes>>, QuorumStats), VoldemortError> {
        self.get_internal(key, None)
    }

    /// API method 3: transformed get — the transform runs server-side on
    /// each replica's value.
    pub fn get_with_transform(
        &self,
        key: &[u8],
        transform: &dyn Transform,
    ) -> Result<Vec<Versioned<Bytes>>, VoldemortError> {
        self.get_internal(key, Some(transform))
            .map(|(versions, _)| versions)
    }

    fn get_internal(
        &self,
        key: &[u8],
        transform: Option<&dyn Transform>,
    ) -> Result<(Vec<Versioned<Bytes>>, QuorumStats), VoldemortError> {
        let start = Instant::now();
        let result = self.get_quorum(key, transform);
        self.metrics.get_latency.record_duration(start.elapsed());
        match &result {
            Ok((_, stats)) => {
                self.metrics.gets_ok.inc();
                self.metrics
                    .get_sim_latency
                    .record(stats.sim_latency.as_nanos() as u64);
            }
            Err(VoldemortError::InsufficientReads { .. }) => {
                self.metrics.quorum_read_failures.inc();
            }
            Err(_) => {}
        }
        result
    }

    fn get_quorum(
        &self,
        key: &[u8],
        transform: Option<&dyn Transform>,
    ) -> Result<(Vec<Versioned<Bytes>>, QuorumStats), VoldemortError> {
        self.enter()?;
        let prefs = self.preference_list(key)?;
        let required = self.store.required_reads;
        let available = self.available_replicas(&prefs);
        let width = match self.config.read_fan_out {
            ReadFanOut::Quorum => required.min(available.len()),
            ReadFanOut::All => available.len(),
        };
        let primary: Vec<_> = available[..width].iter().map(|&n| self.get_task(n, key)).collect();
        let backups: Vec<_> = available[width..].iter().map(|&n| self.get_task(n, key)).collect();

        // Stragglers that answer after we've returned get repaired in the
        // background against the merged set published here. Best-effort: a
        // straggler racing the publish is skipped, exactly like a replica
        // that missed this read entirely — the next read repairs it.
        let merged_latch: Arc<OnceLock<Vec<Versioned<Bytes>>>> = Arc::new(OnceLock::new());
        let late: Option<ReadLateHandler> =
            (self.config.mode == ShardMode::Parallel).then(|| {
                let cluster = Arc::clone(&self.cluster);
                let store = self.store.name.clone();
                let key = Bytes::copy_from_slice(key);
                let origin = self.origin();
                let latch = Arc::clone(&merged_latch);
                let handler: ReadLateHandler =
                    Arc::new(move |node, outcome| {
                        let Ok((_, versions)) = outcome else { return };
                        let Some(merged) = latch.get() else { return };
                        let node = NodeId(node as u16);
                        for version in merged {
                            if !versions.iter().any(|v| v.clock == version.clock) {
                                if let Ok(server) = cluster.node(node) {
                                    if cluster.network().deliver(origin, node).is_ok() {
                                        let _ = server.force_put(&store, &key, version.clone());
                                    }
                                }
                            }
                        }
                    });
                handler
            });

        let opts = FanOutOptions {
            required,
            hedge_delay: (!backups.is_empty())
                .then(|| self.hedge_delay())
                .flatten(),
            overall_deadline: None,
        };
        let report = fan_out(self.pool().as_deref(), &opts, primary, backups, None, late);
        self.metrics.hedged.add(report.hedges as u64);
        self.metrics.hedge_won.add(report.hedge_wins as u64);
        for (_, (latency, _)) in report.successes() {
            self.metrics.replica_latency.record(latency.as_nanos() as u64);
        }
        if !report.satisfied() {
            let _ = merged_latch.set(Vec::new());
            return Err(VoldemortError::InsufficientReads {
                required,
                got: report.quorum.len(),
            });
        }

        // Collect responses and order them by preference-list position so
        // the merge and repair sequence is independent of completion order.
        let mut responses: Vec<(NodeId, Duration, Vec<Versioned<Bytes>>)> = report
            .quorum
            .into_iter()
            .chain(report.extras)
            .map(|(id, (latency, versions))| (NodeId(id as u16), latency, versions))
            .collect();
        responses.sort_by_key(|(node, _, _)| prefs.iter().position(|p| p == node));

        // Merge all observed versions into the live sibling set.
        let mut merged: Vec<Versioned<Bytes>> = Vec::new();
        for (_, _, versions) in &responses {
            for version in versions {
                resolve_siblings(&mut merged, version.clone());
            }
        }
        let _ = merged_latch.set(merged.clone());

        // During a migration's dual-write phase, shadow-read the gaining
        // node(s) and compare against the quorum-merged image
        // (observability only: `migration.shadow_reads` /
        // `migration.shadow_mismatch`; the cutover refusal decision
        // belongs to the verifier's own comparison rounds).
        self.shadow_read_probe(key, &merged);

        // Read repair: push missing versions back to stale responders.
        for (node, _, versions) in &responses {
            for version in &merged {
                let has = versions.iter().any(|v| v.clock == version.clock);
                if !has {
                    if let Ok(server) = self.cluster.node(*node) {
                        let _ = self.call(*node, || {
                            server.force_put(&self.store.name, key, version.clone())
                        });
                    }
                }
            }
        }

        let mut latencies: Vec<Duration> =
            responses.iter().map(|(_, latency, _)| *latency).collect();
        latencies.sort();
        let sim_latency = latencies
            .get(required.saturating_sub(1))
            .copied()
            .unwrap_or_default();
        let stats = QuorumStats {
            sim_latency,
            contacted: report.launched,
            hedges: report.hedges,
            hedge_wins: report.hedge_wins,
        };

        let merged = match transform {
            Some(t) => merged
                .into_iter()
                .map(|v| {
                    let transformed = t.on_get(&v.value);
                    Versioned::new(v.clock, transformed)
                })
                .collect(),
            None => merged,
        };
        Ok((merged, stats))
    }

    /// During dual-write, reads the migration target's image of `key` and
    /// counts a `migration.shadow_mismatch` when it diverges from what the
    /// read quorum served.
    fn shadow_read_probe(&self, key: &[u8], merged: &[Versioned<Bytes>]) {
        let Some(m) = self.cluster.active_migration() else {
            return;
        };
        if !m.dual_write_active() {
            return;
        }
        let gaining = m.moved_targets(key, &self.store);
        if gaining.is_empty() {
            return;
        }
        let scope = self.cluster.metrics().scope("migration");
        for t in gaining {
            let Ok(node) = self.cluster.node(t) else {
                continue;
            };
            if self.cluster.network().deliver(self.origin(), t).is_err() {
                continue;
            }
            let Ok(engine) = node.engine(&self.store.name) else {
                continue;
            };
            let Ok(versions) = engine.get(key) else {
                continue;
            };
            let mut image: Vec<Versioned<Bytes>> = Vec::new();
            for v in versions {
                resolve_siblings(&mut image, v);
            }
            scope.counter("shadow_reads").inc();
            if !crate::migrate::image_equal(merged, &image) {
                scope.counter("shadow_mismatch").inc();
            }
        }
    }

    /// API method 2: quorum put. `clock` must be the version the caller
    /// read (or empty for a first write); the coordinator increments it and
    /// requires W replica acknowledgements. Unreachable replicas get their
    /// write parked as a hint on the next available node (sloppy quorum).
    pub fn put(
        &self,
        key: &[u8],
        clock: &VectorClock,
        value: Bytes,
    ) -> Result<VectorClock, VoldemortError> {
        self.put_internal(key, clock, value, None)
    }

    /// Convenience for a first write (empty base clock).
    pub fn put_initial(&self, key: &[u8], value: Bytes) -> Result<VectorClock, VoldemortError> {
        self.put(key, &VectorClock::new(), value)
    }

    /// API method 4: transformed put — each replica derives the stored
    /// value from its current value and the client's (small) input.
    pub fn put_with_transform(
        &self,
        key: &[u8],
        clock: &VectorClock,
        input: Bytes,
        transform: &dyn Transform,
    ) -> Result<VectorClock, VoldemortError> {
        self.put_internal(key, clock, input, Some(transform))
    }

    fn put_internal(
        &self,
        key: &[u8],
        clock: &VectorClock,
        value: Bytes,
        transform: Option<&dyn Transform>,
    ) -> Result<VectorClock, VoldemortError> {
        let start = Instant::now();
        let result = self.put_quorum(key, clock, value, transform);
        self.metrics.put_latency.record_duration(start.elapsed());
        match &result {
            Ok(_) => self.metrics.puts_ok.inc(),
            Err(VoldemortError::InsufficientWrites { .. }) => {
                self.metrics.quorum_write_failures.inc();
            }
            Err(_) => {}
        }
        result
    }

    /// One synchronous replica put (used for the coordinator hop and for
    /// transformed puts, which need per-replica server state and therefore
    /// can't ship as `'static` tasks).
    fn put_replica_inline(
        &self,
        node: NodeId,
        key: &[u8],
        candidate: &VectorClock,
        value: &Bytes,
        transform: Option<&dyn Transform>,
    ) -> Result<Duration, VoldemortError> {
        let server = self.cluster.node(node)?;
        let latency = replica_deliver(
            &self.cluster,
            self.origin(),
            node,
            self.config.per_node_timeout,
            self.config.simulate_latency,
        )?;
        let result = (|| {
            let stored_value = match transform {
                Some(t) => {
                    let current = server.get(&self.store.name, key)?;
                    // Transform against the newest value this replica has.
                    let current_bytes = current.first().map(|v| v.value.clone());
                    t.on_put(current_bytes.as_deref(), value)
                }
                None => value.clone(),
            };
            server.put(
                &self.store.name,
                key,
                Versioned::new(candidate.clone(), stored_value),
            )
        })();
        self.cluster.detector().record_success(node);
        result.map(|()| latency)
    }

    /// Builds the replica-put task for `node` (raw values only).
    fn put_task(
        &self,
        node: NodeId,
        key: &[u8],
        versioned: Versioned<Bytes>,
    ) -> FanOutTask<Duration, VoldemortError> {
        let cluster = Arc::clone(&self.cluster);
        let store = self.store.name.clone();
        let key = Bytes::copy_from_slice(key);
        let origin = self.origin();
        let timeout = self.config.per_node_timeout;
        let sleep = self.config.simulate_latency;
        FanOutTask::new(u64::from(node.0), move || {
            let server = cluster.node(node)?;
            let latency = replica_deliver(&cluster, origin, node, timeout, sleep)?;
            let result = server.put(&store, &key, versioned);
            cluster.detector().record_success(node);
            result.map(|()| latency)
        })
    }

    fn put_quorum(
        &self,
        key: &[u8],
        clock: &VectorClock,
        value: Bytes,
        transform: Option<&dyn Transform>,
    ) -> Result<VectorClock, VoldemortError> {
        self.enter()?;
        let prefs = self.preference_list(key)?;
        // Captured before the quorum runs: if a migration cutover flips
        // routing while this put is in flight, the epoch moves and the
        // committed version is re-pushed to the new preference list.
        let epoch = self.cluster.topology_epoch();
        let detector = self.cluster.detector();
        let required = self.store.required_writes;
        let mut acks = 0usize;
        let mut failed_replicas: Vec<NodeId> = Vec::new();
        let mut sim_latency = Duration::ZERO;

        // Phase 1 — coordinator hop, always serial: the first replica that
        // actually accepts the write stamps the incremented vector clock,
        // as in Dynamo. Two writers racing through disjoint replica subsets
        // therefore produce *concurrent* clocks (siblings), while writers
        // sharing a replica collide on the optimistic lock. Fanning the
        // clock-stamping write out in parallel would let disjoint writers
        // mint *identical* clocks, silently losing one write — so this hop
        // stays serial in every mode.
        let mut committed_clock: Option<VectorClock> = None;
        let mut coordinator_node: Option<NodeId> = None;
        let mut wave_start = prefs.len();
        for (i, &node) in prefs.iter().enumerate() {
            if self.cluster.node(node).is_err() || !detector.is_available(node) {
                failed_replicas.push(node);
                continue;
            }
            let candidate = clock.incremented(node.0);
            match self.put_replica_inline(node, key, &candidate, &value, transform) {
                Ok(latency) => {
                    sim_latency += latency;
                    committed_clock = Some(candidate);
                    coordinator_node = Some(node);
                    acks = 1;
                    wave_start = i + 1;
                    break;
                }
                // Optimistic lock: someone committed a newer version.
                Err(VoldemortError::ObsoleteVersion) => {
                    return Err(VoldemortError::ObsoleteVersion)
                }
                // An engine-level rejection is a property of the store, not
                // of this replica — no other replica (or hint) will accept
                // it either.
                Err(e @ VoldemortError::UnsupportedOperation(_)) => return Err(e),
                Err(_) => failed_replicas.push(node),
            }
        }
        let new_clock = committed_clock
            .clone()
            .unwrap_or_else(|| clock.incremented(prefs[0].0));

        // Phase 2 — replicate the committed version to the remaining
        // preference-list replicas, in parallel, waiting only for the
        // W−1 further acks the quorum still needs. Stragglers keep running;
        // a late failure parks a hint asynchronously.
        if committed_clock.is_some() && wave_start < prefs.len() {
            let mut tasks = Vec::new();
            match transform {
                None => {
                    for &node in &prefs[wave_start..] {
                        if self.cluster.node(node).is_err() || !detector.is_available(node) {
                            failed_replicas.push(node);
                            continue;
                        }
                        tasks.push(self.put_task(
                            node,
                            key,
                            Versioned::new(new_clock.clone(), value.clone()),
                        ));
                    }
                }
                Some(t) => {
                    // Transformed puts read per-replica state; keep them on
                    // the inline path regardless of mode.
                    for &node in &prefs[wave_start..] {
                        if self.cluster.node(node).is_err() || !detector.is_available(node) {
                            failed_replicas.push(node);
                            continue;
                        }
                        match self.put_replica_inline(node, key, &new_clock, &value, Some(t)) {
                            Ok(_) => acks += 1,
                            Err(VoldemortError::ObsoleteVersion) => {
                                return Err(VoldemortError::ObsoleteVersion)
                            }
                            Err(e @ VoldemortError::UnsupportedOperation(_)) => return Err(e),
                            Err(_) => failed_replicas.push(node),
                        }
                    }
                }
            }
            if !tasks.is_empty() {
                let late: Option<LateHandler<Duration, VoldemortError>> =
                    (self.config.mode == ShardMode::Parallel).then(|| {
                        self.late_hint_handler(key, &prefs, &new_clock, &value)
                    });
                // Replication is not optional: every replica must be
                // attempted. The inline mode runs the whole wave (legacy
                // parity); only Parallel returns at W acks and leaves the
                // rest replicating in the background.
                let wave_required = match self.config.mode {
                    ShardMode::Parallel => required.saturating_sub(acks),
                    ShardMode::Deterministic => tasks.len(),
                };
                let opts = FanOutOptions {
                    required: wave_required,
                    hedge_delay: None,
                    overall_deadline: None,
                };
                let is_fatal = |e: &VoldemortError| {
                    matches!(
                        e,
                        VoldemortError::ObsoleteVersion
                            | VoldemortError::UnsupportedOperation(_)
                    )
                };
                let report = fan_out(
                    self.pool().as_deref(),
                    &opts,
                    tasks,
                    Vec::new(),
                    Some(&is_fatal),
                    late,
                );
                if let Some((_, e)) = report.fatal {
                    return Err(e);
                }
                let mut wave_latencies: Vec<Duration> = Vec::new();
                for (_, latency) in report.successes() {
                    acks += 1;
                    wave_latencies.push(*latency);
                    self.metrics.replica_latency.record(latency.as_nanos() as u64);
                }
                for (node, _) in &report.failures {
                    failed_replicas.push(NodeId(*node as u16));
                }
                wave_latencies.sort();
                sim_latency += opts
                    .required
                    .checked_sub(1)
                    .and_then(|i| wave_latencies.get(i))
                    .copied()
                    .unwrap_or_default();
            }
        }
        self.metrics
            .put_sim_latency
            .record(sim_latency.as_nanos() as u64);

        // Hinted handoff: park failed replicas' writes on fallback nodes.
        if acks < required && !failed_replicas.is_empty() {
            let fallbacks: Vec<NodeId> = self
                .cluster
                .node_ids()
                .into_iter()
                .filter(|n| !prefs.contains(n) && detector.is_available(*n))
                .collect();
            let mut fallback_iter = fallbacks.into_iter();
            for &target in &failed_replicas {
                if acks >= required {
                    break;
                }
                let Some(holder_id) = fallback_iter.next() else {
                    break;
                };
                let Ok(holder) = self.cluster.node(holder_id) else {
                    continue;
                };
                let hint = Hint {
                    store: self.store.name.clone(),
                    target,
                    key: Bytes::copy_from_slice(key),
                    value: Versioned::new(new_clock.clone(), value.clone()),
                };
                if self
                    .call(holder_id, || {
                        holder.store_hint(hint);
                        Ok(())
                    })
                    .is_ok()
                {
                    acks += 1;
                    self.metrics.hinted_writes.inc();
                }
            }
        }

        if acks < required {
            return Err(VoldemortError::InsufficientWrites {
                required,
                got: acks,
            });
        }

        // The write is acked: this is the zero-loss capture point for an
        // in-flight partition migration. For transformed puts the stored
        // value differs from the input, so it is fetched back from the
        // coordinator replica that committed it.
        let stored = match transform {
            None => value.clone(),
            Some(_) => self
                .committed_value(coordinator_node, key, &new_clock)
                .unwrap_or_else(|| value.clone()),
        };
        self.cluster.on_acked_put(
            &self.store,
            key,
            &Versioned::new(new_clock.clone(), stored.clone()),
            self.origin(),
        );
        self.heal_routing_drift(key, &prefs, &new_clock, &stored, epoch);
        Ok(new_clock)
    }

    /// The value the coordinator replica stored for `clock` (transformed
    /// puts derive it server-side, so the client reads it back).
    fn committed_value(
        &self,
        coordinator: Option<NodeId>,
        key: &[u8],
        clock: &VectorClock,
    ) -> Option<Bytes> {
        let node = self.cluster.node(coordinator?).ok()?;
        let versions = node.engine(&self.store.name).ok()?.get(key).ok()?;
        versions
            .into_iter()
            .find(|v| v.clock == *clock)
            .map(|v| v.value)
    }

    /// If the topology changed while this put was in flight (a cutover
    /// flip raced the quorum), the acked version may live only on the old
    /// replica set. Re-route and push the committed version to any node
    /// that just became a replica, so a flip cannot orphan an acked write.
    /// Unreachable new replicas get the write parked as a hint —
    /// `deliver_hints` routes via the current ring, so it lands there.
    fn heal_routing_drift(
        &self,
        key: &[u8],
        prefs: &[NodeId],
        clock: &VectorClock,
        value: &Bytes,
        epoch_before: u64,
    ) {
        if self.cluster.topology_epoch() == epoch_before {
            return;
        }
        let Ok(now_prefs) = self.preference_list(key) else {
            return;
        };
        let detector = self.cluster.detector();
        for node in now_prefs.iter().copied().filter(|n| !prefs.contains(n)) {
            let versioned = Versioned::new(clock.clone(), value.clone());
            let landed = self
                .cluster
                .node(node)
                .ok()
                .filter(|_| self.cluster.network().deliver(self.origin(), node).is_ok())
                .is_some_and(|server| {
                    server
                        .force_put(&self.store.name, key, versioned.clone())
                        .is_ok()
                });
            if landed {
                continue;
            }
            for holder_id in self
                .cluster
                .node_ids()
                .into_iter()
                .filter(|n| !now_prefs.contains(n) && detector.is_available(*n))
            {
                let Ok(holder) = self.cluster.node(holder_id) else {
                    continue;
                };
                if self.cluster.network().deliver(self.origin(), holder_id).is_ok() {
                    holder.store_hint(Hint {
                        store: self.store.name.clone(),
                        target: node,
                        key: Bytes::copy_from_slice(key),
                        value: versioned,
                    });
                    self.metrics.hinted_writes.inc();
                    break;
                }
            }
        }
    }

    /// Builds the background hinted-handoff handler for put stragglers
    /// that fail after the quorum already returned.
    fn late_hint_handler(
        &self,
        key: &[u8],
        prefs: &[NodeId],
        new_clock: &VectorClock,
        value: &Bytes,
    ) -> LateHandler<Duration, VoldemortError> {
        let cluster = Arc::clone(&self.cluster);
        let store = self.store.name.clone();
        let key = Bytes::copy_from_slice(key);
        let prefs = prefs.to_vec();
        let new_clock = new_clock.clone();
        let value = value.clone();
        let origin = self.origin();
        let hinted = self.metrics.hinted_writes.clone();
        Arc::new(move |node, outcome| {
            if outcome.is_ok() {
                return;
            }
            let target = NodeId(node as u16);
            let detector = cluster.detector();
            let fallbacks: Vec<NodeId> = cluster
                .node_ids()
                .into_iter()
                .filter(|n| !prefs.contains(n) && detector.is_available(*n))
                .collect();
            for holder_id in fallbacks {
                let Ok(holder) = cluster.node(holder_id) else {
                    continue;
                };
                if cluster.network().deliver(origin, holder_id).is_ok() {
                    holder.store_hint(Hint {
                        store: store.clone(),
                        target,
                        key: key.clone(),
                        value: Versioned::new(new_clock.clone(), value.clone()),
                    });
                    hinted.inc();
                    break;
                }
            }
        })
    }

    /// Quorum delete at version `clock`. All N replicas are contacted; the
    /// call completes at W acknowledgements.
    pub fn delete(&self, key: &[u8], clock: &VectorClock) -> Result<bool, VoldemortError> {
        self.enter()?;
        let prefs = self.preference_list(key)?;
        let epoch = self.cluster.topology_epoch();
        let required = self.store.required_writes;
        let mut tasks: Vec<FanOutTask<(Duration, bool), VoldemortError>> = Vec::new();
        for &node in &prefs {
            if self.cluster.node(node).is_err() {
                continue;
            }
            let cluster = Arc::clone(&self.cluster);
            let store = self.store.name.clone();
            let key = Bytes::copy_from_slice(key);
            let clock = clock.clone();
            let origin = self.origin();
            let timeout = self.config.per_node_timeout;
            let sleep = self.config.simulate_latency;
            tasks.push(FanOutTask::new(u64::from(node.0), move || {
                let server = cluster.node(node)?;
                let latency = replica_deliver(&cluster, origin, node, timeout, sleep)?;
                let result = server.delete(&store, &key, &clock);
                cluster.detector().record_success(node);
                result.map(|deleted| (latency, deleted))
            }));
        }
        let opts = FanOutOptions {
            required,
            hedge_delay: None,
            overall_deadline: None,
        };
        let report = fan_out(self.pool().as_deref(), &opts, tasks, Vec::new(), None, None);
        let acks = report.quorum.len() + report.extras.len();
        if acks < required {
            return Err(VoldemortError::InsufficientWrites {
                required,
                got: acks,
            });
        }
        let any_deleted = report.successes().any(|(_, (_, deleted))| *deleted);
        // Acked-delete capture for an in-flight migration, plus the same
        // cutover-race heal as puts (replay the delete on any replica the
        // key just gained).
        self.cluster
            .on_acked_delete(&self.store, key, clock, self.origin());
        if self.cluster.topology_epoch() != epoch {
            if let Ok(now_prefs) = self.preference_list(key) {
                for node in now_prefs.into_iter().filter(|n| !prefs.contains(n)) {
                    if let Ok(server) = self.cluster.node(node) {
                        if self.cluster.network().deliver(self.origin(), node).is_ok() {
                            let _ = server.delete(&self.store.name, key, clock);
                        }
                    }
                }
            }
        }
        Ok(any_deleted)
    }

    /// Batch get: one call, many keys (Voldemort's `getAll`). Keys are
    /// batched by replica node — each node in the union of the keys'
    /// quorum target sets is contacted exactly once with a multi-get —
    /// instead of running an independent quorum per key. Keys that fail
    /// their read quorum are simply absent from the result map, so a
    /// partially degraded cluster still serves what it can.
    pub fn get_all(
        &self,
        keys: &[&[u8]],
    ) -> Result<std::collections::HashMap<Vec<u8>, Vec<Versioned<Bytes>>>, VoldemortError> {
        self.enter()?;
        let required = self.store.required_reads;
        let mut out = std::collections::HashMap::with_capacity(keys.len());

        // Plan: the first R available replicas of each key (or all N with
        // ReadFanOut::All), grouped per node. BTreeMap keeps node contact
        // order deterministic.
        let mut key_targets: Vec<Vec<NodeId>> = Vec::with_capacity(keys.len());
        let mut per_node: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, &key) in keys.iter().enumerate() {
            let prefs = self.preference_list(key)?;
            let available = self.available_replicas(&prefs);
            let width = match self.config.read_fan_out {
                ReadFanOut::Quorum => required.min(available.len()),
                ReadFanOut::All => available.len(),
            };
            let targets = available[..width].to_vec();
            for &node in &targets {
                per_node.entry(node).or_default().push(i);
            }
            key_targets.push(targets);
        }

        // One multi-get task per node.
        let mut tasks: Vec<MultiGetTask> = Vec::new();
        for (&node, indices) in &per_node {
            let cluster = Arc::clone(&self.cluster);
            let store = self.store.name.clone();
            let node_keys: Vec<Bytes> = indices
                .iter()
                .map(|&i| Bytes::copy_from_slice(keys[i]))
                .collect();
            let origin = self.origin();
            let timeout = self.config.per_node_timeout;
            let sleep = self.config.simulate_latency;
            tasks.push(FanOutTask::new(u64::from(node.0), move || {
                let server = cluster.node(node)?;
                let _latency = replica_deliver(&cluster, origin, node, timeout, sleep)?;
                let result = server.get_many(&store, &node_keys);
                cluster.detector().record_success(node);
                result.map(|versions| (node, versions))
            }));
        }
        let opts = FanOutOptions {
            // Every node response matters for some key's quorum, so the
            // batch waits for all of them.
            required: tasks.len(),
            hedge_delay: None,
            overall_deadline: None,
        };
        let report = fan_out(self.pool().as_deref(), &opts, tasks, Vec::new(), None, None);
        let mut node_results: BTreeMap<NodeId, Vec<Vec<Versioned<Bytes>>>> = BTreeMap::new();
        for (_, (node, versions)) in report.quorum.into_iter().chain(report.extras) {
            node_results.insert(node, versions);
        }

        // Assemble per-key quorums from the per-node responses.
        for (i, &key) in keys.iter().enumerate() {
            let responses: Vec<(NodeId, Vec<Versioned<Bytes>>)> = key_targets[i]
                .iter()
                .filter_map(|node| {
                    let lists = node_results.get(node)?;
                    let slot = per_node[node].iter().position(|&j| j == i)?;
                    Some((*node, lists[slot].clone()))
                })
                .collect();
            if responses.len() < required {
                continue; // quorum miss: key absent, like the per-key path
            }
            let mut merged: Vec<Versioned<Bytes>> = Vec::new();
            for (_, versions) in &responses {
                for version in versions {
                    resolve_siblings(&mut merged, version.clone());
                }
            }
            // Read repair stale responders, as the single-key path does.
            for (node, versions) in &responses {
                for version in &merged {
                    if !versions.iter().any(|v| v.clock == version.clock) {
                        if let Ok(server) = self.cluster.node(*node) {
                            let _ = self.call(*node, || {
                                server.force_put(&self.store.name, key, version.clone())
                            });
                        }
                    }
                }
            }
            if !merged.is_empty() {
                out.insert(key.to_vec(), merged);
            }
        }
        Ok(out)
    }

    /// API method 5: `applyUpdate` — encapsulated read-modify-write with
    /// optimistic-lock retry, "used in cases like counters where
    /// 'read, modify, write if no change' loops are required."
    pub fn apply_update(
        &self,
        key: &[u8],
        retries: u32,
        action: UpdateAction<'_>,
    ) -> Result<VectorClock, VoldemortError> {
        for _ in 0..=retries {
            let siblings = self.get(key)?;
            let Some(new_value) = action(&siblings) else {
                // Action chose to abort; report the current clock.
                return Ok(siblings
                    .first()
                    .map(|v| v.clock.clone())
                    .unwrap_or_default());
            };
            // Base clock dominates all observed siblings, so a successful
            // put also reconciles any conflict.
            let base = siblings
                .iter()
                .fold(VectorClock::new(), |acc, v| acc.merged(&v.clock));
            match self.put(key, &base, new_value) {
                Ok(clock) => return Ok(clock),
                Err(VoldemortError::ObsoleteVersion) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(VoldemortError::RetriesExhausted(retries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreDef;

    fn cluster_with_store(
        nodes: u16,
        n: usize,
        r: usize,
        w: usize,
    ) -> (Arc<VoldemortCluster>, StoreClient) {
        let cluster = VoldemortCluster::new(32, nodes).unwrap();
        cluster
            .add_store(StoreDef::read_write("s").with_quorum(n, r, w))
            .unwrap();
        let client = cluster.client("s").unwrap();
        (cluster, client)
    }

    #[test]
    fn put_get_round_trip() {
        let (_cluster, client) = cluster_with_store(3, 2, 1, 1);
        let clock = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
        let got = client.get(b"k").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"v1");
        assert_eq!(got[0].clock, clock);
    }

    #[test]
    fn get_absent_key_is_empty() {
        let (_cluster, client) = cluster_with_store(3, 2, 1, 1);
        assert!(client.get(b"missing").unwrap().is_empty());
    }

    #[test]
    fn stale_put_gets_obsolete_version_error() {
        let (_cluster, client) = cluster_with_store(3, 2, 2, 2);
        let c1 = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
        let _c2 = client.put(b"k", &c1, Bytes::from_static(b"v2")).unwrap();
        // Re-using the stale clock c0 (empty) fails the optimistic lock.
        let err = client
            .put(b"k", &VectorClock::new(), Bytes::from_static(b"v3"))
            .unwrap_err();
        assert_eq!(err, VoldemortError::ObsoleteVersion);
    }

    #[test]
    fn writes_replicate_to_n_nodes() {
        let (cluster, client) = cluster_with_store(4, 3, 2, 2);
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 3).unwrap();
        for node in prefs {
            let versions = cluster.node(node).unwrap().get("s", b"k").unwrap();
            assert_eq!(versions.len(), 1, "replica {node} missing value");
        }
    }

    #[test]
    fn delete_removes_value() {
        let (_cluster, client) = cluster_with_store(3, 2, 1, 1);
        let clock = client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        assert!(client.delete(b"k", &clock).unwrap());
        assert!(client.get(b"k").unwrap().is_empty());
    }

    struct ListAppend;
    impl Transform for ListAppend {
        fn on_get(&self, value: &[u8]) -> Bytes {
            // Return only the last element of a comma-separated list —
            // the "sub-list" example from the paper.
            let s = std::str::from_utf8(value).unwrap_or("");
            Bytes::copy_from_slice(s.rsplit(',').next().unwrap_or("").as_bytes())
        }
        fn on_put(&self, current: Option<&[u8]>, input: &[u8]) -> Bytes {
            match current {
                Some(existing) if !existing.is_empty() => {
                    let mut out = existing.to_vec();
                    out.push(b',');
                    out.extend_from_slice(input);
                    Bytes::from(out)
                }
                _ => Bytes::copy_from_slice(input),
            }
        }
    }

    #[test]
    fn transforms_run_server_side() {
        let (_cluster, client) = cluster_with_store(3, 2, 2, 2);
        let c1 = client
            .put_with_transform(b"follows", &VectorClock::new(), Bytes::from_static(b"li"), &ListAppend)
            .unwrap();
        let c2 = client
            .put_with_transform(b"follows", &c1, Bytes::from_static(b"msft"), &ListAppend)
            .unwrap();
        let full = client.get(b"follows").unwrap();
        assert_eq!(full[0].value.as_ref(), b"li,msft");
        let tail = client.get_with_transform(b"follows", &ListAppend).unwrap();
        assert_eq!(tail[0].value.as_ref(), b"msft");
        let _ = c2;
    }

    #[test]
    fn apply_update_implements_counters() {
        let (_cluster, client) = cluster_with_store(3, 3, 2, 2);
        for _ in 0..10 {
            client
                .apply_update(b"counter", 3, &|siblings| {
                    let current: u64 = siblings
                        .first()
                        .and_then(|v| std::str::from_utf8(&v.value).ok())
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    Some(Bytes::from((current + 1).to_string()))
                })
                .unwrap();
        }
        let got = client.get(b"counter").unwrap();
        assert_eq!(got[0].value.as_ref(), b"10");
    }

    #[test]
    fn apply_update_abort_leaves_value() {
        let (_cluster, client) = cluster_with_store(3, 2, 1, 1);
        client.put_initial(b"k", Bytes::from_static(b"keep")).unwrap();
        client
            .apply_update(b"k", 3, &|_siblings| None)
            .unwrap();
        assert_eq!(client.get(b"k").unwrap()[0].value.as_ref(), b"keep");
    }

    #[test]
    fn get_all_returns_present_keys_only() {
        let (_cluster, client) = cluster_with_store(3, 2, 1, 1);
        client.put_initial(b"a", Bytes::from_static(b"1")).unwrap();
        client.put_initial(b"b", Bytes::from_static(b"2")).unwrap();
        let got = client.get_all(&[b"a", b"b", b"missing"]).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[b"a".as_slice()][0].value.as_ref(), b"1");
        assert!(!got.contains_key(b"missing".as_slice()));
    }

    #[test]
    fn server_side_routing_same_semantics_extra_hop() {
        let (cluster, _direct) = cluster_with_store(3, 2, 2, 2);
        let coordinator = NodeId(0);
        let client = cluster.client("s").unwrap().with_server_routing(coordinator);
        let c1 = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
        assert_eq!(client.get(b"k").unwrap()[0].value.as_ref(), b"v1");
        client.put(b"k", &c1, Bytes::from_static(b"v2")).unwrap();
        assert_eq!(client.get(b"k").unwrap()[0].value.as_ref(), b"v2");
        // The coordinator is a single point for this client: losing it
        // fails requests (client-side routing would route around it).
        cluster.network().crash(coordinator);
        assert!(matches!(
            client.get(b"k"),
            Err(VoldemortError::Net(node, _)) if node == coordinator
        ));
        let direct = cluster.client("s").unwrap();
        assert!(direct.get(b"k").is_ok(), "client-side routing unaffected");
    }

    #[test]
    fn quorum_read_fails_when_too_many_replicas_down() {
        let (cluster, client) = cluster_with_store(3, 3, 2, 2);
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 3).unwrap();
        cluster.network().crash(prefs[0]);
        cluster.network().crash(prefs[1]);
        let err = client.get(b"k").unwrap_err();
        assert!(matches!(err, VoldemortError::InsufficientReads { .. }));
    }

    #[test]
    fn read_repair_fixes_stale_replica() {
        let (cluster, client) = cluster_with_store(3, 2, 2, 1);
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 2).unwrap();
        // Write v1 everywhere, then v2 while replica 1 is down.
        let c1 = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
        cluster.network().crash(prefs[1]);
        let c2 = client.put(b"k", &c1, Bytes::from_static(b"v2")).unwrap();
        cluster.network().restart(prefs[1]);
        // Replica 1 is stale.
        let stale = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
        assert_eq!(stale[0].clock, c1);
        // Quorum read (R=2) observes both, returns v2, and repairs.
        let got = client.get(b"k").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"v2");
        let repaired = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
        assert_eq!(repaired.len(), 1);
        assert_eq!(repaired[0].clock, c2, "read repair wrote v2 back");
    }

    #[test]
    fn hinted_handoff_parks_and_replays() {
        let (cluster, client) = cluster_with_store(4, 2, 1, 2);
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 2).unwrap();
        cluster.network().crash(prefs[1]);
        // W=2 met via 1 live replica + 1 hint on a fallback node.
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(cluster.pending_hints(), 1);
        // Target recovers; replay drains the hint onto it.
        cluster.network().restart(prefs[1]);
        assert_eq!(cluster.deliver_hints(), 1);
        assert_eq!(cluster.pending_hints(), 0);
        let recovered = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].value.as_ref(), b"v");
    }

    #[test]
    fn write_quorum_fails_when_no_fallbacks() {
        // 2 nodes, N=2: no fallback nodes exist outside the preference list.
        let (cluster, client) = cluster_with_store(2, 2, 1, 2);
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 2).unwrap();
        cluster.network().crash(prefs[1]);
        let err = client.put_initial(b"k", Bytes::from_static(b"v")).unwrap_err();
        assert!(matches!(err, VoldemortError::InsufficientWrites { got: 1, .. }));
    }

    #[test]
    fn concurrent_writers_produce_siblings_resolved_by_update() {
        let (cluster, client) = cluster_with_store(4, 3, 3, 1);
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 3).unwrap();
        // Writer A reaches only replica 0; writer B only replica 1
        // (simulated by crashing the others during each write; W=1).
        let c0 = client.put_initial(b"k", Bytes::from_static(b"base")).unwrap();
        cluster.network().crash(prefs[1]);
        cluster.network().crash(prefs[2]);
        let _a = client.put(b"k", &c0, Bytes::from_static(b"A")).unwrap();
        cluster.network().restart(prefs[1]);
        cluster.network().restart(prefs[2]);
        cluster.network().crash(prefs[0]);
        let _b = client.put(b"k", &c0, Bytes::from_static(b"B")).unwrap();
        cluster.network().restart(prefs[0]);
        // R=3 read sees both branches as concurrent siblings...
        let siblings = client.get(b"k").unwrap();
        assert_eq!(siblings.len(), 2, "expected divergent branches");
        // ...which apply_update reconciles (deterministically: max value).
        client
            .apply_update(b"k", 3, &|siblings| {
                let winner = siblings
                    .iter()
                    .map(|v| v.value.clone())
                    .max()
                    .unwrap_or_default();
                Some(winner)
            })
            .unwrap();
        let resolved = client.get(b"k").unwrap();
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].value.as_ref(), b"B");
    }

    #[test]
    fn read_fan_out_all_masks_a_slow_replica() {
        let (cluster, client) = cluster_with_store(5, 3, 2, 2);
        let client = client.with_quorum_config(QuorumConfig {
            read_fan_out: ReadFanOut::All,
            ..QuorumConfig::default()
        });
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        // Make the *first* preference slow: serial/quorum fan-out would eat
        // its full latency; fanning to all N completes at the R=2 fastest.
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            prefs[0],
            Duration::from_millis(40),
        );
        let (versions, stats) = client.get_with_stats(b"k").unwrap();
        assert_eq!(versions[0].value.as_ref(), b"v");
        assert_eq!(stats.contacted, 3, "all N contacted");
        assert_eq!(
            stats.sim_latency,
            Duration::ZERO,
            "R-th fastest replica bounds the accounted latency"
        );
    }

    #[test]
    fn per_node_timeout_feeds_failure_detector() {
        let (cluster, client) = cluster_with_store(4, 3, 2, 2);
        let client = client.with_quorum_config(QuorumConfig {
            read_fan_out: ReadFanOut::All,
            per_node_timeout: Some(Duration::from_millis(5)),
            ..QuorumConfig::default()
        });
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            prefs[2],
            Duration::from_millis(50),
        );
        // Reads keep succeeding (quorum from the two fast replicas) while
        // every timeout counts against the slow node's success ratio...
        for _ in 0..20 {
            client.get(b"k").unwrap();
        }
        // ...until the detector bans it like a dead node.
        assert!(!cluster.detector().is_available(prefs[2]));
        assert!(cluster.detector().is_available(prefs[0]));
    }

    #[test]
    fn parallel_mode_serves_quorum_reads_and_writes() {
        let (cluster, client) = cluster_with_store(5, 3, 2, 2);
        let client = client.with_quorum_config(QuorumConfig {
            mode: ShardMode::Parallel,
            read_fan_out: ReadFanOut::All,
            ..QuorumConfig::default()
        });
        let mut clock = VectorClock::new();
        for i in 0..20u32 {
            clock = client
                .put(b"k", &clock, Bytes::from(i.to_string()))
                .unwrap();
            let got = client.get(b"k").unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].value.as_ref(), i.to_string().as_bytes());
        }
        // Stragglers (N−W late acks per put) finish on the shared pool.
        cluster.fan_out_pool().wait_idle();
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        for node in prefs {
            let versions = cluster.node(node).unwrap().get("s", b"k").unwrap();
            assert_eq!(versions.len(), 1, "replica {node} converged");
        }
    }

    #[test]
    fn hedged_read_recovers_tail_latency_and_counts() {
        let (cluster, client) = cluster_with_store(5, 3, 1, 1);
        let client = client.with_quorum_config(QuorumConfig {
            mode: ShardMode::Parallel,
            read_fan_out: ReadFanOut::Quorum,
            hedge: Some(HedgeConfig {
                quantile: 0.95,
                min_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(2),
            }),
            simulate_latency: true,
            ..QuorumConfig::default()
        });
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        // R=1 with Quorum fan-out contacts only prefs[0] — make it slow so
        // the hedge to prefs[1] wins the race.
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            prefs[0],
            Duration::from_millis(250),
        );
        let start = Instant::now();
        let (versions, stats) = client.get_with_stats(b"k").unwrap();
        let elapsed = start.elapsed();
        assert_eq!(versions[0].value.as_ref(), b"v");
        assert_eq!(stats.hedges, 1, "hedge fired");
        assert_eq!(stats.hedge_wins, 1, "hedge supplied the quorum answer");
        assert!(
            elapsed < Duration::from_millis(200),
            "hedged read returned before the slow replica ({elapsed:?})"
        );
        let snapshot = cluster.metrics().snapshot();
        assert_eq!(snapshot.counter("voldemort.client.get.hedged"), Some(1));
        assert_eq!(snapshot.counter("voldemort.client.get.hedge_won"), Some(1));
        cluster.fan_out_pool().wait_idle();
    }
}
