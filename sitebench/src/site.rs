//! The benchmark's engine: prepares the site, drives two closed-loop
//! clients against it, drains every pipeline, checks the outputs through
//! the public API, and reports.
//!
//! **Load shape.** Two clients, each a [`Resumable`] driver on its own
//! worker of a two-worker pool ([`run_on_pool`]), so at most two requests
//! are in flight: a frontend that waits for each reply before sending the
//! next. Each client carries its own batching Kafka producer. A background
//! thread runs [`DataPlatform::pump_streams`] (watch-driven, with idle
//! backoff) and push-style Databus dispatch runs alongside, as they do in
//! [`linkedin_data_infra::SiteBench::run`]. Clients stop at the first op
//! boundary after the load deadline.
//!
//! **Phases.** A run prepares the site [`PHASES`] times and drives each
//! fresh site, after an unmeasured [`WARM_UP`], for an equal share of the
//! load, then drains and checks it before dropping it. Set-up time is the
//! median prepare; throughput and latency pool every phase. Spreading the
//! load over several sites and a longer stretch of wall time averages out
//! the host's slow swings, and only one phase's data is in memory at once.
//!
//! **Traced run.** Each phase is split into eight segments, untraced (U)
//! and traced (T) as `U T T U U T T U` (mirrored in odd phases), so drift
//! within a phase (follow rows grow) cancels out of the comparison.
//! Untraced segments give the per-op latencies and the throughput that
//! tracing is compared against; traced segments record a span around
//! every call into a layer's public function, for the per-layer breakdown.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use linkedin_data_infra::commons::exec::FanOutPool;
use linkedin_data_infra::commons::metrics::MetricsSnapshot;
use linkedin_data_infra::consumers::{company_row_key, member_row_key};
use linkedin_data_infra::databus::DispatchStats;
use linkedin_data_infra::kafka::producer::ProducerStats;
use linkedin_data_infra::kafka::{Partitioner, Producer};
use linkedin_data_infra::platform::{PlatformError, ACTIVITY_TOPIC};
use linkedin_data_infra::sched::{run_on_pool, Resumable};
use linkedin_data_infra::workload::datasets::PymkRecord;
use linkedin_data_infra::workload::site::{
    expected_follow_sets, split_seed, SiteGraphConfig, SiteMix, SiteOp, SiteWorkload,
};
use linkedin_data_infra::{DataPlatform, PlatformConfig, ShardMode, SiteBench, SiteBenchConfig};

use crate::stats::{median, quantile, ratio, Quantile};
use crate::trace::{self, Span, SpanLog};

/// Closed-loop clients (and scheduler workers): at most this many
/// requests are in flight.
const CLIENTS: usize = 2;

/// Load phases per run, each on a freshly prepared site; `setup_s` is
/// the median prepare.
const PHASES: usize = 5;

/// Spans written out per thread log; the rest stay in memory only.
const SPANS_WRITTEN_PER_THREAD: usize = 100_000;

/// The population is a fixed dataset, like a benchmark scale factor; the
/// run seed only picks the traffic.
const POPULATION_SEED: u64 = 42;

/// Every this-many-th follow of a confirming workload is confirmed.
const CONFIRM_EVERY: u64 = 4;

/// A confirmed follow not visible after this long counts as failed.
const CONFIRM_TIMEOUT: Duration = Duration::from_secs(10);

/// Pause between visibility polls. Sleeping rather than spinning leaves
/// the core to the Databus threads that make the write visible; a
/// visibility time reads late by at most about one pause.
const CONFIRM_POLL: Duration = Duration::from_micros(50);

/// Unmeasured load at the start of each phase. The first ops on a fresh
/// site touch cold pages (the read-only store's files among them), a cost
/// a serving site does not pay per request.
const WARM_UP: Duration = Duration::from_millis(200);

/// Segment kinds, indexing a client's tallies and a phase's walls.
const UNTRACED: usize = 0;
const TRACED: usize = 1;
const WARMING: usize = 2;

/// A traced phase's segments (`true` = traced), mirrored in odd phases.
const TRACE_PLAN: [bool; 8] = [false, true, true, false, false, true, true, false];

/// Ops a client runs per scheduler turn.
const QUANTUM: usize = 32;

/// Ops drawn from `SiteWorkload::ops_for_driver` per refill.
const OPS_CHUNK: usize = 4096;

/// Profiles read back by the correctness check.
const PROFILE_SAMPLES: u64 = 64;

/// Activity producer batching, as in `SiteBench::run`.
const BATCH_MESSAGES: usize = 16;
const BATCH_BYTES: usize = 16 << 10;

/// Pump-thread idle backoff bounds, as in `SiteBench::run`.
const PUMP_MIN_BACKOFF: Duration = Duration::from_micros(50);
const PUMP_MAX_BACKOFF: Duration = Duration::from_millis(5);

/// The op tiers, in [`SiteOp::tier`] naming.
const TIERS: [&str; 4] = ["profile_read", "pymk_read", "follow_write", "activity"];

fn tier_index(op: &SiteOp) -> usize {
    match op {
        SiteOp::ProfileRead(_) => 0,
        SiteOp::PymkRead(_) => 1,
        SiteOp::Follow { .. } => 2,
        SiteOp::Activity { .. } => 3,
    }
}

/// A named traffic mix over a population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The everyday read-dominated site: every serving layer works, and
    /// writes and the pump compete with reads for the cores.
    SiteMix,
    /// Follows only, onto Zipfian-hot companies: sqlstore, Databus and
    /// the Voldemort caches do the work; every 4th follow is confirmed
    /// visible in the member's cache.
    FollowHot,
    /// Activity events only: Kafka produce, group commit, mirror and
    /// warehouse do the work.
    ActivityStream,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SiteMix,
        Workload::FollowHot,
        Workload::ActivityStream,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SiteMix => "site_mix",
            Workload::FollowHot => "follow_hot",
            Workload::ActivityStream => "activity_stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's population size for this workload.
    fn members(self) -> u64 {
        match self {
            Workload::SiteMix | Workload::FollowHot => 100_000,
            // Kafka work does not depend on the population; a small one
            // keeps set-up short.
            Workload::ActivityStream => 20_000,
        }
    }

    fn mix(self) -> SiteMix {
        let only = |follow_writes, activity_events| SiteMix {
            profile_reads: 0.0,
            pymk_reads: 0.0,
            follow_writes,
            activity_events,
        };
        match self {
            Workload::SiteMix => SiteMix::site_default(),
            Workload::FollowHot => only(1.0, 0.0),
            Workload::ActivityStream => only(0.0, 1.0),
        }
    }

    fn confirm_every(self) -> u64 {
        match self {
            Workload::FollowHot => CONFIRM_EVERY,
            Workload::SiteMix | Workload::ActivityStream => 0,
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// Op-stream seed.
    pub seed: u64,
    /// Length of the load phase.
    pub load: Duration,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Population size.
    pub members: u64,
    /// Load phases, each on a freshly prepared site.
    pub phases: usize,
    /// Where the traced run writes its spans (`None`: not written).
    pub span_dir: Option<PathBuf>,
}

impl RunConfig {
    /// The benchmark's settings for `workload`.
    pub fn new(workload: Workload, seed: u64, load: Duration, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            load,
            trace,
            members: workload.members(),
            phases: PHASES,
            span_dir: None,
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value; 0 for an unresolved percentile.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// For a percentile: the samples it was read from.
    pub samples: Option<usize>,
    /// For a percentile: whether enough samples lie beyond it.
    pub resolved: bool,
}

impl Metric {
    fn plain(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
            resolved: true,
        }
    }

    /// A percentile of ns samples, scaled by `per_unit` ns.
    fn percentile(name: &str, q: Quantile, per_unit: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value: q.value.map_or(0.0, |ns| ns as f64 / per_unit),
            unit,
            samples: Some(q.samples),
            resolved: q.value.is_some(),
        }
    }
}

/// One correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: &'static str,
    /// Violations found (0 = the check held).
    pub failures: u64,
    /// What was compared.
    pub detail: String,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Ops attempted.
    pub attempted: u64,
    /// Errored ops + unconfirmed follows + correctness violations.
    pub failed: u64,
    /// Every correctness check.
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// True when no op failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.failures == 0)
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// What one client observed in one kind of segment.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    errors: u64,
    unconfirmed: u64,
    /// Call latency (ns) of every acked op, per tier.
    latency_ns: [Vec<u64>; 4],
    /// Commit-return → visible-in-cache (ns) of confirmed follows.
    visible_ns: Vec<u64>,
    /// Traced segments only: sizes of the two rows each follow rewrote.
    follow_row_bytes: u64,
    follows_sized: u64,
    /// Traced segments only: keys asked per PYMK profile multi-get.
    multi_get_keys: u64,
    /// Traced segments only: sends during which a batch was published.
    publish_ns: Vec<u64>,
}

impl Tally {
    fn acked(&self) -> u64 {
        self.latency_ns.iter().map(|l| l.len() as u64).sum()
    }
}

/// One closed-loop client.
struct Client {
    id: u64,
    seed: u64,
    platform: Arc<DataPlatform>,
    workload: Arc<SiteWorkload>,
    producer: Producer,
    ops: std::vec::IntoIter<SiteOp>,
    chunks: u64,
    next_op_id: u64,
    confirm_every: u64,
    confirm_offset: u64,
    follows: u64,
    /// Current segment: stop at the first op boundary past this.
    deadline: Instant,
    /// Kind of the current segment.
    slot: usize,
    final_segment: bool,
    log: SpanLog,
    /// Indexed by segment kind.
    tallies: [Tally; 3],
    /// Acked follow ops, for the exactly-once check.
    follow_ops: Vec<SiteOp>,
    /// Activity sends the producer accepted (buffered or published).
    activity_accepted: u64,
}

impl Client {
    /// Client `id` of a load phase whose op streams derive from `seed`.
    fn new(
        id: u64,
        seed: u64,
        confirm_every: u64,
        platform: &Arc<DataPlatform>,
        workload: &Arc<SiteWorkload>,
        epoch: Instant,
    ) -> Self {
        let mut client = Client {
            id,
            seed,
            platform: Arc::clone(platform),
            workload: Arc::clone(workload),
            producer: Producer::new(platform.kafka_live.clone())
                .with_partitioner(Partitioner::Keyed)
                .with_batch_size(BATCH_MESSAGES)
                .with_batch_bytes(BATCH_BYTES),
            ops: Vec::new().into_iter(),
            chunks: 0,
            next_op_id: 0,
            confirm_every,
            confirm_offset: split_seed(seed, u64::MAX - id) % confirm_every.max(1),
            follows: 0,
            deadline: epoch,
            slot: UNTRACED,
            final_segment: false,
            log: SpanLog::new(epoch),
            tallies: Default::default(),
            follow_ops: Vec::new(),
            activity_accepted: 0,
        };
        client.refill();
        client
    }

    /// Draws the next chunk of this client's op stream. Chunk `c` is
    /// `ops_for_driver(split_seed(seed, c), client, OPS_CHUNK)`, so the
    /// stream is a pure function of the seed however long the phase.
    fn refill(&mut self) {
        let span = self.traced().then(|| {
            self.log
                .open("workload.ops_for_driver", self.next_op_id, None)
        });
        let seed = split_seed(self.seed, self.chunks);
        self.ops = self
            .workload
            .ops_for_driver(seed, self.id, OPS_CHUNK)
            .into_iter();
        self.chunks += 1;
        if let Some(span) = span {
            self.log.close(span);
        }
    }

    fn traced(&self) -> bool {
        self.slot == TRACED
    }

    fn next_op(&mut self) -> SiteOp {
        loop {
            if let Some(op) = self.ops.next() {
                return op;
            }
            self.refill();
        }
    }

    fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        self.traced().then(|| self.log.open(name, op, parent))
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(span) = span {
            self.log.close(span);
        }
    }

    /// Issues one op, times its call, and confirms it if it is a sampled
    /// follow. Returns when the op's call ended.
    fn run_op(&mut self, op: SiteOp) -> Instant {
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        let tier = tier_index(&op);
        let root = self.open(TIERS[tier], op_id, None);
        let mut confirm = None;
        let started;
        let outcome: Result<(), String> = match op {
            SiteOp::ProfileRead(member) => {
                let span = self.open("espresso.get", op_id, root);
                started = Instant::now();
                let result = self.platform.profile(member);
                self.close(span);
                result.map(|_| ()).map_err(|e| e.to_string())
            }
            SiteOp::PymkRead(member) => {
                started = Instant::now();
                self.pymk_page(member, op_id, root)
            }
            SiteOp::Follow { member, company } => {
                let span = self.open("platform.follow_company", op_id, root);
                started = Instant::now();
                let result = self.platform.follow_company(member, company);
                self.close(span);
                if result.is_ok() {
                    self.follow_ops.push(SiteOp::Follow { member, company });
                    self.follows += 1;
                    if self.traced() {
                        self.size_follow_rows(member, company);
                    }
                    if self.confirm_every > 0
                        && (self.follows + self.confirm_offset).is_multiple_of(self.confirm_every)
                    {
                        confirm = Some((member, company));
                    }
                }
                result.map_err(|e| e.to_string())
            }
            SiteOp::Activity { member, event } => {
                let key = member_row_key(member).to_string();
                let requests = self.traced().then(|| self.producer.stats().requests);
                let span = self.open("kafka.send", op_id, root);
                started = Instant::now();
                let result = self
                    .producer
                    .send_keyed(ACTIVITY_TOPIC, key.as_bytes(), event);
                self.close(span);
                if let (Some(before), Some(span)) = (requests, span) {
                    if self.producer.stats().requests > before {
                        let ns = self.log.spans()[span].duration_ns();
                        self.tallies[TRACED].publish_ns.push(ns);
                    }
                }
                if result.is_ok() {
                    self.activity_accepted += 1;
                }
                result.map_err(|e| e.to_string())
            }
        };
        let ended = Instant::now();
        self.close(root);
        let tally = &mut self.tallies[self.slot];
        tally.attempted += 1;
        match outcome {
            Ok(()) => tally.latency_ns[tier].push((ended - started).as_nanos() as u64),
            Err(_) => tally.errors += 1,
        }
        if let Some((member, company)) = confirm {
            self.confirm(member, company, op_id);
        }
        ended
    }

    /// The PYMK page as the site serves it: the read-only lookup for the
    /// recommendation list, then one multi-key Espresso read for the
    /// profile cards.
    fn pymk_page(&mut self, member: u64, op_id: u64, root: Option<usize>) -> Result<(), String> {
        let span = self.open("voldemort.ro_get", op_id, root);
        let bytes = self.platform.pymk_recommendations(member);
        self.close(span);
        let Some(bytes) = bytes.map_err(|e| e.to_string())? else {
            return Ok(());
        };
        let record = PymkRecord::from_bytes(member, &bytes)
            .ok_or_else(|| format!("member {member}: undecodable PYMK record"))?;
        let ids: Vec<u64> = record.recommendations.iter().map(|&(id, _)| id).collect();
        if ids.is_empty() {
            return Ok(());
        }
        if self.traced() {
            self.tallies[TRACED].multi_get_keys += ids.len() as u64;
        }
        let span = self.open("espresso.multi_get", op_id, root);
        let result = self.platform.profiles(&ids);
        self.close(span);
        result.map(|_| ()).map_err(|e| e.to_string())
    }

    /// Reads back the two rows `follow_company` rewrote (traced only).
    fn size_follow_rows(&mut self, member: u64, company: u64) {
        let primary = &self.platform.primary;
        let size = |table: &str, key| {
            primary
                .get(table, &key)
                .ok()
                .flatten()
                .map_or(0, |row| row.value.len() as u64)
        };
        let bytes = size("member_follows", member_row_key(member))
            + size("company_followers", company_row_key(company));
        let tally = &mut self.tallies[TRACED];
        tally.follow_row_bytes += bytes;
        tally.follows_sized += 1;
    }

    /// The member's follow-then-see-it: from the commit's return, wait
    /// until the relay holds the commit, then until the member's cache
    /// shows the company.
    fn confirm(&mut self, member: u64, company: u64, op_id: u64) {
        let root = self.open("follow_visible", op_id, None);
        let started = Instant::now();
        let scn = self.platform.primary.last_scn();
        let span = self.open("databus.relay_ingest", op_id, root);
        let relay = &self.platform.relay;
        let mut visible = wait_until(started, || Ok(relay.newest_scn() >= scn));
        self.close(span);
        if visible {
            let span = self.open("databus.apply", op_id, root);
            let platform = &self.platform;
            visible = wait_until(started, || {
                platform
                    .followed_companies(member)
                    .map(|companies| companies.contains(&company))
            });
            self.close(span);
        }
        let elapsed = started.elapsed();
        self.close(root);
        let tally = &mut self.tallies[self.slot];
        if visible {
            tally.visible_ns.push(elapsed.as_nanos() as u64);
        } else {
            tally.unconfirmed += 1;
        }
    }
}

/// Polls `done` every [`CONFIRM_POLL`] until it holds, it errors, or
/// [`CONFIRM_TIMEOUT`] has passed since `started`.
fn wait_until(started: Instant, mut done: impl FnMut() -> Result<bool, PlatformError>) -> bool {
    loop {
        match done() {
            Ok(true) => return true,
            Err(_) => return false,
            Ok(false) if started.elapsed() > CONFIRM_TIMEOUT => return false,
            Ok(false) => std::thread::sleep(CONFIRM_POLL),
        }
    }
}

impl Resumable for Client {
    fn step(&mut self) -> bool {
        for _ in 0..QUANTUM {
            let op = self.next_op();
            if self.run_op(op) >= self.deadline {
                if self.final_segment {
                    // Settle the sends still buffered; a failed flush
                    // shows in the activity conservation check.
                    let _ = self.producer.flush();
                }
                return true;
            }
        }
        false
    }
}

/// The background pump's record.
struct PumpReport {
    errors: u64,
    log: SpanLog,
}

/// Runs `pump_streams` until `stop`, woken by the relay's SCN watch with
/// an idle backoff, timing each call while `traced` is set.
fn spawn_pump(
    platform: Arc<DataPlatform>,
    stop: Arc<AtomicBool>,
    traced: Arc<AtomicBool>,
    epoch: Instant,
) -> JoinHandle<PumpReport> {
    std::thread::Builder::new()
        .name("site-pump".into())
        .spawn(move || {
            let mut log = SpanLog::new(epoch);
            let mut errors = 0;
            let mut watch = platform.relay.scn_watch();
            let mut backoff = PUMP_MIN_BACKOFF;
            let mut calls = 0u64;
            while !stop.load(Ordering::Acquire) {
                let span = traced
                    .load(Ordering::Relaxed)
                    .then(|| log.open("pump_streams", calls, None));
                if platform.pump_streams().is_err() {
                    errors += 1;
                }
                if let Some(span) = span {
                    log.close(span);
                }
                calls += 1;
                backoff = match watch.wait_newer(backoff) {
                    Some(_) => PUMP_MIN_BACKOFF,
                    None => (backoff * 2).min(PUMP_MAX_BACKOFF),
                };
            }
            PumpReport { errors, log }
        })
        .expect("spawn stream pump")
}

/// The platform shape of the `site_scale` bench.
fn platform_shape() -> PlatformConfig {
    PlatformConfig {
        voldemort_nodes: 3,
        kafka_brokers: 2,
        espresso_nodes: 3,
        espresso_partitions: 8,
        activity_partitions: 4,
        shard_mode: ShardMode::Parallel,
    }
}

fn site_config(config: &RunConfig) -> SiteBenchConfig {
    let mut site = SiteBenchConfig::smoke(config.members, CLIENTS, 0, config.seed);
    site.graph = SiteGraphConfig::smoke(config.members, POPULATION_SEED);
    site.platform = platform_shape();
    site
}

/// Set-up figures, one entry per prepare.
#[derive(Default)]
struct Setup {
    wall_s: Vec<f64>,
    generate_s: Vec<f64>,
    load_s: Vec<f64>,
}

/// What a client leaves behind once its phase's site is dropped.
struct ClientRecord {
    tallies: [Tally; 3],
    log: SpanLog,
    producer: ProducerStats,
}

/// Everything one load phase measured.
struct Phase {
    clients: Vec<ClientRecord>,
    /// Segment walls, indexed by segment kind.
    walls: [Duration; 3],
    drain: Duration,
    pump: PumpReport,
    dispatch: DispatchStats,
    relay_buffered_bytes: usize,
    consumed: u64,
    consume_time: Duration,
    /// Registry deltas over the load and drain.
    counts: MetricsSnapshot,
}

/// Adds one phase's verdicts into the run's checks (same names, same
/// order every phase).
fn merge_checks(into: &mut Vec<Check>, phase: Vec<Check>) {
    if into.is_empty() {
        *into = phase;
        return;
    }
    for (total, check) in into.iter_mut().zip(phase) {
        total.failures += check.failures;
        total.detail = format!("{}; {}", total.detail, check.detail);
    }
}

/// Prepares and drives the site [`RunConfig::phases`] times, each phase
/// on a fresh site for `load / phases`, then reports over all phases.
pub fn run(config: &RunConfig) -> Result<RunReport, PlatformError> {
    let phases_wanted = config.phases.max(1);
    let mut setup = Setup::default();
    let mut phases = Vec::with_capacity(phases_wanted);
    let mut checks = Vec::new();
    for index in 0..phases_wanted {
        let started = Instant::now();
        let bench = SiteBench::prepare(site_config(config))?;
        setup.wall_s.push(started.elapsed().as_secs_f64());
        let stats = bench.prepare_stats();
        setup.generate_s.push(stats.generate_wall.as_secs_f64());
        setup.load_s.push(stats.load_wall.as_secs_f64());
        let (phase, phase_checks) = run_phase(config, index, &bench)?;
        merge_checks(&mut checks, phase_checks);
        phases.push(phase);
        // The site drops here, before the next one is built.
    }

    if config.trace {
        let mut logs: Vec<(String, &[Span])> = Vec::new();
        for (p, phase) in phases.iter().enumerate() {
            for (c, client) in phase.clients.iter().enumerate() {
                logs.push((format!("phase{p}.client{c}"), client.log.spans()));
            }
            logs.push((format!("phase{p}.pump"), phase.pump.log.spans()));
        }
        let unreconciled: usize = logs
            .iter()
            .map(|(_, spans)| trace::unreconciled(spans, &trace::self_times(spans)))
            .sum();
        checks.push(Check {
            name: "spans_reconcile",
            failures: unreconciled as u64,
            detail: "children + parent self time = parent span".to_string(),
        });
        if let Some(dir) = &config.span_dir {
            let path = dir.join(format!("spans-{}.tsv", config.workload.name()));
            trace::write_tsv(&path, &logs, SPANS_WRITTEN_PER_THREAD)
                .map_err(|e| PlatformError(format!("write {}: {e}", path.display())))?;
        }
    }

    let tallies = || {
        phases
            .iter()
            .flat_map(|p| &p.clients)
            .flat_map(|c| &c.tallies)
    };
    let attempted: u64 = tallies().map(|t| t.attempted).sum();
    let op_failures: u64 = tallies().map(|t| t.errors + t.unconfirmed).sum();
    let failed = op_failures + checks.iter().map(|c| c.failures).sum::<u64>();
    let metrics = if config.trace {
        per_layer(&phases, &setup, failed, attempted)
    } else {
        end_to_end(&phases, &setup)
    };
    Ok(RunReport {
        attempted,
        failed,
        checks,
        metrics,
    })
}

/// One load phase on a freshly prepared site: load, drain, and the
/// correctness checks (outside the timed window).
fn run_phase(
    config: &RunConfig,
    index: usize,
    bench: &SiteBench,
) -> Result<(Phase, Vec<Check>), PlatformError> {
    let platform = bench.platform();
    let graph = bench.graph();
    let workload = Arc::new(SiteWorkload::new(
        graph.member_count(),
        graph.company_count(),
        config.workload.mix(),
    ));
    let epoch = Instant::now();
    let seed = split_seed(config.seed, index as u64);
    let mut clients: Vec<Client> = (0..CLIENTS as u64)
        .map(|id| {
            Client::new(
                id,
                seed,
                config.workload.confirm_every(),
                platform,
                &workload,
                epoch,
            )
        })
        .collect();
    let counts_before = platform.metrics_snapshot();
    let dispatcher = platform.start_stream_dispatch();
    let stop_pump = Arc::new(AtomicBool::new(false));
    let pump_traced = Arc::new(AtomicBool::new(false));
    let pump = spawn_pump(
        Arc::clone(platform),
        Arc::clone(&stop_pump),
        Arc::clone(&pump_traced),
        epoch,
    );
    let plan: Vec<bool> = if config.trace {
        let odd = index % 2 == 1;
        TRACE_PLAN.iter().map(|&traced| traced != odd).collect()
    } else {
        vec![false]
    };
    let segment = config.load / (config.phases.max(1) * plan.len()) as u32;
    let segments: Vec<(usize, Duration)> = std::iter::once((WARMING, WARM_UP))
        .chain(plan.iter().map(|&traced| (usize::from(traced), segment)))
        .collect();
    let mut walls = [Duration::ZERO; 3];
    {
        let pool = FanOutPool::named("client", CLIENTS);
        for (i, &(slot, length)) in segments.iter().enumerate() {
            pump_traced.store(slot == TRACED, Ordering::Relaxed);
            let started = Instant::now();
            for client in &mut clients {
                client.slot = slot;
                client.deadline = started + length;
                client.final_segment = i + 1 == segments.len();
            }
            clients = run_on_pool(&pool, clients);
            walls[slot] += started.elapsed();
        }
    }
    pump_traced.store(false, Ordering::Relaxed);

    // ---- Drain: from the last op until every pipeline is empty. ----
    let drain_started = Instant::now();
    let relay_buffered_bytes = platform.relay.buffered_bytes();
    let dispatch = dispatcher.stop();
    stop_pump.store(true, Ordering::Release);
    let pump = pump.join().expect("pump thread panicked");
    platform.pump_streams()?;
    platform.pump_streams()?;
    let mut consumed = 0u64;
    let mut consume_time = Duration::ZERO;
    for partition in 0..platform.activity_partitions() {
        let mut consumer = platform.activity_consumer(partition)?;
        loop {
            let started = Instant::now();
            let batch = consumer.poll().map_err(|e| PlatformError(e.to_string()))?;
            consume_time += started.elapsed();
            if batch.is_empty() {
                break;
            }
            consumed += batch.len() as u64;
        }
    }
    platform.force_warehouse_load()?;
    let drain = drain_started.elapsed();
    let counts = platform.metrics_snapshot().delta(&counts_before);

    // ---- Correctness, through the public API. ----
    let mut checks = Vec::new();
    let follow_streams: Vec<Vec<SiteOp>> = clients
        .iter_mut()
        .map(|c| std::mem::take(&mut c.follow_ops))
        .collect();
    let expected = expected_follow_sets(graph, &follow_streams);
    let mut wrong = 0;
    for (member, want) in &expected {
        let mut got = platform.followed_companies(*member)?;
        let listed = got.len();
        got.sort_unstable();
        got.dedup();
        if got.len() != listed || !got.iter().eq(want.iter()) {
            wrong += 1;
        }
    }
    checks.push(Check {
        name: "follows_exactly_once_in_cache",
        failures: wrong,
        detail: format!("{} members", expected.len()),
    });

    let published: u64 = clients.iter().map(|c| c.producer.stats().messages).sum();
    let accepted: u64 = clients.iter().map(|c| c.activity_accepted).sum();
    let warehouse = platform.warehouse_rows() as u64;
    checks.push(Check {
        name: "activity_conserved",
        failures: accepted.abs_diff(published)
            + consumed.abs_diff(published)
            + warehouse.abs_diff(published),
        detail: format!(
            "accepted {accepted}, published {published}, consumed {consumed}, warehouse {warehouse}"
        ),
    });

    let stride = (graph.member_count() / PROFILE_SAMPLES).max(1);
    let mut diverged = 0;
    let mut sampled = 0;
    for member in (0..graph.member_count()).step_by(stride as usize) {
        sampled += 1;
        if platform.profile(member)?.as_deref() != Some(graph.profile_of(member)) {
            diverged += 1;
        }
    }
    checks.push(Check {
        name: "profiles_read_back",
        failures: diverged,
        detail: format!("{sampled} sampled"),
    });

    checks.push(Check {
        name: "stream_errors",
        failures: dispatch.errors + pump.errors,
        detail: format!("dispatch {}, pump {}", dispatch.errors, pump.errors),
    });

    let clients = clients
        .into_iter()
        .map(|c| ClientRecord {
            producer: c.producer.stats(),
            tallies: c.tallies,
            log: c.log,
        })
        .collect();
    let phase = Phase {
        clients,
        walls,
        drain,
        pump,
        dispatch,
        relay_buffered_bytes,
        consumed,
        consume_time,
        counts,
    };
    Ok((phase, checks))
}

fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

fn median_of(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Acked ops per second over every phase's segments of one kind. Pooling the phases is steadier than their median: a phase
/// is short, and its own rate swings with the host.
fn rate(phases: &[Phase], slot: usize) -> f64 {
    let acked: u64 = phases
        .iter()
        .flat_map(|p| &p.clients)
        .map(|c| c.tallies[slot].acked())
        .sum();
    let wall: Duration = phases.iter().map(|p| p.walls[slot]).sum();
    ratio(acked as f64, wall.as_secs_f64())
}

/// The end-to-end metrics; every one is measured on every workload.
fn end_to_end(phases: &[Phase], setup: &Setup) -> Vec<Metric> {
    let latency = sorted(
        phases
            .iter()
            .flat_map(|p| &p.clients)
            .flat_map(|c| c.tallies[UNTRACED].latency_ns.iter().flatten().copied())
            .collect(),
    );
    vec![
        Metric::plain("setup_s", median_of(&setup.wall_s), "s"),
        Metric::plain("throughput_ops_s", rate(phases, UNTRACED), "1/s"),
        Metric::percentile("latency.p50_us", quantile(&latency, 50), 1e3, "us"),
        Metric::percentile("latency.p99_us", quantile(&latency, 99), 1e3, "us"),
    ]
}

/// Sum over all phases and the site's nodes `0..nodes` of counter
/// `prefix{n}.suffix`.
fn node_sum(phases: &[Phase], prefix: &str, nodes: u16, suffix: &str) -> u64 {
    phases
        .iter()
        .flat_map(|p| (0..nodes).map(move |n| (p, n)))
        .map(|(p, n)| {
            p.counts
                .counter(&format!("{prefix}{n}.{suffix}"))
                .unwrap_or(0)
        })
        .sum()
}

/// The per-layer metrics of a traced run.
fn per_layer(phases: &[Phase], setup: &Setup, failed: u64, attempted: u64) -> Vec<Metric> {
    let shape = platform_shape();
    let clients = || phases.iter().flat_map(|p| &p.clients);
    let untraced = || clients().map(|c| &c.tallies[UNTRACED]);
    let traced = || clients().map(|c| &c.tallies[TRACED]);
    let spans_named = |name: &str| {
        sorted(
            clients()
                .flat_map(|c| trace::durations(c.log.spans(), name))
                .collect(),
        )
    };
    let pct = |name: &str, samples: &[u64], q: u32, unit: &'static str| {
        let per_unit = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            _ => 1e6,
        };
        Metric::percentile(name, quantile(samples, q), per_unit, unit)
    };
    let count = |name: &str, n: usize| Metric::plain(name, n as f64, "count");
    let counter = |name: &str| -> u64 {
        phases
            .iter()
            .map(|p| p.counts.counter(name).unwrap_or(0))
            .sum()
    };
    let per_phase =
        |f: &dyn Fn(&Phase) -> f64| median_of(&phases.iter().map(f).collect::<Vec<_>>());
    let traced_wall: Duration = phases.iter().map(|p| p.walls[TRACED]).sum();

    let mut out = vec![
        Metric::plain("workload.generate_s", median_of(&setup.generate_s), "s"),
        Metric::plain("site_bench.load_s", median_of(&setup.load_s), "s"),
        Metric::plain("drain_s", per_phase(&|p| p.drain.as_secs_f64()), "s"),
        Metric::plain(
            "failed_ops_share",
            ratio(failed as f64, attempted as f64),
            "share",
        ),
    ];

    // Per-op call latency and follow freshness, from untraced segments.
    for (tier, name) in TIERS.iter().enumerate() {
        let samples = sorted(
            untraced()
                .flat_map(|t| t.latency_ns[tier].iter().copied())
                .collect(),
        );
        if *name != "activity" {
            out.push(pct(&format!("{name}.p50_us"), &samples, 50, "us"));
        }
        out.push(pct(&format!("{name}.p99_us"), &samples, 99, "us"));
        out.push(count(&format!("{name}.samples"), samples.len()));
    }
    let visible = sorted(
        untraced()
            .flat_map(|t| t.visible_ns.iter().copied())
            .collect(),
    );
    out.push(pct("follow_visible.p50_ms", &visible, 50, "ms"));
    out.push(pct("follow_visible.p99_ms", &visible, 99, "ms"));
    out.push(count("follow_visible.samples", visible.len()));

    // Tracing's own cost: traced against untraced throughput.
    let untraced_rate = rate(phases, UNTRACED);
    let traced_rate = rate(phases, TRACED);
    out.push(Metric::plain(
        "trace.overhead_share",
        ratio(untraced_rate - traced_rate, untraced_rate),
        "share",
    ));

    // Scheduler: client time in traced segments outside any root span.
    let root_ns: u64 = clients()
        .flat_map(|c| c.log.spans().iter().filter(|s| s.parent.is_none()))
        .map(Span::duration_ns)
        .sum();
    let traced_ops: u64 = traced().map(|t| t.attempted).sum();
    out.push(Metric::plain(
        "sched.overhead_ns_per_op",
        ratio(
            CLIENTS as f64 * traced_wall.as_nanos() as f64 - root_ns as f64,
            traced_ops as f64,
        ),
        "ns",
    ));

    // Pump.
    let pump = sorted(
        phases
            .iter()
            .flat_map(|p| trace::durations(p.pump.log.spans(), "pump_streams"))
            .collect(),
    );
    out.push(Metric::plain(
        "pump.busy_share",
        ratio(
            pump.iter().sum::<u64>() as f64,
            traced_wall.as_nanos() as f64,
        ),
        "share",
    ));
    out.push(pct("pump.p99_us", &pump, 99, "us"));
    out.push(count("pump.samples", pump.len()));

    // sqlstore: follows over whole phases (counters span every segment).
    let follows: u64 = clients()
        .flat_map(|c| &c.tallies)
        .map(|t| t.latency_ns[2].len() as u64)
        .sum();
    let per_follow = |n: u64| ratio(n as f64, follows as f64);
    let sized: u64 = traced().map(|t| t.follows_sized).sum();
    let row_bytes: u64 = traced().map(|t| t.follow_row_bytes).sum();
    out.push(Metric::plain(
        "sqlstore.bytes_per_follow",
        ratio(row_bytes as f64, sized as f64),
        "bytes",
    ));
    out.push(Metric::plain(
        "sqlstore.commits_per_follow",
        per_follow(counter("sqlstore.db.primary.commits")),
        "count",
    ));

    // Databus.
    for name in ["databus.relay_ingest", "databus.apply"] {
        let samples = spans_named(name);
        out.push(pct(&format!("{name}.p50_us"), &samples, 50, "us"));
        out.push(pct(&format!("{name}.p99_us"), &samples, 99, "us"));
        out.push(count(&format!("{name}.samples"), samples.len()));
    }
    out.push(Metric::plain(
        "databus.windows_per_follow",
        per_follow(counter("databus.client.windows_processed")),
        "count",
    ));
    let coalesced: u64 = phases.iter().map(|p| p.dispatch.coalesced).sum();
    let notified: u64 = phases.iter().map(|p| p.dispatch.notified).sum();
    out.push(Metric::plain(
        "databus.dispatch.coalesced_share",
        ratio(coalesced as f64, (coalesced + notified) as f64),
        "share",
    ));
    out.push(count(
        "databus.dispatch.errors",
        phases.iter().map(|p| p.dispatch.errors as usize).sum(),
    ));
    out.push(Metric::plain(
        "databus.relay.buffered_mib",
        per_phase(&|p| p.relay_buffered_bytes as f64 / f64::from(1u32 << 20)),
        "MiB",
    ));

    // Voldemort.
    let ro_get = spans_named("voldemort.ro_get");
    out.push(pct("voldemort.ro_get.p50_us", &ro_get, 50, "us"));
    out.push(pct("voldemort.ro_get.p99_us", &ro_get, 99, "us"));
    out.push(count("voldemort.ro_get.samples", ro_get.len()));
    out.push(Metric::plain(
        "voldemort.put_bytes_per_follow",
        per_follow(node_sum(
            phases,
            "voldemort.node",
            shape.voldemort_nodes,
            "bytes_in",
        )),
        "bytes",
    ));
    out.push(Metric::plain(
        "voldemort.puts_per_follow",
        per_follow(node_sum(
            phases,
            "voldemort.node",
            shape.voldemort_nodes,
            "put.count",
        )),
        "count",
    ));

    // Espresso.
    for name in ["espresso.get", "espresso.multi_get"] {
        let samples = spans_named(name);
        out.push(pct(&format!("{name}.p50_us"), &samples, 50, "us"));
        out.push(pct(&format!("{name}.p99_us"), &samples, 99, "us"));
        out.push(count(&format!("{name}.samples"), samples.len()));
    }
    let multi_gets = spans_named("espresso.multi_get").len();
    let keys: u64 = traced().map(|t| t.multi_get_keys).sum();
    out.push(Metric::plain(
        "espresso.keys_per_multi_get",
        ratio(keys as f64, multi_gets as f64),
        "count",
    ));

    // Kafka.
    let send = spans_named("kafka.send");
    out.push(pct("kafka.send.p50_ns", &send, 50, "ns"));
    out.push(pct("kafka.send.p99_ns", &send, 99, "ns"));
    out.push(count("kafka.send.samples", send.len()));
    let publish = sorted(
        traced()
            .flat_map(|t| t.publish_ns.iter().copied())
            .collect(),
    );
    out.push(pct("kafka.publish.p99_us", &publish, 99, "us"));
    out.push(count("kafka.publish.samples", publish.len()));
    let messages: u64 = clients().map(|c| c.producer.messages).sum();
    let requests: u64 = clients().map(|c| c.producer.requests).sum();
    out.push(Metric::plain(
        "kafka.msgs_per_request",
        ratio(messages as f64, requests as f64),
        "count",
    ));
    let groups = node_sum(
        phases,
        "kafka.broker",
        shape.kafka_brokers,
        "produce.groups",
    );
    let commits: u64 = phases
        .iter()
        .flat_map(|p| {
            (0..shape.kafka_brokers).filter_map(|b| {
                p.counts
                    .histogram(&format!("kafka.broker{b}.produce.groups_per_commit"))
                    .map(|h| h.count)
            })
        })
        .sum();
    out.push(Metric::plain(
        "kafka.groups_per_commit",
        ratio(groups as f64, commits as f64),
        "count",
    ));
    let consumed: u64 = phases.iter().map(|p| p.consumed).sum();
    let consume_time: Duration = phases.iter().map(|p| p.consume_time).sum();
    out.push(Metric::plain(
        "kafka.consume.msgs_per_s",
        ratio(consumed as f64, consume_time.as_secs_f64()),
        "1/s",
    ));
    out
}
