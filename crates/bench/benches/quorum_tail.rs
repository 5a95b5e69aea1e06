//! Experiment C-22 (DESIGN.md / EXPERIMENTS.md): quorum tail latency —
//! serial walk vs parallel fan-out vs hedged reads.
//!
//! Paper §II.B: Voldemort reads are quorum reads against the key's
//! preference list. The legacy client walked replicas *serially*, so one
//! slow replica set the whole request's critical path. The fan-out
//! executor contacts replicas concurrently and completes at R acks; a
//! hedged read keeps the contact budget at R and launches one backup
//! request only after a quantile-derived delay (Dean & Barroso's
//! "tail at scale" scheme).
//!
//! Workload: a 6-node cluster (N=3, R=2, W=2), client→replica links at
//! 100µs, with **one replica that stalls at 2ms for a seeded 10% of
//! requests** (a GC-pause / hiccup model — rare enough that the latency
//! histogram's p95, which sets the hedge delay, stays fast). All three
//! modes replay the identical stall schedule with real sleeps
//! (`simulate_latency`), so completion order is decided by link latency.
//!
//! * **serial** — `ShardMode::Deterministic`, quorum width: the R
//!   replicas are called one after another inline, so their sleeps add up
//!   — the legacy walk's contact sequence and critical path.
//! * **parallel** — `ShardMode::Parallel`, `ReadFanOut::All`: contact
//!   every replica, return at R. Masks the stall at +N/R× replica load.
//! * **hedged** — `ShardMode::Parallel`, quorum width + `HedgeConfig`:
//!   masks the stall for ~the price of the stall rate in extra load.
//!
//! Acceptance: parallel p99 ≥ 2× better than serial; hedged p999 ≥ 2×
//! better than serial with ≤ ~5% mean replica load increase over serial.
//! Snapshot lives in BENCH_quorum_tail.json.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use li_commons::ring::{HashRing, NodeId};
use li_commons::shard::ShardMode;
use li_commons::sim::{SimClock, SimNetwork};
use li_voldemort::{
    HedgeConfig, QuorumConfig, ReadFanOut, StoreClient, StoreDef, VoldemortCluster,
};
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: u16 = 6;
const KEYS: usize = 64;
const WARMUP: usize = 300;
const SAMPLES: usize = 4000;
const BASE_LATENCY: Duration = Duration::from_micros(100);
const STALL_LATENCY: Duration = Duration::from_millis(2);
const STALL_PROBABILITY: f64 = 0.10;
const SLOW: NodeId = NodeId(0);
const STALL_SEED: u64 = 11;

fn build_cluster() -> (Arc<VoldemortCluster>, Vec<Vec<u8>>) {
    let ids: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let ring = HashRing::balanced(16, &ids).unwrap();
    let cluster = VoldemortCluster::with_parts(
        ring,
        SimNetwork::reliable(),
        Arc::new(SimClock::new()),
    )
    .unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 2))
        .unwrap();
    for node in &ids {
        cluster
            .network()
            .set_link_latency(StoreClient::CLIENT_NODE, *node, BASE_LATENCY);
    }
    // Seed every key on its full preference list before any timing: the
    // Deterministic mode replicates the whole wave inline.
    let writer = cluster.client("s").unwrap();
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|j| format!("q{j}").into_bytes()).collect();
    for key in &keys {
        writer
            .put_initial(key, Bytes::from(format!("v-{}", keys.len())))
            .unwrap();
    }
    (cluster, keys)
}

struct ModeStats {
    label: &'static str,
    p50: Duration,
    p99: Duration,
    p999: Duration,
    mean: Duration,
    /// Mean replica `get` calls per client read (includes stragglers and
    /// hedge backups — the real work replicas perform).
    load_per_read: f64,
    hedges: u64,
    hedge_wins: u64,
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one mode over the shared cluster, replaying the seeded stall
/// schedule, and returns its latency/load profile.
fn run_mode(
    cluster: &Arc<VoldemortCluster>,
    keys: &[Vec<u8>],
    label: &'static str,
    config: QuorumConfig,
) -> ModeStats {
    let client = cluster.client("s").unwrap().with_quorum_config(config);
    let mut rng = rand::rngs::StdRng::seed_from_u64(STALL_SEED);
    let stall = |on: bool| {
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            SLOW,
            if on { STALL_LATENCY } else { BASE_LATENCY },
        );
    };
    // Warm the replica-latency histogram (it derives the hedge delay) and
    // the pool before timing anything.
    for i in 0..WARMUP {
        stall(rng.random::<f64>() < STALL_PROBABILITY);
        client.get(&keys[i % keys.len()]).unwrap();
    }
    cluster.fan_out_pool().wait_idle();

    let before = cluster.metrics().snapshot();
    let mut latencies: Vec<Duration> = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        stall(rng.random::<f64>() < STALL_PROBABILITY);
        let key = &keys[i % keys.len()];
        let start = Instant::now();
        black_box(client.get(key).unwrap());
        latencies.push(start.elapsed());
    }
    stall(false);
    cluster.fan_out_pool().wait_idle();
    let delta = cluster.metrics().snapshot().delta(&before);

    let replica_gets: u64 = (0..NODES)
        .filter_map(|i| delta.counter(&format!("voldemort.node{i}.get.count")))
        .sum();
    let mean = latencies.iter().sum::<Duration>() / SAMPLES as u32;
    latencies.sort();
    ModeStats {
        label,
        p50: quantile(&latencies, 0.50),
        p99: quantile(&latencies, 0.99),
        p999: quantile(&latencies, 0.999),
        mean,
        load_per_read: replica_gets as f64 / SAMPLES as f64,
        hedges: delta.counter("voldemort.client.get.hedged").unwrap_or(0),
        hedge_wins: delta.counter("voldemort.client.get.hedge_won").unwrap_or(0),
    }
}

fn bench_quorum_tail(c: &mut Criterion) {
    println!("\n=== C-22: quorum read tail latency, one intermittently slow replica (§II.B) ===");
    println!(
        "{NODES} nodes, N=3 R=2 W=2, {KEYS} keys, links {BASE_LATENCY:?}, \
         node {} stalls at {STALL_LATENCY:?} for {:.0}% of reads (seed {STALL_SEED})\n",
        SLOW.0,
        STALL_PROBABILITY * 100.0
    );
    let (cluster, keys) = build_cluster();

    let serial = run_mode(
        &cluster,
        &keys,
        "serial",
        QuorumConfig {
            mode: ShardMode::Deterministic,
            simulate_latency: true,
            ..QuorumConfig::default()
        },
    );
    let parallel = run_mode(
        &cluster,
        &keys,
        "parallel",
        QuorumConfig {
            mode: ShardMode::Parallel,
            read_fan_out: ReadFanOut::All,
            simulate_latency: true,
            ..QuorumConfig::default()
        },
    );
    let hedged = run_mode(
        &cluster,
        &keys,
        "hedged",
        QuorumConfig {
            mode: ShardMode::Parallel,
            hedge: Some(HedgeConfig {
                // 4x the base link latency: far enough above real-sleep
                // scheduling jitter that hedges fire on genuine stalls, not
                // on thread wake-up noise; still 5x under the 2ms stall.
                min_delay: Duration::from_micros(400),
                ..HedgeConfig::default()
            }),
            simulate_latency: true,
            ..QuorumConfig::default()
        },
    );

    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "mode", "p50", "p99", "p999", "mean", "load/rd", "hedges", "hedge_won"
    );
    for stats in [&serial, &parallel, &hedged] {
        println!(
            "{:<10} {:>10.1?} {:>10.1?} {:>10.1?} {:>10.1?} {:>8.2} {:>8} {:>10}",
            stats.label,
            stats.p50,
            stats.p99,
            stats.p999,
            stats.mean,
            stats.load_per_read,
            stats.hedges,
            stats.hedge_wins
        );
    }
    println!(
        "\nacceptance: parallel p99 {:.1}x serial (need >= 2), hedged p999 {:.1}x serial \
         (need >= 2) at {:+.1}% replica load vs serial (need <= ~5%)\n",
        serial.p99.as_secs_f64() / parallel.p99.as_secs_f64().max(1e-9),
        serial.p999.as_secs_f64() / hedged.p999.as_secs_f64().max(1e-9),
        (hedged.load_per_read / serial.load_per_read - 1.0) * 100.0
    );
    // Machine-readable snapshot for BENCH_quorum_tail.json.
    print!("{{\"results\":[");
    for (i, stats) in [&serial, &parallel, &hedged].iter().enumerate() {
        if i > 0 {
            print!(",");
        }
        print!(
            "{{\"mode\":\"{}\",\"p50_us\":{:.1},\"p99_us\":{:.1},\"p999_us\":{:.1},\
             \"mean_us\":{:.1},\"replica_gets_per_read\":{:.3},\"hedges\":{},\"hedge_wins\":{}}}",
            stats.label,
            stats.p50.as_secs_f64() * 1e6,
            stats.p99.as_secs_f64() * 1e6,
            stats.p999.as_secs_f64() * 1e6,
            stats.mean.as_secs_f64() * 1e6,
            stats.load_per_read,
            stats.hedges,
            stats.hedge_wins
        );
    }
    println!("]}}\n");

    // A small criterion group so the three paths also show up in the
    // standard report (fast key, no stalls — steady-state overhead only).
    let mut group = c.benchmark_group("quorum_tail");
    group.sample_size(20);
    let fast_key = keys
        .iter()
        .find(|k| {
            !cluster
                .ring()
                .preference_list(k, 3)
                .unwrap()
                .contains(&SLOW)
        })
        .cloned()
        .unwrap_or_else(|| keys[0].clone());
    for (label, config) in [
        (
            "serial",
            QuorumConfig {
                mode: ShardMode::Deterministic,
                simulate_latency: true,
                ..QuorumConfig::default()
            },
        ),
        (
            "parallel_all",
            QuorumConfig {
                mode: ShardMode::Parallel,
                read_fan_out: ReadFanOut::All,
                simulate_latency: true,
                ..QuorumConfig::default()
            },
        ),
        (
            "hedged",
            QuorumConfig {
                mode: ShardMode::Parallel,
                hedge: Some(HedgeConfig {
                    min_delay: Duration::from_micros(400),
                    ..HedgeConfig::default()
                }),
                simulate_latency: true,
                ..QuorumConfig::default()
            },
        ),
    ] {
        let client = cluster.client("s").unwrap().with_quorum_config(config);
        group.bench_function(label, |b| {
            b.iter(|| black_box(client.get(&fast_key).unwrap()))
        });
    }
    group.finish();
    cluster.fan_out_pool().wait_idle();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_quorum_tail
}
criterion_main!(benches);
