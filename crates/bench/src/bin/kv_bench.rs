//! End-to-end benchmark for the sharded KV service.
//!
//! ```text
//! kv_bench [--quick]
//! ```
//!
//! Runs two sweeps over the read-mostly Zipfian scenario (90/5/5,
//! θ = 0.99) and prints one CSV to stdout:
//!
//! * `scaling` — HP++ store at 1, ⌈max/2⌉, and `max` shards: the
//!   throughput-scaling headline (per-shard reclamation domains mean
//!   shards add capacity without sharing a collector bottleneck). `max`
//!   is 4, or `KV_SHARDS` when set;
//! * `schemes` — HP++ vs per-shard EBR vs per-shard hyaline vs NR at `max`
//!   shards: what the reclamation scheme costs end-to-end, through rings,
//!   batching, and the map itself.
//!
//! Columns (see EXPERIMENTS.md):
//! `section,scheme,shards,clients,pipeline,batch,ring,keys,theta,read_pct,
//! warmup_ms,duration_ms,total_mops,min_shard_mops,max_shard_mops,p50_ns,
//! p99_ns,p999_ns,peak_shard_garbage`
//!
//! The scaling verdict (max-shard ÷ 1-shard throughput) goes to stderr with
//! the host's core count: on a 1-core host every shard multiplexes the
//! same CPU, so the ratio measures batching overhead, not scaling — the
//! ≥ 4-core claim in EXPERIMENTS.md must come from a ≥ 4-core host.
//! `--quick` shrinks windows and key range for CI smoke runs.

use bench::kv_run::{run_kv, KvResult, KvRun};
use kv_service::{available_cores, EbrStore, HppStore, HyalineStore, NrStore, ShardStore};

const HEADER: &str = "section,scheme,shards,clients,pipeline,batch,ring,keys,theta,read_pct,\
warmup_ms,duration_ms,total_mops,min_shard_mops,max_shard_mops,p50_ns,p99_ns,p999_ns,\
peak_shard_garbage";

fn scenario(shards: usize, quick: bool) -> KvRun {
    let rc = KvRun::read_mostly(shards);
    if quick {
        rc.quick()
    } else {
        rc
    }
}

fn row<S: ShardStore>(section: &str, rc: &KvRun) -> KvResult {
    eprintln!("kv_bench: {section} {} x{} shards…", S::SCHEME, rc.shards);
    let r = run_kv::<S>(rc);
    let prefix = format!(
        "{section},{},{},{},{},{},{},{},{},{},{},{}",
        S::SCHEME,
        rc.shards,
        rc.clients,
        rc.pipeline,
        rc.batch,
        rc.ring_depth,
        rc.keys,
        rc.theta,
        rc.read_pct,
        rc.warmup.as_millis(),
        rc.duration.as_millis(),
    );
    if r.timeouts > 0 {
        // Ops blew their per-op deadline: the fig9 convention — keep the
        // full column schema but put `timeout` in every stat column, so
        // numeric consumers skip the row without losing which
        // configuration wedged (and the bench never hangs on it).
        eprintln!(
            "kv_bench: {section} {} x{}: {} ops exceeded the op deadline",
            S::SCHEME,
            rc.shards,
            r.timeouts
        );
        let stats = ["timeout"; 7].join(",");
        println!("{prefix},{stats}");
    } else {
        println!(
            "{prefix},{:.4},{:.4},{:.4},{},{},{},{}",
            r.total_mops,
            r.min_shard_mops,
            r.max_shard_mops,
            r.p50_ns,
            r.p99_ns,
            r.p999_ns,
            r.peak_shard_garbage,
        );
    }
    r
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("{HEADER}");

    // The sweep's top shard count tracks the config: `KV_SHARDS` overrides
    // the default 4 (the sweep used to hard-code [1, 2, 4] and ignore the
    // override).
    let max_shards = smr_common::env::parse_usize("KV_SHARDS")
        .filter(|&n| n > 0)
        .unwrap_or(4);
    let mut sweep = vec![1usize, max_shards.div_ceil(2), max_shards];
    sweep.sort_unstable();
    sweep.dedup();

    let mut one_shard = None;
    let mut top_shard = None;
    for &shards in &sweep {
        let r = row::<HppStore>("scaling", &scenario(shards, quick));
        if shards == 1 {
            one_shard = Some(r);
        }
        if shards == max_shards {
            top_shard = Some(r);
        }
    }

    for_scheme_sweep(max_shards, quick);

    let cores = available_cores();
    if let (Some(s1), Some(stop)) = (one_shard, top_shard) {
        let ratio = stop.total_mops / s1.total_mops.max(1e-9);
        eprintln!(
            "kv_bench: 1→{max_shards} shard scaling {ratio:.2}x on a {cores}-core host{}",
            if cores >= max_shards {
                ""
            } else {
                " (shards time-share the same cores here; measure scaling on >=4 cores)"
            }
        );
    }
}

fn for_scheme_sweep(shards: usize, quick: bool) {
    let rc = scenario(shards, quick);
    row::<HppStore>("schemes", &rc);
    row::<EbrStore>("schemes", &rc);
    row::<HyalineStore>("schemes", &rc);
    row::<NrStore>("schemes", &rc);
}
