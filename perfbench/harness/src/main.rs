//! The DumbNet emulator benchmark: one named workload per run, timed
//! end to end (`--trace 0`) or broken down by layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload <discovery|mesh|mesh_2cell|incast_hybrid>
//!           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! A run repeats setup, boot and timed phase of the workload for as long
//! as the next repeat is expected to end within `--seconds` of host time
//! (at least three times) and reports medians. Every input is derived
//! from `--seed`. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a fuller record (host
//! descriptor, result digest, checks, the workload's paper-named metrics)
//! is written to `DIR/<workload>-seed<N>-trace<T>.json`, and the traced
//! run also writes its spans as Chrome trace-event JSON beside it. See
//! `perfbench/README.md` for the workloads and metrics.

mod common;
mod discovery;
mod incast;
mod mesh;
mod probes;
mod speed;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::Iter;
use stats::{median, quantile, tail_quantile};
use trace::Tracer;

/// The default workload seed. Seed 7919 is held back: a claimed gain
/// must also hold on it, and it is not used while tuning a change.
const DEFAULT_SEED: u64 = 1;

/// `setup_s` is the median of at least this many setups per run. Cheap
/// setups are also sampled after every iteration, for up to this share
/// of the iteration's time, so the median spans the whole run.
const SETUP_SAMPLES: usize = 5;
const SETUP_SHARE: f64 = 0.05;

/// A run measures at least this many iterations, however short
/// `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("virtual_s", "s"),
    ("lat_p50_us", "us"),
    ("lat_tail_us", "us"),
    ("goodput_gbps", "Gbps"),
];

/// Per-layer metrics, reported by every workload in the traced run
/// (counts of a layer the workload leaves idle read 0).
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.queue_ns_per_event", "ns"),
    ("sim.drops_queue", "count"),
    ("switch.forwarded", "count"),
    ("switch.ns_per_hop_64B", "ns"),
    ("switch.ns_per_hop_1500B", "ns"),
    ("host.path_requests", "count"),
    ("host.queued_on_miss", "count"),
    ("host.pathtable_lookup_ns", "ns"),
    ("controller.probes_sent", "count"),
    ("controller.probe_gen_ns", "ns"),
    ("controller.path_requests", "count"),
    ("controller.boot_s", "s"),
    ("topology.pathgraph_build_us", "us"),
    ("topology.route_us", "us"),
    ("packet.encode_ns_64B", "ns"),
    ("packet.encode_ns_1500B", "ns"),
    ("packet.decode_ns_64B", "ns"),
    ("packet.decode_ns_1500B", "ns"),
    ("shard.threads", "count"),
    ("shard.balance", "ratio"),
    ("shard.overhead", "ratio"),
    ("flowsim.solves", "count"),
    ("flowsim.full_solves", "count"),
    ("flowsim.solve_ms_10k", "ms"),
    ("hybrid.cap_events", "count"),
    ("hybrid.ecn_mark_flips", "count"),
    ("hybrid.advance_ms", "ms"),
    ("core.build_s", "s"),
    ("trace.overhead_s", "s"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Discovery,
    Mesh,
    Mesh2Cell,
    IncastHybrid,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "discovery" => Workload::Discovery,
            "mesh" => Workload::Mesh,
            "mesh_2cell" => Workload::Mesh2Cell,
            "incast_hybrid" => Workload::IncastHybrid,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Discovery => "discovery",
            Workload::Mesh => "mesh",
            Workload::Mesh2Cell => "mesh_2cell",
            Workload::IncastHybrid => "incast_hybrid",
        }
    }

    /// One setup plus one timed phase.
    fn iteration(self, seed: u64, tracer: &mut Tracer) -> Iter {
        match self {
            Workload::Discovery => discovery::run(discovery::setup(seed, tracer), tracer),
            Workload::Mesh => mesh::run(mesh::setup_world(seed, tracer), tracer),
            Workload::Mesh2Cell => mesh::run_sharded(mesh::setup_sharded(seed, tracer), tracer),
            Workload::IncastHybrid => incast::run(incast::setup(seed, tracer), tracer),
        }
    }

    /// One setup alone: `(setup_s, build_s)`.
    fn setup_only(self, seed: u64) -> (f64, f64) {
        let mut quiet = Tracer::new(false);
        match self {
            Workload::Discovery => {
                let p = discovery::setup(seed, &mut quiet);
                (p.setup_s, p.build_s)
            }
            Workload::Mesh => {
                let p = mesh::setup_world(seed, &mut quiet);
                (p.setup_s, p.build_s)
            }
            Workload::Mesh2Cell => {
                let p = mesh::setup_sharded(seed, &mut quiet);
                (p.setup_s, p.build_s)
            }
            Workload::IncastHybrid => {
                let p = incast::setup(seed, &mut quiet);
                (p.setup_s, p.build_s)
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Mesh,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: "perfbench/out".to_owned(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--out" => args.out = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The first line a tool prints (`rustc -V`, the git revision), or
/// `unknown` where the tool is unavailable or fails.
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let seed = args.seed;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    // The traced run alternates traced and untraced iterations; the
    // difference of their median walls is the tracing overhead.
    let mut tracer = Tracer::new(args.trace);
    let mut quiet = Tracer::new(false);
    let mut speed = speed::Speed::new();
    let started = Instant::now();
    // Iterations, each with the host's slowdown measured just before it
    // (see `speed`), and every setup as `(setup_s, build_s, slowdown)`.
    let mut iters: Vec<(Iter, f64)> = Vec::new();
    let mut untraced: Vec<(Iter, f64)> = Vec::new();
    let mut setups: Vec<(f64, f64, f64)> = Vec::new();
    // An iteration starts only if it should end within `--seconds`,
    // judged by the one before; at least `MIN_ITERATIONS` run.
    let mut last = Duration::ZERO;
    while iters.len() + untraced.len() < MIN_ITERATIONS
        || (args.trace && untraced.is_empty())
        || started.elapsed() + last <= Duration::from_secs_f64(args.seconds)
    {
        let t = Instant::now();
        let slow = speed.slowdown();
        let (it, _) = if args.trace && iters.len() > untraced.len() {
            untraced.push((w.iteration(seed, &mut quiet), slow));
            &untraced[untraced.len() - 1]
        } else {
            iters.push((w.iteration(seed, &mut tracer), slow));
            &iters[iters.len() - 1]
        };
        setups.push((it.setup_s, it.build_s, slow));
        let (slot, each) = (t.elapsed().as_secs_f64() * SETUP_SHARE, it.setup_s);
        let mut spent = 0.0;
        while spent + each <= slot {
            let (setup_s, build_s) = w.setup_only(seed);
            spent += setup_s;
            setups.push((setup_s, build_s, slow));
        }
        last = t.elapsed();
    }
    // Timed-phase seconds in reference-host seconds.
    let ref_walls = |v: &[(Iter, f64)]| {
        v.iter()
            .map(|(i, slow)| i.wall_s / slow)
            .collect::<Vec<_>>()
    };
    let overhead_s = if args.trace {
        median(&ref_walls(&iters)) - median(&ref_walls(&untraced))
    } else {
        0.0
    };
    iters.extend(untraced);
    while setups.len() < SETUP_SAMPLES {
        let slow = speed.slowdown();
        let (setup_s, build_s) = w.setup_only(seed);
        setups.push((setup_s, build_s, slow));
    }
    let walls = ref_walls(&iters);
    let slowdowns: Vec<f64> = iters.iter().map(|i| i.1).collect();
    let iters: Vec<Iter> = iters.into_iter().map(|i| i.0).collect();

    // The layer probes, before the checks: one of them checks the PDES
    // byte-identity contract.
    let probed = args.trace.then(|| probes::run_all(seed, &mut tracer));

    let first = &iters[0];
    let mut checks: Vec<(String, bool)> = first
        .checks
        .iter()
        .enumerate()
        .map(|(j, &(name, _))| (name.to_owned(), iters.iter().all(|i| i.checks[j].1)))
        .collect();
    checks.push((
        "same seed, same result digest on every iteration".to_owned(),
        iters.iter().all(|i| i.digest == first.digest),
    ));
    checks.push((
        format!("the timed phase ran on at most nproc ({nproc}) threads"),
        iters.iter().all(|i| i.threads <= nproc),
    ));
    if w == Workload::Mesh2Cell {
        // The PDES byte-identity contract: 2 cells reproduce `World`.
        let world = mesh::run(mesh::setup_world(seed, &mut quiet), &mut quiet);
        checks.push((
            "mesh_2cell result digest equals mesh (World) digest".to_owned(),
            world.digest == first.digest,
        ));
    }
    if let Some((_, same)) = &probed {
        checks.push((
            "layer probe: mesh on 2 cells reproduces the World result digest".to_owned(),
            *same,
        ));
    }
    let correct = checks.iter().all(|c| c.1);
    let attempted: u64 = iters.iter().map(|i| i.attempted).sum();
    let failed: u64 = iters.iter().map(|i| i.failed).sum();
    let wall_s = median(&walls);
    let setup_s = median(&setups.iter().map(|s| s.0 / s.2).collect::<Vec<_>>());
    let build_s = median(&setups.iter().map(|s| s.1).collect::<Vec<_>>());
    // The same samples in host seconds as measured.
    let host_walls: Vec<f64> = iters.iter().map(|i| i.wall_s).collect();
    let host_setups: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let (tail_q, tail_label) = tail_quantile(first.lat_us.len());

    let metrics: Vec<(&str, f64, &str)> = if let Some((mut layers, _)) = probed {
        let advance = tracer.durations("advance", "advance");
        layers.push(("hybrid.advance_ms", median(&advance) * 1e3));
        layers.push(("core.build_s", build_s));
        let boots: Vec<f64> = iters.iter().map(|i| i.boot_s).collect();
        layers.push(("controller.boot_s", median(&boots)));
        layers.push(("trace.overhead_s", overhead_s));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers
                    .iter()
                    .chain(&first.layers)
                    .find(|l| l.0 == name)
                    .map_or(0.0, |l| l.1);
                (name, value, unit)
            })
            .collect()
    } else {
        let values = [
            wall_s,
            setup_s,
            stats::peak_rss_mb(),
            first.virtual_s,
            quantile(&first.lat_us, 0.5),
            quantile(&first.lat_us, tail_q),
            first.goodput_gbps,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };

    // The host descriptor and the human-readable summary.
    let threads = iters.iter().map(|i| i.threads).max().unwrap_or(1);
    let rustc = tool_line("rustc", &["-V"]);
    // Only the checkout's own repository, never one found above it.
    let git = if std::path::Path::new(".git").exists() {
        tool_line(
            "git",
            &["--git-dir", ".git", "rev-parse", "--short", "HEAD"],
        )
    } else {
        "unknown".to_owned()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host: nproc={nproc} rustc=\"{rustc}\" profile={profile} git={git} \
         engine_cells={} timed_threads={}",
        first.cells, threads
    );
    println!(
        "workload={} seed={seed} trace={} iterations={} setups={} result_digest={:016x} \
         lat_tail={tail_label} lat_samples={}",
        w.name(),
        u8::from(args.trace),
        iters.len(),
        setups.len(),
        first.digest,
        first.lat_us.len()
    );
    for (name, ok) in &checks {
        println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    let mut named = String::new();
    for (n, v, u) in &first.named {
        let _ = write!(named, " {n}={v} {u};");
    }
    println!("paper metrics:{named}");
    println!(
        "host seconds as measured: wall_s={} setup_s={}; host slowdown against the \
         reference host: median {} over the iterations",
        median(&host_walls),
        median(&host_setups),
        median(&slowdowns)
    );
    for (n, v, u) in &metrics {
        println!("  {n} = {v} {u}");
    }

    // The full record, and the Chrome trace of the traced run.
    let stem = format!(
        "{}/{}-seed{seed}-trace{}",
        args.out,
        w.name(),
        u8::from(args.trace)
    );
    let checks_json: Vec<String> = checks
        .iter()
        .map(|(n, ok)| format!("{{\"check\": {}, \"ok\": {ok}}}", json_str(n)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"iterations\": {}, \
         \"host\": {{\"nproc\": {nproc}, \"rustc\": {}, \"profile\": \"{profile}\", \"git\": {}, \
         \"engine_cells\": {}, \"timed_threads\": {}}}, \
         \"result_digest\": \"{:016x}\", \"correct\": {correct}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"checks\": [{}], \"paper_metrics\": {}, \"metrics\": {}, \
         \"host_wall_s_samples\": {:?}, \"slowdown_samples\": {:?}, \
         \"host_setup_s_samples\": {:?}, \"setup_slowdown_samples\": {:?}}}\n",
        json_str(w.name()),
        args.trace,
        iters.len(),
        json_str(&rustc),
        json_str(&git),
        first.cells,
        threads,
        first.digest,
        checks_json.join(", "),
        metrics_json(&first.named),
        metrics_json(&metrics),
        host_walls,
        slowdowns,
        host_setups,
        setups.iter().map(|s| s.2).collect::<Vec<_>>(),
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(format!("{stem}.json"), record))
        .and_then(|()| {
            if args.trace {
                std::fs::write(format!("{stem}.chrome.json"), tracer.to_chrome_json())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {stem}.*: {e}");
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
