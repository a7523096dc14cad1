//! The repository's benchmark: runs one named workload of the ZCover
//! reproduction for a fixed wall time, checks its outputs, and prints its
//! end-to-end metrics (or, with `--trace 1`, its per-layer metrics) as a
//! JSON object on the last line of stdout. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_mesh --seed 1 --seconds 30 --trace 0
//! ```

#![forbid(unsafe_code)]

mod spans;
mod stats;
mod workloads;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use spans::{Spans, CAMPAIGN, PHASES, TRACE_PHASES};
use stats::{median, percentile, Metric, Tally};
use workloads::{op_index, OpResult, Runner, Workload};

const USAGE: &str =
    "usage: perfbench --workload sweep_mesh|campaign_star|replay_coverage --seed N \
     --seconds S --trace 0|1";

/// Set-up repetitions per run, spread evenly over the timed loop so that
/// they sample the host as the operations do; `setup_s` is their median.
const SETUP_PROBES: usize = 9;

/// Untimed operations each client runs before its timed loop, so that
/// timing starts with the CPUs busy and the caches warm: on the host this
/// was tuned on, the first seconds of work after an idle spell ran up to a
/// third slower than the rest.
const WARM_UP: Duration = Duration::from_secs(2);

/// First index of the warm-up operations, apart from the timed ones.
const WARM_UP_FIRST: u64 = 1 << 31;

/// A run that has not reached its sample floor by then stops anyway and
/// fails the gate, so it still ends well inside three minutes.
const HARD_CAP: Duration = Duration::from_secs(150);

/// Where a traced run writes its spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("campaigns_per_s", "1/s"),
    ("packets_per_s", "1/s"),
    ("campaign_ms_p50", "ms"),
    ("campaign_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up (registry init and the canary warm-up), print
    /// `ready` and exit. The parent times this to measure `setup_s`.
    setup_probe: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + 1).map(String::as_str)
    };
    let workload = value("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let setup_probe = args.iter().any(|a| a == "--setup-probe");
    if setup_probe {
        return Ok(Args { workload, seed: 0, seconds: 0.0, trace: false, setup_probe });
    }
    let seed = value("--seed").and_then(|s| s.parse().ok()).ok_or("--seed needs an integer")?;
    let seconds = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 120.0)
        .ok_or("--seconds needs a number in (0, 120]")?;
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace, setup_probe })
}

fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs the set-up probe in a fresh process and returns the seconds from
/// spawn until it reported `ready`.
fn time_setup(workload: Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let mut child = Command::new(&exe)
        .args(["--setup-probe", "--workload", workload.name()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    let read = BufReader::new(stdout).read_line(&mut line);
    let secs = started.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("wait for set-up probe: {e}"))?;
    match (read, status.success(), line.trim()) {
        (Ok(_), true, "ready") => Ok(secs),
        _ => Err(format!("set-up probe failed ({status})")),
    }
}

/// Registry init plus the canary warm-up: everything before the first
/// timed operation.
fn set_up(runner: &Runner) -> Result<(), String> {
    zwave_protocol::Registry::global();
    runner.canary()
}

struct Report {
    tally: Tally,
    failures: Vec<String>,
    table3_misses: Vec<String>,
    violations: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// Runs `client` for each of `clients` clients and returns their results
/// in client order. Client 0 runs on the calling thread, so that a lone
/// client allocates from the main malloc arena as the program's CLI does;
/// a spawned thread's arena returns less memory, and raised the peak RSS
/// of `replay_coverage` from about 21 to 25–30 MiB.
fn on_clients<T: Send>(clients: u64, client: impl Fn(u64) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..clients)
            .map(|c| {
                let client = &client;
                scope.spawn(move || client(c))
            })
            .collect();
        let first = client(0);
        std::iter::once(first)
            .chain(others.into_iter().map(|h| h.join().expect("client thread")))
            .collect()
    })
}

/// What one client thread of the untraced run measured.
#[derive(Default)]
struct ClientRun {
    total: OpResult,
    /// Finished operations and fuzz packets per wall second, per block.
    op_rates: Vec<f64>,
    packet_rates: Vec<f64>,
    /// Operations run, and wall seconds spent in blocks.
    ops: u64,
    timed_s: f64,
    setup: Vec<f64>,
    errors: Vec<String>,
}

/// One client's closed loop: blocks of [`Workload::block_ops`] operations
/// until it has spent `--seconds` in blocks and the run has the samples
/// p90 needs. Client 0 also runs the set-up probes, spread evenly over its
/// loop and outside its block times.
fn client_loop(
    runner: &Runner,
    args: &Args,
    client: u64,
    started: Instant,
    samples: &AtomicUsize,
) -> ClientRun {
    let floor = stats::min_samples(90.0);
    let probes = if client == 0 { SETUP_PROBES } else { 0 };
    let mut run = ClientRun::default();
    // The warm-up belongs to the set-up: anything wrong in it fails the gate.
    let warm_started = Instant::now();
    for k in WARM_UP_FIRST.. {
        if warm_started.elapsed() >= WARM_UP {
            break;
        }
        let mut warm = runner.op(args.seed, op_index(client, k), None);
        run.errors.append(&mut warm.failures);
        run.errors.append(&mut warm.violations);
    }
    let (mut probed, mut k) = (0, 0);
    loop {
        if probed < probes && run.timed_s >= args.seconds * probed as f64 / probes as f64 {
            probed += 1;
            match time_setup(args.workload) {
                Ok(secs) => run.setup.push(secs),
                Err(e) => run.errors.push(e),
            }
            continue;
        }
        if run.timed_s >= args.seconds && samples.load(Ordering::Relaxed) >= floor {
            break;
        }
        if started.elapsed() >= HARD_CAP {
            run.errors.push(format!("fewer than {floor} timed samples after {HARD_CAP:?}"));
            break;
        }
        let block_started = Instant::now();
        let mut block = OpResult::default();
        for _ in 0..args.workload.block_ops() {
            block.absorb(runner.op(args.seed, op_index(client, k), None));
            k += 1;
        }
        let wall = block_started.elapsed().as_secs_f64();
        run.ops = k;
        run.timed_s += wall;
        samples.fetch_add(block.latencies_ms.len(), Ordering::Relaxed);
        run.op_rates.push(block.tally.finished() as f64 / wall);
        run.packet_rates.push(block.packets as f64 / wall);
        run.total.absorb(block);
    }
    run
}

/// The untraced run: [`Runner::clients`] closed loops, each timed in
/// blocks. A client's rate is the median of its block rates, so a stretch
/// in which the shared host runs slow moves it only if it covers half the
/// run; the reported rates are the sums over clients.
fn timed_run(runner: &Runner, args: &Args) -> Report {
    let mut violations = Vec::new();
    if let Err(e) = set_up(runner) {
        violations.push(e);
    }
    let samples = AtomicUsize::new(0);
    let started = Instant::now();
    let runs =
        on_clients(runner.clients(), |client| client_loop(runner, args, client, started, &samples));
    let wall = started.elapsed().as_secs_f64();

    let mut total = OpResult::default();
    let (mut op_rate, mut packet_rate) = (0.0, 0.0);
    let mut setup = Vec::new();
    let (mut ops, mut blocks) = (0, 0);
    for mut run in runs {
        ops += run.ops;
        op_rate += median(&run.op_rates);
        packet_rate += median(&run.packet_rates);
        blocks += run.op_rates.len();
        setup.append(&mut run.setup);
        violations.append(&mut run.errors);
        total.absorb(run.total);
    }
    violations.append(&mut total.violations);

    let samples = total.latencies_ms.len();
    let p50 = percentile(&total.latencies_ms, 50.0);
    let p90 = percentile(&total.latencies_ms, 90.0);
    let values = [
        op_rate,
        packet_rate,
        p50.unwrap_or(0.0),
        p90.unwrap_or(0.0),
        median(&setup),
        peak_rss_mib().unwrap_or(0.0),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();
    let sample_kind = match args.workload {
        Workload::SweepMesh => "shards (shard wall time / homes in shard)",
        _ => "campaigns",
    };
    let mut notes = vec![
        format!(
            "{ops} operation(s) in {blocks} block(s) on {} client(s) after a {WARM_UP:?} \
             warm-up, {wall:.3} s of wall time in all; rates are per-client medians over \
             blocks, summed",
            runner.clients()
        ),
        format!("campaign_ms percentiles over {samples} {sample_kind}"),
        format!(
            "failed_share {} ratio ({} failed of {} attempted)",
            total.tally.failed_share(),
            total.tally.failed,
            total.tally.attempted
        ),
        format!("setup_s median of {} set-up probes: {setup:.4?}", setup.len()),
    ];
    if args.workload == Workload::CampaignStar {
        notes.push(format!(
            "table3: {} of {} seeded D1 campaigns missed a Table III bug (not gated; seeds on \
             stderr)",
            total.table3_misses.len(),
            total.d1_campaigns
        ));
    }
    Report {
        tally: total.tally,
        failures: total.failures,
        table3_misses: total.table3_misses,
        violations,
        metrics,
        notes,
    }
}

/// Runs operations `0..per_client` of every client, traced into `spans`
/// or untraced, and merges the results in client order.
fn fixed_ops(
    runner: &Runner,
    seed: u64,
    per_client: u64,
    spans: Option<&mut Spans>,
) -> (OpResult, f64) {
    let started = Instant::now();
    let epoch = spans.as_ref().map(|s| s.epoch());
    let runs = on_clients(runner.clients(), |client| {
        let mut own = epoch.map(Spans::new);
        let mut out = OpResult::default();
        for k in 0..per_client {
            out.absorb(runner.op(seed, op_index(client, k), own.as_mut()));
        }
        (out, own)
    });
    let wall = started.elapsed().as_secs_f64();
    let mut total = OpResult::default();
    let mut spans = spans;
    for (out, own) in runs {
        total.absorb(out);
        if let (Some(spans), Some(own)) = (spans.as_deref_mut(), own) {
            spans.absorb(own);
        }
    }
    (total, wall)
}

/// The traced run: a fixed number of operations, run once untraced and
/// once re-driven through public calls with a span per phase, on the same
/// clients. The two passes must agree on every deterministic output.
fn traced_run(runner: &Runner, args: &Args) -> Report {
    let mut violations = Vec::new();
    if let Err(e) = set_up(runner) {
        violations.push(e);
    }
    let per_client =
        (args.seconds / 2.0 * args.workload.nominal_ops_per_s()).ceil().max(1.0) as u64;

    let (plain, plain_s) = fixed_ops(runner, args.seed, per_client, None);
    let mut spans = Spans::new(Instant::now());
    let (mut traced, traced_s) = fixed_ops(runner, args.seed, per_client, Some(&mut spans));

    if traced.digest != plain.digest {
        let first = plain.digest.lines().zip(traced.digest.lines()).find(|(a, b)| a != b);
        violations.push(format!("traced run's outputs differ from the untraced run's: {first:?}"));
    }
    violations.append(&mut traced.violations);

    let path = PathBuf::from(SPAN_DIR).join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = spans.write_jsonl(&path) {
        violations.push(format!("writing {}: {e}", path.display()));
    }
    let notes = vec![
        format!(
            "{per_client} operation(s) on each of {} client(s): untraced {plain_s:.3} s, \
             traced {traced_s:.3} s",
            runner.clients()
        ),
        format!("{} spans written to {}", spans.spans.len(), path.display()),
    ];
    let metrics = layer_metrics(runner, &plain, plain_s, &traced, traced_s, &spans);
    Report {
        tally: traced.tally,
        failures: traced.failures,
        table3_misses: traced.table3_misses,
        violations,
        metrics,
        notes,
    }
}

fn layer_metrics(
    runner: &Runner,
    plain: &OpResult,
    plain_s: f64,
    traced: &OpResult,
    traced_s: f64,
    spans: &Spans,
) -> Vec<Metric> {
    let busy = spans.busy_ns();
    let busy_ns = |name: &str| busy.get(name).copied().unwrap_or(0) as f64;
    let campaigns = spans.spans.iter().filter(|s| s.name == CAMPAIGN).count().max(1) as f64;
    let thread_ns = runner.workers() as f64 * traced_s * 1e9;
    let counts = &traced.counts;
    let count = |name: &str| counts.get(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut m = Vec::new();
    for phase in PHASES {
        let ns = busy_ns(phase);
        m.push(Metric::new(format!("{phase}_ms"), ns / 1e6, "ms"));
        m.push(Metric::new(format!("{phase}_share"), ratio(ns, thread_ns), "ratio"));
        m.push(Metric::new(format!("{phase}_ms_per_op"), ns / 1e6 / campaigns, "ms"));
    }
    let packets = count("fuzzer.packets");
    m.push(Metric::new("fuzzer.ns_per_packet", ratio(busy_ns("fuzzer.run"), packets), "ns"));
    for phase in TRACE_PHASES {
        m.push(Metric::new(format!("{phase}_ms"), busy_ns(phase) / 1e6, "ms"));
    }
    m.push(Metric::new("trace.events", count("trace.events"), "count"));
    let bytes_per_event = ratio(count("trace_format.bytes"), count("trace.events"));
    m.push(Metric::new("trace_format.bytes_per_event", bytes_per_event, "bytes"));

    // Executor, from the untraced pass's `SweepTiming`s.
    let shard_s = &plain.shard_s;
    let shard_total: f64 = shard_s.iter().sum();
    let workers = runner.executor.workers() as f64;
    m.push(Metric::new(
        "executor.busy_share",
        ratio(shard_total, workers * plain.sweep_s),
        "ratio",
    ));
    let longest = shard_s.iter().copied().fold(0.0, f64::max);
    m.push(Metric::new("executor.shard_skew", ratio(longest, median(shard_s)), "ratio"));

    let frames = count("medium.frames");
    for name in ["medium.frames", "medium.deliveries"] {
        m.push(Metric::new(name, count(name), "count"));
    }
    m.push(Metric::new(
        "medium.deliveries_per_frame",
        ratio(count("medium.deliveries"), frames),
        "ratio",
    ));
    m.push(Metric::new("medium.frames_per_packet", ratio(frames, packets), "ratio"));
    for name in [
        "medium.losses",
        "medium.corruptions",
        "medium.rx_overflows",
        "sched.events",
        "sched.peak_pending",
        "sched.cancelled",
    ] {
        m.push(Metric::new(name, count(name), "count"));
    }
    let host_ns = ratio(busy_ns(CAMPAIGN), count("sched.events"));
    m.push(Metric::new("sched.host_ns_per_event", host_ns, "ns"));
    for name in [
        "controller.frames_seen",
        "controller.apl_processed",
        "controller.apl_ignored",
        "controller.mac_rejected",
        "link.retransmissions",
        "link.ack_timeouts",
        "link.duplicates_suppressed",
        "fuzzer.packets",
        "fuzzer.plans",
        "fuzzer.outages",
        "fuzzer.findings",
        "corpus.retained",
        "corpus.edges_seen",
    ] {
        m.push(Metric::new(name, count(name), "count"));
    }

    let phase_ns: f64 = PHASES.iter().chain(&TRACE_PHASES).map(|p| busy_ns(p)).sum();
    let campaign_ns = busy_ns(CAMPAIGN);
    m.push(Metric::new(
        "spans.unaccounted_share",
        ratio(campaign_ns - phase_ns, campaign_ns),
        "ratio",
    ));
    m.push(Metric::new("spans.count", spans.spans.len() as f64, "count"));
    m.push(Metric::new("tracing.overhead_ms", (traced_s - plain_s) * 1e3, "ms"));
    m.push(Metric::new("tracing.overhead_share", ratio(traced_s - plain_s, plain_s), "ratio"));
    m.push(Metric::new("host.cpu_count", cpu_count() as f64, "count"));
    m
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let runner = Runner::new(args.workload, cpu_count());
    if args.setup_probe {
        return match set_up(&runner) {
            Ok(()) => {
                println!("ready");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let report = if args.trace { traced_run(&runner, &args) } else { timed_run(&runner, &args) };
    println!(
        "perfbench {} seed {} trace {}: cpu_count {}, workers {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        cpu_count(),
        runner.workers()
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("perfbench: failed operation: {f}");
    }
    for m in &report.table3_misses {
        eprintln!("perfbench: known-answer miss (not gated): {m}");
    }
    for v in &report.violations {
        eprintln!("perfbench: correctness gate: {v}");
    }
    let correct = report.violations.is_empty();
    println!("{}", stats::result_line(correct, report.tally, &report.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&argv("--workload campaign_star --seed 7 --seconds 30 --trace 1"));
        assert_eq!(
            args,
            Ok(Args {
                workload: Workload::CampaignStar,
                seed: 7,
                seconds: 30.0,
                trace: true,
                setup_probe: false
            })
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload sweep_mesh --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload sweep_mesh --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload sweep_mesh --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn every_declared_name_is_valid_and_listed_in_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in END_TO_END {
            assert!(stats::valid_name(name) && stats::valid_unit(unit));
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        let empty = OpResult::default();
        let runner = Runner::new(Workload::SweepMesh, 1);
        let spans = Spans::new(Instant::now());
        let per_layer = layer_metrics(&runner, &empty, 1.0, &empty, 1.0, &spans);
        let listed = json.split("\"per_layer\"").nth(1).expect("per_layer list");
        for m in &per_layer {
            assert!(listed.contains(&format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit)));
        }
        assert_eq!(listed.matches("\"name\"").count(), per_layer.len());
        for w in Workload::ALL {
            assert!(stats::valid_name(w.name()));
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
        }
    }
}
