//! Served-workload benchmark for the Dyn-FO serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload reach_a-rw --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run serves one workload over TCP from an in-process
//! `dynfo-net` server with the shipped defaults, drives it with one
//! closed-loop writer and one open-loop reader, gates the run on the
//! oracle and crash-recovery checks (and, on a traced run, replica
//! byte-equality), and prints every metric by name, unit and sample
//! count. The last stdout line is one JSON object: end-to-end metrics
//! with `--trace 0`, per-layer metrics (from a traced replay of the
//! recorded stream) with `--trace 1`. See `perfbench/README.md` for the workloads and the
//! layer → metric map.

mod live;
mod replay;
mod stats;
mod workload;

use live::{dir_bytes, Phase, Repeats};
use stats::{median_of, Samples};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups before the load, and again after the gates; `setup_s` is the
/// median of these and of one set-up between each pair of load slices.
const SETUPS: Repeats = Repeats {
    min: 3,
    max: 20,
    budget: 1.0,
};
/// Crash-and-reopen cycles per run; `e2e.recover_s` is their median.
const RECOVERIES: Repeats = Repeats {
    min: 5,
    max: 101,
    budget: 1.0,
};
/// Where runs keep their stores, span files and stamped results.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: time one crash recovery of the store under this run
    /// directory and exit (see `live::recover`).
    recover_once: Option<PathBuf>,
    /// With `--recover-once`: acknowledged writes, and the first oracle
    /// query's arguments and answer.
    acked: u64,
    first_args: Vec<u32>,
    first_want: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name);
    let num = |name: &str, v: Option<String>, default: u64| match v {
        Some(v) => v.parse::<u64>().map_err(|e| format!("{name} {v}: {e}")),
        None => Ok(default),
    };
    let args = Args {
        workload: take("--workload").ok_or("--workload is required")?,
        seed: num("--seed", take("--seed"), 1)?,
        seconds: num("--seconds", take("--seconds"), 10)?.max(1),
        trace: num("--trace", take("--trace"), 0)? != 0,
        recover_once: take("--recover-once").map(PathBuf::from),
        acked: num("--acked", take("--acked"), 0)?,
        first_args: take("--first-args")
            .unwrap_or_default()
            .split(',')
            .filter(|a| !a.is_empty())
            .map(|a| {
                a.parse::<u32>()
                    .map_err(|e| format!("--first-args {a}: {e}"))
            })
            .collect::<Result<_, _>>()?,
        first_want: num("--first-want", take("--first-want"), 0)? != 0,
    };
    match flags.keys().next() {
        Some(unknown) => Err(format!("unknown flag {unknown}")),
        None => Ok(args),
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count behind the value, or what it is derived from.
    basis: String,
}

fn pct_metric(name: &'static str, s: &mut Samples, q: f64, unit: &'static str) -> Metric {
    let n = s.len();
    match s.pct(q) {
        Some(v) => Metric {
            name,
            value: v,
            unit,
            basis: format!("n={n}"),
        },
        None => Metric {
            name,
            value: 0.0,
            unit,
            basis: format!("n/a (n={n}, too few samples beyond)"),
        },
    }
}

/// A per-slice latency statistic.
#[derive(Clone, Copy)]
enum Stat {
    /// Percentile, reported only with enough samples beyond it.
    Pct(f64),
    /// Arithmetic mean.
    Mean,
}

/// Median across load slices of a per-slice latency statistic, in µs.
fn slice_stat(
    name: &'static str,
    phases: &mut [Phase],
    pick: fn(&mut Phase) -> &mut Samples,
    stat: Stat,
) -> Metric {
    let mut per_slice = Vec::with_capacity(phases.len());
    let mut n = 0;
    for p in phases.iter_mut() {
        let s = pick(p);
        n += s.len();
        let v = match stat {
            Stat::Pct(q) => s.pct(q),
            Stat::Mean => s.mean(),
        };
        match v {
            Some(v) => per_slice.push(v),
            None => {
                return derived(
                    name,
                    0.0,
                    "us",
                    format!("n/a (a slice of n={} has too few samples)", s.len()),
                )
            }
        }
    }
    let what = match stat {
        Stat::Pct(q) => format!("p{:.0}s", q * 100.0),
        Stat::Mean => "means".to_string(),
    };
    derived(
        name,
        median_of(&per_slice),
        "us",
        format!("median of {} slice {what}, n={n}", per_slice.len()),
    )
}

fn derived(name: &'static str, value: f64, unit: &'static str, basis: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        basis: basis.into(),
    }
}

/// Host, build and input stamp printed with every result.
fn stamp(workload: &str, seed: u64, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"host_cores\":{cores},\
         \"simd_tier\":\"{}\",\"git_rev\":\"{}\"}}",
        trace as u8,
        dynfo_logic::simd::tier().name(),
        source_rev()
    )
}

/// The git revision, or — outside a git checkout — a hash of the
/// sources the benchmark was built from.
fn source_rev() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_rs(Path::new(dir), &mut files);
    }
    files.sort();
    // FNV-1a over every source path and its bytes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv-{h:016x}")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(p);
        }
    }
}

fn print_table<'a>(title: &str, metrics: impl IntoIterator<Item = &'a Metric>) {
    println!("{title}");
    println!("  {:<36} {:>16} {:<6} basis", "metric", "value", "unit");
    for m in metrics {
        println!(
            "  {:<36} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.basis
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload::find(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (have {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    if let Some(root) = &args.recover_once {
        let first = (args.first_args.clone(), args.first_want);
        return match live::reopen_once(root, &wl, &first, args.acked) {
            Ok((secs, _store, _session)) => {
                // Exiting without a clean shutdown is the next crash.
                println!("recover_s {secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let stamp = stamp(wl.name, args.seed, args.trace);
    println!("stamp {stamp}");
    let tag = format!("{}-{}-trace{}", wl.name, args.seed, args.trace as u8);
    let root = Path::new(OUT_DIR).join(format!("run-{tag}-{}", std::process::id()));
    let outcome = run(wl, &args, &root);
    let _ = std::fs::remove_dir_all(&root);
    match outcome {
        Ok(Report {
            metrics,
            attempted,
            failed,
        }) => {
            let line = json_line(true, attempted, failed, &metrics);
            let result = Path::new(OUT_DIR).join(format!("result-{tag}.json"));
            let _ = std::fs::write(
                &result,
                format!("{{\"stamp\": {stamp}, \"result\": {line}}}\n"),
            );
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: run failed its checks: {e}");
            println!("{}", json_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

/// One more timed set-up, in a directory of its own beside the served
/// (or crashed) store, torn down at once. A set-up is a few hundred
/// durable writes, and on a shared host it swings by a fifth from one
/// second to the next, so `setup_s` also takes set-ups between load
/// slices and after the gates: its median then spans the run's host
/// states instead of the second before the load.
fn side_setup(wl: workload::Workload, seed: u64, root: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let served = live::setup(wl, seed, &root.join("side-setup"))?;
    let secs = t0.elapsed().as_secs_f64();
    live::teardown(served)?;
    Ok(secs)
}

struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

fn run(wl: workload::Workload, args: &Args, root: &Path) -> Result<Report, String> {
    let epoch = Instant::now();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;

    // Set-up, several times from an empty directory: before the load,
    // where the last one is driven, between load slices and after the
    // gates (see `side_setup`).
    let mut setup_s = Vec::new();
    let mut served = None;
    while SETUPS.more(&setup_s) {
        if let Some(s) = served.take() {
            live::teardown(s)?;
        }
        let t0 = Instant::now();
        served = Some(live::setup(wl, args.seed, root)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut served = served.expect("at least one set-up");
    let live_from = served.writes.len();

    // The timed load, in slices: each slice starts fresh load-generator
    // threads, and each latency or rate figure is the median of its
    // per-slice values, so a short I/O stall on a shared host moves a
    // run's figures less than its duration. A traced run records
    // end-to-end spans on every other slice. All a traced slice adds is
    // pushing one span per request, so comparing the two kinds of slice
    // gives a noise floor for span recording, not the cost of the layer
    // replay (which runs after the load, off the clock).
    let slices = match wl.slice_s {
        0 => 1,
        s => (args.seconds / s).max(1),
    }
    .max(if args.trace { 2 } else { 1 }) as u32;
    let slice_len = Duration::from_secs(args.seconds) / slices;
    let mut phases = Vec::with_capacity(slices as usize);
    let mut untraced = Phase::default();
    let mut traced = Phase::default();
    let mut traced_from = None;
    for slice in 0..slices {
        let on = args.trace && slice % 2 == 0;
        if on && traced_from.is_none() {
            traced_from = Some(served.writes.len());
        }
        let p = live::drive(&mut served, slice_len, args.seed + slice as u64, on, epoch);
        if on {
            traced.absorb(p.clone());
        } else {
            untraced.absorb(p.clone());
        }
        phases.push(p);
        if slice + 1 < slices {
            setup_s.push(side_setup(wl, args.seed, root)?);
        }
    }
    let traced_spans = std::mem::take(&mut traced.spans);
    let mut all = untraced.clone();
    all.absorb(traced.clone());
    if let Some(e) = all.error.take() {
        return Err(e);
    }
    let live_end = served.writes.len();

    served.check()?;
    // Measured at the padded tail, so every run sits at the same phase
    // of the snapshot cadence.
    served.pad_to_recovery_tail()?;
    let acked = served.writes.len();
    let disk_bytes = dir_bytes(&live::primary_root(root));
    let disk_per_write = disk_bytes as f64 / acked as f64;
    let (stream, writes, reads) = served.crash()?;
    let recover_s = live::recover(root, &wl, &stream, writes.len() as u64, RECOVERIES)?;
    let mut late = Vec::new();
    while SETUPS.more(&late) {
        late.push(side_setup(wl, args.seed, root)?);
    }
    setup_s.extend(late);

    let attempted = all.writes_ok + all.reads_ok + all.failed;
    let failed_frac = all.failed as f64 / attempted.max(1) as f64;
    let e2e = vec![
        derived(
            "setup_s",
            median_of(&setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        ),
        derived(
            "write_rps",
            median_of(
                &phases
                    .iter()
                    .map(|p| p.writes_ok as f64 / p.elapsed_s)
                    .collect::<Vec<_>>(),
            ),
            "1/s",
            format!(
                "median of {} slices, {} writes in {:.3} s",
                phases.len(),
                all.writes_ok,
                all.elapsed_s
            ),
        ),
        slice_stat("del_mean_us", &mut phases, |p| &mut p.del_us, Stat::Mean),
        slice_stat(
            "del_p90_us",
            &mut phases,
            |p| &mut p.del_us,
            Stat::Pct(0.90),
        ),
        slice_stat(
            "read_p50_us",
            &mut phases,
            |p| &mut p.read_us,
            Stat::Pct(0.50),
        ),
        derived(
            "disk_bytes_per_write",
            disk_per_write,
            "bytes",
            format!("{disk_bytes} bytes / {acked} writes"),
        ),
    ];
    // Printed with the end-to-end figures but not part of that result:
    // on a shared host their run-to-run spread exceeds the end-to-end
    // bound (an insert on `reach_a-rw` is mostly its journal fsync), so
    // they are per-layer metrics. Failures travel as the result's
    // `failed`/`attempted`.
    let ungated = vec![
        slice_stat(
            "e2e.ins_mean_us",
            &mut phases,
            |p| &mut p.ins_us,
            Stat::Mean,
        ),
        slice_stat(
            "e2e.ins_p90_us",
            &mut phases,
            |p| &mut p.ins_us,
            Stat::Pct(0.90),
        ),
        derived(
            "e2e.recover_s",
            median_of(&recover_s),
            "s",
            format!("median of {} reopens in fresh processes", recover_s.len()),
        ),
    ];
    for m in e2e.iter().chain(&ungated).filter(|_| !args.trace) {
        if m.basis.starts_with("n/a") {
            return Err(format!("{} has too few samples: {}", m.name, m.basis));
        }
    }
    let failed_line = derived(
        "failed_frac",
        failed_frac,
        "frac",
        format!("{} of {attempted} requests failed or shed", all.failed),
    );
    print_table(
        &format!("end-to-end ({}, tracing off for the timed slices)", wl.name),
        e2e.iter().chain(&ungated).chain([&failed_line]),
    );

    if !args.trace {
        return Ok(Report {
            metrics: e2e,
            attempted,
            failed: all.failed,
        });
    }

    let recorded = replay::Recorded {
        wl,
        writes: &writes,
        reads: &reads,
        live_from,
        live_end,
        traced_from: traced_from.unwrap_or(live_from),
        root,
        epoch,
    };
    let mut layers = recorded.replay()?;
    // The span file holds the end-to-end spans of the replay window's
    // requests, beside every layer's spans for them.
    let window = recorded.window();
    let mut spans: Vec<live::Span> = traced_spans
        .into_iter()
        .filter(|s| match s.id {
            live::SpanId::Write(i) => window.contains(&i),
            live::SpanId::Read(r) => window.contains(&reads[r].after_writes),
        })
        .collect();
    spans.append(&mut layers.spans);
    // One span file per workload: the latest traced run overwrites it.
    let span_path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", wl.name));
    replay::write_spans(&span_path, &spans)?;
    let mut per_layer =
        per_layer_metrics(&mut all, &mut untraced, &mut traced, &mut layers, &spans);
    per_layer.extend(ungated);
    println!(
        "per-layer self time from {} spans in {}",
        spans.len(),
        span_path.display()
    );
    println!(
        "  {:<22} {:>8} {:>14} {:>14}",
        "layer", "spans", "p50 total us", "p50 self us"
    );
    for (layer, mut total, mut own) in replay::self_times(&spans) {
        let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.2}"));
        println!(
            "  {:<22} {:>8} {:>14} {:>14}",
            layer,
            total.len(),
            fmt(total.median()),
            fmt(own.median())
        );
    }
    print_table(&format!("per-layer ({})", wl.name), &per_layer);
    Ok(Report {
        metrics: per_layer,
        attempted,
        failed: all.failed,
    })
}

/// Per-request shares of a write's end-to-end time, for every traced
/// write that also has replayed `serve.apply` and `core.apply` spans.
/// Ratios are taken per request and then summarized: on REACH_u the
/// write latency has three modes, and a ratio of two separately taken
/// medians can land in different modes.
struct Shares {
    core: Samples,
    serve_net: Samples,
    unattributed: Samples,
}

fn write_shares(spans: &[live::Span], ping_us: f64) -> Shares {
    let mut by_write: std::collections::HashMap<usize, [Option<f64>; 3]> = Default::default();
    for s in spans {
        let live::SpanId::Write(i) = s.id else {
            continue;
        };
        let k = match s.layer {
            "e2e.write" => 0,
            "serve.apply" => 1,
            "core.apply" => 2,
            _ => continue,
        };
        by_write.entry(i).or_default()[k] = Some(s.dur_ns() as f64 / 1e3);
    }
    let mut out = Shares {
        core: Samples::new(),
        serve_net: Samples::new(),
        unattributed: Samples::new(),
    };
    for durs in by_write.values() {
        if let [Some(e2e), Some(serve), Some(core)] = *durs {
            out.core.push(core / e2e);
            out.serve_net.push((serve - core + ping_us) / e2e);
            out.unattributed.push(1.0 - (ping_us + serve) / e2e);
        }
    }
    out
}

fn per_layer_metrics(
    all: &mut Phase,
    untraced: &mut Phase,
    traced: &mut Phase,
    l: &mut replay::Layers,
    spans: &[live::Span],
) -> Vec<Metric> {
    let writes = l.core_writes.max(1) as f64;
    let per_write = |v: u64| v as f64 / writes;
    let basis_w = format!("per write, {} live writes", l.core_writes);
    let med = |s: &mut Samples| s.median().unwrap_or(0.0);
    let read_p50 = med(&mut all.read_us);
    let ping_p50 = med(&mut l.ping_us);
    let mut shares = write_shares(spans, ping_p50);
    let share = |name: &'static str, s: &mut Samples, what: &str| {
        derived(
            name,
            s.median().unwrap_or(0.0),
            "frac",
            format!("median over {} traced writes of {what}", s.len()),
        )
    };
    let idle_p50 = med(&mut l.read_idle_us);
    let plans = l.plan_compiled + l.plan_fallback;
    // Mean, not median: on REACH_u the write latency has three modes and
    // its median jumps between them.
    let mean = |s: &Samples| s.mean().unwrap_or(0.0);
    let overhead = mean(&traced.write_us) / mean(&untraced.write_us).max(f64::MIN_POSITIVE) - 1.0;
    vec![
        pct_metric("core.apply_p50_us", &mut l.core_apply_us, 0.50, "us"),
        pct_metric("core.apply_p90_us", &mut l.core_apply_us, 0.90, "us"),
        derived(
            "core.guarded_evals_per_write",
            per_write(l.guarded_evals),
            "count",
            basis_w.clone(),
        ),
        derived(
            "core.full_evals_per_write",
            per_write(l.full_evals),
            "count",
            basis_w.clone(),
        ),
        derived(
            "core.interp_rows_per_write",
            per_write(l.interp_rows),
            "count",
            basis_w.clone(),
        ),
        pct_metric("core.query_p50_us", &mut l.core_query_us, 0.50, "us"),
        derived(
            "logic.kernel_words_per_write",
            per_write(l.kernel_words),
            "count",
            basis_w.clone(),
        ),
        derived(
            "logic.plan_hit_frac",
            l.plan_compiled as f64 / plans.max(1) as f64,
            "frac",
            format!(
                "{} compiled / {plans} plan-eligible evaluations",
                l.plan_compiled
            ),
        ),
        pct_metric("serve.apply_p50_us", &mut l.serve_apply_us, 0.50, "us"),
        pct_metric("serve.apply_p90_us", &mut l.serve_apply_us, 0.90, "us"),
        pct_metric("serve.self_p50_us", &mut l.serve_self_us, 0.50, "us"),
        pct_metric(
            "serve.journal_append_p50_us",
            &mut l.journal_append_us,
            0.50,
            "us",
        ),
        derived(
            "serve.fsyncs_per_write",
            l.fsyncs_per_write,
            "count",
            format!("{} session writes", l.serve_apply_us.len()),
        ),
        derived(
            "serve.snapshot_ms",
            l.snapshot_ms,
            "ms",
            "median of 5 write_snapshot calls",
        ),
        derived(
            "serve.snapshot_bytes",
            l.snapshot_bytes as f64,
            "bytes",
            "live state at the end of the replay window",
        ),
        derived(
            "serve.lock_wait_p50_us",
            read_p50 - idle_p50,
            "us",
            format!("loaded read p50 {read_p50:.1} - idle read p50 {idle_p50:.1}"),
        ),
        derived(
            "serve.read_log_after_us",
            l.read_log_after_us,
            "us",
            "median of 200 calls 1 entry behind",
        ),
        derived(
            "serve.dir_files",
            l.dir_files as f64,
            "count",
            "primary session directory",
        ),
        derived(
            "serve.frames_decoded_per_shipped",
            l.decoded_per_shipped,
            "ratio",
            "read_log_after 1 entry behind",
        ),
        pct_metric("net.ping_p50_us", &mut l.ping_us, 0.50, "us"),
        pct_metric("net.read_idle_p50_us", &mut l.read_idle_us, 0.50, "us"),
        derived(
            "net.codec_ns_per_frame",
            l.codec_ns_per_frame,
            "ns",
            "every recorded frame + reply",
        ),
        share(
            "net.unattributed_frac",
            &mut shares.unattributed,
            "1 - (net.ping p50 + serve.apply) / e2e.write",
        ),
        share(
            "core.apply_share_of_write",
            &mut shares.core,
            "core.apply / e2e.write",
        ),
        share(
            "serve_net.share_of_write",
            &mut shares.serve_net,
            "(serve.apply - core.apply + net.ping p50) / e2e.write",
        ),
        pct_metric("replica.fetch_p50_us", &mut l.fetch_us, 0.50, "us"),
        pct_metric("replica.apply_p50_us", &mut l.replica_apply_us, 0.50, "us"),
        pct_metric("e2e.read_p90_us", &mut all.read_us, 0.90, "us"),
        pct_metric(
            "loadgen.read_late_p90_us",
            &mut all.read_late_us,
            0.90,
            "us",
        ),
        derived(
            "trace.overhead_frac",
            overhead,
            "frac",
            format!(
                "traced slices' mean write latency / untraced - 1 ({} vs {} writes): \
                 a noise floor for span recording",
                traced.write_us.len(),
                untraced.write_us.len()
            ),
        ),
    ]
}
