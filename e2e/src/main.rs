//! `e2e` — one two-clock, layer-attributed end-to-end benchmark.
//!
//! Closed loop, one client: a run stages its dataset (`setup_s`), then
//! executes a fixed number of sequential passes of one pipeline, each on a
//! fresh simulated cluster, and reports simulated seconds and host
//! wall-clock for the same work. `--trace 1` adds one traced pass and a
//! kernel replay that attribute both clocks to layers. See `README.md`.
//!
//! ```text
//! e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--record FILE]
//! e2e --all [--seed N] [--seconds S] [--record FILE]
//! e2e --compare BASE.jsonl CHANGE.jsonl
//! e2e --list
//! ```

mod layers;
mod oracle;
mod replay;
mod report;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use mapreduce::Counters;

use oracle::{digest, read_output, Expected};
use report::{
    iqr, median, metrics_json, percentile_with_tail, Json, MetricDef, Values, END_TO_END, PER_LAYER,
};
use trace::Recorder;
use workloads::{chaos_plan, Kind, PassEnv, PassOutcome, Staged, Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    all: bool,
    list: bool,
    record: Option<String>,
    compare: Option<(String, String)>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            all: false,
            list: false,
            record: None,
            compare: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--record" => a.record = Some(value("a file")?),
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            "--quick" => a.quick = true,
            "--all" => a.all = true,
            "--list" => a.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Preconditions recorded with every result: numbers from a different
/// core count, thread count, compiler or profile are not comparable.
struct Preconditions {
    nproc: usize,
    threads: usize,
    rustc: String,
    profile: &'static str,
}

fn preconditions() -> Preconditions {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Preconditions {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: scifmt::par::default_threads(),
        rustc,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    }
}

/// `VmHWM` of this process in MiB (Linux; 0 where `/proc` has no such line).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pass bookkeeping: every pass is attempted, verified, and counted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Output digest and simulated makespan of the first verified pass;
    /// every later pass must reproduce both.
    first: Option<(u64, f64)>,
}

impl Tally {
    fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(format!("{what}: {why}"));
        }
    }
}

struct Run<'a> {
    w: &'static Workload,
    staged: &'a Staged,
    env: PassEnv,
    expected: Option<Expected>,
    tally: Tally,
}

impl Run<'_> {
    /// One untraced pass: timed around fresh cluster + pipeline, then
    /// (untimed) read back, checked by the oracle and compared with the
    /// first pass. `compare_first` is off for passes that legitimately
    /// differ (reference runs, the cache-filling passes of the warm run).
    fn pass(&mut self, what: &str, compare_first: bool) -> Option<(f64, PassOutcome)> {
        self.tally.attempted += 1;
        let t0 = Instant::now();
        let cluster = self.w.pass_cluster(self.staged, &mut self.env);
        let (cluster, outcome) = self.w.run_pass(self.staged, cluster, None);
        let host_s = t0.elapsed().as_secs_f64();
        let verdict = outcome.and_then(|o| {
            let output = read_output(&cluster, self.w.output_dir())?;
            self.verify(&o, &output, compare_first)?;
            Ok(o)
        });
        if self.w.kind == Kind::ScanStatsWarm {
            self.env.warm_cluster = Some(cluster);
        }
        match verdict {
            Ok(o) => Some((host_s, o)),
            Err(e) => {
                self.tally.fail(what, e);
                None
            }
        }
    }

    /// Work out what a correct pass must produce. Two workloads need a
    /// reference pass for that: `sql_pushdown` (one pushdown-off run;
    /// pushdown must not change a byte) and `nuwrf_img_chaos` (one clean
    /// run, checked like `nuwrf_img`, which also places the fault plan
    /// relative to the clean makespan).
    fn prepare_oracle(&mut self, seed: u64) -> Result<(), String> {
        let (w, staged) = (self.w, self.staged);
        self.expected = Expected::from_dataset(w, staged)?;
        match w.kind {
            Kind::SqlPushdown => {
                self.tally.attempted += 1;
                let mut cluster = w.fresh_cluster(staged);
                scidp::run_sql_scan(&mut cluster, &staged.input, &w.sql_config(staged, false))
                    .map_err(|e| e.to_string())?;
                let output = read_output(&cluster, w.output_dir())?;
                self.expected = Some(Expected::SameAs(output));
            }
            Kind::NuwrfImgChaos => {
                self.tally.attempted += 1;
                let clean = workloads::find("nuwrf_img").ok_or("no nuwrf_img workload")?;
                let (cluster, outcome) = w.run_pass(staged, w.fresh_cluster(staged), None);
                let outcome = outcome?;
                let output = read_output(&cluster, w.output_dir())?;
                if let Some(expected) = Expected::from_dataset(clean, staged)? {
                    expected.check(&output)?;
                }
                self.env.plan = Some(chaos_plan(
                    staged,
                    seed,
                    outcome.sim_setup_s,
                    outcome.sim_job_s,
                ));
                self.expected = Some(Expected::SameAs(output));
            }
            _ => {}
        }
        Ok(())
    }

    fn verify(
        &mut self,
        outcome: &PassOutcome,
        output: &oracle::Output,
        compare_first: bool,
    ) -> Result<(), String> {
        let d = digest(output);
        match self.tally.first {
            Some((first, sim)) if compare_first => {
                if d != first {
                    return Err("output differs from the first pass of this run".into());
                }
                // Equal up to the rounding of `end - start` on a cluster
                // whose clock keeps running (the warm workload).
                if (outcome.sim_makespan_s() - sim).abs() > 1e-9 * sim {
                    return Err(format!(
                        "simulated makespan {} differs from the first pass's {sim}",
                        outcome.sim_makespan_s()
                    ));
                }
                Ok(())
            }
            // The first pass (and any pass exempt from the comparison) is
            // checked against the oracle itself.
            _ => {
                if let Some(expected) = &self.expected {
                    expected.check(output)?;
                }
                if compare_first {
                    self.tally.first = Some((d, outcome.sim_makespan_s()));
                    // Later passes are held to this pass; a reference
                    // output kept alive would only inflate peak_rss_mib.
                    self.expected = None;
                }
                Ok(())
            }
        }
    }
}

/// Everything one workload run produced.
struct RunResult {
    e2e: Values,
    layer: Option<Values>,
    tally: Tally,
    /// Host seconds of every verified timed pass, in run order.
    host_samples: Vec<f64>,
}

fn run_workload(w: &'static Workload, args: &Args) -> RunResult {
    let mut e2e = Values::default();

    // --- set-up: generate + stage, several times; the median is setup_s ---
    let reps = if args.quick { 1 } else { w.setup_reps };
    let mut setup_samples = Vec::with_capacity(reps);
    let mut staged = None;
    for _ in 0..reps {
        drop(staged.take()); // free the previous copy before building the next
        let t0 = Instant::now();
        let s = w.stage(args.seed, args.quick);
        setup_samples.push(t0.elapsed().as_secs_f64());
        staged = Some(s);
    }
    let staged = staged.expect("at least one staging");
    e2e.set("setup_s", median(&setup_samples));
    println!(
        "  dataset: {} files, {:.1} MiB raw, {:.1} MiB stored; setup_s median of {reps}",
        staged.files.len(),
        staged.raw_bytes as f64 / (1 << 20) as f64,
        staged.stored_bytes as f64 / (1 << 20) as f64,
    );

    let mut run = Run {
        w,
        staged: &staged,
        env: PassEnv {
            warm_cluster: None,
            plan: None,
        },
        expected: None,
        tally: Tally::default(),
    };
    // --- oracles and reference passes (untimed) ---
    if let Err(why) = run.prepare_oracle(args.seed) {
        run.tally.attempted = run.tally.attempted.max(1);
        run.tally.fail("oracle", why);
        return RunResult {
            e2e,
            layer: None,
            tally: run.tally,
            host_samples: Vec::new(),
        };
    }

    // --- warm-up passes (untimed). On the warm workload these are the
    // cold and the first-warm pass; they fill the cluster cache and are
    // exempt from the same-as-first comparison.
    let warm = w.kind == Kind::ScanStatsWarm;
    let mut cold_pass_sim_s = 0.0;
    for i in 0..w.warmups {
        if let Some((_, o)) = run.pass("warm-up pass", !warm) {
            if i == 0 {
                cold_pass_sim_s = o.sim_makespan_s();
            }
        }
    }

    // --- timed passes, tracing off ---
    let n = w.timed_passes(args.seconds, args.quick);
    let mut host = Vec::with_capacity(n);
    let mut last: Option<PassOutcome> = None;
    for _ in 0..n {
        if let Some((host_s, o)) = run.pass("timed pass", true) {
            host.push(host_s);
            last = Some(o);
        }
    }
    e2e.set("peak_rss_mib", peak_rss_mib());
    e2e.set("host_pass_s", median(&host));
    if let Some(o) = &last {
        e2e.set("sim_makespan_s", o.sim_makespan_s());
    }

    // --- traced pass + kernel replay ---
    let layer = match (&last, args.trace) {
        (Some(reference), true) => {
            let mut m = Values::default();
            m.set("scidp.cold_pass_sim_s", cold_pass_sim_s);
            m.set("bench.host_pass_iqr_s", iqr(&host));
            m.set(
                "bench.host_pass_p75_s",
                percentile_with_tail(&host, 75.0).unwrap_or(0.0),
            );
            run.tally.attempted += 1;
            match traced_pass(&mut run, reference, median(&host), &mut m) {
                Ok(()) => Some(m),
                Err(e) => {
                    run.tally.fail("traced pass", e);
                    None
                }
            }
        }
        _ => None,
    };

    RunResult {
        e2e,
        layer,
        tally: run.tally,
        host_samples: host,
    }
}

/// Counters that legitimately differ between two passes of one commit:
/// real host seconds spent in the codec.
const HOST_TIME_COUNTERS: [&str; 1] = [mapreduce::counter_keys::CODEC_DECODE_S];

fn counters_equal(traced: &Counters, reference: &Counters) -> Result<(), String> {
    for (k, v) in traced.iter() {
        if !HOST_TIME_COUNTERS.contains(&k) && reference.get(k) != v {
            return Err(format!(
                "traced pass counter {k} = {v}, untraced passes counted {}",
                reference.get(k)
            ));
        }
    }
    Ok(())
}

fn traced_pass(
    run: &mut Run,
    reference: &PassOutcome,
    untraced_median_s: f64,
    m: &mut Values,
) -> Result<(), String> {
    let w = run.w;
    let rec = Recorder::shared();
    let t0 = Instant::now();
    let cluster = w.pass_cluster(run.staged, &mut run.env);
    let slots = cluster.topo.spec.total_slots();
    let (cluster, traced) = w.run_pass(run.staged, cluster, Some(&rec));
    let traced_s = t0.elapsed().as_secs_f64();
    let traced = traced?;
    // The traced pass is only a measurement of the program if it *is* the
    // program: same bytes out, same simulated time, same counters.
    let output = read_output(&cluster, w.output_dir())?;
    run.verify(&traced, &output, true)?;
    counters_equal(&traced.counters, &reference.counters)?;
    drop((cluster, output));

    let replayed = replay::replay(w, run.staged, &reference.counters, reference.images)?;
    for (name, v) in &replayed.0 {
        m.set(name, *v);
    }
    layers::count_metrics(&reference.counters, m);
    let rec = rec.borrow();
    // Phase sums of a classic job come from the last timed pass's task
    // reports; a DAG's come from what the traced pass's decorators saw.
    let sim_table = layers::sim_metrics(reference, &rec, slots, m);
    let host_table = layers::host_metrics(w.kind, &rec, traced.events, m);
    m.set("bench.trace_overhead_ratio", traced_s / untraced_median_s);

    println!("\n{}", sim_table.render());
    println!("{}", host_table.render());
    println!(
        "span self time (host clock, traced pass {:.4} s):",
        traced_s
    );
    for (name, secs) in rec.self_times() {
        println!("  {name:<34} {secs:>12.4}");
    }
    let dir = std::path::Path::new("target").join("e2e");
    let path = dir.join(format!("{}.trace.json", w.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.chrome_trace()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  {} spans written to {}", rec.spans.len(), path.display());
    Ok(())
}

fn print_metrics(defs: &[MetricDef], values: &Values, samples: usize) {
    for d in defs {
        let note = if d.name == "host_pass_s" {
            format!("  (median of {samples} passes)")
        } else {
            String::new()
        };
        println!(
            "  {:<34} {:>16.6} {:<6} [{}, {} is better]{note}",
            d.name,
            values.get(d.name),
            d.unit,
            d.clock.tag(),
            d.better.tag()
        );
    }
}

fn run_one(w: &'static Workload, args: &Args) -> ExitCode {
    let pre = preconditions();
    if pre.profile != "release" && !args.quick {
        eprintln!(
            "e2e: refusing to measure a {} build; use --release",
            pre.profile
        );
        return ExitCode::from(2);
    }
    println!(
        "e2e workload {} seed {} seconds {} trace {} quick {}",
        w.name, args.seed, args.seconds, args.trace as u8, args.quick
    );
    println!(
        "  preconditions: nproc {} threads {} profile {} {}",
        pre.nproc, pre.threads, pre.profile, pre.rustc
    );
    println!("  why: {}", w.why);
    let res = run_workload(w, args);
    println!("end-to-end:");
    let samples = res.host_samples.len();
    print_metrics(&END_TO_END, &res.e2e, samples);
    println!(
        "  {:<34} {:>16.6} {:<6} [count] ({} of {} passes failed)",
        "fail_share",
        res.tally.failed as f64 / res.tally.attempted.max(1) as f64,
        "ratio",
        res.tally.failed,
        res.tally.attempted
    );
    if let Some(layer) = &res.layer {
        println!("per-layer:");
        print_metrics(&PER_LAYER, layer, samples);
    }
    for e in &res.tally.errors {
        println!("FAILED {e}");
    }
    let correct = res.tally.failed == 0 && samples > 0;
    if let Some(path) = &args.record {
        let mut rec = vec![
            ("workload".to_string(), Json::Str(w.name.into())),
            ("seed".into(), Json::Num(args.seed as f64)),
            ("seconds".into(), Json::Num(args.seconds as f64)),
            ("nproc".into(), Json::Num(pre.nproc as f64)),
            ("threads".into(), Json::Num(pre.threads as f64)),
            ("rustc".into(), Json::Str(pre.rustc.clone())),
            ("profile".into(), Json::Str(pre.profile.into())),
            (
                "host_pass_samples_s".into(),
                Json::Arr(res.host_samples.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("attempted".into(), Json::Num(res.tally.attempted as f64)),
            ("failed".into(), Json::Num(res.tally.failed as f64)),
            ("end_to_end".into(), metrics_json(&END_TO_END, &res.e2e)),
        ];
        if let Some(layer) = &res.layer {
            rec.push(("per_layer".into(), metrics_json(&PER_LAYER, layer)));
        }
        let line = Json::Obj(rec).render();
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("e2e: cannot record to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    // The result line: end-to-end metrics with tracing off, per-layer
    // metrics from the traced run.
    let metrics = match &res.layer {
        Some(layer) if args.trace => metrics_json(&PER_LAYER, layer),
        _ if args.trace => {
            eprintln!("e2e: the traced pass failed, no per-layer metrics");
            return ExitCode::from(1);
        }
        _ => metrics_json(&END_TO_END, &res.e2e),
    };
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(res.tally.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(res.tally.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

/// `--all`: every workload in its own process (so `peak_rss_mib` is per
/// workload), traced, one after the other.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let mut bad = 0;
    for w in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name, "--trace", "1"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.quick {
            cmd.arg("--quick");
        }
        if let Some(r) = &args.record {
            cmd.args(["--record", r]);
        }
        let t = Instant::now();
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2e: workload {} exited with {s}", w.name);
                bad += 1;
            }
            Err(e) => {
                eprintln!("e2e: cannot start workload {}: {e}", w.name);
                bad += 1;
            }
        }
        println!("-- {} took {:.1} s\n", w.name, t.elapsed().as_secs_f64());
    }
    println!("-- all workloads took {:.1} s", t0.elapsed().as_secs_f64());
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_compare(base: &str, change: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| report::read_run_set(&t).map_err(|e| format!("{p}: {e}")))
    };
    match (load(base), load(change)) {
        (Ok(a), Ok(b)) => {
            let (table, regressed) = report::compare(&a, &b);
            print!("{table}");
            if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        println!("workloads:");
        for w in &WORKLOADS {
            println!("  {:<18} {}", w.name, w.why);
        }
        for (title, defs) in [
            ("end-to-end", &END_TO_END[..]),
            ("per-layer", &PER_LAYER[..]),
        ] {
            println!("{title} metrics:");
            for d in defs {
                println!(
                    "  {:<34} {:<6} [{}] {}",
                    d.name,
                    d.unit,
                    d.clock.tag(),
                    d.what
                );
            }
        }
        return ExitCode::SUCCESS;
    }
    if let Some((base, change)) = &args.compare {
        return run_compare(base, change);
    }
    if args.all {
        return run_all(&args);
    }
    match args.workload.as_deref().map(|n| (n, workloads::find(n))) {
        Some((_, Some(w))) => run_one(w, &args),
        Some((n, None)) => {
            eprintln!("e2e: no workload {n}; --list names them");
            ExitCode::from(2)
        }
        None => {
            eprintln!("e2e: give --workload <name>, --all, --compare A B or --list");
            ExitCode::from(2)
        }
    }
}
