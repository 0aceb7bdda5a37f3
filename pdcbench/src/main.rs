//! Seeded benchmark of the whole source → compile → run → gather path.
//!
//! ```text
//! pdcbench --workload <paper128|stream512|tune64|faults> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client runs jobs one after another from this process
//! until `--seconds` have passed, in whole rounds (see `workload`). Each
//! job runs under a deadline and is checked against the sequential
//! interpreter outside its timed span. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced rounds and prints
//! the per-layer metrics, writing every span to
//! `pdcbench/out/spans-<workload>-<seed>.jsonl`. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod deadline;
mod phases;
mod stats;
mod trace;
mod workload;

use deadline::Outcome;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Count, Span, Tracer};
use workload::{Faults, Plan, Workload};

/// An untraced run sets up at least `SETUP_REPS.0` times, and on until
/// `SETUP_SECONDS` have passed or `SETUP_REPS.1` set-ups are done;
/// `setup_s` is their median, so a cheap set-up is sampled more.
const SETUP_REPS: (usize, usize) = (3, 25);
const SETUP_SECONDS: f64 = 1.0;

/// Traced jobs do the job's work, then replay the compile and repeat the
/// run with metrics on; their deadline is this multiple of the job's.
const TRACED_DEADLINE_FACTOR: u32 = 4;

/// `job_ms_tail` is the highest percentile with at least this many jobs
/// beyond it.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of a git checkout in the working directory, if there is one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One attempted job.
struct Record {
    id: u64,
    label: String,
    threads: bool,
    traced: bool,
    ms: f64,
    ok: bool,
    abandoned: bool,
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; a value that could not be measured becomes `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pdcbench: {e}");
            eprintln!(
                "usage: pdcbench --workload <paper128|stream512|tune64|faults> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "pdcbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host available_parallelism={} rustc=\"{}\" commit={} profile={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PDCBENCH_RUSTC"),
        git_commit(),
        env!("PDCBENCH_PROFILE"),
    );

    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let mut counts: Vec<Count> = Vec::new();
    let mut setup_s = Vec::new();
    let mut plan: Option<Plan> = None;
    let more_setups = |done: &[f64]| {
        done.is_empty()
            || (!args.trace
                && (done.len() < SETUP_REPS.0
                    || (done.len() < SETUP_REPS.1 && done.iter().sum::<f64>() < SETUP_SECONDS)))
    };
    while more_setups(&setup_s) {
        let mut t = Tracer::new(0, epoch, args.trace);
        let start = Instant::now();
        let p = workload::setup(w, args.seed, &mut t);
        setup_s.push(start.elapsed().as_secs_f64());
        let (s, c) = t.finish();
        spans.extend(s);
        counts.extend(c);
        plan = Some(p);
    }
    let plan = plan.expect("at least one set-up");
    let mut correct = plan.misses.is_empty();
    for m in &plan.misses {
        eprintln!("CHECK FAILED: {m}");
    }

    let mut records: Vec<Record> = Vec::new();
    let mut tuned: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let mut next_id = 1u64;
    let min_rounds = if args.trace { 2 } else { 1 };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut round = 0usize;
    // Whole rounds until the budget is spent, and enough jobs for a tail.
    while round < min_rounds || start.elapsed() < budget || records.len() <= TAIL_BEYOND {
        let traced = args.trace && round % 2 == 1;
        for tmpl in &plan.round {
            let spec = plan.job(args.seed, next_id, tmpl);
            next_id += 1;
            let shared = Arc::clone(&plan.shared);
            let job_spec = spec.clone();
            let deadline = if traced {
                w.deadline() * TRACED_DEADLINE_FACTOR
            } else {
                w.deadline()
            };
            let t0 = Instant::now();
            let outcome = deadline::run(deadline, move || {
                workload::run_job(w, &shared, &job_spec, traced, epoch)
            });
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            let mut rec = Record {
                id: spec.id,
                label: spec.tmpl.label.clone(),
                threads: !matches!(spec.tmpl.backend, pdc_machine::Backend::Simulated),
                traced,
                ms: elapsed,
                ok: false,
                abandoned: false,
            };
            let misses = match &outcome {
                Outcome::Done(Ok(out)) => check(&plan, &spec, out, &mut tuned),
                _ => Vec::new(),
            };
            (rec.ok, rec.abandoned) = tally(&outcome, &misses);
            correct &= misses.is_empty();
            match outcome {
                Outcome::Done(Ok(out)) => {
                    rec.ms = out.ms;
                    for m in &misses {
                        eprintln!("CHECK FAILED: job {} ({}): {m}", rec.id, rec.label);
                    }
                    spans.extend(out.trace.0);
                    counts.extend(out.trace.1);
                }
                Outcome::Done(Err(e)) => {
                    eprintln!("FAILED: job {} ({}): {e}", rec.id, rec.label);
                }
                Outcome::Panicked(e) => {
                    eprintln!("FAILED: job {} ({}): panicked: {e}", rec.id, rec.label);
                }
                Outcome::Abandoned => {
                    eprintln!(
                        "FAILED: job {} ({}): abandoned at its {:?} deadline",
                        rec.id, rec.label, deadline
                    );
                }
            }
            records.push(rec);
        }
        round += 1;
    }
    let wall = start.elapsed().as_secs_f64();

    // The deterministic metrics sum over the workload's distinct
    // programs: set-up's reference runs, or each searched program's winner.
    let (makespan, messages) = if w == Workload::Tune64 {
        if tuned.len() != plan.shared.sources.len() {
            eprintln!("CHECK FAILED: not every program's winner ran");
            correct = false;
        }
        tuned.values().fold((0, 0), |(m, n), (a, b)| (m + a, n + b))
    } else {
        plan.expect
            .iter()
            .fold((0, 0), |(m, n), e| (m + e.makespan, n + e.messages))
    };

    let attempted = records.len();
    let failed = records.iter().filter(|r| !r.ok).count();
    let all: Vec<f64> = records.iter().map(|r| r.ms).collect();
    let tail = stats::tail(&all, TAIL_BEYOND);
    if let (Some(q), Some((p, v))) = (stats::quartiles(&all), tail) {
        println!(
            "jobs {attempted} (failed {failed}) in {wall:.3} s; job ms quartiles {:.3} / {:.3} / {:.3}; \
             job_ms_tail is p{p} = {v:.3} ms with at least {TAIL_BEYOND} jobs beyond it",
            q[0], q[1], q[2]
        );
    }

    let mut labels: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &records {
        labels.entry(&r.label).or_default().push(r.ms);
    }
    for (label, xs) in &labels {
        println!(
            "  {label:28} jobs {:4}  median {:10.3} ms",
            xs.len(),
            stats::median(xs).unwrap_or(f64::NAN)
        );
    }

    let mut m = Metrics(Vec::new());
    if args.trace {
        per_layer(&mut m, &records, &spans, &counts);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        if let Err(e) = trace::write_spans(&path, &spans) {
            eprintln!("pdcbench: writing {}: {e}", path.display());
        }
    } else {
        let med = |threads: Option<bool>| {
            let xs: Vec<f64> = records
                .iter()
                .filter(|r| threads.is_none_or(|t| r.threads == t))
                .map(|r| r.ms)
                .collect();
            stats::median(&xs).unwrap_or(f64::NAN)
        };
        let ok = (attempted - failed) as f64;
        m.put("job_ms_p50", med(None), "ms");
        m.put("job_ms_tail", tail.map_or(f64::NAN, |t| t.1), "ms");
        m.put("sim.job_ms_p50", med(Some(false)), "ms");
        m.put("threads.job_ms_p50", med(Some(true)), "ms");
        m.put("jobs_per_s", ok / wall, "1/s");
        m.put("success_rate", ok / attempted as f64, "fraction");
        m.put("setup_s", stats::median(&setup_s).expect("set-up ran"), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("sim.makespan_cycles", makespan as f64, "cycles");
        m.put("messages", messages as f64, "count");
    }
    for (name, value, unit) in &m.0 {
        println!("{name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    ExitCode::SUCCESS
}

/// How a job counts, as `(ok, abandoned)`: it is ok only if it returned
/// before its deadline, without an error, and missed no check.
fn tally<T>(outcome: &Outcome<Result<T, String>>, misses: &[String]) -> (bool, bool) {
    match outcome {
        Outcome::Done(Ok(_)) => (misses.is_empty(), false),
        Outcome::Done(Err(_)) | Outcome::Panicked(_) => (false, false),
        Outcome::Abandoned => (false, true),
    }
}

/// The checks made on a finished job, outside its timed span. Each miss
/// is one line.
fn check(
    plan: &Plan,
    spec: &workload::JobSpec,
    out: &workload::JobOut,
    tuned: &mut BTreeMap<usize, (u64, u64)>,
) -> Vec<String> {
    let mut misses = out.replay_misses.clone();
    if let Some(at) = pdc_core::driver::first_mismatch(&out.gathered, plan.reference(spec)) {
        misses.push(format!(
            "output differs from the sequential interpreter at {at:?}"
        ));
    }
    let faulty = spec.tmpl.faults != Faults::None;
    if let Some(e) = spec.tmpl.expect.map(|i| &plan.expect[i]) {
        if out.pair_messages != e.pair_messages {
            misses.push("per-channel messages differ from the reference run".into());
        }
        if !faulty && out.makespan != e.makespan {
            misses.push(format!(
                "makespan {} differs from the reference run's {}",
                out.makespan, e.makespan
            ));
        }
    }
    if !faulty && !out.prediction_misses.is_empty() {
        misses.push(format!(
            "prediction mismatch: {}",
            out.prediction_misses.join("; ")
        ));
    }
    if plan.workload == Workload::Paper128 {
        let variant = spec.tmpl.label.split('/').nth(1).unwrap_or("");
        if let Some(want) = workload::footnote3(variant) {
            if out.messages != want {
                misses.push(format!("{} messages, footnote 3 says {want}", out.messages));
            }
        }
    }
    if spec.tmpl.faults == Faults::LossyCrash && out.crashes_survived == 0 {
        misses.push("the planned crash of P1 was not survived".into());
    }
    if let Some((makespan, messages)) = out.tuned {
        if (out.makespan, out.messages) != (makespan, messages) {
            misses.push(format!(
                "winner predicted {makespan} cycles / {messages} messages, ran {} / {}",
                out.makespan, out.messages
            ));
        }
        let first = *tuned
            .entry(spec.tmpl.source)
            .or_insert((makespan, messages));
        if first != (makespan, messages) {
            misses.push("the search picked a different winner than in an earlier job".into());
        }
    }
    misses
}

/// The per-layer metrics of a traced run. Times are means per call of
/// the named span, self times where the table says so; counts are means
/// per occurrence.
fn per_layer(m: &mut Metrics, records: &[Record], spans: &[Span], counts: &[Count]) {
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let mean_ms = |name: &str| mean(&durations(name));
    let count_mean = |name: &str| {
        let xs: Vec<f64> = counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect();
        mean(&xs)
    };
    let count_sum = |name: &str| {
        counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum::<f64>()
    };
    // Children of each span, keyed by (job, parent id).
    let mut children: BTreeMap<(u64, usize), Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry((s.job, p)).or_default().push(s);
        }
    }
    let kids = |s: &Span| children.get(&(s.job, s.id)).cloned().unwrap_or_default();
    let self_ms = |s: &Span| {
        let iv: Vec<(f64, f64)> = kids(s)
            .iter()
            .map(|k| (k.start as f64 / 1e6, k.end as f64 / 1e6))
            .collect();
        stats::self_time(s.start as f64 / 1e6, s.end as f64 / 1e6, &iv)
    };

    m.put("lang.parse_ms", mean_ms("lang.parse"), "ms");
    m.put("lang.interp_ms", mean_ms("lang.interp"), "ms");
    m.put("core.compile_ms", mean_ms("core.compile"), "ms");
    m.put("core.inline_ms", mean_ms("core.inline"), "ms");
    m.put("core.analysis_ms", mean_ms("core.analysis"), "ms");
    m.put("core.resolve_ms", mean_ms("core.resolve"), "ms");
    // Each driver compile is followed, in the same job, by its replay;
    // what the replay's phases do not account for is unattributed.
    let mut unattributed = Vec::new();
    let mut by_job: BTreeMap<u64, (Vec<&Span>, Vec<&Span>)> = BTreeMap::new();
    for s in spans {
        match s.name {
            "core.compile" => by_job.entry(s.job).or_default().0.push(s),
            "core.replay" => by_job.entry(s.job).or_default().1.push(s),
            _ => {}
        }
    }
    for (compiles, replays) in by_job.values() {
        for (c, r) in compiles.iter().zip(replays) {
            let phases: f64 = kids(r).iter().map(|k| k.ms()).sum();
            unattributed.push(c.ms() - phases);
        }
    }
    m.put("core.unattributed_ms", mean(&unattributed), "ms");
    m.put("depend.ms", mean_ms("depend"), "ms");
    m.put("opt.ms", mean_ms("opt"), "ms");
    m.put("opt.applied", count_mean("opt.applied"), "count");
    m.put("report.predict_ms", mean_ms("report.predict"), "ms");
    m.put("report.makespan_ms", mean_ms("report.makespan"), "ms");
    m.put("analyze.verify_ms", mean_ms("analyze.verify"), "ms");

    let searches: Vec<&Span> = spans.iter().filter(|s| s.name == "tune.search").collect();
    let per_search = |total: f64| {
        if searches.is_empty() {
            0.0
        } else {
            total / searches.len() as f64
        }
    };
    m.put("tune.search_ms", mean_ms("tune.search"), "ms");
    m.put(
        "tune.candidate_compile_ms",
        per_search(durations("tune.candidate_compile").iter().sum()),
        "ms",
    );
    let score: Vec<f64> = searches.iter().map(|s| self_ms(s)).collect();
    m.put("tune.score_ms", mean(&score), "ms");
    m.put("tune.candidates", count_mean("tune.candidates"), "count");
    m.put("tune.viable", count_mean("tune.viable"), "count");

    m.put("spmd.lower_ms", mean_ms("spmd.lower"), "ms");
    m.put("spmd.load_ms", mean_ms("spmd.load"), "ms");
    m.put("spmd.gather_ms", mean_ms("spmd.gather"), "ms");
    m.put("spmd.steps", count_mean("spmd.steps"), "count");
    for (backend, run, steps, ns) in [
        (
            "sim",
            "machine.sim.run_ms",
            "machine.sim.steps",
            "machine.sim.ns_per_step",
        ),
        (
            "threads",
            "machine.threads.run_ms",
            "machine.threads.steps",
            "machine.threads.ns_per_step",
        ),
    ] {
        let runs = durations(&format!("machine.{backend}.run"));
        m.put(run, mean(&runs), "ms");
        let total_steps = count_sum(steps);
        let ns_per = if total_steps > 0.0 {
            runs.iter().sum::<f64>() * 1e6 / total_steps
        } else {
            0.0
        };
        m.put(ns, ns_per, "ns");
    }
    m.put("machine.words", count_mean("machine.words"), "count");
    for name in [
        "machine.threads.parks",
        "machine.threads.spin_wakes",
        "machine.threads.enqueue_stalls",
        "machine.rel.retransmits",
        "machine.rel.acks",
        "machine.rel.dup_dropped",
        "machine.ckpt.taken",
        "machine.ckpt.bytes",
        "machine.ckpt.replayed_ops",
        "machine.ckpt.crashes_survived",
    ] {
        m.put(name, count_mean(name), "count");
    }

    // Metrics overhead: each traced job's run against its own repeat with
    // metrics on, same program, inputs and backend.
    for (backend, name) in [
        ("sim", "metrics.overhead_frac.sim"),
        ("threads", "metrics.overhead_frac.threads"),
    ] {
        let plain = format!("machine.{backend}.run");
        let probe = format!("metrics.{backend}.run");
        let mut per_job: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.job > 0) {
            if s.name == plain {
                per_job.entry(s.job).or_default().0 += s.ms();
            } else if s.name == probe {
                per_job.entry(s.job).or_default().1 += s.ms();
            }
        }
        let (base, with): (f64, f64) = per_job
            .values()
            .filter(|(a, b)| *a > 0.0 && *b > 0.0)
            .fold((0.0, 0.0), |(x, y), (a, b)| (x + a, y + b));
        m.put(
            name,
            if base > 0.0 { with / base - 1.0 } else { 0.0 },
            "fraction",
        );
    }
    let med = |traced: bool| {
        let xs: Vec<f64> = records
            .iter()
            .filter(|r| r.ok && r.traced == traced)
            .map(|r| r.ms)
            .collect();
        stats::median(&xs)
    };
    let overhead = match (med(true), med(false)) {
        (Some(a), Some(b)) if b > 0.0 => a / b - 1.0,
        _ => 0.0,
    };
    m.put("trace.overhead_frac", overhead, "fraction");
    m.put(
        "machine.threads.abandoned",
        records.iter().filter(|r| r.abandoned).count() as f64,
        "count",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "faults",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::Faults);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "faults", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "faults", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn a_job_past_its_deadline_counts_failed_and_the_run_goes_on() {
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        let start = Instant::now();
        let hung = deadline::run(Duration::from_millis(50), move || {
            blocked.recv().map_err(|e| e.to_string())
        });
        assert_eq!(tally(&hung, &[]), (false, true));
        let next = deadline::run(Duration::from_secs(10), || Ok::<_, String>(()));
        assert_eq!(tally(&next, &[]), (true, false));
        assert!(start.elapsed() < Duration::from_secs(5));
        drop(release);
    }

    #[test]
    fn errors_panics_and_missed_checks_count_failed() {
        let done = Outcome::Done(Ok::<(), String>(()));
        assert_eq!(tally(&done, &["wrong output".to_owned()]), (false, false));
        let err = Outcome::Done(Err::<(), String>("deadlock".into()));
        assert_eq!(tally(&err, &[]), (false, false));
        let panicked = Outcome::<Result<(), String>>::Panicked("boom".into());
        assert_eq!(tally(&panicked, &[]), (false, false));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(num(1.2034567891), "1.2034567891");
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(f64::NAN), "null");
    }
}
