//! The four workloads: what each sets up, which jobs make up one round,
//! and how one job runs.
//!
//! * `paper128` — the paper's evaluation end to end at paper scale: every
//!   job compiles Gauss-Seidel at n=128, s=2 in one of the five variants
//!   (run-time resolution, compile-time O0, Optimized I, II, III b=8),
//!   runs it and gathers. Compile and run times are about equal here, and
//!   the variants send 31,752 or as few as 2,142 messages.
//! * `stream512` — iterated solves past paper scale: Optimized III (b=8)
//!   at n=512, s=2 is compiled once in set-up; each job runs it on a fresh
//!   seeded grid. The VM, the threaded endpoint and `gather` dominate.
//! * `tune64` — compile-only search: each job searches the 72 candidate
//!   decompositions around a 4-processor seed at n=64 for one of three
//!   programs, then runs the winner. Static prediction, makespan replay
//!   and candidate compiles dominate. The interchanged program is the one
//!   that exercises the interchange pass.
//! * `faults` — the reliable-delivery and checkpoint layer, which no
//!   other workload runs: O0 Gauss-Seidel at n=16, s=2 with checkpoints
//!   every 64 ops under a fresh seeded lossy fault plan per job; every
//!   other job also crashes P1. Its threaded jobs, with and without the
//!   crash, are where the known end-of-run hang shows.
//!
//! Every round runs each job kind on both backends, alternating, so the
//! job population of a run is the same whatever its length.

use crate::phases::{self, RunKind};
use crate::trace::Tracer;
use pdc_core::driver::{self, Compiled, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_istructure::IMatrix;
use pdc_lang::value::Value;
use pdc_lang::Program;
use pdc_machine::{Backend, CheckpointCfg, CostModel, FaultPlan, ProcId, RelConfig, Tag};
use pdc_opt::OptLevel;
use pdc_spmd::Scalar;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's five variants compiled and run per job at n=128.
    Paper128,
    /// Optimized III at n=512 compiled once, run per job.
    Stream512,
    /// Decomposition search at n=64 per job.
    Tune64,
    /// Seeded message loss, duplication and crashes at n=16.
    Faults,
}

impl Workload {
    /// Every workload the command line accepts.
    pub const ALL: [Workload; 4] = [
        Workload::Paper128,
        Workload::Stream512,
        Workload::Tune64,
        Workload::Faults,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper128 => "paper128",
            Workload::Stream512 => "stream512",
            Workload::Tune64 => "tune64",
            Workload::Faults => "faults",
        }
    }

    /// The machine the workload's runs are costed on: the paper's iPSC/2,
    /// except for the search, which scores candidates under shared-memory
    /// costs. Under iPSC/2 costs every n=64 search picks a serial
    /// decomposition that sends no messages; under shared-memory costs it
    /// picks distributed ones (the paper's column-cyclic O3 b=8 for the
    /// Gauss-Seidel sweep).
    pub fn cost(self) -> CostModel {
        match self {
            Workload::Tune64 => CostModel::shared_memory(),
            _ => CostModel::ipsc2(),
        }
    }

    /// A job's deadline: far above its normal time (milliseconds to about
    /// a second), far below the 5 s the threaded receive timeout re-arms
    /// at when a run hangs.
    pub fn deadline(self) -> Duration {
        match self {
            Workload::Paper128 => Duration::from_secs(10),
            Workload::Stream512 | Workload::Tune64 => Duration::from_secs(20),
            Workload::Faults => Duration::from_millis(250),
        }
    }
}

/// splitmix64: the benchmark's only source of randomness, driven by the
/// workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A source program as the workload compiles it.
pub struct Source {
    /// Short name for job labels.
    pub name: &'static str,
    /// Entry procedure.
    pub entry: &'static str,
    /// The parsed program.
    pub program: Program,
}

/// How a job obtains its compiled program.
#[derive(Debug, Clone, Copy)]
pub enum Build {
    /// `driver::compile` inside the job.
    Compile {
        strategy: Strategy,
        level: Option<OptLevel>,
        auto: bool,
    },
    /// The program compiled once in set-up, by index.
    Reuse(usize),
}

/// Fault injection a job runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// Fault-free.
    None,
    /// Seeded drops and duplicates.
    Lossy,
    /// Seeded drops and duplicates plus a seeded crash of P1.
    LossyCrash,
}

/// One job of a round.
#[derive(Debug, Clone)]
pub struct Template {
    /// Human label, `<program>/<variant>/<backend>`.
    pub label: String,
    /// Index into [`Shared::sources`].
    pub source: usize,
    /// Compile in the job or reuse.
    pub build: Build,
    /// Backend the job runs on.
    pub backend: Backend,
    /// Fault injection.
    pub faults: Faults,
    /// Index into [`Plan::expect`] of the fault-free reference run this
    /// job must agree with, if set-up made one.
    pub expect: Option<usize>,
}

/// A job ready to run.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job id (spans of the job carry it; set-up is 0).
    pub id: u64,
    /// The round's template.
    pub tmpl: Template,
    /// Index into [`Shared::grids`].
    pub grid: usize,
    /// The fault plan, for faulty jobs.
    pub plan: Option<FaultPlan>,
}

/// What the job threads share: read-only after set-up.
pub struct Shared {
    /// Problem size.
    pub n: usize,
    /// Processors of the decomposition.
    pub procs: usize,
    /// Source programs.
    pub sources: Vec<Source>,
    /// Seeded input grids.
    pub grids: Vec<Inputs>,
    /// Programs compiled once in set-up.
    pub compiled: Vec<Compiled>,
}

/// What a fault-free reference run of a compiled program showed.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Logical makespan in cycles.
    pub makespan: u64,
    /// Program-level messages.
    pub messages: u64,
    /// Program-level messages per (src, dst, tag).
    pub pair_messages: BTreeMap<(ProcId, ProcId, Tag), u64>,
}

/// Everything set-up produced.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Shared with job threads.
    pub shared: Arc<Shared>,
    /// Sequential interpreter output per (source, grid), at
    /// `source * grids + grid`.
    pub refs: Vec<Value>,
    /// Fault-free reference runs of the set-up compiles.
    pub expect: Vec<Expect>,
    /// The jobs of one round.
    pub round: Vec<Template>,
    /// Set-up checks that failed.
    pub misses: Vec<String>,
}

/// Input grids per workload: jobs cycle through them, so each grid's
/// reference output is computed once in set-up.
const GRIDS: usize = 4;

fn grid(n: usize, rng: &mut Rng) -> IMatrix<Scalar> {
    let mut m = IMatrix::new(n, n);
    for i in 1..=n as i64 {
        for j in 1..=n as i64 {
            m.write(i, j, Scalar::Int(rng.below(1000) as i64))
                .expect("fresh matrix");
        }
    }
    m
}

fn parse(t: &mut Tracer, name: &'static str, entry: &'static str, src: &str) -> Source {
    let program = t
        .span("lang.parse", |_| pdc_lang::parse(src))
        .expect("canonical program parses");
    Source {
        name,
        entry,
        program,
    }
}

/// The job for `source` with this workload's fixed options.
pub fn job<'a>(
    w: Workload,
    shared: &Shared,
    source: &'a Source,
    level: Option<OptLevel>,
    auto: bool,
) -> Job<'a> {
    let n = shared.n;
    let mut job = Job::new(
        &source.program,
        source.entry,
        programs::wavefront_decomposition(shared.procs),
    )
    .with_const("n", n as i64);
    if let Some(level) = level {
        job = job.with_opt_level(level);
    }
    if auto {
        job = job.with_auto_decomposition_under(w.cost());
    }
    if w == Workload::Faults {
        job = job
            .with_checkpoint_cfg(CheckpointCfg::every(64))
            .with_verify_static(true);
        job.extent_overrides.insert("Old".into(), (n, n));
    }
    job
}

const PAPER_VARIANTS: [(&str, Strategy, Option<OptLevel>); 5] = [
    ("rtr", Strategy::Runtime, None),
    ("o0", Strategy::CompileTime, Some(OptLevel::O0)),
    ("o1", Strategy::CompileTime, Some(OptLevel::O1)),
    ("o2", Strategy::CompileTime, Some(OptLevel::O2)),
    (
        "o3b8",
        Strategy::CompileTime,
        Some(OptLevel::O3 { blksize: 8 }),
    ),
];

/// Footnote 3 of the paper: messages per sweep at n=128 for run-time
/// resolution and O0 (two per interior point), and for Optimized III b=8.
pub fn footnote3(label: &str) -> Option<u64> {
    match label {
        "rtr" | "o0" => Some(31_752),
        "o3b8" => Some(2_142),
        _ => None,
    }
}

/// Both backends, simulator first; rounds alternate between them.
fn backends() -> [(&'static str, Backend); 2] {
    [
        ("sim", Backend::Simulated),
        ("threads", Backend::threaded()),
    ]
}

/// Set up `w` for `seed`: parse, generate the input grids, compute their
/// reference outputs with the sequential interpreter, compile the
/// compile-once programs and run each once fault-free on the simulator.
pub fn setup(w: Workload, seed: u64, t: &mut Tracer) -> Plan {
    let (n, procs) = match w {
        Workload::Paper128 => (128, 2),
        Workload::Stream512 => (512, 2),
        Workload::Tune64 => (64, 4),
        Workload::Faults => (16, 2),
    };
    let mut sources = vec![parse(t, "gs", "gs_iteration", programs::GAUSS_SEIDEL)];
    if w == Workload::Tune64 {
        sources.push(parse(
            t,
            "gs_interchanged",
            "gs_iteration",
            programs::GAUSS_SEIDEL_INTERCHANGED,
        ));
        sources.push(parse(t, "jacobi", "jacobi", programs::JACOBI));
    }
    let mut rng = Rng::new(seed, 1);
    let grids: Vec<Inputs> = (0..GRIDS)
        .map(|_| {
            Inputs::new()
                .scalar("n", Scalar::Int(n as i64))
                .array("Old", grid(n, &mut rng))
        })
        .collect();
    let mut refs = Vec::new();
    for s in &sources {
        for g in &grids {
            let out = t.span("lang.interp", |_| {
                driver::run_sequential(&s.program, s.entry, g)
            });
            refs.push(out.expect("the sequential interpreter runs the canonical programs"));
        }
    }
    let mut shared = Shared {
        n,
        procs,
        sources,
        grids,
        compiled: Vec::new(),
    };
    let compile_once: Vec<(&str, Strategy, Option<OptLevel>)> = match w {
        Workload::Paper128 => PAPER_VARIANTS.to_vec(),
        Workload::Stream512 => vec![(
            "o3b8",
            Strategy::CompileTime,
            Some(OptLevel::O3 { blksize: 8 }),
        )],
        Workload::Tune64 => Vec::new(),
        Workload::Faults => vec![("o0", Strategy::CompileTime, Some(OptLevel::O0))],
    };
    let mut misses = Vec::new();
    let mut expect = Vec::new();
    for (label, strategy, level) in compile_once {
        let job = job(w, &shared, &shared.sources[0], level, false);
        let compiled = t
            .span("core.compile", |_| driver::compile(&job, strategy))
            .unwrap_or_else(|e| panic!("{label} compiles: {e}"));
        if t.enabled() {
            match t.span("core.replay", |t| phases::compile(t, &job, strategy)) {
                Ok(replay) => misses.extend(phases::replay_mismatches(&replay, &compiled)),
                Err(e) => misses.push(format!("set-up {label}: replay failed: {e}")),
            }
        }
        // The reference run is the generated code alone: no faults and no
        // checkpoints, on the simulator.
        let mut plain = compiled.clone();
        plain.checkpoints = None;
        plain.fault_plan = None;
        let ran = if t.enabled() {
            phases::execute(
                t,
                &plain,
                &shared.grids[0],
                w.cost(),
                Backend::Simulated,
                RunKind::Timed,
            )
            .map(|(exec, _)| exec)
        } else {
            driver::execute_on(&plain, &shared.grids[0], w.cost(), Backend::Simulated)
                .map_err(|e| e.to_string())
        };
        let exec = ran.unwrap_or_else(|e| panic!("{label} runs fault-free: {e}"));
        match exec.gather("New") {
            Ok(g) => {
                if let Some(at) = driver::first_mismatch(&g, &refs[0]) {
                    misses.push(format!("set-up {label}: output differs at {at:?}"));
                }
            }
            Err(e) => misses.push(format!("set-up {label}: gather failed: {e}")),
        }
        let check = exec.verify_predictions();
        if !check.ok() {
            misses.push(format!(
                "set-up {label}: prediction mismatch: {}",
                check.mismatches.join("; ")
            ));
        }
        let (env, arrays) = phases::static_env(&compiled.analysis, &job);
        let est = t.span("report.makespan", |_| {
            pdc_report::estimate(&plain.spmd, &env, &arrays, &w.cost())
        });
        if !est.exact || est.makespan() != exec.makespan() {
            misses.push(format!(
                "set-up {label}: predicted makespan {} (exact {}) != simulated {}",
                est.makespan(),
                est.exact,
                exec.makespan()
            ));
        }
        if let Some(want) = footnote3(label).filter(|_| w == Workload::Paper128) {
            if exec.messages() != want {
                misses.push(format!(
                    "set-up {label}: {} messages, footnote 3 says {want}",
                    exec.messages()
                ));
            }
        }
        expect.push(Expect {
            makespan: exec.makespan(),
            messages: exec.messages(),
            pair_messages: exec.outcome.report.pair_messages.clone(),
        });
        shared.compiled.push(compiled);
    }

    let mut round = Vec::new();
    let mut add = |label: String, source, build, backend, faults, expect| {
        round.push(Template {
            label,
            source,
            build,
            backend,
            faults,
            expect,
        })
    };
    match w {
        Workload::Paper128 => {
            for (i, (variant, strategy, level)) in PAPER_VARIANTS.into_iter().enumerate() {
                for (b, backend) in backends() {
                    let build = Build::Compile {
                        strategy,
                        level,
                        auto: false,
                    };
                    add(
                        format!("gs/{variant}/{b}"),
                        0,
                        build,
                        backend,
                        Faults::None,
                        Some(i),
                    );
                }
            }
        }
        Workload::Stream512 => {
            for (b, backend) in backends() {
                add(
                    format!("gs/o3b8/{b}"),
                    0,
                    Build::Reuse(0),
                    backend,
                    Faults::None,
                    Some(0),
                );
            }
        }
        Workload::Tune64 => {
            for (s, src) in shared.sources.iter().enumerate() {
                for (b, backend) in backends() {
                    let build = Build::Compile {
                        strategy: Strategy::CompileTime,
                        level: None,
                        auto: true,
                    };
                    add(
                        format!("{}/tuned/{b}", src.name),
                        s,
                        build,
                        backend,
                        Faults::None,
                        None,
                    );
                }
            }
        }
        Workload::Faults => {
            for (kind, faults) in [("lossy", Faults::Lossy), ("crash", Faults::LossyCrash)] {
                for (b, backend) in backends() {
                    add(
                        format!("gs/o0/{kind}/{b}"),
                        0,
                        Build::Reuse(0),
                        backend,
                        faults,
                        Some(0),
                    );
                }
            }
        }
    }
    Plan {
        workload: w,
        shared: Arc::new(shared),
        refs,
        expect,
        round,
        misses,
    }
}

impl Plan {
    /// Job `id`, made from template `tmpl` and the workload seed.
    pub fn job(&self, seed: u64, id: u64, tmpl: &Template) -> JobSpec {
        let mut rng = Rng::new(seed, 2 + id);
        let grid = rng.below(GRIDS as u64) as usize;
        let lossy = FaultPlan::seeded(rng.next_u64())
            .with_drops(200)
            .with_dups(120)
            .with_fault_budget(4);
        let plan = match tmpl.faults {
            Faults::None => None,
            Faults::Lossy => Some(lossy),
            Faults::LossyCrash => Some(lossy.with_crash(ProcId(1), rng.below(CRASH_WINDOW))),
        };
        JobSpec {
            id,
            tmpl: tmpl.clone(),
            grid,
            plan,
        }
    }

    /// The reference output for a job.
    pub fn reference(&self, spec: &JobSpec) -> &Value {
        &self.refs[spec.tmpl.source * self.shared.grids.len() + spec.grid]
    }
}

/// Crashes of P1 are drawn from its first `CRASH_WINDOW` charged ops, so
/// the crash lands while P0 is still running and can replay to it.
const CRASH_WINDOW: u64 = 200;

/// What one job produced, for the checks made outside its timed span.
pub struct JobOut {
    /// Host time of the job: compile (if any), run and gather.
    pub ms: f64,
    /// The gathered `New` array.
    pub gathered: IMatrix<Scalar>,
    /// Logical makespan.
    pub makespan: u64,
    /// Program-level messages.
    pub messages: u64,
    /// Program-level messages per (src, dst, tag).
    pub pair_messages: BTreeMap<(ProcId, ProcId, Tag), u64>,
    /// `Execution::verify_predictions` mismatches.
    pub prediction_misses: Vec<String>,
    /// Crashes the run survived.
    pub crashes_survived: u64,
    /// The search winner's predicted makespan and messages (tune jobs).
    pub tuned: Option<(u64, u64)>,
    /// Where the phase replay disagreed with the driver (traced jobs).
    pub replay_misses: Vec<String>,
    /// Spans and counts (traced jobs).
    pub trace: (Vec<crate::trace::Span>, Vec<crate::trace::Count>),
}

/// Run one job. Untraced jobs go through `driver::compile` and
/// `driver::execute_on`; traced jobs time the same work phase by phase,
/// then replay the compile and repeat the run with metrics on, outside
/// the job's span.
pub fn run_job(
    w: Workload,
    shared: &Shared,
    spec: &JobSpec,
    traced: bool,
    epoch: Instant,
) -> Result<JobOut, String> {
    let tmpl = &spec.tmpl;
    let source = &shared.sources[tmpl.source];
    let inputs = &shared.grids[spec.grid];
    // A faulty job runs the set-up program under its own fault plan.
    let faulty: Option<Compiled> = match (tmpl.build, &spec.plan) {
        (Build::Reuse(i), Some(plan)) => {
            let mut c = shared.compiled[i].clone();
            let rel = RelConfig {
                rto_wall: Duration::from_millis(2),
                ..RelConfig::default()
            };
            c.fault_plan = Some((plan.clone(), rel));
            Some(c)
        }
        _ => None,
    };
    let (job, strategy, reused) = match tmpl.build {
        Build::Compile {
            strategy,
            level,
            auto,
        } => (job(w, shared, source, level, auto), Some(strategy), None),
        Build::Reuse(i) => (
            job(w, shared, source, None, false),
            None,
            Some(faulty.as_ref().unwrap_or(&shared.compiled[i])),
        ),
    };
    let mut t = Tracer::new(spec.id, epoch, traced);
    let start = Instant::now();
    let (owned, exec, gathered) = t.span("job", |t| -> Result<_, String> {
        let owned = match strategy {
            Some(s) => Some(
                t.span("core.compile", |_| driver::compile(&job, s))
                    .map_err(|e| e.to_string())?,
            ),
            None => None,
        };
        let compiled = owned.as_ref().or(reused).expect("compiled or reused");
        let (exec, gathered) = if traced {
            phases::execute(t, compiled, inputs, w.cost(), tmpl.backend, RunKind::Timed)?
        } else {
            let exec = driver::execute_on(compiled, inputs, w.cost(), tmpl.backend)
                .map_err(|e| e.to_string())?;
            let gathered = exec.gather("New").map_err(|e| e.to_string())?;
            (exec, gathered)
        };
        Ok((owned, exec, gathered))
    })?;
    let ms = start.elapsed().as_secs_f64() * 1e3;

    let compiled = owned.as_ref().or(reused).expect("compiled or reused");
    let tuned = compiled.tune.as_ref().map(|r| {
        let s = r.winner_score();
        (s.makespan, s.messages)
    });
    let mut replay_misses = Vec::new();
    if traced {
        if let Some(s) = strategy {
            match t.span("core.replay", |t| phases::compile(t, &job, s)) {
                Ok(replay) => {
                    replay_misses.extend(phases::replay_mismatches(&replay, compiled));
                }
                Err(e) => replay_misses.push(format!("replay failed: {e}")),
            }
        }
        if let Some((makespan, _)) = tuned {
            let (env, arrays) = phases::static_env(&compiled.analysis, &job);
            let est = t.span("report.makespan", |_| {
                pdc_report::estimate(&compiled.spmd, &env, &arrays, &w.cost())
            });
            if est.makespan() != makespan {
                replay_misses.push(format!(
                    "winner re-estimated at {} cycles, search scored {makespan}",
                    est.makespan()
                ));
            }
        }
        t.span("metrics.probe", |t| {
            phases::execute(
                t,
                compiled,
                inputs,
                w.cost(),
                tmpl.backend,
                RunKind::MetricsProbe,
            )
        })?;
    }
    let report = &exec.outcome.report;
    Ok(JobOut {
        ms,
        makespan: exec.makespan(),
        messages: exec.messages(),
        pair_messages: report.pair_messages.clone(),
        prediction_misses: exec.verify_predictions().mismatches,
        crashes_survived: report.recovery.as_ref().map_or(0, |r| r.crashes_survived),
        tuned,
        replay_misses,
        gathered,
        trace: t.finish(),
    })
}
