//! The two halves of a job taken apart for the traced run: compilation
//! phase by phase and execution call by call, through the same public
//! functions `driver::compile` and `driver::execute_on` call and in the
//! same order, each call wrapped in a span named after its layer.
//!
//! The replay must produce what the driver produced; `replay_mismatches`
//! compares the two so that a replay that drifted from the driver fails
//! the run instead of timing something else.

use crate::trace::Tracer;
use pdc_core::analysis::Analysis;
use pdc_core::driver::{Compiled, Execution, Inputs, Job, Strategy};
use pdc_core::inline::inline_program;
use pdc_core::{compile_time, driver, runtime_res};
use pdc_istructure::IMatrix;
use pdc_machine::{Backend, CostModel, Ctr};
use pdc_mapping::DistInstance;
use pdc_opt::{optimize_with_remarks, OptLevel};
use pdc_report::{Prediction, RemarkSink};
use pdc_spmd::ir::SpmdProgram;
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;
use pdc_tune::TuneResult;
use std::collections::BTreeMap;

/// What the phase-by-phase compile produced.
pub struct Replay {
    /// The final per-processor program.
    pub spmd: SpmdProgram,
    /// The static message-cost prediction for it.
    pub prediction: Prediction,
    /// The decomposition search, when the job asked for one.
    pub tune: Option<TuneResult>,
}

fn const_env(job: &Job<'_>) -> BTreeMap<String, i64> {
    job.const_params
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// The environment the static models interpret a program under, built
/// from the analysis exactly as the driver builds it.
pub fn static_env(
    analysis: &Analysis,
    job: &Job<'_>,
) -> (BTreeMap<String, i64>, BTreeMap<String, DistInstance>) {
    let arrays = analysis
        .arrays()
        .keys()
        .filter_map(|name| Some((name.clone(), analysis.inst(name).ok()?)))
        .collect();
    (const_env(job), arrays)
}

/// Compile `job` phase by phase: inline, evaluator analysis, dependence
/// remarks, resolution, optimization, cost prediction and static
/// verification — or, for an automatic decomposition, the search followed
/// by the same phases for the winner.
pub fn compile(t: &mut Tracer, job: &Job<'_>, strategy: Strategy) -> Result<Replay, String> {
    if let Some(cost) = job.auto_decomposition {
        let result = t.span("tune.search", |t| search(t, job, strategy, cost))?;
        let winner = &result.winner().candidate;
        let mut fjob = job.clone();
        fjob.auto_decomposition = None;
        fjob.decomp = winner.decomp.clone();
        fjob.opt_level = winner.opt_level;
        let mut replay = compile(t, &fjob, strategy)?;
        replay.tune = Some(result);
        return Ok(replay);
    }
    let err = |e: pdc_core::CoreError| e.to_string();
    let inlined = t
        .span("core.inline", |_| {
            inline_program(
                job.program,
                job.entry,
                &job.decomp,
                &job.param_maps,
                job.mode,
            )
        })
        .map_err(err)?;
    let analysis = t
        .span("core.analysis", |_| {
            Analysis::build(
                &inlined,
                &job.decomp,
                &job.const_params,
                &job.extent_overrides,
            )
        })
        .map_err(err)?;
    let denv = const_env(job);
    t.span("depend", |_| {
        pdc_analyze::depend_remarks(&inlined.body, &job.decomp, &denv)
    });
    let mut sink = RemarkSink::new();
    let (spmd, _) = t
        .span("core.resolve", |_| match strategy {
            Strategy::Runtime => runtime_res::compile_with_remarks(&inlined, &analysis, &mut sink),
            Strategy::CompileTime => {
                compile_time::compile_with_remarks(&inlined, &analysis, &mut sink)
            }
        })
        .map_err(err)?;
    let spmd = match job.opt_level {
        Some(level) => {
            let (spmd, report) = t.span("opt", |_| optimize_with_remarks(&spmd, level, &mut sink));
            t.count(
                "opt.applied",
                (report.vectorized + report.jammed + report.stripped) as f64,
            );
            spmd
        }
        None => spmd,
    };
    let (env, arrays) = static_env(&analysis, job);
    let prediction = t.span("report.predict", |_| {
        pdc_report::predict(&spmd, &env, &arrays)
    });
    let verify = job
        .verify_static
        .unwrap_or(!matches!(job.opt_level, None | Some(OptLevel::O0)));
    if verify {
        let report = t.span("analyze.verify", |_| {
            pdc_analyze::analyze(&spmd, &env, &arrays)
        });
        if report.exact && report.has_errors() {
            return Err(format!(
                "static analysis found {} error(s)",
                report.errors().count()
            ));
        }
    }
    Ok(Replay {
        spmd,
        prediction,
        tune: None,
    })
}

/// The decomposition search as `driver::compile` runs it, with each
/// candidate's compile in its own span.
fn search(
    t: &mut Tracer,
    job: &Job<'_>,
    strategy: Strategy,
    cost: CostModel,
) -> Result<TuneResult, String> {
    let space = pdc_tune::SearchSpace::from_seed(&job.decomp, job.opt_level);
    let candidates = pdc_tune::enumerate(&space);
    t.count("tune.candidates", candidates.len() as f64);
    let denv = const_env(job);
    let dep_inexact: Option<String> =
        pdc_depend::ast::nests(job.program)
            .into_iter()
            .find_map(|(proc, nest)| {
                let info = pdc_depend::ast::analyze_for_env(nest, &denv);
                (!info.exact).then(|| {
                    let why = info
                        .notes
                        .first()
                        .cloned()
                        .unwrap_or_else(|| "subscripts or bounds are not affine".into());
                    format!("procedure `{proc}`: {why}")
                })
            });
    let result = pdc_tune::search(candidates, &cost, |cand| {
        t.span("tune.candidate_compile", |_| {
            if !matches!(cand.opt_level, None | Some(OptLevel::O0)) {
                if let Some(why) = &dep_inexact {
                    return Err(format!("illegal: dependence analysis inexact: {why}"));
                }
            }
            let mut cjob = job.clone();
            cjob.auto_decomposition = None;
            cjob.decomp = cand.decomp.clone();
            cjob.opt_level = cand.opt_level;
            cjob.verify_static = Some(false);
            let compiled =
                driver::compile(&cjob, strategy).map_err(|e| format!("compile failed: {e}"))?;
            let (env, arrays) = compiled.static_env(&cjob.const_params);
            Ok(pdc_tune::CandidateProgram {
                spmd: compiled.spmd,
                env,
                arrays,
                prediction: Some(compiled.prediction),
            })
        })
    })
    .map_err(|e| e.to_string())?;
    t.count("tune.viable", result.viable() as f64);
    Ok(result)
}

/// Where the replay differs from the driver's compile, one line each.
pub fn replay_mismatches(replay: &Replay, compiled: &Compiled) -> Vec<String> {
    let mut out = Vec::new();
    if replay.spmd != compiled.spmd {
        out.push("replayed SPMD program differs from driver::compile".to_owned());
    }
    let (a, b) = (&replay.prediction, &compiled.prediction);
    if a.sends != b.sends || a.recvs != b.recvs || a.exact != b.exact || a.notes != b.notes {
        out.push("replayed prediction differs from driver::compile".to_owned());
    }
    match (&replay.tune, &compiled.tune) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            let same = a.winner == b.winner
                && a.evaluated.len() == b.evaluated.len()
                && a.evaluated
                    .iter()
                    .zip(&b.evaluated)
                    .all(|(x, y)| x.candidate == y.candidate && x.outcome == y.outcome);
            if !same {
                out.push("replayed decomposition search differs from driver::compile".to_owned());
            }
        }
        _ => out.push("replay and driver disagree on whether a search ran".to_owned()),
    }
    out
}

/// Span names for one execution: a timed run, or the metrics probe that
/// repeats it with full runtime metrics on.
#[derive(Clone, Copy)]
pub enum RunKind {
    /// The job's own run.
    Timed,
    /// The same run again with `with_metrics()`.
    MetricsProbe,
}

/// Run `compiled` on `backend` call by call as `driver::execute_on` does
/// — lower, load inputs, run, gather — and return the execution with the
/// gathered `New` array.
pub fn execute(
    t: &mut Tracer,
    compiled: &Compiled,
    inputs: &Inputs,
    cost: CostModel,
    backend: Backend,
    kind: RunKind,
) -> Result<(Execution, IMatrix<Scalar>), String> {
    let backend = match (backend, compiled.recv_timeout) {
        (Backend::Threaded { .. }, Some(recv_timeout)) => Backend::Threaded { recv_timeout },
        (b, _) => b,
    };
    let threads = matches!(backend, Backend::Threaded { .. });
    let probe = matches!(kind, RunKind::MetricsProbe);
    let (lower, load, run, gather) = match (probe, threads) {
        (false, false) => ("spmd.lower", "spmd.load", "machine.sim.run", "spmd.gather"),
        (false, true) => (
            "spmd.lower",
            "spmd.load",
            "machine.threads.run",
            "spmd.gather",
        ),
        (true, false) => (
            "probe.lower",
            "probe.load",
            "metrics.sim.run",
            "probe.gather",
        ),
        (true, true) => (
            "probe.lower",
            "probe.load",
            "metrics.threads.run",
            "probe.gather",
        ),
    };
    let err = |e: pdc_spmd::SpmdError| e.to_string();
    let mut machine = t
        .span(lower, |_| {
            let mut m = SpmdMachine::new(&compiled.spmd, cost)?.with_backend(backend);
            match (&compiled.fault_plan, compiled.retransmit) {
                (Some((plan, cfg)), rel) => {
                    m = m.with_faults_cfg(plan.clone(), rel.unwrap_or(*cfg));
                }
                (None, Some(cfg)) => m = m.with_reliable_delivery(cfg),
                (None, None) => {}
            }
            if let Some(ckpt) = compiled.checkpoints {
                m = m.with_checkpoints(ckpt);
            }
            if let Some(cap) = compiled.trace_cap {
                m = m.with_trace(cap);
            }
            if compiled.metrics || probe {
                m = m.with_metrics();
            }
            Ok(m)
        })
        .map_err(err)?;
    t.span(load, |_| -> Result<(), String> {
        for (name, v) in &inputs.scalars {
            machine.preset_var(name, *v);
        }
        for (name, data) in &inputs.arrays {
            let dist = compiled
                .analysis
                .array(name)
                .map_err(|e| e.to_string())?
                .dist
                .clone();
            machine.preload_array(name, dist, data);
        }
        Ok(())
    })?;
    let outcome = t.span(run, |_| machine.run()).map_err(err)?;
    let report = &outcome.report;
    if probe {
        if threads {
            let m = &report.metrics;
            t.count("machine.threads.parks", m.total(Ctr::Parks) as f64);
            t.count("machine.threads.spin_wakes", m.total(Ctr::SpinWakes) as f64);
            t.count(
                "machine.threads.enqueue_stalls",
                m.total(Ctr::EnqueueStalls) as f64,
            );
        }
    } else {
        let steps = report.steps as f64;
        t.count("spmd.steps", steps);
        t.count(
            if threads {
                "machine.threads.steps"
            } else {
                "machine.sim.steps"
            },
            steps,
        );
        t.count("machine.words", report.stats.network.words as f64);
        let f = report.fault.unwrap_or_default();
        t.count("machine.rel.retransmits", f.retransmits as f64);
        t.count("machine.rel.acks", f.acks_sent as f64);
        t.count("machine.rel.dup_dropped", f.dup_frames_dropped as f64);
        let r = report.recovery.unwrap_or_default();
        t.count("machine.ckpt.taken", r.checkpoints_taken as f64);
        t.count("machine.ckpt.bytes", r.bytes_snapshotted as f64);
        t.count("machine.ckpt.replayed_ops", r.replayed_ops as f64);
        t.count("machine.ckpt.crashes_survived", r.crashes_survived as f64);
    }
    let exec = Execution {
        outcome,
        machine,
        prediction: compiled.prediction.clone(),
        n_procs: compiled.spmd.n_procs(),
    };
    let gathered = t.span(gather, |_| exec.gather("New")).map_err(err)?;
    Ok((exec, gathered))
}
