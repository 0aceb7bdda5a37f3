//! Slice invariance of the run-until-block VM.
//!
//! `ProcVm` runs bytecode in slices: local instructions back to back,
//! their cost charged to the fabric in one `tick_n`, the slice ending at
//! an allocation, send or receive. The scheduler hands it
//! `min(quantum left, budget left)` steps at a time, so a quantum of 1
//! is plain single stepping. These tests hold the slice loop to that:
//!
//! * at every quantum, a sliced run is bit-identical to the same run
//!   driven one `Process::step` at a time (clocks, op counts, steps,
//!   pair counts, the ordered trace, the full metrics snapshot);
//! * across quanta, every logical result is identical (only the global
//!   interleaving — trace order, steps spent on blocked attempts, peak
//!   in-flight — may differ);
//! * a fault raised mid-slice, and a step budget that runs out
//!   mid-slice, leave exactly what single stepping leaves.

use pdc_bench::{build_wavefront, Variant};
use pdc_core::driver::{self, Job, Strategy};
use pdc_core::programs;
use pdc_machine::{
    CostModel, Event, Fabric, Machine, MachineError, MachineStats, MetricsSnapshot, ProcId,
    Process, RunReport, Scheduler, Step,
};
use pdc_mapping::{Decomposition, Dist, ScalarMap};
use pdc_spmd::ir::{SExpr, SStmt, SpmdProgram};
use pdc_spmd::lower::lower;
use pdc_spmd::vm::{DistArray, ProcVm};
use pdc_spmd::Scalar;
use pdc_testkit::{cases, Rng};
use std::collections::BTreeMap;
use std::sync::Arc;

const QUANTA: [u64; 5] = [1, 2, 3, 7, 4096];

/// Hides a VM's `run_slice`, so drivers fall back to the trait default
/// of one `step` per call: the single-stepping oracle.
struct Stepwise<'a>(&'a mut ProcVm);

impl Process for Stepwise<'_> {
    fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
        self.0.step(fabric, me)
    }
}

/// A program with its entry scalars and preloaded input arrays.
struct Case {
    label: String,
    prog: SpmdProgram,
    scalars: Vec<(String, i64)>,
    arrays: Vec<(String, Dist, usize)>,
}

impl Case {
    fn vms(&self) -> Vec<ProcVm> {
        let s = self.prog.n_procs();
        (0..s)
            .map(|p| {
                let code = Arc::new(lower(self.prog.body(p)).expect("program lowers"));
                let mut vm = ProcVm::new(code);
                for (name, v) in &self.scalars {
                    vm.preset_var(name, Scalar::Int(*v));
                }
                for (name, dist, n) in &self.arrays {
                    let data = driver::standard_input(*n, *n);
                    let mut arr = DistArray::alloc(dist.clone(), *n, *n, s);
                    let DistArray { inst, local } = &mut arr;
                    for (i, j) in inst.owned_cells(p) {
                        if let Some(v) = data.peek(i, j) {
                            let (li, lj) = inst.local(i, j);
                            local.write(li, lj, *v).expect("fresh segment");
                        }
                    }
                    vm.preload_array(name, arr);
                }
                vm
            })
            .collect()
    }

    /// Run on the simulator with full metrics and an unbounded trace;
    /// returns the outcome and the machine it left behind.
    fn run(
        &self,
        quantum: u64,
        budget: u64,
        stepwise: bool,
    ) -> (Result<RunReport, MachineError>, Machine) {
        let mut machine = Machine::new(self.prog.n_procs(), CostModel::ipsc2())
            .with_trace(1 << 22)
            .with_metrics();
        let mut vms = self.vms();
        let mut wrapped: Vec<Stepwise<'_>> = Vec::new();
        let mut procs: Vec<&mut dyn Process> = if stepwise {
            wrapped.extend(vms.iter_mut().map(Stepwise));
            wrapped.iter_mut().map(|w| w as &mut dyn Process).collect()
        } else {
            vms.iter_mut().map(|v| v as &mut dyn Process).collect()
        };
        let sched = Scheduler::new()
            .with_quantum(quantum)
            .with_step_budget(budget);
        let out = sched.run(&mut machine, &mut procs);
        (out, machine)
    }
}

/// Everything a run reports, ordered trace and full metrics included.
type Full = (
    MachineStats,
    u64,
    BTreeMap<(ProcId, ProcId, pdc_machine::Tag), u64>,
    Vec<Event>,
    MetricsSnapshot,
);

fn full(r: &RunReport) -> Full {
    assert_eq!(r.trace.dropped(), 0, "trace cap large enough");
    (
        r.stats.clone(),
        r.steps,
        r.pair_messages.clone(),
        r.trace.events().cloned().collect(),
        r.metrics.clone(),
    )
}

/// The interleaving-free part of a run: per-processor clocks and
/// counters, traffic totals, pair counts, each processor's own trace
/// (times, kinds, costs) and the logical metrics.
fn logical(r: &RunReport) -> impl PartialEq + std::fmt::Debug {
    let per_proc: Vec<Vec<_>> = (0..r.stats.procs.len())
        .map(|p| {
            r.trace
                .events()
                .filter(|e| e.proc.0 == p)
                .map(|e| (e.at, e.kind.clone()))
                .collect()
        })
        .collect();
    (
        r.stats.procs.clone(),
        r.stats.clocks.clone(),
        (r.stats.network.messages, r.stats.network.words),
        r.pair_messages.clone(),
        per_proc,
        r.metrics.logical(),
    )
}

fn check_invariance(case: &Case) {
    let mut first: Option<RunReport> = None;
    for q in QUANTA {
        let (sliced, _) = case.run(q, u64::MAX, false);
        let sliced = sliced.unwrap_or_else(|e| panic!("{} (q={q}): {e}", case.label));
        let (stepped, _) = case.run(q, u64::MAX, true);
        let stepped = stepped.unwrap_or_else(|e| panic!("{} (q={q}) stepwise: {e}", case.label));
        assert_eq!(sliced.undelivered, 0, "{}", case.label);
        assert!(
            full(&sliced) == full(&stepped),
            "{} (q={q}): sliced run differs from single stepping",
            case.label
        );
        match &first {
            None => first = Some(sliced),
            Some(base) => assert_eq!(
                logical(&sliced),
                logical(base),
                "{} (q={q}): logical results depend on the quantum",
                case.label
            ),
        }
    }
}

fn wavefront(variant: Variant, n: usize, s: usize) -> Case {
    Case {
        label: format!("{variant} n={n} s={s}"),
        prog: build_wavefront(variant, n, s),
        scalars: vec![("n".into(), n as i64)],
        arrays: vec![("Old".into(), Dist::ColumnCyclic, n)],
    }
}

#[test]
fn fig6_fig7_variants_are_slice_invariant() {
    for s in [2, 4] {
        for variant in [
            Variant::RuntimeRes,
            Variant::CompileTime,
            Variant::OptimizedI,
            Variant::OptimizedII,
            Variant::OptimizedIII { blksize: 4 },
        ] {
            check_invariance(&wavefront(variant, 16, s));
        }
    }
}

/// A random straight-line scalar program whose variables live on random
/// processors, so values travel between them.
fn random_scalar_case(rng: &mut Rng) -> Case {
    let nprocs = rng.range_usize(1, 5);
    let mut src = String::from("procedure main() {\n    let x0 = 3;\n    let x1 = 10;\n");
    let mut d = Decomposition::new(nprocs);
    let count = rng.range_usize(1, 12);
    for i in 2..count + 2 {
        let (a, b) = (rng.range_usize(0, i), rng.range_usize(0, i));
        let expr = match rng.range_usize(0, 5) {
            0 => format!("x{a} + x{b}"),
            1 => format!("x{a} - x{b}"),
            2 => format!("min(x{a}, x{b})"),
            3 => format!("max(x{a}, x{b}) mod 7"),
            _ => format!("2 * x{a} + {}", rng.range_i64(-50, 50)),
        };
        src.push_str(&format!("    let x{i} = {expr};\n"));
        if rng.bool() {
            d = d.scalar(format!("x{i}"), ScalarMap::On(rng.range_usize(0, nprocs)));
        }
    }
    src.push_str(&format!("    return x{};\n}}\n", count + 1));
    let program = pdc_lang::parse(&src).expect("generated source parses");
    let strategy = if rng.bool() {
        Strategy::Runtime
    } else {
        Strategy::CompileTime
    };
    let compiled = driver::compile(&Job::new(&program, "main", d), strategy)
        .unwrap_or_else(|e| panic!("{strategy:?} failed on:\n{src}\n{e}"));
    Case {
        label: format!("{strategy:?} on {nprocs} procs:\n{src}"),
        prog: compiled.spmd,
        scalars: vec![],
        arrays: vec![],
    }
}

/// Jacobi under a random distribution from the block / cyclic families.
fn random_jacobi_case(rng: &mut Rng) -> Case {
    let nprocs = rng.range_usize(1, 6);
    let n = rng.range_usize(4, 9);
    let dist = match rng.range_usize(0, 4) {
        0 => Dist::ColumnCyclic,
        1 => Dist::RowBlock,
        2 => Dist::ColumnBlockCyclic {
            block: rng.range_usize(1, 4),
        },
        _ => Dist::RowCyclic,
    };
    let strategy = if rng.bool() {
        Strategy::Runtime
    } else {
        Strategy::CompileTime
    };
    let program = programs::jacobi();
    let d = Decomposition::new(nprocs)
        .array("New", dist.clone())
        .array("Old", dist.clone());
    let mut job = Job::new(&program, "jacobi", d).with_const("n", n as i64);
    job.extent_overrides.insert("Old".into(), (n, n));
    let label = format!("jacobi {dist:?} on {nprocs} procs, n = {n}, {strategy:?}");
    let compiled = driver::compile(&job, strategy).unwrap_or_else(|e| panic!("{label}: {e}"));
    Case {
        label,
        prog: compiled.spmd,
        scalars: vec![("n".into(), n as i64)],
        arrays: vec![("Old".into(), dist, n)],
    }
}

#[test]
fn random_programs_are_slice_invariant() {
    cases(24, "random_programs_are_slice_invariant", |rng| {
        check_invariance(&random_scalar_case(rng));
        check_invariance(&random_jacobi_case(rng));
    });
}

/// Every processor sums 1..=20 in a loop, then divides by zero: the
/// fault comes in the middle of a slice of local work.
fn faulting_case() -> Case {
    let body = vec![
        SStmt::Let {
            var: "acc".into(),
            value: SExpr::int(0),
        },
        SStmt::For {
            var: "i".into(),
            lo: SExpr::int(1),
            hi: SExpr::int(20),
            step: SExpr::int(1),
            body: vec![SStmt::Let {
                var: "acc".into(),
                value: SExpr::var("acc").add(SExpr::var("i")),
            }],
        },
        SStmt::Let {
            var: "z".into(),
            value: SExpr::var("acc").idiv(SExpr::var("acc").sub(SExpr::int(210))),
        },
    ];
    Case {
        label: "faulting".into(),
        prog: SpmdProgram::uniform(2, body),
        scalars: vec![],
        arrays: vec![],
    }
}

#[test]
fn a_fault_mid_slice_matches_single_stepping() {
    let case = faulting_case();
    let mut messages = Vec::new();
    for q in QUANTA {
        let (sliced, m_sliced) = case.run(q, u64::MAX, false);
        let (stepped, m_stepped) = case.run(q, u64::MAX, true);
        let (sliced, stepped) = (sliced.unwrap_err(), stepped.unwrap_err());
        assert!(
            matches!(sliced, MachineError::ProcessFault { .. }),
            "q={q}: {sliced}"
        );
        assert_eq!(sliced.to_string(), stepped.to_string(), "q={q}");
        assert_eq!(m_sliced.stats(), m_stepped.stats(), "q={q}: machine state");
        messages.push(sliced.to_string());
    }
    assert!(
        messages[0].contains("division by zero (pc "),
        "{}",
        messages[0]
    );
    assert!(
        messages.windows(2).all(|w| w[0] == w[1]),
        "fault message depends on the quantum: {messages:?}"
    );
}

#[test]
fn a_budget_that_runs_out_mid_slice_stops_where_single_stepping_does() {
    let case = wavefront(Variant::OptimizedIII { blksize: 4 }, 16, 2);
    for budget in [1, 2, 3, 50, 777, 1001, 4097, 12_345] {
        for q in [3, 4096] {
            let (sliced, m_sliced) = case.run(q, budget, false);
            let (stepped, m_stepped) = case.run(q, budget, true);
            for (what, err) in [("sliced", sliced), ("stepwise", stepped)] {
                assert!(
                    matches!(err, Err(MachineError::StepBudgetExceeded { budget: b }) if b == budget),
                    "{what}, budget {budget}, q={q}"
                );
            }
            let stats = m_sliced.stats();
            assert_eq!(stats, m_stepped.stats(), "budget {budget}, q={q}");
            let ops: u64 = stats.procs.iter().map(|p| p.ops).sum();
            assert!(ops <= budget, "budget {budget}: {ops} ops charged");
        }
    }
}
