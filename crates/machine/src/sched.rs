//! The deterministic scheduler.

use crate::checkpoint::{Checkpoint, CheckpointCfg, RecoveryReport};
use crate::cost::CostModel;
use crate::error::MachineError;
use crate::fabric::{Fabric, Machine};
use crate::fault::{FaultPlan, FaultState};
use crate::message::{ProcId, Tag, Time, Word};
use crate::reliable::{
    ack_tag, frame_arc, is_ack_tag, unframe, Pending, RecvChan, RelConfig, SenderChan, ACK_TAG_BIT,
};
use crate::stats::{FaultReport, MachineStats};
use crate::trace::{EventKind, Trace};
use pdc_metrics::{Ctr, FlightKind, MetricsRegistry, NO_PEER};
use std::collections::BTreeMap;

/// What a process did on one scheduling step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Made progress; schedule it again.
    Ran,
    /// Needs a message `(src, tag)` that is not yet available. The
    /// scheduler parks the process until the message exists.
    BlockedOnRecv {
        /// Source the process is waiting on.
        src: ProcId,
        /// Tag the process is waiting on.
        tag: Tag,
    },
    /// The process has terminated normally.
    Done,
}

/// A process that can be driven by the [`Scheduler`] (simulated backend)
/// or by [`ThreadedRunner`](crate::ThreadedRunner) (one OS thread per
/// processor).
///
/// The process is called with a view of the machine fabric and its own
/// processor id; it performs some bounded amount of work (one
/// instruction per [`step`](Process::step), up to `max` per
/// [`run_slice`](Process::run_slice)), charging costs via
/// [`Fabric::tick`] / [`Fabric::tick_n`] / [`Fabric::send`] /
/// [`Fabric::try_recv`], and reports a [`Step`].
///
/// # Errors
///
/// Implementations report internal faults (type errors, I-structure
/// violations, …) as [`MachineError::ProcessFault`]; the scheduler aborts
/// the run on the first fault.
pub trait Process {
    /// Execute one step on processor `me`.
    fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError>;

    /// Execute up to `max` (≥ 1) steps on processor `me` and report the
    /// last step's outcome with the number of steps taken — every step
    /// counts, a blocked receive attempt and the final `Done` included.
    /// The contract: the fabric sees exactly the sends, receives and
    /// charged ops of the same number of [`step`](Process::step) calls,
    /// and the slice ends after any step that is not [`Step::Ran`] or
    /// that moved a message, so a driver's per-step checks (self-send,
    /// fatal transport errors) still run right after the step that
    /// could trip them. The default takes one step.
    fn run_slice(
        &mut self,
        fabric: &mut dyn Fabric,
        me: ProcId,
        max: u64,
    ) -> Result<(Step, u64), MachineError> {
        let _ = max;
        Ok((self.step(fabric, me)?, 1))
    }

    /// Serialize the process's complete execution state — program
    /// counter, registers, memory, everything [`restore`](Process::restore)
    /// needs to resume as if nothing happened — for a
    /// [`Checkpoint`](crate::Checkpoint). `None` (the default) means the
    /// process cannot be checkpointed, and requesting crash recovery for
    /// it fails with [`MachineError::CheckpointUnsupported`].
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Reinstate state captured by [`snapshot`](Process::snapshot),
    /// returning `false` if the image is unusable. The default restores
    /// nothing.
    fn restore(&mut self, state: &[u8]) -> bool {
        let _ = state;
        false
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Final statistics snapshot (clocks, traffic, per-processor counters).
    pub stats: MachineStats,
    /// Total scheduler steps executed across all processes.
    pub steps: u64,
    /// Messages left in the network after all processes finished. A clean
    /// run leaves zero; a non-zero count usually means mismatched
    /// send/receive loops in generated code.
    pub undelivered: usize,
    /// Cumulative messages sent per `(src, dst, tag)` triple over the
    /// whole run. Because FIFO order within a typed channel is exactly
    /// program order on the sender, these counts are identical across
    /// execution backends and are the key invariant the differential
    /// tests compare. Under the reliability layer these are the
    /// *program-level* counts — retransmissions and acks are protocol
    /// traffic and tallied in [`fault`](RunReport::fault) instead.
    pub pair_messages: BTreeMap<(ProcId, ProcId, Tag), u64>,
    /// The triples behind [`undelivered`](RunReport::undelivered), with
    /// queue depths — diagnostic parity between the backends.
    pub pending: Vec<(ProcId, ProcId, Tag, usize)>,
    /// Fault-injection and reliable-delivery accounting; `None` when the
    /// run used the raw fabric.
    pub fault: Option<FaultReport>,
    /// Checkpoint/restart accounting; `None` unless checkpointing was
    /// configured ([`Scheduler::run_recoverable`] with a
    /// [`CheckpointCfg`], or `Job::with_checkpoints` at the driver).
    pub recovery: Option<RecoveryReport>,
    /// The event trace of the run — empty unless tracing was enabled
    /// ([`Machine::with_trace`](crate::Machine::with_trace) on the
    /// simulator, [`ThreadedRunner::with_trace`](crate::ThreadedRunner::with_trace)
    /// on real threads). Check [`Trace::dropped`] before treating it as
    /// complete: a bounded trace silently truncates at its cap.
    pub trace: Trace,
    /// Metrics snapshot at the end of the run. Always present: the
    /// flight recorder is always on, so even a metrics-off run carries
    /// each processor's recent history. Full counters/histograms need
    /// [`Machine::with_metrics`](crate::Machine::with_metrics) /
    /// `ThreadedRunner::with_metrics` (check
    /// [`MetricsSnapshot::full`](pdc_metrics::MetricsSnapshot)).
    pub metrics: pdc_metrics::MetricsSnapshot,
}

/// Drives a set of [`Process`]es over a [`Machine`] until all finish.
///
/// Scheduling is round-robin: each live process runs until it blocks on a
/// receive whose message has not been sent yet, terminates, or exhausts a
/// per-turn quantum. Because message *content* visible to a process depends
/// only on FIFO order within typed channels (never on global interleaving),
/// results and logical-clock times are independent of the quantum; the
/// quantum exists only to bound memory growth of in-flight traffic.
#[derive(Debug)]
pub struct Scheduler {
    quantum: u64,
    step_budget: u64,
}

impl Scheduler {
    /// A scheduler with the default quantum (4096 steps per turn) and step
    /// budget (`u64::MAX`, effectively unbounded).
    pub fn new() -> Self {
        Scheduler {
            quantum: 4096,
            step_budget: u64::MAX,
        }
    }

    /// Limit the total number of steps (guards tests against runaway
    /// generated programs).
    pub fn with_step_budget(mut self, budget: u64) -> Self {
        self.step_budget = budget;
        self
    }

    /// Set the per-turn quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0`.
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        self.quantum = quantum;
        self
    }

    /// Run `processes[p]` on processor `p` until every process is done.
    ///
    /// # Errors
    ///
    /// * [`MachineError::Deadlock`] if every unfinished process is blocked
    ///   on a receive that no pending message satisfies;
    /// * [`MachineError::StepBudgetExceeded`] if the budget runs out;
    /// * any [`MachineError::ProcessFault`] raised by a process.
    ///
    /// # Panics
    ///
    /// Panics if `processes.len() != machine.n_procs()`.
    pub fn run(
        &self,
        machine: &mut Machine,
        processes: &mut [&mut dyn Process],
    ) -> Result<RunReport, MachineError> {
        assert_eq!(
            processes.len(),
            machine.n_procs(),
            "one process per processor"
        );
        let n = processes.len();
        let mut done = vec![false; n];
        let mut blocked: Vec<Option<(ProcId, Tag)>> = vec![None; n];
        let mut steps: u64 = 0;
        loop {
            let mut progressed = false;
            for p in 0..n {
                if done[p] {
                    continue;
                }
                let me = ProcId(p);
                // Skip a parked process whose message still has not arrived.
                if let Some((src, tag)) = blocked[p] {
                    if !machine.has_pending(me, src, tag) {
                        continue;
                    }
                    blocked[p] = None;
                }
                let mut quantum = self.quantum;
                loop {
                    if steps >= self.step_budget {
                        return Err(MachineError::StepBudgetExceeded {
                            budget: self.step_budget,
                        });
                    }
                    let max = quantum.min(self.step_budget - steps);
                    let (step, taken) = processes[p].run_slice(&mut *machine, me, max)?;
                    steps += taken;
                    if let Some(sp) = machine.take_self_send() {
                        return Err(MachineError::SelfSend { proc: sp });
                    }
                    // Every step of the slice but a final blocked attempt
                    // or `Done` ran; only those use up quantum.
                    let ran = if step == Step::Ran { taken } else { taken - 1 };
                    quantum -= ran;
                    progressed |= ran > 0;
                    match step {
                        Step::Ran => {
                            if quantum == 0 {
                                break;
                            }
                        }
                        Step::BlockedOnRecv { src, tag } => {
                            if machine.has_pending(me, src, tag) {
                                // The message exists; let the process retry
                                // immediately (the recv will now succeed).
                                progressed = true;
                                continue;
                            }
                            blocked[p] = Some((src, tag));
                            break;
                        }
                        Step::Done => {
                            done[p] = true;
                            machine.finish(me);
                            progressed = true;
                            break;
                        }
                    }
                }
            }
            if done.iter().all(|&d| d) {
                break;
            }
            if !progressed {
                let waiting = blocked
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| !done[*p])
                    .filter_map(|(p, b)| b.map(|(src, tag)| (ProcId(p), src, tag)))
                    .collect();
                return Err(MachineError::Deadlock { waiting });
            }
        }
        Ok(RunReport {
            stats: machine.stats(),
            steps,
            undelivered: machine.undelivered(),
            pair_messages: machine.pair_counts(),
            pending: machine.pending_triples(),
            fault: None,
            recovery: None,
            trace: machine.snapshot_trace(),
            metrics: machine.metrics_snapshot(),
        })
    }

    /// Run `processes[p]` on processor `p` over a faulty fabric, with the
    /// reliable-delivery protocol interposed: every program send is
    /// sequence-numbered and retransmitted on a logical-clock timeout
    /// until acknowledged; every program receive is deduplicated and
    /// reordered back into sequence. The `plan` decides which frames the
    /// transport mistreats (acks included — they travel through the same
    /// faulty fabric under [`ack_tag`]).
    ///
    /// Everything stays deterministic: fault decisions are pure functions
    /// of the plan, and retransmission timers fire in logical time, so
    /// identical inputs give identical outputs, clocks, and
    /// [`FaultReport`]s run after run.
    ///
    /// # Errors
    ///
    /// The vanilla [`run`](Scheduler::run) errors, plus
    /// [`MachineError::RetriesExhausted`] when a frame is retransmitted
    /// `cfg.max_retries` times without an acknowledgement.
    ///
    /// # Panics
    ///
    /// Panics if `processes.len() != machine.n_procs()`.
    pub fn run_faulty(
        &self,
        machine: &mut Machine,
        processes: &mut [&mut dyn Process],
        plan: &FaultPlan,
        cfg: RelConfig,
    ) -> Result<RunReport, MachineError> {
        self.run_recoverable(machine, processes, plan, cfg, None)
    }

    /// [`run_faulty`](Scheduler::run_faulty) with crash recovery: when
    /// `ckpt` is set, every processor's complete state (process image,
    /// reliable-delivery windows, logical counters) is checkpointed at
    /// the configured charged-op interval, and a processor the `plan`
    /// crashes is restarted from its last [`Checkpoint`] — the reliable
    /// layer's retransmissions replay the lost suffix and the peers'
    /// duplicate suppression makes the recovery transparent.
    ///
    /// In independent mode (the default) only the crashed processor rolls
    /// back: receivers advertise *lagged* acks (the position of their
    /// last checkpoint), so peers' retransmission windows always hold the
    /// replay suffix. In [`coordinated`](CheckpointCfg::coordinated) mode
    /// all processors snapshot at one scheduler round boundary and all
    /// roll back together, with in-flight traffic discarded and
    /// regenerated by deterministic re-execution.
    ///
    /// Everything, the reboot delay included, runs in logical time:
    /// identical inputs give bit-identical reports, crashes and all.
    ///
    /// # Errors
    ///
    /// The [`run_faulty`](Scheduler::run_faulty) errors, plus
    /// [`MachineError::CheckpointUnsupported`] when a process cannot
    /// snapshot, and [`MachineError::Crashed`] when a processor crashes
    /// with no checkpointing configured and everyone else still finishes.
    ///
    /// # Panics
    ///
    /// Panics if `processes.len() != machine.n_procs()`.
    pub fn run_recoverable(
        &self,
        machine: &mut Machine,
        processes: &mut [&mut dyn Process],
        plan: &FaultPlan,
        cfg: RelConfig,
        ckpt: Option<CheckpointCfg>,
    ) -> Result<RunReport, MachineError> {
        assert_eq!(
            processes.len(),
            machine.n_procs(),
            "one process per processor"
        );
        let n = processes.len();
        // In reliable mode every wire frame — data, retransmission, ack,
        // keepalive — goes through `Machine::send` via `FaultState::
        // dispatch`. Logical sends are recorded at the `ReliableView`
        // boundary instead, so tell the machine its send path is raw
        // transport only.
        machine.set_raw_transport(true);
        let mut fault = FaultState::new(plan.clone());
        let mut rel = RelState::new(n, cfg);
        let mut done = vec![false; n];
        let mut dead = vec![false; n];
        let mut first_crash: Option<(ProcId, u64)> = None;
        let mut last_block: Vec<Option<(ProcId, Tag)>> = vec![None; n];
        let mut steps: u64 = 0;
        let mut solicit_attempts: u32 = 0;
        let mut recovery = ckpt.map(|cfg| RecoveryCtl::new(cfg, n));
        if let Some(rc) = &mut recovery {
            if !rc.cfg.coordinated {
                // Independent mode lags acknowledgements behind the last
                // checkpoint from the very start.
                for st in rel.stable.iter_mut() {
                    *st = Some(BTreeMap::new());
                }
            }
            // Initial checkpoint of every processor, so a restore target
            // exists whatever the crash point. Free: the launch image
            // exists before the clocks start.
            for p in 0..n {
                rc.ckpts[p] = snapshot_proc(
                    machine,
                    &rel,
                    &fault,
                    processes,
                    ProcId(p),
                    &rc.cfg,
                    &mut rc.report,
                    false,
                )?;
                rc.mark_taken(p, machine.clock(ProcId(p)));
            }
        }
        loop {
            // Coordinated snapshots happen between rounds: every
            // processor is at a step boundary, so the cut is barrier
            // aligned by construction.
            if let Some(rc) = &mut recovery {
                if rc.cfg.coordinated {
                    let min_ops = (0..n).map(|q| fault.ops(ProcId(q))).min().unwrap_or(0);
                    if min_ops >= rc.global_last_op + rc.cfg.interval_ops {
                        for q in 0..n {
                            rc.ckpts[q] = snapshot_proc(
                                machine,
                                &rel,
                                &fault,
                                processes,
                                ProcId(q),
                                &rc.cfg,
                                &mut rc.report,
                                true,
                            )?;
                        }
                        rc.global_last_op = min_ops;
                    }
                }
            }
            let round_activity = rel.activity;
            let mut progressed = false;
            let mut global_rollback: Option<(ProcId, u64)> = None;
            'round: for p in 0..n {
                let me = ProcId(p);
                if dead[p] {
                    continue;
                }
                if done[p] {
                    // A finished process still owes the protocol: ingest
                    // late frames, re-ack retransmissions, retire acks,
                    // and service its own retransmission timers.
                    rel.pump_acks(machine, me);
                    rel.pump_all_data(machine, &mut fault, me);
                    rel.service_timers(machine, &mut fault, me);
                    if let Some(e) = rel.fatal.take() {
                        return Err(e);
                    }
                    continue;
                }
                let mut quantum = self.quantum;
                loop {
                    if steps >= self.step_budget {
                        return Err(MachineError::StepBudgetExceeded {
                            budget: self.step_budget,
                        });
                    }
                    steps += 1;
                    let step = {
                        let mut view = ReliableView {
                            m: &mut *machine,
                            fault: &mut fault,
                            rel: &mut rel,
                        };
                        processes[p].step(&mut view, me)?
                    };
                    if let Some(sp) = machine.take_self_send() {
                        return Err(MachineError::SelfSend { proc: sp });
                    }
                    if let Some(e) = rel.fatal.take() {
                        return Err(e);
                    }
                    match step {
                        Step::Ran => {
                            progressed = true;
                            last_block[p] = None;
                            // Step boundary: checkpoint first (so a crash
                            // landing on the same boundary restores with a
                            // zero-op replay), then roll the crash dice.
                            if let Some(rc) = &mut recovery {
                                if !rc.cfg.coordinated
                                    && fault.ops(me) >= rc.last_ckpt_op[p] + rc.cfg.interval_ops
                                    && rc.cfg.amortized(
                                        rc.last_ckpt_at[p],
                                        rc.last_ckpt_cost[p],
                                        machine.clock(me),
                                    )
                                {
                                    rc.ckpts[p] = snapshot_proc(
                                        machine,
                                        &rel,
                                        &fault,
                                        processes,
                                        me,
                                        &rc.cfg,
                                        &mut rc.report,
                                        true,
                                    )?;
                                    rc.last_ckpt_op[p] = fault.ops(me);
                                    rc.mark_taken(p, machine.clock(me));
                                    advance_stable_floors(&mut rel, me);
                                }
                            }
                            if let Some(crash_op) = fault.take_crash(me) {
                                match &mut recovery {
                                    Some(rc) if rc.cfg.coordinated => {
                                        global_rollback = Some((me, crash_op));
                                        break 'round;
                                    }
                                    Some(rc) => {
                                        restore_proc(
                                            machine,
                                            &mut rel,
                                            &mut fault,
                                            processes,
                                            me,
                                            crash_op,
                                            &rc.ckpts[p],
                                            &rc.cfg,
                                            &mut rc.report,
                                        )?;
                                        rc.last_ckpt_op[p] = crash_op;
                                        // Pacing restarts from the restore
                                        // point; the restored image's cost
                                        // still amortizes the next snapshot.
                                        rc.last_ckpt_at[p] = machine.clock(me);
                                        break;
                                    }
                                    None => {
                                        // No checkpoint to restore from: the
                                        // processor is simply gone. Its own
                                        // windows are cleared so termination
                                        // ignores it; peers retransmitting to
                                        // it exhaust their retries and name
                                        // it as the suspected-dead peer.
                                        let at = machine.clock(me);
                                        machine.trace_mut().record(
                                            me,
                                            at,
                                            EventKind::Crash { at_op: crash_op },
                                        );
                                        dead[p] = true;
                                        first_crash.get_or_insert((me, crash_op));
                                        rel.procs[p].senders.clear();
                                        break;
                                    }
                                }
                            }
                            quantum -= 1;
                            if quantum == 0 {
                                break;
                            }
                        }
                        Step::BlockedOnRecv { src, tag } => {
                            last_block[p] = Some((src, tag));
                            // A blocked processor's NIC still services every
                            // other stream — ingest and ack cross-traffic so
                            // peers sending to us don't exhaust their retries
                            // against a processor that is merely waiting.
                            // (The threaded backend's pump drains all streams;
                            // this keeps the backends' protocol behaviour
                            // aligned.)
                            rel.pump_all_data(machine, &mut fault, me);
                            // The pump may have just completed the stream;
                            // retry immediately if so. No parking otherwise:
                            // the next frame may need a retransmission that
                            // only this round's timer service can trigger.
                            if rel.has_ready(me, src, tag) {
                                progressed = true;
                                continue;
                            }
                            rel.recv_keepalive(machine, &mut fault, me, src, tag);
                            break;
                        }
                        Step::Done => {
                            done[p] = true;
                            machine.finish(me);
                            progressed = true;
                            if let Some(rc) = &mut recovery {
                                if !rc.cfg.coordinated {
                                    // Final checkpoint makes the finished
                                    // state durable; from here the processor
                                    // advertises live acks so peers' windows
                                    // drain and the run can terminate. Free:
                                    // op-indexed crashes can't land after the
                                    // last op, so this image is never a
                                    // replay target.
                                    rc.ckpts[p] = snapshot_proc(
                                        machine,
                                        &rel,
                                        &fault,
                                        processes,
                                        me,
                                        &rc.cfg,
                                        &mut rc.report,
                                        false,
                                    )?;
                                    rc.last_ckpt_op[p] = fault.ops(me);
                                    rel.stable[p] = None;
                                    let streams: Vec<(ProcId, Tag)> =
                                        rel.procs[p].recvs.keys().copied().collect();
                                    for (src, tag) in streams {
                                        let cum = rel.procs[p].recvs[&(src, tag)].cumulative();
                                        fault.dispatch(
                                            machine,
                                            me,
                                            src,
                                            ack_tag(tag),
                                            &[cum as Word, cum as Word],
                                        );
                                        rel.acks_sent += 1;
                                        machine.metrics_registry().count(p, Ctr::AcksSent, 1);
                                    }
                                }
                            }
                            break;
                        }
                    }
                }
            }
            if let Some((victim, crash_op)) = global_rollback {
                let rc = recovery
                    .as_mut()
                    .expect("coordinated rollback implies recovery state");
                restore_all(
                    machine,
                    &mut rel,
                    processes,
                    victim,
                    crash_op,
                    &rc.ckpts,
                    &rc.cfg,
                    &fault,
                    &mut rc.report,
                    &mut done,
                )?;
                continue;
            }
            if (0..n).all(|p| done[p] || dead[p]) && rel.all_acked() {
                break;
            }
            if progressed {
                solicit_attempts = 0;
            }
            if !progressed && rel.activity == round_activity {
                // Nothing moved on its own. If a retransmission timer is
                // set, simulated time jumps to the earliest deadline — the
                // discrete-event "wait for the timer to fire".
                if let Some((p, t)) = rel.earliest_deadline() {
                    machine.advance_clock_to(p, t);
                    rel.service_timers(machine, &mut fault, p);
                    if let Some(e) = rel.fatal.take() {
                        return Err(e);
                    }
                    if rel.activity != round_activity {
                        continue;
                    }
                }
                // A finished peer can no longer crash — its op-indexed
                // faults are exhausted — so delivered-but-unstable frames
                // held as its replay suffix are dead weight, and if the
                // peer's final live ack was dropped nothing else will ever
                // retire them. Retiring them here mirrors the threaded
                // backend, which retires such a window as soon as its
                // peer posts that it lingers.
                let mut retired = false;
                for rp in rel.procs.iter_mut() {
                    for (&(dst, _), chan) in rp.senders.iter_mut() {
                        if done[dst.0]
                            && !chan.unacked.is_empty()
                            && chan.unacked.iter().all(|f| f.seq < chan.delivered)
                        {
                            chan.unacked.clear();
                            retired = true;
                        }
                    }
                }
                if retired {
                    continue;
                }
                // Replay solicitation of last resort: with every timer
                // suppressed by delivered floors, a blocked checkpoint-mode
                // receiver re-advertises its floors before we give up. The
                // attempt bound outlasts any bounded fault budget while a
                // genuine cycle still terminates as a deadlock.
                if solicit_attempts < 16 {
                    solicit_attempts += 1;
                    let mut fired = 0;
                    for (p, b) in last_block.iter().enumerate() {
                        if done[p] || dead[p] {
                            continue;
                        }
                        if let Some((src, tag)) = b {
                            fired +=
                                rel.force_keepalive(machine, &mut fault, ProcId(p), *src, *tag);
                        }
                    }
                    if fired > 0 {
                        continue;
                    }
                }
                let waiting = last_block
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| !done[*p] && !dead[*p])
                    .filter_map(|(p, b)| b.map(|(src, tag)| (ProcId(p), src, tag)))
                    .collect();
                return Err(MachineError::Deadlock { waiting });
            }
        }
        if let Some((proc, at_op)) = first_crash {
            // Everyone else finished cleanly, but a processor died
            // unrecoverably along the way — the run is not a success.
            return Err(MachineError::Crashed { proc, at_op });
        }
        Ok(RunReport {
            stats: machine.stats(),
            steps,
            undelivered: rel.undelivered(),
            pair_messages: rel.logical_sent.clone(),
            pending: rel.pending_triples(),
            trace: machine.snapshot_trace(),
            fault: Some(FaultReport {
                injected: fault.counts(),
                retransmits: rel.retransmits,
                acks_sent: rel.acks_sent,
                dup_frames_dropped: rel.dup_total(),
                max_gap: rel.max_gap(),
                raw_leftover: machine.undelivered(),
            }),
            recovery: recovery.map(|rc| rc.report),
            metrics: machine.metrics_snapshot(),
        })
    }
}

/// Bookkeeping for an actively checkpointed run.
struct RecoveryCtl {
    cfg: CheckpointCfg,
    /// Serialized last checkpoint per processor — stored as wire bytes so
    /// every restore also exercises the parse path.
    ckpts: Vec<Vec<u8>>,
    /// Op counter at each processor's last checkpoint (independent mode).
    last_ckpt_op: Vec<u64>,
    /// Logical clock and charged cost of each processor's last
    /// checkpoint, for cost-amortized pacing
    /// ([`CheckpointCfg::amortized`]).
    last_ckpt_at: Vec<Time>,
    last_ckpt_cost: Vec<u64>,
    /// Minimum op counter at the last global snapshot (coordinated mode).
    global_last_op: u64,
    report: RecoveryReport,
}

impl RecoveryCtl {
    fn new(cfg: CheckpointCfg, n: usize) -> Self {
        RecoveryCtl {
            cfg,
            ckpts: vec![Vec::new(); n],
            last_ckpt_op: vec![0; n],
            last_ckpt_at: vec![Time(0); n],
            last_ckpt_cost: vec![0; n],
            global_last_op: 0,
            report: RecoveryReport::default(),
        }
    }

    /// Record pacing state for a checkpoint of `p` just taken at `now`.
    fn mark_taken(&mut self, p: usize, now: Time) {
        self.last_ckpt_at[p] = now;
        self.last_ckpt_cost[p] = self.cfg.checkpoint_cost(self.ckpts[p].len());
    }
}

/// Serialize `me`'s complete state into a restorable checkpoint image.
///
/// `charge` puts the snapshot cost on the processor's clock. Mid-run
/// checkpoints charge; the initial image is provisioned before the
/// clocks start, and the final one is an off-critical-path flush —
/// crashes are op-indexed, so none can land after the last op and the
/// final image is never a replay target (it only flips the protocol to
/// live acknowledgements).
#[allow(clippy::too_many_arguments)]
fn snapshot_proc(
    m: &mut Machine,
    rel: &RelState,
    fault: &FaultState,
    processes: &mut [&mut dyn Process],
    me: ProcId,
    cfg: &CheckpointCfg,
    recov: &mut RecoveryReport,
    charge: bool,
) -> Result<Vec<u8>, MachineError> {
    let Some(process) = processes[me.0].snapshot() else {
        return Err(MachineError::CheckpointUnsupported { proc: me });
    };
    let rp = &rel.procs[me.0];
    let ckpt = Checkpoint {
        proc: me,
        at_op: fault.ops(me),
        taken_at: m.clock(me),
        process,
        senders: rp
            .senders
            .iter()
            .map(|(&(d, t), c)| (d, t, c.snapshot()))
            .collect(),
        recvs: rp
            .recvs
            .iter()
            .map(|(&(s, t), c)| (s, t, c.snapshot()))
            .collect(),
        sent: rel
            .logical_sent
            .iter()
            .filter(|(&(s, _, _), _)| s == me)
            .map(|(&(_, d, t), &v)| (d, t, v))
            .collect(),
        recvd: rel
            .logical_recvd
            .iter()
            .filter(|(&(_, d, _), _)| d == me)
            .map(|(&(s, _, t), &v)| (s, t, v))
            .collect(),
        stable: rp
            .recvs
            .iter()
            .map(|(&(s, t), c)| (s, t, c.cumulative()))
            .collect(),
    };
    let bytes = ckpt.to_bytes();
    if charge {
        m.busy(me, cfg.checkpoint_cost(bytes.len()));
    }
    let at = m.clock(me);
    m.trace_mut().record(
        me,
        at,
        EventKind::CheckpointTaken {
            at_op: ckpt.at_op,
            bytes: bytes.len() as u64,
        },
    );
    recov.checkpoints_taken += 1;
    recov.bytes_snapshotted += bytes.len() as u64;
    let reg = m.metrics_registry();
    reg.count(me.0, Ctr::CheckpointsTaken, 1);
    reg.count(me.0, Ctr::CheckpointBytes, bytes.len() as u64);
    reg.flight(
        me.0,
        FlightKind::Checkpoint,
        NO_PEER,
        ckpt.at_op,
        bytes.len() as u64,
        at.0,
    );
    Ok(bytes)
}

/// After an independent-mode checkpoint of `me`, advance its stable ack
/// floors to the just-snapshotted cumulative positions. The new floors
/// are not proactively re-acked: each piggybacks on the next batch ack
/// of its stream, and a stream that has gone quiet is drained by the
/// final live acks at completion. An iPSC-style ack costs real receive
/// cycles at the peer, so announcing floors eagerly would tax exactly
/// the fault-free runs checkpointing is supposed to leave alone —
/// meanwhile the peer's delivered floor already suppresses every
/// retransmission of the frames the stale stable floor still covers.
fn advance_stable_floors(rel: &mut RelState, me: ProcId) {
    let new_floors: BTreeMap<(ProcId, Tag), u64> = rel.procs[me.0]
        .recvs
        .iter()
        .map(|(&k, c)| (k, c.cumulative()))
        .collect();
    rel.stable[me.0] = Some(new_floors);
}

/// Independent-mode crash recovery: roll `me` — and only `me` — back to
/// its last checkpoint. Surviving peers' retransmission windows hold the
/// lost suffix (their acks were lagged to this very checkpoint), and
/// their duplicate suppression absorbs the restored processor's replayed
/// sends, so nobody else moves.
#[allow(clippy::too_many_arguments)]
fn restore_proc(
    m: &mut Machine,
    rel: &mut RelState,
    fault: &mut FaultState,
    processes: &mut [&mut dyn Process],
    me: ProcId,
    crash_op: u64,
    bytes: &[u8],
    cfg: &CheckpointCfg,
    recov: &mut RecoveryReport,
) -> Result<(), MachineError> {
    let ckpt = Checkpoint::from_bytes(bytes).expect("internally written checkpoint parses");
    let t_crash = m.clock(me);
    m.trace_mut()
        .record(me, t_crash, EventKind::Crash { at_op: crash_op });
    if !processes[me.0].restore(&ckpt.process) {
        return Err(MachineError::CheckpointUnsupported { proc: me });
    }
    // Frames in flight toward the dead incarnation are stale; the
    // reliable layer regenerates anything that matters.
    m.discard_incoming(me);
    m.advance_clock_to(me, t_crash.plus(cfg.reboot_cycles));
    let now = m.clock(me);
    let rearm = now.plus(rel.cfg.rto_cycles);
    let rp = &mut rel.procs[me.0];
    rp.senders = ckpt
        .senders
        .iter()
        .map(|(dst, tag, s)| ((*dst, *tag), SenderChan::from_snapshot(s, rearm)))
        .collect();
    rp.recvs = ckpt
        .recvs
        .iter()
        .map(|(src, tag, r)| ((*src, *tag), RecvChan::from_snapshot(r)))
        .collect();
    rel.logical_sent.retain(|&(s, _, _), _| s != me);
    for (dst, tag, v) in &ckpt.sent {
        rel.logical_sent.insert((me, *dst, *tag), *v);
    }
    rel.logical_recvd.retain(|&(_, d, _), _| d != me);
    for (src, tag, v) in &ckpt.recvd {
        rel.logical_recvd.insert((*src, me, *tag), *v);
    }
    rel.stable[me.0] = Some(ckpt.stable.iter().map(|(s, t, v)| ((*s, *t), *v)).collect());
    rel.procs[me.0].keepalive.clear();
    // Solicit replay: re-advertise the rolled-back cumulative on every
    // receive stream. Peers see the live component drop below their
    // delivered floor and immediately re-arm the suffix this incarnation
    // lost. (If this ack is dropped by the fabric, the keepalive path
    // re-sends it once we block starved.)
    let solicits: Vec<(ProcId, Tag, u64)> = rel.procs[me.0]
        .recvs
        .iter()
        .map(|(&(src, tag), c)| (src, tag, c.cumulative()))
        .collect();
    for (src, tag, cum) in solicits {
        fault.dispatch(m, me, src, ack_tag(tag), &[cum as Word, cum as Word]);
        rel.acks_sent += 1;
        m.metrics_registry().count(me.0, Ctr::AcksSent, 1);
    }
    for (dst, tag, s) in &ckpt.senders {
        for (seq, _) in &s.unacked {
            m.trace_mut().record(
                me,
                now,
                EventKind::ReplayedFrame {
                    dst: *dst,
                    tag: *tag,
                    seq: *seq,
                },
            );
        }
    }
    m.trace_mut().record(
        me,
        now,
        EventKind::Restore {
            from_op: ckpt.at_op,
            replayed: crash_op.saturating_sub(ckpt.at_op),
        },
    );
    recov.crashes_survived += 1;
    recov.replayed_ops += crash_op.saturating_sub(ckpt.at_op);
    recov.replay_frames += ckpt.window_frames();
    recov.recovery_cycles += cfg.reboot_cycles;
    let reg = m.metrics_registry();
    reg.count(me.0, Ctr::CrashesSurvived, 1);
    reg.count(me.0, Ctr::ReplayFrames, ckpt.window_frames());
    reg.flight(
        me.0,
        FlightKind::Restore,
        NO_PEER,
        ckpt.at_op,
        crash_op.saturating_sub(ckpt.at_op),
        now.0,
    );
    rel.activity += 1;
    Ok(())
}

/// Coordinated-mode crash recovery: roll *every* processor back to the
/// last barrier-aligned global cut, discard all in-flight traffic, and
/// let deterministic re-execution regenerate it bit-identically.
/// Survivors' clocks are not rolled back — the re-executed work is
/// charged again, which is the honest cost of coordinated recovery.
#[allow(clippy::too_many_arguments)]
fn restore_all(
    m: &mut Machine,
    rel: &mut RelState,
    processes: &mut [&mut dyn Process],
    victim: ProcId,
    crash_op: u64,
    ckpts: &[Vec<u8>],
    cfg: &CheckpointCfg,
    fault: &FaultState,
    recov: &mut RecoveryReport,
    done: &mut [bool],
) -> Result<(), MachineError> {
    let t_crash = m.clock(victim);
    m.trace_mut()
        .record(victim, t_crash, EventKind::Crash { at_op: crash_op });
    m.discard_all_in_flight();
    m.advance_clock_to(victim, t_crash.plus(cfg.reboot_cycles));
    rel.logical_sent.clear();
    rel.logical_recvd.clear();
    let mut from_op = 0;
    for q in 0..processes.len() {
        let qid = ProcId(q);
        let ckpt = Checkpoint::from_bytes(&ckpts[q]).expect("internally written checkpoint parses");
        if !processes[q].restore(&ckpt.process) {
            return Err(MachineError::CheckpointUnsupported { proc: qid });
        }
        let rearm = m.clock(qid).plus(rel.cfg.rto_cycles);
        let rp = &mut rel.procs[q];
        rp.senders = ckpt
            .senders
            .iter()
            .map(|(dst, tag, s)| ((*dst, *tag), SenderChan::from_snapshot(s, rearm)))
            .collect();
        rp.recvs = ckpt
            .recvs
            .iter()
            .map(|(src, tag, r)| ((*src, *tag), RecvChan::from_snapshot(r)))
            .collect();
        for (dst, tag, v) in &ckpt.sent {
            rel.logical_sent.insert((qid, *dst, *tag), *v);
        }
        for (src, tag, v) in &ckpt.recvd {
            rel.logical_recvd.insert((*src, qid, *tag), *v);
        }
        for (dst, tag, s) in &ckpt.senders {
            for (seq, _) in &s.unacked {
                let at = m.clock(qid);
                m.trace_mut().record(
                    qid,
                    at,
                    EventKind::ReplayedFrame {
                        dst: *dst,
                        tag: *tag,
                        seq: *seq,
                    },
                );
            }
        }
        recov.replayed_ops += fault.ops(qid).saturating_sub(ckpt.at_op);
        recov.replay_frames += ckpt.window_frames();
        m.metrics_registry()
            .count(q, Ctr::ReplayFrames, ckpt.window_frames());
        done[q] = false;
        if q == victim.0 {
            from_op = ckpt.at_op;
        }
    }
    let at = m.clock(victim);
    m.trace_mut().record(
        victim,
        at,
        EventKind::Restore {
            from_op,
            replayed: crash_op.saturating_sub(from_op),
        },
    );
    recov.crashes_survived += 1;
    recov.recovery_cycles += cfg.reboot_cycles;
    let reg = m.metrics_registry();
    reg.count(victim.0, Ctr::CrashesSurvived, 1);
    reg.flight(
        victim.0,
        FlightKind::Restore,
        NO_PEER,
        from_op,
        crash_op.saturating_sub(from_op),
        at.0,
    );
    rel.activity += 1;
    Ok(())
}

/// Per-processor protocol state for a reliable simulated run.
#[derive(Debug, Default)]
struct RelProc {
    /// Send side, one stream per `(dst, tag)`.
    senders: BTreeMap<(ProcId, Tag), SenderChan<Time>>,
    /// Receive side, one stream per `(src, tag)`.
    recvs: BTreeMap<(ProcId, Tag), RecvChan>,
    /// Keepalive pacing per starved receive stream
    /// ([`RelState::recv_keepalive`]): clock of the last keepalive ack
    /// and blocked rounds since it.
    keepalive: BTreeMap<(ProcId, Tag), (Time, u64)>,
}

/// Whole-machine protocol state for [`Scheduler::run_faulty`].
#[derive(Debug)]
struct RelState {
    procs: Vec<RelProc>,
    cfg: RelConfig,
    /// Program-level sends per `(src, dst, tag)` — the backend-invariant
    /// counts reported as `pair_messages`.
    logical_sent: BTreeMap<(ProcId, ProcId, Tag), u64>,
    /// Program-level receives per `(src, dst, tag)`.
    logical_recvd: BTreeMap<(ProcId, ProcId, Tag), u64>,
    retransmits: u64,
    acks_sent: u64,
    /// Monotone counter bumped by every protocol event (frame ingested,
    /// ack retired, retransmission) — the no-progress detector compares
    /// it across a scheduling round.
    activity: u64,
    /// First fatal protocol error, surfaced after the faulting step.
    fatal: Option<MachineError>,
    /// Per-processor stable ack floors for independent-mode
    /// checkpointing: `Some(map)` means acks for `(src, tag)` advertise
    /// the floor (the stream position as of the last checkpoint, 0 for
    /// streams the checkpoint predates) instead of the live cumulative,
    /// so peers keep everything newer in their retransmission windows.
    /// `None` — no checkpointing, or a finished processor — advertises
    /// live.
    stable: Vec<Option<BTreeMap<(ProcId, Tag), u64>>>,
}

impl RelState {
    fn new(n: usize, cfg: RelConfig) -> Self {
        RelState {
            procs: (0..n).map(|_| RelProc::default()).collect(),
            cfg,
            logical_sent: BTreeMap::new(),
            logical_recvd: BTreeMap::new(),
            retransmits: 0,
            acks_sent: 0,
            activity: 0,
            fatal: None,
            stable: vec![None; n],
        }
    }

    /// Consume every pending ack frame addressed to `me`, retiring
    /// acknowledged sends. Ack processing is interrupt-style: it charges
    /// the unpacking cost but never idles the processor waiting.
    fn pump_acks(&mut self, m: &mut Machine, me: ProcId) {
        let chans: Vec<(ProcId, Tag)> = self.procs[me.0].senders.keys().copied().collect();
        for (dst, tag) in chans {
            while let Some(msg) = m.take_raw(me, dst, ack_tag(tag)) {
                let cum = msg.payload[0] as u64;
                let live = msg.payload.get(1).map_or(cum, |&w| w as u64);
                let cost = m.cost_model().recv_cost(1);
                m.busy(me, cost);
                let chan = self.procs[me.0]
                    .senders
                    .get_mut(&(dst, tag))
                    .expect("chan exists: key came from the map");
                chan.ack(cum);
                let now = m.clock(me);
                chan.set_live(live, now);
                chan.mark_alive();
                m.trace_mut().record(
                    me,
                    now,
                    EventKind::Ack {
                        peer: dst,
                        tag,
                        cum,
                    },
                );
                m.metrics_registry().count(me.0, Ctr::AcksRecvd, 1);
                self.activity += 1;
            }
        }
    }

    /// Ingest every raw data frame pending for `(src → me, tag)` into the
    /// stream's [`RecvChan`], then acknowledge the batch. Acks travel
    /// through the faulty fabric too — a lost ack is just another fault
    /// the retransmission path absorbs.
    fn pump_data(
        &mut self,
        m: &mut Machine,
        fault: &mut FaultState,
        me: ProcId,
        src: ProcId,
        tag: Tag,
    ) {
        let mut drained = 0u64;
        let dups_before = self.procs[me.0]
            .recvs
            .get(&(src, tag))
            .map_or(0, |c| c.dups);
        let chan = self.procs[me.0].recvs.entry((src, tag)).or_default();
        while let Some(msg) = m.take_raw(me, src, tag) {
            let (seq, payload) = unframe(msg.payload);
            chan.on_frame(seq, msg.arrives_at, payload);
            drained += 1;
        }
        if drained > 0 {
            self.activity += drained;
            let chan = &self.procs[me.0].recvs[&(src, tag)];
            let live = chan.cumulative();
            let dup_delta = chan.dups - dups_before;
            let adv = match &self.stable[me.0] {
                Some(floors) => floors.get(&(src, tag)).copied().unwrap_or(0),
                None => live,
            };
            fault.dispatch(m, me, src, ack_tag(tag), &[adv as Word, live as Word]);
            self.acks_sent += 1;
            let reg = m.metrics_registry();
            reg.count(me.0, Ctr::AcksSent, 1);
            reg.count(me.0, Ctr::DupFramesDropped, dup_delta);
        }
    }

    /// Keepalive ack for a stream the program is blocked receiving on,
    /// rate-limited to one per RTO. This is the lost-rollback safety
    /// net: a restored processor's replay solicitation travels through
    /// the same faulty fabric as everything else, and if it's dropped
    /// the sender — whose delivered floor says we already have those
    /// frames — would never retransmit. Re-advertising our cumulative
    /// while starved re-triggers the rollback until data flows again.
    fn recv_keepalive(
        &mut self,
        m: &mut Machine,
        fault: &mut FaultState,
        me: ProcId,
        src: ProcId,
        tag: Tag,
    ) {
        // Only checkpoint-lagged receivers solicit: without a stable
        // floor in play the ordinary retransmission timers already cover
        // every loss, and extra acks would just perturb the fabric.
        let Some(floors) = &self.stable[me.0] else {
            return;
        };
        let adv = floors.get(&(src, tag)).copied().unwrap_or(0);
        // A missing chan still keepalives at floor zero: a receiver
        // restored from a pre-traffic checkpoint has no recv streams at
        // all, yet its peers' delivered floors may sit above everything
        // it lost — the zero advertisement is what rolls them back.
        let live = self.procs[me.0]
            .recvs
            .get(&(src, tag))
            .map_or(0, |chan| chan.cumulative());
        let now = m.clock(me);
        // Pace by the blocked processor's clock *or* by blocked rounds:
        // a starved processor's logical clock freezes, so a pure clock
        // gate would fire at most once — not enough when the fabric is
        // allowed to drop several keepalives in a row.
        let (last, rounds) = self.procs[me.0]
            .keepalive
            .get(&(src, tag))
            .copied()
            .unwrap_or((now, 0));
        let due = rounds >= 256 || now.0 >= last.0.saturating_add(self.cfg.rto_cycles);
        if !due {
            self.procs[me.0]
                .keepalive
                .insert((src, tag), (last, rounds + 1));
            return;
        }
        self.procs[me.0].keepalive.insert((src, tag), (now, 0));
        fault.dispatch(m, me, src, ack_tag(tag), &[adv as Word, live as Word]);
        self.acks_sent += 1;
        m.metrics_registry().count(me.0, Ctr::AcksSent, 1);
    }

    /// Unpaced [`recv_keepalive`](RelState::recv_keepalive), fired by the
    /// scheduler at quiescence. The delivered floor suppresses every
    /// retransmission timer for frames the peer is believed to hold, so
    /// once a restored receiver's solicitation is lost there may be no
    /// timer left to advance simulated time — the keepalive itself is the
    /// only move, and waiting out its pacing would read as a deadlock.
    /// Returns 1 if an ack was dispatched.
    fn force_keepalive(
        &mut self,
        m: &mut Machine,
        fault: &mut FaultState,
        me: ProcId,
        src: ProcId,
        tag: Tag,
    ) -> u32 {
        let Some(floors) = &self.stable[me.0] else {
            return 0;
        };
        let adv = floors.get(&(src, tag)).copied().unwrap_or(0);
        let live = self.procs[me.0]
            .recvs
            .get(&(src, tag))
            .map_or(0, |chan| chan.cumulative());
        let now = m.clock(me);
        self.procs[me.0].keepalive.insert((src, tag), (now, 0));
        fault.dispatch(m, me, src, ack_tag(tag), &[adv as Word, live as Word]);
        self.acks_sent += 1;
        m.metrics_registry().count(me.0, Ctr::AcksSent, 1);
        1
    }

    /// [`pump_data`](RelState::pump_data) over every stream with traffic
    /// for `me` — housekeeping for blocked and finished processes. Known
    /// streams are pumped unconditionally; streams this processor has
    /// never received on are discovered from the fabric's pending queues,
    /// so cross-traffic arriving while we're blocked elsewhere still gets
    /// ingested and acknowledged instead of starving its sender's retries.
    fn pump_all_data(&mut self, m: &mut Machine, fault: &mut FaultState, me: ProcId) {
        let mut chans: Vec<(ProcId, Tag)> = self.procs[me.0].recvs.keys().copied().collect();
        for (src, dst, tag, _) in m.pending_triples() {
            if dst == me && !is_ack_tag(tag) && !chans.contains(&(src, tag)) {
                chans.push((src, tag));
            }
        }
        for (src, tag) in chans {
            self.pump_data(m, fault, me, src, tag);
        }
    }

    /// Retransmit every unacknowledged frame whose deadline has passed,
    /// doubling its backoff; flag [`MachineError::RetriesExhausted`] once
    /// the oldest *undelivered* frame of a stream runs out of retries.
    /// The whole expired undelivered suffix retransmits (go-back-N), not
    /// just the front: a checkpointing receiver acknowledges only its
    /// stable floor, so resending only the front would starve a restored
    /// receiver of everything past it. Frames below the live delivered
    /// floor are skipped entirely — the peer has them; they sit in the
    /// window purely as the crash-replay suffix.
    fn service_timers(&mut self, m: &mut Machine, fault: &mut FaultState, me: ProcId) {
        if self.fatal.is_some() {
            return;
        }
        let now = m.clock(me);
        let chans: Vec<(ProcId, Tag)> = self.procs[me.0].senders.keys().copied().collect();
        for (dst, tag) in chans {
            // Arc bumps, not copies: the window's frames are shared.
            let resends: Vec<(u64, std::sync::Arc<[Word]>)> = {
                let chan = self.procs[me.0]
                    .senders
                    .get_mut(&(dst, tag))
                    .expect("chan exists: key came from the map");
                let delivered = chan.delivered;
                if let Some(p) = chan.unacked.iter().find(|p| p.seq >= delivered) {
                    if p.deadline <= now && p.retries >= self.cfg.max_retries {
                        // Cumulative acks retire the window prefix, so
                        // the oldest undelivered seq *is* the effective
                        // delivery point the peer last advanced us to.
                        self.fatal = Some(MachineError::RetriesExhausted {
                            proc: me,
                            peer: dst,
                            tag,
                            retries: p.retries,
                            last_acked: p.seq,
                        });
                        return;
                    }
                }
                chan.unacked
                    .iter_mut()
                    .filter(|p| p.seq >= delivered && p.deadline <= now)
                    .map(|p| {
                        p.retries += 1;
                        p.deadline = now.plus(self.cfg.backoff_cycles(p.retries));
                        (p.seq, p.frame.clone())
                    })
                    .collect()
            };
            for (seq, payload) in resends {
                let at = m.clock(me);
                m.trace_mut()
                    .record(me, at, EventKind::Retransmit { dst, tag, seq });
                let reg = m.metrics_registry();
                reg.count(me.0, Ctr::Retransmits, 1);
                reg.flight(
                    me.0,
                    FlightKind::Retransmit,
                    dst.0 as u64,
                    tag.0 as u64,
                    seq,
                    at.0,
                );
                fault.dispatch(m, me, dst, tag, &payload);
                self.retransmits += 1;
                self.activity += 1;
            }
        }
    }

    /// Is an in-order payload ready for the program on `(src → me, tag)`?
    fn has_ready(&self, me: ProcId, src: ProcId, tag: Tag) -> bool {
        self.procs[me.0]
            .recvs
            .get(&(src, tag))
            .is_some_and(|c| !c.ready.is_empty())
    }

    /// Has every sent frame been acknowledged?
    fn all_acked(&self) -> bool {
        self.procs
            .iter()
            .all(|rp| rp.senders.values().all(|c| c.unacked.is_empty()))
    }

    /// The earliest retransmission deadline across all streams, if any.
    /// Delivered frames are excluded: their deadlines are stale and they
    /// will never retransmit, so jumping simulated time to one would
    /// spin the idle detector without making progress.
    fn earliest_deadline(&self) -> Option<(ProcId, Time)> {
        let mut best: Option<(ProcId, Time)> = None;
        for (p, rp) in self.procs.iter().enumerate() {
            for chan in rp.senders.values() {
                // Backoff is per-frame, so the front (most-retried) frame
                // can have a *later* deadline than the rest of the
                // window: scan every pending frame.
                for pending in &chan.unacked {
                    if pending.seq >= chan.delivered
                        && best.is_none_or(|(_, t)| pending.deadline < t)
                    {
                        best = Some((ProcId(p), pending.deadline));
                    }
                }
            }
        }
        best
    }

    /// Program-level messages sent but never received.
    fn undelivered(&self) -> usize {
        self.logical_sent
            .iter()
            .map(|(k, &s)| {
                s.saturating_sub(self.logical_recvd.get(k).copied().unwrap_or(0)) as usize
            })
            .sum()
    }

    /// The triples behind [`undelivered`](RelState::undelivered).
    fn pending_triples(&self) -> Vec<(ProcId, ProcId, Tag, usize)> {
        self.logical_sent
            .iter()
            .filter_map(|(&(src, dst, tag), &s)| {
                let r = self
                    .logical_recvd
                    .get(&(src, dst, tag))
                    .copied()
                    .unwrap_or(0);
                (s > r).then_some((src, dst, tag, (s - r) as usize))
            })
            .collect()
    }

    fn dup_total(&self) -> u64 {
        self.procs
            .iter()
            .flat_map(|rp| rp.recvs.values())
            .map(|c| c.dups)
            .sum()
    }

    fn max_gap(&self) -> u64 {
        self.procs
            .iter()
            .flat_map(|rp| rp.recvs.values())
            .map(|c| c.max_gap)
            .max()
            .unwrap_or(0)
    }
}

/// The fabric a process sees during [`Scheduler::run_faulty`]: sends are
/// framed, tracked, and dispatched through the fault plan; receives pop
/// reassembled in-order payloads and charge the receiver exactly as a
/// vanilla receive would.
struct ReliableView<'a> {
    m: &'a mut Machine,
    fault: &'a mut FaultState,
    rel: &'a mut RelState,
}

impl Fabric for ReliableView<'_> {
    fn n_procs(&self) -> usize {
        self.m.n_procs()
    }

    fn cost_model(&self) -> &CostModel {
        self.m.cost_model()
    }

    fn tick_n(&mut self, p: ProcId, cycles: u64, ops: u64) {
        let extra = self.fault.stall_cycles(p, ops);
        self.m.tick_n(p, cycles + extra, ops);
    }

    fn send(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: Vec<Word>) {
        debug_assert_eq!(
            tag.0 & ACK_TAG_BIT,
            0,
            "program tags must stay below the ack bit"
        );
        if src == dst {
            // Delegate so the self-send fault is recorded uniformly.
            self.m.send(src, dst, tag, payload);
            return;
        }
        self.rel.pump_acks(self.m, src);
        self.rel.service_timers(self.m, self.fault, src);
        *self.rel.logical_sent.entry((src, dst, tag)).or_insert(0) += 1;
        // The program-level send is recorded here; every frame below —
        // data, retransmission, ack — is raw transport to the machine.
        let t = self.m.clock(src);
        self.m.metrics_registry().logical_send(
            src.0,
            dst.0 as u64,
            tag.0 as u64,
            payload.len() as u64,
            t.0,
        );
        let seq = {
            let chan = self.rel.procs[src.0].senders.entry((dst, tag)).or_default();
            let s = chan.next_seq;
            chan.next_seq += 1;
            s
        };
        // One shared allocation: the wire dispatch borrows it, the
        // retransmission window keeps it — no per-send frame clone.
        let fr = frame_arc(seq, &payload);
        self.fault.dispatch(self.m, src, dst, tag, &fr);
        let deadline = self.m.clock(src).plus(self.rel.cfg.rto_cycles);
        self.rel.procs[src.0]
            .senders
            .get_mut(&(dst, tag))
            .expect("chan created above")
            .unacked
            .push_back(Pending {
                seq,
                frame: fr,
                retries: 0,
                deadline,
            });
    }

    fn try_recv(&mut self, dst: ProcId, src: ProcId, tag: Tag) -> Option<Vec<Word>> {
        self.rel.pump_acks(self.m, dst);
        self.rel.service_timers(self.m, self.fault, dst);
        self.rel.pump_data(self.m, self.fault, dst, src, tag);
        let chan = self.rel.procs[dst.0].recvs.get_mut(&(src, tag))?;
        let (arrives, payload) = chan.ready.pop_front()?;
        self.m.charge_recv(dst, src, tag, arrives, payload.len());
        *self.rel.logical_recvd.entry((src, dst, tag)).or_insert(0) += 1;
        Some(payload)
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        Some(self.m.metrics_registry())
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    /// A toy process defined by a script of actions (shared with the
    /// `faulty_tests` sibling module).
    pub(super) enum Action {
        Compute(u64),
        Send(usize, u32, Vec<i64>),
        Recv(usize, u32),
    }

    pub(super) struct Scripted {
        script: Vec<Action>,
        pc: usize,
        pub(super) received: Vec<Vec<i64>>,
    }

    impl Scripted {
        pub(super) fn new(script: Vec<Action>) -> Self {
            Scripted {
                script,
                pc: 0,
                received: Vec::new(),
            }
        }
    }

    impl Process for Scripted {
        fn snapshot(&self) -> Option<Vec<u8>> {
            let mut b = Vec::new();
            b.extend_from_slice(&(self.pc as u64).to_le_bytes());
            b.extend_from_slice(&(self.received.len() as u64).to_le_bytes());
            for r in &self.received {
                b.extend_from_slice(&(r.len() as u64).to_le_bytes());
                for w in r {
                    b.extend_from_slice(&w.to_le_bytes());
                }
            }
            Some(b)
        }

        fn restore(&mut self, state: &[u8]) -> bool {
            let mut pos = 0;
            let u64_at = |p: &mut usize| -> Option<u64> {
                let v = u64::from_le_bytes(state.get(*p..*p + 8)?.try_into().ok()?);
                *p += 8;
                Some(v)
            };
            let Some(pc) = u64_at(&mut pos) else {
                return false;
            };
            let Some(n) = u64_at(&mut pos) else {
                return false;
            };
            let mut received = Vec::new();
            for _ in 0..n {
                let Some(len) = u64_at(&mut pos) else {
                    return false;
                };
                let mut words = Vec::new();
                for _ in 0..len {
                    let Some(w) = u64_at(&mut pos) else {
                        return false;
                    };
                    words.push(w as i64);
                }
                received.push(words);
            }
            self.pc = pc as usize;
            self.received = received;
            true
        }

        fn step(&mut self, machine: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
            let Some(action) = self.script.get(self.pc) else {
                return Ok(Step::Done);
            };
            match action {
                Action::Compute(c) => {
                    machine.tick(me, *c);
                    self.pc += 1;
                    Ok(Step::Ran)
                }
                Action::Send(dst, tag, payload) => {
                    machine.send(me, ProcId(*dst), Tag(*tag), payload.clone());
                    self.pc += 1;
                    Ok(Step::Ran)
                }
                Action::Recv(src, tag) => match machine.try_recv(me, ProcId(*src), Tag(*tag)) {
                    Some(words) => {
                        self.received.push(words);
                        self.pc += 1;
                        Ok(Step::Ran)
                    }
                    None => Ok(Step::BlockedOnRecv {
                        src: ProcId(*src),
                        tag: Tag(*tag),
                    }),
                },
            }
        }
    }

    fn run2(a: Vec<Action>, b: Vec<Action>, cost: CostModel) -> (RunReport, Machine) {
        let mut m = Machine::new(2, cost);
        let mut pa = Scripted::new(a);
        let mut pb = Scripted::new(b);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        let report = Scheduler::new().run(&mut m, &mut ps).expect("run ok");
        (report, m)
    }

    #[test]
    fn ping_pong_completes() {
        let (report, _) = run2(
            vec![Action::Send(1, 0, vec![1]), Action::Recv(1, 1)],
            vec![Action::Recv(0, 0), Action::Send(0, 1, vec![2])],
            CostModel::ipsc2(),
        );
        assert_eq!(report.stats.network.messages, 2);
        assert_eq!(report.undelivered, 0);
    }

    #[test]
    fn receiver_first_order_still_completes() {
        // P0 blocks on a recv whose send happens later on P1.
        let (report, _) = run2(
            vec![Action::Recv(1, 0)],
            vec![Action::Compute(50), Action::Send(0, 0, vec![9])],
            CostModel::ipsc2(),
        );
        assert_eq!(report.stats.network.messages, 1);
    }

    #[test]
    fn cross_deadlock_detected() {
        let mut m = Machine::new(2, CostModel::zero());
        let mut pa = Scripted::new(vec![Action::Recv(1, 0)]);
        let mut pb = Scripted::new(vec![Action::Recv(0, 0)]);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        let err = Scheduler::new().run(&mut m, &mut ps).unwrap_err();
        match err {
            MachineError::Deadlock { waiting } => assert_eq!(waiting.len(), 2),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn makespan_reflects_critical_path() {
        let c = CostModel::ipsc2();
        let (report, _) = run2(
            vec![Action::Compute(500), Action::Send(1, 0, vec![1])],
            vec![Action::Recv(0, 0), Action::Compute(100)],
            c,
        );
        // Critical path: 500 compute + send + flight + recv + 100 compute.
        let expected = 500 + c.send_cost(1) + c.flight + c.recv_cost(1) + 100;
        assert_eq!(report.stats.makespan().0, expected);
    }

    #[test]
    fn step_budget_guards_runaway() {
        struct Forever;
        impl Process for Forever {
            fn step(&mut self, machine: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
                machine.tick(me, 1);
                Ok(Step::Ran)
            }
        }
        let mut m = Machine::new(1, CostModel::zero());
        let mut fv = Forever;
        let mut ps: Vec<&mut dyn Process> = vec![&mut fv];
        let err = Scheduler::new()
            .with_step_budget(1000)
            .run(&mut m, &mut ps)
            .unwrap_err();
        assert!(matches!(err, MachineError::StepBudgetExceeded { .. }));
    }

    #[test]
    fn self_send_surfaces_as_error() {
        let mut m = Machine::new(2, CostModel::zero());
        let mut pa = Scripted::new(vec![Action::Send(0, 0, vec![1])]);
        let mut pb = Scripted::new(vec![]);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        let err = Scheduler::new().run(&mut m, &mut ps).unwrap_err();
        assert_eq!(err, MachineError::SelfSend { proc: ProcId(0) });
    }

    #[test]
    fn quantum_does_not_change_results() {
        let build = || {
            (
                vec![
                    Action::Compute(10),
                    Action::Send(1, 0, vec![1, 2]),
                    Action::Recv(1, 1),
                    Action::Compute(5),
                ],
                vec![
                    Action::Recv(0, 0),
                    Action::Compute(7),
                    Action::Send(0, 1, vec![3]),
                ],
            )
        };
        let mut results = Vec::new();
        for quantum in [1, 2, 3, 1000] {
            let (a, b) = build();
            let mut m = Machine::new(2, CostModel::ipsc2());
            let mut pa = Scripted::new(a);
            let mut pb = Scripted::new(b);
            let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
            let report = Scheduler::new()
                .with_quantum(quantum)
                .run(&mut m, &mut ps)
                .unwrap();
            results.push((report.stats.makespan(), report.stats.network));
        }
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}

#[cfg(test)]
mod faulty_tests {
    use super::tests::{Action, Scripted};
    use super::*;
    use crate::cost::CostModel;
    use crate::fault::FaultPlan;

    /// A 10-message stream 0 → 1 plus an unrelated reply, exercising
    /// FIFO recovery end to end.
    pub(super) fn stream_scripts() -> (Vec<Action>, Vec<Action>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..10 {
            a.push(Action::Send(1, 0, vec![i]));
            a.push(Action::Compute(10));
            b.push(Action::Recv(0, 0));
        }
        a.push(Action::Recv(1, 1));
        b.push(Action::Send(0, 1, vec![99]));
        (a, b)
    }

    fn run_faulty2(
        a: Vec<Action>,
        b: Vec<Action>,
        plan: &FaultPlan,
        cfg: RelConfig,
    ) -> Result<(RunReport, Vec<Vec<Word>>), MachineError> {
        let mut m = Machine::new(2, CostModel::ipsc2());
        let mut pa = Scripted::new(a);
        let mut pb = Scripted::new(b);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        let report = Scheduler::new().run_faulty(&mut m, &mut ps, plan, cfg)?;
        Ok((report, pb.received))
    }

    #[test]
    fn empty_plan_delivers_in_order_with_quiet_report() {
        let (a, b) = stream_scripts();
        let (report, received) =
            run_faulty2(a, b, &FaultPlan::none(), RelConfig::default()).unwrap();
        let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
        assert_eq!(received, expected);
        assert_eq!(report.undelivered, 0);
        assert!(report.pending.is_empty());
        let fr = report.fault.expect("reliable run carries a report");
        assert_eq!(fr.injected.total(), 0);
        assert_eq!(fr.retransmits, 0);
        assert_eq!(fr.dup_frames_dropped, 0);
        assert_eq!(fr.max_gap, 0);
        // Logical pair counts see the program's messages, not the acks.
        assert_eq!(
            report.pair_messages.get(&(ProcId(0), ProcId(1), Tag(0))),
            Some(&10)
        );
        assert_eq!(report.pair_messages.len(), 2);
    }

    #[test]
    fn lossy_plan_recovers_exactly_once_in_order() {
        let plan = FaultPlan::seeded(7)
            .with_drops(250)
            .with_dups(150)
            .with_delays(100, 5_000)
            .with_reorders(100)
            .with_fault_budget(6);
        let (a, b) = stream_scripts();
        let (report, received) = run_faulty2(a, b, &plan, RelConfig::default()).unwrap();
        let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
        assert_eq!(received, expected, "exactly-once, in-order delivery");
        assert_eq!(report.undelivered, 0);
        let fr = report.fault.expect("reliable run carries a report");
        assert!(fr.injected.total() > 0, "the plan actually injected faults");
        assert!(
            fr.retransmits > 0 || fr.injected.drops == 0,
            "drops force retransmissions"
        );
    }

    #[test]
    fn faulty_runs_are_reproducible() {
        let plan = FaultPlan::seeded(21)
            .with_drops(300)
            .with_dups(200)
            .with_fault_budget(8);
        let run = || {
            let (a, b) = stream_scripts();
            let (report, received) = run_faulty2(a, b, &plan, RelConfig::default()).unwrap();
            (
                received,
                report.stats.makespan(),
                report.fault.unwrap(),
                report.pair_messages,
            )
        };
        assert_eq!(run(), run(), "logical time makes faulty runs deterministic");
    }

    #[test]
    fn stalls_slow_one_processor() {
        let quiet = FaultPlan::none();
        let stalled = FaultPlan::seeded(0).with_stall(ProcId(0), 2, 1_000_000);
        let (a, b) = stream_scripts();
        let (base, _) = run_faulty2(a, b, &quiet, RelConfig::default()).unwrap();
        let (a, b) = stream_scripts();
        let (slow, received) = run_faulty2(a, b, &stalled, RelConfig::default()).unwrap();
        let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
        assert_eq!(received, expected);
        assert_eq!(slow.fault.unwrap().injected.stall_cycles, 1_000_000);
        assert!(
            slow.stats.makespan().0 >= base.stats.makespan().0 + 1_000_000,
            "the stall is on the critical path"
        );
    }

    #[test]
    fn black_hole_exhausts_retries_and_names_the_stream() {
        let plan = FaultPlan::seeded(0).with_black_hole(ProcId(0), ProcId(1), Tag(0));
        let cfg = RelConfig {
            rto_cycles: 500,
            max_retries: 3,
            ..RelConfig::default()
        };
        let err = run_faulty2(
            vec![Action::Send(1, 0, vec![1])],
            vec![Action::Recv(0, 0)],
            &plan,
            cfg,
        )
        .unwrap_err();
        assert_eq!(
            err,
            MachineError::RetriesExhausted {
                proc: ProcId(0),
                peer: ProcId(1),
                tag: Tag(0),
                retries: 3,
                last_acked: 0,
            }
        );
    }

    #[test]
    fn cyclic_deadlock_still_detected_under_reliability() {
        let err = run_faulty2(
            vec![Action::Recv(1, 0)],
            vec![Action::Recv(0, 0)],
            &FaultPlan::none(),
            RelConfig::default(),
        )
        .unwrap_err();
        match err {
            MachineError::Deadlock { waiting } => assert_eq!(waiting.len(), 2),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn self_send_surfaces_under_reliability() {
        let err = run_faulty2(
            vec![Action::Send(0, 0, vec![1])],
            vec![],
            &FaultPlan::none(),
            RelConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, MachineError::SelfSend { proc: ProcId(0) });
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::faulty_tests::stream_scripts;
    use super::tests::{Action, Scripted};
    use super::*;
    use crate::cost::CostModel;
    use crate::fault::FaultPlan;

    type Received = Vec<Vec<Word>>;

    fn run_rec2(
        a: Vec<Action>,
        b: Vec<Action>,
        plan: &FaultPlan,
        cfg: RelConfig,
        ckpt: Option<CheckpointCfg>,
    ) -> Result<(RunReport, Received, Received), MachineError> {
        let mut m = Machine::new(2, CostModel::ipsc2());
        let mut pa = Scripted::new(a);
        let mut pb = Scripted::new(b);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        let report = Scheduler::new().run_recoverable(&mut m, &mut ps, plan, cfg, ckpt)?;
        Ok((report, pa.received, pb.received))
    }

    fn expected_stream() -> Vec<Vec<Word>> {
        (0..10).map(|i| vec![i]).collect()
    }

    #[test]
    fn sender_crash_recovery_is_transparent() {
        let (a, b) = stream_scripts();
        let (clean, _, clean_recv) =
            run_rec2(a, b, &FaultPlan::none(), RelConfig::default(), None).unwrap();
        let plan = FaultPlan::seeded(3).with_crash(ProcId(0), 5);
        // Amortized pacing off: this test pins exact checkpoint op
        // boundaries (crash at 5 must restore from the op-4 snapshot).
        let ckpt = CheckpointCfg::every(2)
            .with_amortization(0)
            .with_reboot(5_000, std::time::Duration::from_millis(1));
        let (a, b) = stream_scripts();
        let (report, reply, received) =
            run_rec2(a, b, &plan, RelConfig::default(), Some(ckpt)).unwrap();
        assert_eq!(
            received, clean_recv,
            "recovered output == fault-free output"
        );
        assert_eq!(reply, vec![vec![99]]);
        assert_eq!(report.pair_messages, clean.pair_messages);
        assert_eq!(report.undelivered, 0);
        let rec = report.recovery.expect("checkpointed run carries a report");
        assert_eq!(rec.crashes_survived, 1);
        assert!(rec.checkpoints_taken >= 3, "{rec:?}");
        assert_eq!(rec.replayed_ops, 1, "crash at op 5, checkpoint at op 4");
        assert!(rec.recovery_cycles >= 5_000);
        assert_eq!(report.fault.unwrap().injected.crashes, 1);
    }

    #[test]
    fn receiver_crash_replays_the_lost_suffix() {
        let plan = FaultPlan::seeded(0).with_crash(ProcId(1), 0);
        let ckpt = CheckpointCfg::every(4);
        let (a, b) = stream_scripts();
        let (report, reply, received) =
            run_rec2(a, b, &plan, RelConfig::default(), Some(ckpt)).unwrap();
        assert_eq!(received, expected_stream(), "exactly-once after replay");
        assert_eq!(reply, vec![vec![99]]);
        let rec = report.recovery.unwrap();
        assert_eq!(rec.crashes_survived, 1);
    }

    #[test]
    fn recovery_is_deterministic() {
        let run = || {
            let plan = FaultPlan::seeded(11)
                .with_crash(ProcId(0), 5)
                .with_drops(100)
                .with_fault_budget(2);
            let ckpt = CheckpointCfg::every(2);
            let (a, b) = stream_scripts();
            let (report, reply, received) =
                run_rec2(a, b, &plan, RelConfig::default(), Some(ckpt)).unwrap();
            (
                received,
                reply,
                report.stats.makespan(),
                report.pair_messages,
                report.fault.unwrap(),
                report.recovery.unwrap(),
            )
        };
        assert_eq!(run(), run(), "same seed, bit-identical recovery");
    }

    #[test]
    fn coordinated_rollback_recovers_whole_machine() {
        let plan = FaultPlan::seeded(5).with_crash(ProcId(0), 5);
        let ckpt = CheckpointCfg::every(2).coordinated();
        let (a, b) = stream_scripts();
        let (report, reply, received) =
            run_rec2(a, b, &plan, RelConfig::default(), Some(ckpt)).unwrap();
        assert_eq!(received, expected_stream());
        assert_eq!(reply, vec![vec![99]]);
        let rec = report.recovery.unwrap();
        assert_eq!(rec.crashes_survived, 1);
        assert!(rec.replayed_ops >= 1, "rollback re-executes work: {rec:?}");
        assert_eq!(report.undelivered, 0);
    }

    #[test]
    fn unrecovered_receiver_crash_names_the_dead_peer() {
        let plan = FaultPlan::seeded(0).with_crash(ProcId(1), 0);
        let cfg = RelConfig {
            rto_cycles: 500,
            max_retries: 3,
            ..RelConfig::default()
        };
        let (a, b) = stream_scripts();
        let mut m = Machine::new(2, CostModel::ipsc2());
        let mut pa = Scripted::new(a);
        let mut pb = Scripted::new(b);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        // Quantum 1 interleaves the processors step by step, so P1 dies
        // after consuming (and acking) exactly one message.
        let err = Scheduler::new()
            .with_quantum(1)
            .run_recoverable(&mut m, &mut ps, &plan, cfg, None)
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::RetriesExhausted {
                proc: ProcId(0),
                peer: ProcId(1),
                tag: Tag(0),
                retries: 3,
                last_acked: 1,
            }
        );
    }

    #[test]
    fn unrecovered_crash_of_idle_processor_surfaces_as_crashed() {
        let plan = FaultPlan::seeded(0).with_crash(ProcId(2), 2);
        let mut m = Machine::new(3, CostModel::ipsc2());
        let mut pa = Scripted::new(vec![Action::Send(1, 0, vec![1])]);
        let mut pb = Scripted::new(vec![Action::Recv(0, 0)]);
        let mut pc = Scripted::new(vec![
            Action::Compute(5),
            Action::Compute(5),
            Action::Compute(5),
        ]);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb, &mut pc];
        let err = Scheduler::new()
            .run_recoverable(&mut m, &mut ps, &plan, RelConfig::default(), None)
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::Crashed {
                proc: ProcId(2),
                at_op: 2
            }
        );
    }

    #[test]
    fn checkpointing_alone_reports_overhead() {
        let (a, b) = stream_scripts();
        let (base, _, base_recv) =
            run_rec2(a, b, &FaultPlan::none(), RelConfig::default(), None).unwrap();
        let (a, b) = stream_scripts();
        let (report, _, received) = run_rec2(
            a,
            b,
            &FaultPlan::none(),
            RelConfig::default(),
            Some(CheckpointCfg::every(2)),
        )
        .unwrap();
        assert_eq!(received, base_recv);
        assert_eq!(report.pair_messages, base.pair_messages);
        let rec = report.recovery.expect("report present without any crash");
        assert_eq!(rec.crashes_survived, 0);
        assert!(rec.checkpoints_taken >= 4, "{rec:?}");
        assert!(rec.bytes_snapshotted > 0);
        assert!(
            report.stats.makespan() >= base.stats.makespan(),
            "checkpoint cost shows up in the makespan"
        );
    }

    #[test]
    fn probabilistic_crashes_recover_within_budget() {
        let plan = FaultPlan::seeded(77).with_crash_rate(400, 2);
        let ckpt = CheckpointCfg::every(3);
        let (a, b) = stream_scripts();
        let (report, reply, received) =
            run_rec2(a, b, &plan, RelConfig::default(), Some(ckpt)).unwrap();
        assert_eq!(received, expected_stream());
        assert_eq!(reply, vec![vec![99]]);
        let rec = report.recovery.unwrap();
        assert!(rec.crashes_survived <= 2, "budget bounds crashes: {rec:?}");
        assert_eq!(rec.crashes_survived, report.fault.unwrap().injected.crashes);
    }
}
