//! Shared symbolic interpreter over compiled SPMD programs.
//!
//! Both the message-cost model ([`crate::cost`]) and the static
//! communication-safety analyzer (`pdc-analyze`) need the same abstract
//! walk: run each processor's specialized program over the domain
//! `{Int, Float, Bool, ⊤}`, unrolling loops whose bounds are statically
//! known and havocking whatever unknown control flow could touch. This
//! module owns that walk; clients observe it through the [`Events`] sink
//! trait and never duplicate the iteration-space logic.
//!
//! The interpreter mirrors the VM exactly where it matters:
//!
//! * integer arithmetic is Euclidean (`div_euclid`/`rem_euclid`), with
//!   int→float coercion on mixed operands, as in `scalar_binop`;
//! * `for` evaluates `lo`/`hi` once, then runs `v = lo; while (step > 0 ?
//!   v <= hi : v >= hi) { body; v += step }`;
//! * `owner_of` resolves `OwnerSet::One(p)` to `p` and `OwnerSet::All` to
//!   the *executing* processor (replicated data is locally owned);
//! * a `csend` of `k` scalars carries `2k` payload words (the VM encodes
//!   each scalar as a type-tag word plus a value word); a `SendBuf` of
//!   `b[lo..=hi]` carries `2(hi-lo+1)` words.
//!
//! Array and buffer *contents* are opaque: `ARead`/`AReadGlobal`/
//! `BufRead` evaluate to ⊤ (unknown). When an unknown value reaches
//! control flow, a send destination, or a loop bound, the affected
//! communication cannot be counted and the walk reports why through
//! [`Events::note`]; sinks treat any note as loss of exactness.

use pdc_mapping::{DistInstance, OwnerSet};
use pdc_spmd::ir::{RecvTarget, SBinOp, SExpr, SStmt, SUnOp, SpmdProgram};
use std::collections::{BTreeMap, HashMap};

/// Per-statement fuel per processor: a backstop against runaway loop
/// bounds, far above anything the paper's programs execute at
/// analysis-relevant sizes.
pub const FUEL: u64 = 50_000_000;

/// The abstract value domain: concrete scalars plus ⊤ (unknown).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Abs {
    /// A statically known integer.
    Int(i64),
    /// A statically known float.
    Float(f64),
    /// A statically known boolean.
    Bool(bool),
    /// Unknown (typically an array or buffer read).
    Top,
}

impl Abs {
    fn as_f64(self) -> Option<f64> {
        match self {
            Abs::Int(v) => Some(v as f64),
            Abs::Float(v) => Some(v),
            _ => None,
        }
    }
}

/// Where a counted receive lands: named scalar/buffer-slot targets
/// (`crecv`) or a contiguous buffer slice (`brecv`).
#[derive(Debug, Clone, Copy)]
pub enum RecvSink<'a> {
    /// `Recv { into }` — one scalar per target.
    Targets(&'a [RecvTarget]),
    /// `RecvBuf { buf }` — a block received into `buf`.
    Buffer(&'a str),
}

/// Local compute the VM would execute between two communication events,
/// counted by cost class. The walk mirrors the lowering instruction by
/// instruction — one `mem` per `Load`/`Store`/`Alloc*`/`Buf*`, one `alu`
/// per `Bin`/`Un` (global array accesses add two for the Map/Local
/// evaluation), one `istruct` per `ARead`/`AWrite`, one `branch` per
/// `JumpIfFalse` (loop tests and `if` guards) — so a timing sink can
/// charge exactly what the VM's interpreter loop charges at run time.
/// Stack pushes and unconditional jumps cost zero cycles and are not
/// counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// `Bin`/`Un` instructions (`alu_op` cycles each).
    pub alu: u64,
    /// `Load`/`Store`/`AllocDist`/`AllocBuf`/`BufRead`/`BufWrite`
    /// instructions (`mem_op` cycles each).
    pub mem: u64,
    /// `ARead`/`AWrite`/`AReadGlobal`/`AWriteGlobal` instructions
    /// (`istruct_op` cycles each; the global forms also count two `alu`).
    pub istruct: u64,
    /// `JumpIfFalse` instructions (`loop_overhead` cycles each).
    pub branch: u64,
}

impl Work {
    /// No work at all?
    pub fn is_zero(&self) -> bool {
        *self == Work::default()
    }
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, o: Work) {
        self.alu += o.alu;
        self.mem += o.mem;
        self.istruct += o.istruct;
        self.branch += o.branch;
    }
}

/// Instruction-cost classes of evaluating `e`, mirroring the lowering:
/// every expression compiles to pushes (free), loads, ALU operations,
/// and array/buffer accesses whose count depends only on the syntax,
/// never on the values.
pub fn expr_work(e: &SExpr, w: &mut Work) {
    match e {
        SExpr::Int(_) | SExpr::Float(_) | SExpr::Bool(_) | SExpr::MyNode | SExpr::NProcs => {}
        SExpr::Var(_) => w.mem += 1,
        SExpr::Bin(_, a, b) => {
            expr_work(a, w);
            expr_work(b, w);
            w.alu += 1;
        }
        SExpr::Un(_, a) => {
            expr_work(a, w);
            w.alu += 1;
        }
        SExpr::ARead { idx, .. } => {
            for i in idx {
                expr_work(i, w);
            }
            w.istruct += 1;
        }
        SExpr::AReadGlobal { idx, .. } => {
            for i in idx {
                expr_work(i, w);
            }
            w.istruct += 1;
            w.alu += 2;
        }
        SExpr::OwnerOf { idx, .. } | SExpr::LocalOf { idx, .. } => {
            for i in idx {
                expr_work(i, w);
            }
            w.alu += 2;
        }
        SExpr::BufRead { idx, .. } => {
            expr_work(idx, w);
            w.mem += 1;
        }
    }
}

/// Observer of the abstract walk. All hooks default to no-ops so sinks
/// implement only what they consume.
///
/// Event order within one processor is program order under the abstract
/// semantics; processors are walked in increasing id.
pub trait Events {
    /// Walk of processor `proc`'s body is starting.
    fn proc_begin(&mut self, proc: usize) {
        let _ = proc;
    }

    /// Local compute executed since the previous event on `proc`.
    /// Emitted lazily — immediately before each send/recv and once at
    /// the end of the processor's walk — so consecutive local
    /// statements batch into a single call. Never called with zero
    /// work.
    fn work(&mut self, proc: usize, work: Work) {
        let _ = (proc, work);
    }

    /// A send whose destination (and slice, for block sends) was
    /// statically known. `words` is the payload size in machine words.
    fn send(&mut self, proc: usize, dst: usize, tag: u32, words: u64) {
        let _ = (proc, dst, tag, words);
    }

    /// A receive whose source (and slice, for block receives) was
    /// statically known.
    fn recv(&mut self, proc: usize, src: usize, tag: u32, words: u64, sink: RecvSink<'_>) {
        let _ = (proc, src, tag, words, sink);
    }

    /// A write to an I-structure element. `element` is the element's home
    /// — `(owning processor, local row, local col)` — or `None` when the
    /// indices or the distribution are not statically known.
    fn array_write(&mut self, proc: usize, array: &str, element: Option<(usize, i64, i64)>) {
        let _ = (proc, array, element);
    }

    /// A scalar variable was read.
    fn var_read(&mut self, proc: usize, name: &str) {
        let _ = (proc, name);
    }

    /// A buffer was read (element read or block send out of it).
    fn buf_read(&mut self, proc: usize, buf: &str) {
        let _ = (proc, buf);
    }

    /// Exactness was lost; `msg` says why. Any note means the walk's
    /// event stream is an under-approximation.
    fn note(&mut self, proc: usize, msg: String) {
        let _ = (proc, msg);
    }
}

/// Fan one walk out to two sinks — e.g. message counting and timing in a
/// single pass over the program.
pub struct Tee<'a, A: Events, B: Events> {
    /// First sink; sees every event before `b`.
    pub a: &'a mut A,
    /// Second sink.
    pub b: &'a mut B,
}

impl<A: Events, B: Events> Events for Tee<'_, A, B> {
    fn proc_begin(&mut self, proc: usize) {
        self.a.proc_begin(proc);
        self.b.proc_begin(proc);
    }
    fn work(&mut self, proc: usize, work: Work) {
        self.a.work(proc, work);
        self.b.work(proc, work);
    }
    fn send(&mut self, proc: usize, dst: usize, tag: u32, words: u64) {
        self.a.send(proc, dst, tag, words);
        self.b.send(proc, dst, tag, words);
    }
    fn recv(&mut self, proc: usize, src: usize, tag: u32, words: u64, sink: RecvSink<'_>) {
        self.a.recv(proc, src, tag, words, sink);
        self.b.recv(proc, src, tag, words, sink);
    }
    fn array_write(&mut self, proc: usize, array: &str, element: Option<(usize, i64, i64)>) {
        self.a.array_write(proc, array, element);
        self.b.array_write(proc, array, element);
    }
    fn var_read(&mut self, proc: usize, name: &str) {
        self.a.var_read(proc, name);
        self.b.var_read(proc, name);
    }
    fn buf_read(&mut self, proc: usize, buf: &str) {
        self.a.buf_read(proc, buf);
        self.b.buf_read(proc, buf);
    }
    fn note(&mut self, proc: usize, msg: String) {
        self.a.note(proc, msg.clone());
        self.b.note(proc, msg);
    }
}

/// Run the abstract walk of `prog` over every processor, reporting to
/// `events`.
///
/// `env` seeds every processor's scalar environment (the compile-time
/// constants, e.g. `n = 16`); `arrays` provides distribution instances
/// for arrays that are *preloaded* rather than allocated by the program
/// (an `AllocDist` in the program overrides the seed).
pub fn walk<E: Events>(
    prog: &SpmdProgram,
    env: &BTreeMap<String, i64>,
    arrays: &BTreeMap<String, DistInstance>,
    events: &mut E,
) {
    let nprocs = prog.n_procs();
    for p in 0..nprocs {
        events.proc_begin(p);
        let mut interp = Interp {
            p,
            nprocs,
            env: env.iter().map(|(k, v)| (k.clone(), Abs::Int(*v))).collect(),
            arrays: arrays
                .iter()
                .map(|(k, v)| (k.clone(), Some(v.clone())))
                .collect(),
            fuel: FUEL,
            pending: Work::default(),
            events,
        };
        interp.block(prog.body(p));
        interp.flush_work();
    }
}

struct Interp<'a, E: Events> {
    p: usize,
    nprocs: usize,
    env: HashMap<String, Abs>,
    /// Per-array distribution instances; `None` marks an array whose
    /// extents could not be evaluated (owner queries go to ⊤).
    arrays: HashMap<String, Option<DistInstance>>,
    fuel: u64,
    /// Compute accumulated since the last emitted event, mirroring the
    /// instruction stream the lowering would produce; flushed through
    /// [`Events::work`] before each communication event.
    pending: Work,
    events: &'a mut E,
}

impl<E: Events> Interp<'_, E> {
    fn note(&mut self, msg: String) {
        self.events.note(self.p, msg);
    }

    fn flush_work(&mut self) {
        if !self.pending.is_zero() {
            let w = std::mem::take(&mut self.pending);
            self.events.work(self.p, w);
        }
    }

    fn block(&mut self, body: &[SStmt]) {
        for s in body {
            if self.fuel == 0 {
                self.note(format!("P{}: fuel exhausted, prediction truncated", self.p));
                return;
            }
            self.fuel -= 1;
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &SStmt) {
        match s {
            SStmt::Let { var, value } => {
                let v = self.eval(value);
                expr_work(value, &mut self.pending);
                self.pending.mem += 1; // Store
                self.env.insert(var.clone(), v);
            }
            SStmt::AllocDist {
                array,
                rows,
                cols,
                dist,
            } => {
                let inst = match (self.eval(rows), self.eval(cols)) {
                    (Abs::Int(r), Abs::Int(c)) => Some(DistInstance::new(
                        dist.clone(),
                        r.max(0) as usize,
                        c.max(0) as usize,
                        self.nprocs,
                    )),
                    _ => {
                        self.note(format!(
                            "P{}: extents of `{array}` are not statically known",
                            self.p
                        ));
                        None
                    }
                };
                expr_work(rows, &mut self.pending);
                expr_work(cols, &mut self.pending);
                self.pending.mem += 1; // AllocDist
                self.arrays.insert(array.clone(), inst);
            }
            SStmt::AllocBuf { len, .. } => {
                self.eval(len);
                expr_work(len, &mut self.pending);
                self.pending.mem += 1; // AllocBuf
            }
            SStmt::AWrite { array, idx, value } => {
                let element = self.indices(idx).map(|(li, lj)| (self.p, li, lj));
                self.eval(value);
                for i in idx {
                    expr_work(i, &mut self.pending);
                }
                expr_work(value, &mut self.pending);
                self.pending.istruct += 1; // AWrite
                self.events.array_write(self.p, array, element);
            }
            SStmt::AWriteGlobal { array, idx, value } => {
                let element = self.global_element(array, idx);
                self.eval(value);
                for i in idx {
                    expr_work(i, &mut self.pending);
                }
                expr_work(value, &mut self.pending);
                self.pending.istruct += 1; // AWriteGlobal …
                self.pending.alu += 2; // … plus its owner/local maps
                self.events.array_write(self.p, array, element);
            }
            SStmt::BufWrite { idx, value, .. } => {
                self.eval(idx);
                self.eval(value);
                expr_work(value, &mut self.pending);
                expr_work(idx, &mut self.pending);
                self.pending.mem += 1; // BufWrite
            }
            SStmt::Comment(_) => {}
            SStmt::Send { to, tag, values } => {
                for v in values {
                    self.eval(v);
                }
                // The VM evaluates the destination and payload before
                // the zero-cost `Send` instruction itself.
                expr_work(to, &mut self.pending);
                for v in values {
                    expr_work(v, &mut self.pending);
                }
                // Payload size depends only on arity, not on the values.
                let words = 2 * values.len() as u64;
                match self.eval(to) {
                    Abs::Int(dst) if dst >= 0 && (dst as usize) < self.nprocs => {
                        self.flush_work();
                        self.events.send(self.p, dst as usize, *tag, words);
                    }
                    _ => self.note(format!(
                        "P{}: destination of send tag {tag} is not statically known",
                        self.p
                    )),
                }
            }
            SStmt::SendBuf {
                to,
                tag,
                buf,
                lo,
                hi,
            } => {
                self.events.buf_read(self.p, buf);
                expr_work(to, &mut self.pending);
                expr_work(lo, &mut self.pending);
                expr_work(hi, &mut self.pending);
                match (self.eval(to), self.eval(lo), self.eval(hi)) {
                    (Abs::Int(dst), Abs::Int(l), Abs::Int(h))
                        if dst >= 0 && (dst as usize) < self.nprocs && h >= l =>
                    {
                        self.flush_work();
                        self.events
                            .send(self.p, dst as usize, *tag, 2 * (h - l + 1) as u64);
                    }
                    _ => self.note(format!(
                        "P{}: block send tag {tag} has unknown destination or slice",
                        self.p
                    )),
                }
            }
            SStmt::Recv { from, tag, into } => {
                for t in into {
                    self.havoc_target(t);
                }
                // The source is evaluated before the (zero-cost) `Recv`
                // instruction; the stores into the targets execute only
                // after the message has been consumed.
                expr_work(from, &mut self.pending);
                match self.eval(from) {
                    Abs::Int(src) if src >= 0 && (src as usize) < self.nprocs => {
                        self.flush_work();
                        self.events.recv(
                            self.p,
                            src as usize,
                            *tag,
                            2 * into.len() as u64,
                            RecvSink::Targets(into),
                        );
                        for t in into {
                            match t {
                                RecvTarget::Var(_) => self.pending.mem += 1, // Store
                                RecvTarget::Buf { idx, .. } => {
                                    expr_work(idx, &mut self.pending);
                                    self.pending.mem += 1; // BufWrite
                                }
                            }
                        }
                    }
                    _ => self.note(format!(
                        "P{}: source of receive tag {tag} is not statically known",
                        self.p
                    )),
                }
            }
            SStmt::RecvBuf {
                from,
                tag,
                buf,
                lo,
                hi,
            } => {
                expr_work(from, &mut self.pending);
                expr_work(lo, &mut self.pending);
                expr_work(hi, &mut self.pending);
                match (self.eval(from), self.eval(lo), self.eval(hi)) {
                    (Abs::Int(src), Abs::Int(l), Abs::Int(h))
                        if src >= 0 && (src as usize) < self.nprocs && h >= l =>
                    {
                        self.flush_work();
                        self.events.recv(
                            self.p,
                            src as usize,
                            *tag,
                            2 * (h - l + 1) as u64,
                            RecvSink::Buffer(buf),
                        );
                    }
                    _ => self.note(format!(
                        "P{}: block receive tag {tag} has unknown source or slice",
                        self.p
                    )),
                }
            }
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                // The VM evaluates lo/hi once, before the first test.
                let lo_v = self.eval(lo);
                let hi_v = self.eval(hi);
                let step_v = self.eval(step);
                let (Abs::Int(lo_v), Abs::Int(hi_v), Abs::Int(step_v)) = (lo_v, hi_v, step_v)
                else {
                    self.note(format!(
                        "P{}: bounds of loop over `{var}` are not statically known",
                        self.p
                    ));
                    self.havoc_block(body);
                    self.env.insert(var.clone(), Abs::Top);
                    return;
                };
                if step_v == 0 {
                    // The VM faults here; nothing further executes.
                    self.note(format!("P{}: loop over `{var}` has zero step", self.p));
                    return;
                }
                // Loop administration mirrors the lowering: init stores
                // `var` and `$hi` (and `$step` for a dynamic step); a
                // constant step's direction is picked at lowering time so
                // its head is a 2-load compare, while a dynamic step pays
                // the two-sided test on every iteration.
                let const_step = matches!(step, SExpr::Int(_));
                expr_work(lo, &mut self.pending);
                self.pending.mem += 1; // Store var
                expr_work(hi, &mut self.pending);
                self.pending.mem += 1; // Store $hi
                if !const_step {
                    expr_work(step, &mut self.pending);
                    self.pending.mem += 1; // Store $step
                }
                let (head, incr) = if const_step {
                    (
                        Work {
                            mem: 2,
                            alu: 1,
                            branch: 1,
                            ..Work::default()
                        },
                        Work {
                            mem: 2,
                            alu: 1,
                            ..Work::default()
                        },
                    )
                } else {
                    (
                        Work {
                            mem: 6,
                            alu: 7,
                            branch: 1,
                            ..Work::default()
                        },
                        Work {
                            mem: 3,
                            alu: 1,
                            ..Work::default()
                        },
                    )
                };
                let mut v = lo_v;
                loop {
                    // The head test runs once per iteration *and* once
                    // more to fail and exit the loop.
                    self.pending += head;
                    if !(if step_v > 0 { v <= hi_v } else { v >= hi_v }) {
                        break;
                    }
                    if self.fuel == 0 {
                        self.note(format!("P{}: fuel exhausted, prediction truncated", self.p));
                        return;
                    }
                    self.env.insert(var.clone(), Abs::Int(v));
                    self.block(body);
                    self.pending += incr;
                    match v.checked_add(step_v) {
                        Some(next) => v = next,
                        None => break,
                    }
                }
                self.env.insert(var.clone(), Abs::Int(v));
            }
            SStmt::If { cond, then, els } => {
                let c = self.eval(cond);
                expr_work(cond, &mut self.pending);
                self.pending.branch += 1; // JumpIfFalse (the trailing Jump is free)
                match c {
                    Abs::Bool(true) => self.block(then),
                    Abs::Bool(false) => self.block(els),
                    _ => {
                        self.note(format!(
                            "P{}: branch condition is not statically known",
                            self.p
                        ));
                        self.havoc_block(then);
                        self.havoc_block(els);
                    }
                }
            }
        }
    }

    fn havoc_target(&mut self, t: &RecvTarget) {
        if let RecvTarget::Var(v) = t {
            self.env.insert(v.clone(), Abs::Top);
        }
    }

    /// A block skipped under unknown control: forget everything it could
    /// assign, and flag any communication it contains as uncounted.
    fn havoc_block(&mut self, body: &[SStmt]) {
        for s in body {
            match s {
                SStmt::Let { var, .. } => {
                    self.env.insert(var.clone(), Abs::Top);
                }
                SStmt::AllocDist { array, .. } => {
                    self.arrays.insert(array.clone(), None);
                }
                SStmt::AWrite { array, .. } | SStmt::AWriteGlobal { array, .. } => {
                    // A write we cannot place: the sink loses single-
                    // assignment coverage for this array.
                    let array = array.clone();
                    self.events.array_write(self.p, &array, None);
                }
                SStmt::Send { tag, .. } | SStmt::SendBuf { tag, .. } => self.note(format!(
                    "P{}: send tag {tag} under unknown control cannot be counted",
                    self.p
                )),
                SStmt::Recv { tag, into, .. } => {
                    for t in into {
                        self.havoc_target(t);
                    }
                    self.note(format!(
                        "P{}: receive tag {tag} under unknown control cannot be counted",
                        self.p
                    ));
                }
                SStmt::RecvBuf { tag, .. } => self.note(format!(
                    "P{}: receive tag {tag} under unknown control cannot be counted",
                    self.p
                )),
                SStmt::For { var, body, .. } => {
                    self.env.insert(var.clone(), Abs::Top);
                    self.havoc_block(body);
                }
                SStmt::If { then, els, .. } => {
                    self.havoc_block(then);
                    self.havoc_block(els);
                }
                SStmt::AllocBuf { .. } | SStmt::BufWrite { .. } | SStmt::Comment(_) => {}
            }
        }
    }

    /// Resolve a global array reference to its home `(owner, li, lj)`.
    fn global_element(&mut self, array: &str, idx: &[SExpr]) -> Option<(usize, i64, i64)> {
        let (i, j) = self.indices(idx)?;
        let inst = self.arrays.get(array)?.as_ref()?;
        let home = match inst.owner(i, j) {
            OwnerSet::One(q) => q,
            // Replicated data is owned locally (VM rule).
            OwnerSet::All => self.p,
        };
        let (li, lj) = inst.local(i, j);
        Some((home, li, lj))
    }

    fn indices(&mut self, idx: &[SExpr]) -> Option<(i64, i64)> {
        match idx {
            [j] => match self.eval(j) {
                Abs::Int(j) => Some((1, j)),
                _ => None,
            },
            [i, j] => match (self.eval(i), self.eval(j)) {
                (Abs::Int(i), Abs::Int(j)) => Some((i, j)),
                _ => None,
            },
            _ => None,
        }
    }

    fn eval(&mut self, e: &SExpr) -> Abs {
        match e {
            SExpr::Int(v) => Abs::Int(*v),
            SExpr::Float(v) => Abs::Float(*v),
            SExpr::Bool(v) => Abs::Bool(*v),
            SExpr::Var(v) => {
                self.events.var_read(self.p, v);
                self.env.get(v).copied().unwrap_or(Abs::Top)
            }
            SExpr::MyNode => Abs::Int(self.p as i64),
            SExpr::NProcs => Abs::Int(self.nprocs as i64),
            SExpr::Bin(op, a, b) => {
                let a = self.eval(a);
                let b = self.eval(b);
                binop(*op, a, b)
            }
            SExpr::Un(op, a) => match (op, self.eval(a)) {
                (SUnOp::Neg, Abs::Int(v)) => v.checked_neg().map(Abs::Int).unwrap_or(Abs::Top),
                (SUnOp::Neg, Abs::Float(v)) => Abs::Float(-v),
                (SUnOp::Not, Abs::Bool(v)) => Abs::Bool(!v),
                _ => Abs::Top,
            },
            // Array and buffer contents are opaque to the abstract walk,
            // but the reads themselves are observable (unused-receive
            // lint).
            SExpr::ARead { idx, .. } | SExpr::AReadGlobal { idx, .. } => {
                for ix in idx {
                    self.eval(ix);
                }
                Abs::Top
            }
            SExpr::BufRead { buf, idx } => {
                self.events.buf_read(self.p, buf);
                self.eval(idx);
                Abs::Top
            }
            SExpr::OwnerOf { array, idx } => {
                let Some((i, j)) = self.indices(idx) else {
                    return Abs::Top;
                };
                match self.arrays.get(array) {
                    Some(Some(inst)) => match inst.owner(i, j) {
                        OwnerSet::One(q) => Abs::Int(q as i64),
                        // Replicated data is owned locally (VM rule).
                        OwnerSet::All => Abs::Int(self.p as i64),
                    },
                    _ => Abs::Top,
                }
            }
            SExpr::LocalOf { array, idx, dim } => {
                let Some((i, j)) = self.indices(idx) else {
                    return Abs::Top;
                };
                match self.arrays.get(array) {
                    Some(Some(inst)) => {
                        let (li, lj) = inst.local(i, j);
                        Abs::Int(if *dim == 0 { li } else { lj })
                    }
                    _ => Abs::Top,
                }
            }
        }
    }
}

/// Mirror of the VM's `scalar_binop`, lifted to the abstract domain.
pub fn binop(op: SBinOp, l: Abs, r: Abs) -> Abs {
    use SBinOp::*;
    if l == Abs::Top || r == Abs::Top {
        return Abs::Top;
    }
    match op {
        Add | Sub | Mul | Div | FloorDiv | Mod | Min | Max => match (l, r) {
            (Abs::Int(a), Abs::Int(b)) => {
                let v = match op {
                    Add => a.checked_add(b),
                    Sub => a.checked_sub(b),
                    Mul => a.checked_mul(b),
                    Div | FloorDiv => a.checked_div_euclid(b),
                    Mod => a.checked_rem_euclid(b),
                    Min => Some(a.min(b)),
                    Max => Some(a.max(b)),
                    _ => unreachable!(),
                };
                v.map(Abs::Int).unwrap_or(Abs::Top)
            }
            _ => {
                let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                    return Abs::Top;
                };
                Abs::Float(match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    FloorDiv => (a / b).floor(),
                    Mod => a - b * (a / b).floor(),
                    Min => a.min(b),
                    Max => a.max(b),
                    _ => unreachable!(),
                })
            }
        },
        Eq | Ne => {
            let eq = match (l, r) {
                (Abs::Bool(a), Abs::Bool(b)) => a == b,
                _ => {
                    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                        return Abs::Top;
                    };
                    a == b
                }
            };
            Abs::Bool(if op == Eq { eq } else { !eq })
        }
        Lt | Le | Gt | Ge => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Abs::Top;
            };
            Abs::Bool(match op {
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            })
        }
        And | Or => match (l, r) {
            (Abs::Bool(a), Abs::Bool(b)) => Abs::Bool(if op == And { a && b } else { a || b }),
            _ => Abs::Top,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type WriteEv = (usize, String, Option<(usize, i64, i64)>);

    #[derive(Default)]
    struct Recorder {
        sends: Vec<(usize, usize, u32, u64)>,
        recvs: Vec<(usize, usize, u32, u64)>,
        writes: Vec<WriteEv>,
        notes: Vec<String>,
    }

    impl Events for Recorder {
        fn send(&mut self, proc: usize, dst: usize, tag: u32, words: u64) {
            self.sends.push((proc, dst, tag, words));
        }
        fn recv(&mut self, proc: usize, src: usize, tag: u32, words: u64, _sink: RecvSink<'_>) {
            self.recvs.push((proc, src, tag, words));
        }
        fn array_write(&mut self, proc: usize, array: &str, element: Option<(usize, i64, i64)>) {
            self.writes.push((proc, array.to_string(), element));
        }
        fn note(&mut self, _proc: usize, msg: String) {
            self.notes.push(msg);
        }
    }

    #[test]
    fn min_int_div_and_mod_minus_one_fold_to_unknown() {
        for op in [SBinOp::Div, SBinOp::FloorDiv, SBinOp::Mod] {
            assert_eq!(
                binop(op, Abs::Int(i64::MIN), Abs::Int(-1)),
                Abs::Top,
                "{op:?}"
            );
        }
        assert_eq!(binop(SBinOp::Mod, Abs::Int(7), Abs::Int(0)), Abs::Top);
        assert_eq!(
            binop(SBinOp::FloorDiv, Abs::Int(-7), Abs::Int(2)),
            Abs::Int(-4)
        );
    }

    #[test]
    fn events_arrive_in_program_order() {
        let prog = SpmdProgram::new(vec![
            vec![SStmt::For {
                var: "i".into(),
                lo: SExpr::int(1),
                hi: SExpr::int(3),
                step: SExpr::int(1),
                body: vec![SStmt::Send {
                    to: SExpr::int(1),
                    tag: 5,
                    values: vec![SExpr::var("i")],
                }],
            }],
            vec![SStmt::Recv {
                from: SExpr::int(0),
                tag: 5,
                into: vec![RecvTarget::Var("x".into())],
            }],
        ]);
        let mut rec = Recorder::default();
        walk(&prog, &BTreeMap::new(), &BTreeMap::new(), &mut rec);
        assert_eq!(
            rec.sends,
            vec![(0, 1, 5, 2), (0, 1, 5, 2), (0, 1, 5, 2)],
            "three unrolled sends from P0"
        );
        assert_eq!(rec.recvs, vec![(1, 0, 5, 2)]);
        assert!(rec.notes.is_empty(), "{:?}", rec.notes);
    }

    #[test]
    fn array_writes_resolve_to_their_home() {
        use pdc_mapping::Dist;
        // A 4x4 column-cyclic matrix on 2 procs: column 2 lives on P1.
        let prog = SpmdProgram::new(vec![
            vec![
                SStmt::AllocDist {
                    array: "A".into(),
                    rows: SExpr::int(4),
                    cols: SExpr::int(4),
                    dist: Dist::ColumnCyclic,
                },
                SStmt::AWriteGlobal {
                    array: "A".into(),
                    idx: vec![SExpr::int(1), SExpr::int(2)],
                    value: SExpr::int(9),
                },
            ],
            vec![],
        ]);
        let mut rec = Recorder::default();
        walk(&prog, &BTreeMap::new(), &BTreeMap::new(), &mut rec);
        assert_eq!(rec.writes.len(), 1);
        let (proc, array, element) = &rec.writes[0];
        assert_eq!((*proc, array.as_str()), (0, "A"));
        let (home, _li, _lj) = element.expect("statically resolvable");
        assert_eq!(home, 1, "column 2 is owned by P1 under column-cyclic");
    }

    #[test]
    fn havocked_writes_report_unknown_element() {
        let prog = SpmdProgram::new(vec![vec![
            SStmt::AllocBuf {
                buf: "b".into(),
                len: SExpr::int(1),
            },
            SStmt::If {
                cond: SExpr::BufRead {
                    buf: "b".into(),
                    idx: Box::new(SExpr::int(0)),
                }
                .gt(SExpr::int(0)),
                then: vec![SStmt::AWrite {
                    array: "A".into(),
                    idx: vec![SExpr::int(1)],
                    value: SExpr::int(0),
                }],
                els: vec![],
            },
        ]]);
        let mut rec = Recorder::default();
        walk(&prog, &BTreeMap::new(), &BTreeMap::new(), &mut rec);
        assert_eq!(rec.writes, vec![(0, "A".to_string(), None)]);
        assert!(!rec.notes.is_empty());
    }
}
