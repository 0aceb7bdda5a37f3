//! Domain decomposition: the *mapping* half of the paper's input.
//!
//! §2.3 of the paper defines a domain decomposition as (a) a processor for
//! each scalar (`a:P1`, or `a:ALL` for replication) and (b), for each
//! array, three functions:
//!
//! * **Map** — given the indices of a reference, the processor on which the
//!   element resides (its *owner*);
//! * **Local** — the element's location within the owner's local array;
//! * **Alloc** — the shape of the local array each processor allocates.
//!
//! The paper's running example wraps matrix columns around a ring "like a
//! dealer deals cards": `col-map(i,j) = j mod s`. This crate generalizes
//! that to the distribution families HPF later standardized — cyclic,
//! block, and block-cyclic in either dimension, two-dimensional blocks,
//! replication, and single-processor placement — while keeping the same
//! three-function interface ([`DistInstance`]).
//!
//! For compile-time resolution the compiler needs *symbolic* forms of these
//! functions: [`Affine`] index expressions, [`OwnerExpr`] owner
//! expressions, and the mapping-equation solver ([`solve_for`]) that turns
//! `owner(j) = p` into strided loop bounds — the step the paper describes
//! as *"we set the equations in the evaluators equal to the processor name
//! and solve for the loop variable"* (§3.2). Code that already knows the
//! indices — the VM, input loading, gather, the abstract interpreter —
//! calls the numeric [`DistInstance::owner`]/[`DistInstance::local`]
//! instead: the same functions as plain integer arithmetic, with no
//! expression built per call.
//!
//! # Examples
//!
//! ```
//! use pdc_mapping::{Dist, DistInstance, OwnerSet};
//!
//! // 8x8 matrix, columns wrapped around 4 processors.
//! let inst = DistInstance::new(Dist::ColumnCyclic, 8, 8, 4);
//! assert_eq!(inst.owner(1, 1), OwnerSet::One(0)); // column 1 lives on P0
//! assert_eq!(inst.owner(1, 6), OwnerSet::One(1)); // column 6 lives on P1
//! assert_eq!(inst.local(3, 6), (3, 2)); // …as its 2nd local column
//! assert_eq!(inst.alloc(), (8, 2)); // each proc holds 8x2
//! ```

mod affine;
mod decomp;
mod dist;
mod error;
mod owner;
mod solve;

pub use affine::Affine;
pub use decomp::{Decomposition, ScalarMap, ThreeVal};
pub use dist::{Dist, DistInstance, LocalIndex, LocalTerm};
pub use error::MappingError;
pub use owner::{OwnerExpr, OwnerSet};
pub use solve::{solve_for, IterSet, Solution};
