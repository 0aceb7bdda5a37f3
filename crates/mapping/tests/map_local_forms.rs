//! The Map/Local functions exist twice: symbolically (`owner_expr`,
//! `local_expr`) for the compiler, and as plain integer arithmetic
//! (`owner`, `local`) for the VM, the loader, gather and the abstract
//! interpreter. These tests tie the two forms together exhaustively over
//! small instances, and check the closed-form table-assignment Local and
//! Alloc against brute-force counting.

use pdc_mapping::{Affine, Dist, DistInstance, OwnerSet};
use std::sync::Arc;

/// Every analyzable family on `nprocs` processors, with every
/// `Block2d` factorisation of the machine.
fn analyzable_dists(nprocs: usize) -> Vec<Dist> {
    let mut dists = vec![
        Dist::Replicated,
        Dist::ColumnCyclic,
        Dist::RowCyclic,
        Dist::ColumnBlock,
        Dist::RowBlock,
    ];
    dists.extend((0..nprocs).map(Dist::OnProcessor));
    for block in 1..=3 {
        dists.push(Dist::ColumnBlockCyclic { block });
        dists.push(Dist::RowBlockCyclic { block });
    }
    dists.extend(
        (1..=nprocs)
            .filter(|&prows| nprocs.is_multiple_of(prows))
            .map(|prows| Dist::Block2d {
                prows,
                pcols: nprocs / prows,
            }),
    );
    dists
}

#[test]
fn numeric_map_local_equal_symbolic_forms() {
    let (vi, vj) = (Affine::var("i"), Affine::var("j"));
    let mut checked = 0usize;
    for nprocs in 1..=6 {
        for dist in analyzable_dists(nprocs) {
            for rows in 1..=9usize {
                for cols in 1..=9usize {
                    let inst = DistInstance::new(dist.clone(), rows, cols, nprocs);
                    let owner = inst.owner_expr(&vi, &vj).expect("analyzable");
                    let (li, lj) = inst.local_expr(&vi, &vj).expect("analyzable");
                    // Indices one and two past either edge exercise the
                    // clamping and euclidean rounding of each family.
                    for i in -1..=rows as i64 + 2 {
                        for j in -1..=cols as i64 + 2 {
                            let env = |v: &str| match v {
                                "i" => i,
                                "j" => j,
                                other => panic!("unbound {other}"),
                            };
                            let at = format!("{dist} {rows}x{cols} on {nprocs} at ({i},{j})");
                            assert_eq!(inst.owner(i, j), owner.eval(&env), "owner of {at}");
                            assert_eq!(
                                inst.local(i, j),
                                (li.eval(&env), lj.eval(&env)),
                                "local of {at}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, 662_661);
}

/// Brute-force table-assignment Local: one plus the number of earlier
/// columns with the same owner.
fn brute_local(inst: &DistInstance, i: i64, j: i64) -> (i64, i64) {
    let owner = inst.owner(i, j);
    let rank = (1..j).filter(|&c| inst.owner(i, c) == owner).count();
    (i, rank as i64 + 1)
}

/// Brute-force table-assignment Alloc: the widest processor's column
/// count, at least one.
fn brute_alloc(inst: &DistInstance) -> (usize, usize) {
    let (rows, cols) = inst.extents();
    let widest = (0..inst.nprocs())
        .map(|p| {
            (1..=cols as i64)
                .filter(|&c| inst.owner(1, c) == OwnerSet::One(p))
                .count()
        })
        .max()
        .unwrap_or(0);
    (rows, widest.max(1))
}

#[test]
fn table_local_and_alloc_match_brute_force_counts() {
    let tables: Vec<(Dist, usize)> = vec![
        (Dist::column_weighted(&[1]), 1),
        (Dist::column_weighted(&[1, 2, 1]), 3),
        (Dist::column_weighted(&[2, 1, 3]), 3),
        (Dist::column_weighted(&[1, 4, 4, 4]), 4),
        (Dist::column_weighted(&[0, 3, 1]), 3),
        // A table longer than most of the arrays below.
        (Dist::column_weighted(&[5, 7, 2, 9]), 4),
        (
            Dist::ColumnAssigned {
                table: Arc::new(vec![2, 0, 1, 0, 0, 2]),
            },
            4,
        ),
    ];
    for (dist, nprocs) in tables {
        for cols in 1..=40usize {
            let inst = DistInstance::new(dist.clone(), 3, cols, nprocs);
            assert_eq!(
                inst.alloc(),
                brute_alloc(&inst),
                "{dist} alloc, {cols} cols"
            );
            for i in 1..=3 {
                for j in -1..=cols as i64 + 2 {
                    assert_eq!(
                        inst.local(i, j),
                        brute_local(&inst, i, j),
                        "{dist} local({i},{j}), {cols} cols"
                    );
                }
            }
        }
    }
}
