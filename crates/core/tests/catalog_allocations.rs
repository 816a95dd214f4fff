//! A catalog build allocates per fact group, not per fact: facts live in
//! the catalog's columns, and a `Fact` with its scope is built only when
//! asked for.
//!
//! A counting global allocator tallies the heap blocks each thread
//! allocates (`alloc` and `alloc_zeroed`; a block that grows through
//! `realloc` stays one block), so tests running side by side do not mix
//! their counts. Two relations over the same three dimensions — full grids
//! of 3×3×2 and 12×12×8 value combinations — give catalogs with the same
//! fact groups and twelve times the facts; built from cells the way the
//! engine builds every query's catalog, both must allocate the same number
//! of blocks.
//!
//! The allocator also tracks each thread's live bytes — allocated minus
//! freed, through every `realloc` — and their high-water mark, which
//! bounds the working set of one query's catalog build and solve per
//! covered row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use vqs_core::prelude::*;

struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the thread holds: allocated minus freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count_block() {
    // `try_with`: the allocator also serves threads whose locals are
    // already torn down.
    let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
}

/// Add `bytes` (negative for a release) to the thread's live bytes and
/// raise their high-water mark to match.
fn track(bytes: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block();
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_block();
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        if !grown.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        grown
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A full grid over three dimensions of the given sizes, each value
/// combination held by `copies` rows (so every row is lone for one copy,
/// and every cell a run for more).
fn grid(sizes: [usize; 3], copies: usize) -> EncodedRelation {
    grid_with(sizes, copies, |[a, b, c], copy| {
        ((a * 7 + b * 3 + c + copy) % 11) as f64 + 0.5
    })
}

/// [`grid`] with the target of each row computed by `target` from the
/// row's value indexes and its copy.
fn grid_with(
    sizes: [usize; 3],
    copies: usize,
    target: impl Fn([usize; 3], usize) -> f64,
) -> EncodedRelation {
    let names: Vec<Vec<String>> = sizes
        .iter()
        .map(|&size| (0..size).map(|v| format!("v{v}")).collect())
        .collect();
    let mut rows = Vec::new();
    for copy in 0..copies {
        for a in 0..sizes[0] {
            for b in 0..sizes[1] {
                for c in 0..sizes[2] {
                    let values = vec![
                        names[0][a].as_str(),
                        names[1][b].as_str(),
                        names[2][c].as_str(),
                    ];
                    rows.push((values, target([a, b, c], copy)));
                }
            }
        }
    }
    EncodedRelation::from_rows(&["a", "b", "c"], "y", rows, Prior::GlobalMean).unwrap()
}

/// The blocks one catalog build over all of `relation` allocates, with
/// the catalog's fact and group counts. The cells are partitioned first,
/// outside the count, as the engine shares them across a target's
/// queries.
fn build_blocks(relation: &EncodedRelation) -> (u64, usize, usize) {
    let cells = RowPartition::new(relation, &[0, 1, 2]);
    let rows: Arc<[u32]> = (0..relation.len() as u32).collect();
    let before = BLOCKS.with(Cell::get);
    let catalog = FactCatalog::build_over(relation, &cells, rows, &[0, 1, 2], 0, 2).unwrap();
    let blocks = BLOCKS.with(Cell::get) - before;
    (blocks, catalog.len(), catalog.groups().len())
}

#[test]
fn catalog_build_allocates_per_group_not_per_fact() {
    for copies in [1, 2] {
        let small = grid([3, 3, 2], copies);
        let large = grid([12, 12, 8], copies);
        // Size the thread's working arrays for the larger catalog first,
        // so neither count includes their one-time growth.
        build_blocks(&large);
        let (small_blocks, small_facts, small_groups) = build_blocks(&small);
        let (large_blocks, large_facts, large_groups) = build_blocks(&large);
        assert_eq!(small_groups, large_groups);
        assert!(
            large_facts >= 10 * small_facts,
            "{large_facts} facts against {small_facts}"
        );
        assert_eq!(
            large_blocks, small_blocks,
            "{copies} rows per cell: {large_facts} facts took {large_blocks} blocks, \
             {small_facts} facts {small_blocks}"
        );
    }
}

/// A fact is built from the columns only when asked for — building one
/// allocates just its scope's codes — and `fact` agrees with `facts`.
#[test]
fn facts_are_built_on_demand() {
    let relation = grid([3, 3, 2], 2);
    let catalog = FactCatalog::build(&relation, &[0, 1, 2], 2).unwrap();
    for (id, fact) in catalog.facts().enumerate() {
        assert_eq!(catalog.fact(id), fact, "fact {id}");
    }
    let pair = catalog.groups().last().unwrap().fact_start;
    let before = BLOCKS.with(Cell::get);
    let fact = catalog.fact(pair);
    assert_eq!(
        BLOCKS.with(Cell::get) - before,
        1,
        "one block for the codes"
    );
    assert_eq!(fact.scope.len(), 2);
}

/// The live bytes one catalog build over all rows of `relation`, then a
/// solve of it with `summarizer`, hold at their peak above what the
/// thread held before — the relation, its cells and the shared row
/// list, the inputs the engine hands every query of a target — per
/// covered row. Checks that the solve speaks three facts and repeats.
fn working_set_per_row(relation: &EncodedRelation, summarizer: &dyn Summarizer) -> f64 {
    let cells = RowPartition::new(relation, &[0, 1, 2]);
    let rows: Arc<[u32]> = (0..relation.len() as u32).collect();
    let solve = || {
        let catalog =
            FactCatalog::build_over(relation, &cells, Arc::clone(&rows), &[0, 1, 2], 0, 2).unwrap();
        let problem = Problem::new(relation, &catalog, 3).unwrap();
        summarizer.summarize(&problem).unwrap()
    };
    // Size the thread's working arrays first, outside the count.
    let first = solve();
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let summary = solve();
    let per_row = (PEAK.with(Cell::get) - before) as f64 / rows.len() as f64;
    assert_eq!(summary.speech.facts(), first.speech.facts());
    assert_eq!(summary.speech.len(), 3);
    per_row
}

/// One query's working set per covered row.
///
/// G-O, on a grid whose cells hold 50 rows each: 21.6 bytes per row with
/// the catalog keeping only the cell-ordered targets and each row's cell
/// (the solve adds the residuals), 46.3 when it also copied the row list
/// and kept a position map and a prior-deviation column, and the greedy
/// an undo log.
///
/// The exact search adds its undo arena, on a grid of 2,400 rows per cell
/// whose target steps with `a` and then `b`, so each of the three facts
/// along a search path lowers nearly every row it covers: 55.4 bytes per
/// row with the arena's positions and previous residuals in two columns
/// (12 bytes an entry), 64.5 with padded `(u32, f64)` entries (16 bytes).
#[test]
fn query_working_set_per_covered_row_is_bounded() {
    const GREEDY_BOUND: f64 = 32.0;
    const EXACT_BOUND: f64 = 60.0;
    let greedy = working_set_per_row(
        &grid([12, 12, 8], 50),
        &GreedySummarizer::with_optimized_pruning(),
    );
    assert!(
        greedy <= GREEDY_BOUND,
        "G-O: {greedy:.1} bytes per covered row, more than {GREEDY_BOUND}"
    );
    let stepped = grid_with([2, 3, 4], 2400, |[a, b, c], copy| {
        (10 * a + b) as f64 + (c + copy % 5) as f64 * 0.1
    });
    let exact = working_set_per_row(&stepped, &ExactSummarizer::paper());
    assert!(
        exact <= EXACT_BOUND,
        "exact: {exact:.1} bytes per covered row, more than {EXACT_BOUND}"
    );
}
