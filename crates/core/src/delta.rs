//! Subset/delta mapping for incremental maintenance.
//!
//! The offline pipeline enumerates one summary per *dimension subset*
//! (a bitmask over the dimension columns) and *value combination* (the
//! values a row takes on the masked dimensions). Incremental maintenance
//! inverts that map: a changed row can only invalidate the summaries of
//! the `(mask, combination)` pairs it participates in, one per admissible
//! mask — a DBSP-style dataflow from deltas to dirty query subsets
//! instead of a full re-diff.
//!
//! Both directions must agree exactly for a drained delta log to
//! converge on the cold pre-processing result, so the enumerator and the
//! invalidation circuit share these definitions.

/// All dimension-subset bitmasks over `dim_count` dimensions with at
/// most `max_len` bits set, in ascending numeric order — the enumeration
/// order of the offline pre-processing pass (bit `d` = dimension `d`).
///
/// The empty mask (the predicate-free overall query) is always included.
/// Each popcount level comes from [`masks_of_size`], so the cost follows
/// the number of masks returned, not `2^dim_count`. `dim_count` must stay
/// below 32 (configurations with more dimensions are rejected up front).
pub fn subset_masks(dim_count: usize, max_len: usize) -> Vec<u32> {
    assert!(dim_count < 32, "dimension subsets are 32-bit masks");
    let mut masks: Vec<u32> = (0..=max_len.min(dim_count))
        .flat_map(|k| masks_of_size(dim_count, k))
        .map(|mask| mask as u32)
        .collect();
    masks.sort_unstable();
    masks
}

/// The `k`-subsets of `n` bits (`k ≤ n < 64`) in decreasing numeric order:
/// Gosper's hack steps through the complements, the `(n − k)`-subsets in
/// increasing order, so no shift or sum passes bit `n`.
pub fn masks_of_size(n: usize, k: usize) -> impl Iterator<Item = u64> {
    let all = (1u64 << n) - 1;
    std::iter::successors(Some((1u64 << (n - k)) - 1), move |&c| {
        let low = c & c.wrapping_neg();
        if low == 0 {
            return None; // the empty complement (k = n) has no successor
        }
        let ripple = c + low;
        let next = ripple | (((c ^ ripple) >> 2) / low);
        (next <= all).then_some(next)
    })
    .map(move |c| all ^ c)
}

/// The indexes of the set bits of `mask`, ascending.
pub fn mask_dims(mask: u32) -> Vec<usize> {
    let mut bits = mask;
    let mut dims = Vec::with_capacity(mask.count_ones() as usize);
    while bits != 0 {
        let d = bits.trailing_zeros() as usize;
        dims.push(d);
        bits &= bits - 1;
    }
    dims
}

/// The value combination of one row restricted to `mask`: for every set
/// bit `d`, ascending, the pair `(d, values[d])`. `values` holds the
/// row's value on every dimension, indexed by dimension.
pub fn masked_combo<T: Clone>(values: &[T], mask: u32) -> Vec<(usize, T)> {
    mask_dims(mask)
        .into_iter()
        .map(|d| (d, values[d].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_respect_length_cap_and_order() {
        let masks = subset_masks(3, 2);
        assert_eq!(masks, vec![0b000, 0b001, 0b010, 0b011, 0b100, 0b101, 0b110]);
        // Unlimited length = the full power set.
        assert_eq!(subset_masks(3, 3).len(), 8);
        // Length zero still yields the overall (empty) subset.
        assert_eq!(subset_masks(3, 0), vec![0]);
        assert_eq!(subset_masks(0, 2), vec![0]);
    }

    /// The Gosper walk returns exactly the filtered power set, in order.
    #[test]
    fn masks_match_brute_force_filter() {
        for n in 0..=12usize {
            for max_len in 0..=n + 1 {
                let want: Vec<u32> = (0u32..1 << n)
                    .filter(|mask| mask.count_ones() as usize <= max_len)
                    .collect();
                assert_eq!(subset_masks(n, max_len), want, "n={n} max_len={max_len}");
            }
        }
        // The widest configuration walks only the masks it returns.
        assert_eq!(subset_masks(31, 2).len(), 1 + 31 + 31 * 30 / 2);
    }

    #[test]
    fn mask_dims_are_ascending_set_bits() {
        assert_eq!(mask_dims(0), Vec::<usize>::new());
        assert_eq!(mask_dims(0b1), vec![0]);
        assert_eq!(mask_dims(0b1010), vec![1, 3]);
        assert_eq!(mask_dims(u32::MAX), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn combos_pair_dimension_with_value() {
        let row = ["Winter", "East", "AA"];
        assert_eq!(masked_combo(&row, 0), Vec::new());
        assert_eq!(masked_combo(&row, 0b101), vec![(0, "Winter"), (2, "AA")]);
    }

    #[test]
    fn every_row_key_is_one_mask() {
        // A row participates in exactly one combination per mask — the
        // invariant the invalidation circuit relies on.
        let row = ["a", "b"];
        let masks = subset_masks(2, 2);
        let keys: Vec<_> = masks.iter().map(|&m| masked_combo(&row, m)).collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(keys[3], vec![(0, "a"), (1, "b")]);
    }
}
