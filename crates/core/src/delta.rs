//! Dimension-subset masks: the query shapes of §III's enumeration.
//!
//! The offline pipeline enumerates one summary per *dimension subset*
//! (a bitmask over the dimension columns) and *value combination* (the
//! values a row takes on the masked dimensions), so a row belongs to
//! exactly one combination per admissible mask. Incremental maintenance
//! needs no more from here: the generator marks, mask by mask, the
//! combinations that hold a changed row's cell.

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
}
