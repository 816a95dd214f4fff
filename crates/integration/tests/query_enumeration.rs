//! Query enumeration order: `enumerate_queries` lists, dimension subset by
//! dimension subset, every value combination present in the data in
//! lexicographic order of its code tuple, each with its rows ascending.
//! Pre-processing solves and stores in this order, so it fixes the
//! store's insertion order.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vqs_core::prelude::{mask_dims, subset_masks, EncodedRelation, Prior};
use vqs_engine::prelude::{enumerate_queries, Configuration, Query};

/// The enumeration by definition: per subset mask, the rows grouped under
/// their `Vec<u32>` code tuple in a sorted map.
fn reference(relation: &EncodedRelation, max_len: usize, target: &str) -> Vec<(Query, Vec<usize>)> {
    let mut out = Vec::new();
    for mask in subset_masks(relation.dim_count(), max_len) {
        let dims = mask_dims(mask);
        let mut combos: BTreeMap<Vec<u32>, Vec<usize>> = BTreeMap::new();
        for row in 0..relation.len() {
            let combo = dims.iter().map(|&d| relation.code(d, row)).collect();
            combos.entry(combo).or_default().push(row);
        }
        for (combo, rows) in combos {
            let predicates: Vec<(String, String)> = dims
                .iter()
                .zip(&combo)
                .map(|(&d, &code)| {
                    let dim = &relation.dims()[d];
                    (dim.name.clone(), dim.values[code as usize].to_string())
                })
                .collect();
            out.push((Query::new(target.to_string(), predicates), rows));
        }
    }
    out
}

/// Four dimensions, one with up to 60 values; codes follow first
/// appearance, so code order differs from value order.
fn arb_relation() -> impl Strategy<Value = EncodedRelation> {
    prop::collection::vec((0u32..3, 0u32..60, 0u32..2, 0u32..5), 1..80).prop_map(|rows| {
        let data: Vec<(Vec<String>, f64)> = rows
            .iter()
            .enumerate()
            .map(|(i, &(a, b, c, d))| {
                let values = vec![
                    format!("a{a}"),
                    format!("b{b}"),
                    format!("c{c}"),
                    format!("d{d}"),
                ];
                (values, i as f64)
            })
            .collect();
        let row_refs: Vec<(Vec<&str>, f64)> = data
            .iter()
            .map(|(v, t)| (v.iter().map(String::as_str).collect(), *t))
            .collect();
        EncodedRelation::from_rows(&["a", "b", "c", "d"], "y", row_refs, Prior::GlobalMean).unwrap()
    })
}

proptest! {
    #[test]
    fn enumeration_follows_code_tuple_order(relation in arb_relation(), max_len in 0usize..=3) {
        let mut config = Configuration::new("t", &["a", "b", "c", "d"], &["y"]);
        config.max_query_length = max_len;
        let items = enumerate_queries(&relation, &config, "y");
        let want = reference(&relation, max_len, "y");
        prop_assert_eq!(items.len(), want.len());
        for (item, (query, rows)) in items.iter().zip(&want) {
            prop_assert_eq!(&item.query, query);
            prop_assert_eq!(&item.rows, rows);
        }
    }
}
