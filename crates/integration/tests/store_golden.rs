//! Golden store pin: the speech stores pre-processing produces for the
//! four paper scenarios and the synthetic ScaleTenant hash to fixed
//! constants. Performance work on the offline path (query enumeration,
//! catalog build, solvers) must leave every stored speech — facts, values
//! to the bit, text, utility — unchanged; a changed constant means the
//! answers changed, not merely the timings.
//!
//! The hash is FNV-1a over the tenant name and the `Debug` rendering of
//! every speech of the sorted store snapshot, the recipe of voicebench's
//! `store_digest`.

use vqs_data::{by_letter, scale_tenant_spec, GeneratedDataset, DEFAULT_SEED};
use vqs_engine::prelude::*;

/// FNV-1a over `tenant` and each stored speech's `Debug` rendering.
fn digest(tenant: &str, store: &SpeechStore) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for speech in store.snapshot() {
        for byte in format!("{tenant}{speech:?}").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Register `dataset` with all its dimensions and targets and return the
/// digest of the resulting store.
fn registered_digest(tenant: &str, dataset: GeneratedDataset) -> String {
    let dims: Vec<&str> = dataset.dims.iter().map(String::as_str).collect();
    let targets: Vec<&str> = dataset.targets.iter().map(String::as_str).collect();
    let config = Configuration::new(&dataset.name, &dims, &targets);
    let service = ServiceBuilder::new().workers(2).build();
    service
        .register_dataset(TenantSpec::new(tenant, dataset, config))
        .expect("registration succeeds");
    digest(tenant, &service.tenant_store(tenant).expect("registered"))
}

fn scenario_digest(letter: &str, tenant: &str) -> String {
    registered_digest(tenant, by_letter(letter, 0.05).expect("known scenario"))
}

#[test]
fn flights_store_is_pinned() {
    assert_eq!(scenario_digest("F", "flights"), "32917f134900775b");
}

#[test]
fn acs_store_is_pinned() {
    assert_eq!(scenario_digest("A", "acs"), "f266e04f74259e40");
}

#[test]
fn primaries_store_is_pinned() {
    assert_eq!(scenario_digest("P", "primaries"), "01438007decd3a0e");
}

#[test]
fn stackoverflow_store_is_pinned() {
    assert_eq!(scenario_digest("S", "stackoverflow"), "aab9de0dc16a73b2");
}

#[test]
fn scale_tenant_store_is_pinned() {
    let dataset = scale_tenant_spec().generate_rows(DEFAULT_SEED, 20_000, 1);
    assert_eq!(registered_digest("scale", dataset), "f8bc0d4ee425ba7a");
}
