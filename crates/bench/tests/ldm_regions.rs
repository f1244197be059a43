//! What `ldm_report` reads: each region's fullest CPE, from the
//! `LdmReserve` events of a traced kernel run. The reservations must
//! follow the cache sizing the paper designs around — Fig. 5's Bit-Map
//! on top of the write cache, and §3.5's associativity scaling the
//! search caches — through the kernels' own `ldm.reserve` calls.

use bench::{ldm_by_region, water_workload, RegionLdm};
use mdsim::pairlist::ListKind;
use sw26010::trace;
use sw26010::{BitMap, CacheGeometry, CoreGroup};
use swgmx::kernels::{run_rma, RmaConfig};
use swgmx::package::FORCE_WORDS;
use swgmx::pairgen::generate_pairlist;

/// Bytes the fullest CPE of `region` reserved under `label`, if any.
fn bytes(region: &RegionLdm, label: &str) -> Option<usize> {
    region
        .items
        .iter()
        .find(|&&(l, _)| l == label)
        .map(|&(_, bytes)| bytes)
}

/// The one region of `run` that reserves `label`.
fn region_with(label: &str, run: impl FnOnce()) -> RegionLdm {
    let session = trace::Session::begin();
    run();
    let mut regions: Vec<_> = ldm_by_region(&session.finish())
        .into_iter()
        .filter(|r| bytes(r, label).is_some())
        .collect();
    assert_eq!(regions.len(), 1, "regions reserving {label}: {regions:?}");
    regions.pop().unwrap()
}

#[test]
fn the_bitmap_adds_one_bit_per_copy_line_to_the_write_cache() {
    let w = water_workload(1200, 1);
    let cg = CoreGroup::new();
    let write_cache = |cfg| {
        let calc = region_with("write cache", || {
            run_rma(&w.psys, &w.half, &w.params, &cg, cfg);
        });
        bytes(&calc, "write cache").unwrap()
    };
    let line_elems = CacheGeometry::paper_default(FORCE_WORDS).line_elems;
    let marks = BitMap::new(w.psys.n_packages().div_ceil(line_elems)).ldm_bytes();
    assert!(marks > 0);
    assert_eq!(
        write_cache(RmaConfig::MARK),
        write_cache(RmaConfig::CACHE) + marks
    );
}

#[test]
fn two_way_search_caches_reserve_twice_the_one_way_bytes() {
    let w = water_workload(1200, 1);
    let cg = CoreGroup::new();
    let search = |ways| {
        region_with("center cache", || {
            generate_pairlist(&w.sys, w.params.r_cut, ListKind::Half, &cg, ways);
        })
    };
    let (one, two) = (search(1), search(2));
    for label in ["center cache", "member cache"] {
        assert_eq!(
            bytes(&two, label).unwrap(),
            2 * bytes(&one, label).unwrap(),
            "{label}"
        );
    }
}
