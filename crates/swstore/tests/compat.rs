//! Stores written by an older build, which also kept the chain in a
//! `MANIFEST.swst` beside the generations: the directory's valid
//! generations are the chain, and the manifest is neither read nor
//! touched.

use std::fs;

use swstore::crc32::crc32;
use swstore::{Store, StoreOptions};

/// The older build's manifest bytes for `chain`: magic, format version,
/// count, the epochs, CRC32.
fn old_manifest(chain: &[u64]) -> Vec<u8> {
    let mut out = b"SWSTMAN1\x01".to_vec();
    out.extend_from_slice(&(chain.len() as u32).to_le_bytes());
    for e in chain {
        out.extend_from_slice(&e.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn a_store_written_with_a_manifest_opens_to_the_same_chain() {
    let dir = std::env::temp_dir().join(format!("swstore-compat-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
    for e in [10, 20, 30] {
        store
            .commit(e, &[format!("epoch {e}").into_bytes()])
            .unwrap();
    }
    drop(store);
    // What the older build can leave: a manifest still listing an epoch
    // whose file is gone, and the temp its last rewrite came from.
    let manifest = old_manifest(&[5, 10, 20, 30]);
    fs::write(dir.join("MANIFEST.swst"), &manifest).unwrap();
    fs::write(dir.join("tmp-manifest.swst"), old_manifest(&[10])).unwrap();

    let (mut store, report) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(store.chain(), &[10, 20, 30]);
    assert!(report.rejected.is_empty(), "{report:?}");
    assert_eq!(report.temps_swept, 1);
    assert!(!dir.join("tmp-manifest.swst").exists());
    assert_eq!(store.load_newest_valid().unwrap().unwrap().epoch, 30);
    store.commit(40, &[b"epoch 40".to_vec()]).unwrap();
    drop(store);
    assert_eq!(fs::read(dir.join("MANIFEST.swst")).unwrap(), manifest);
    let _ = fs::remove_dir_all(&dir);
}
