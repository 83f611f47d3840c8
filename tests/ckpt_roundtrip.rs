//! Property suite for the `pipad-ckpt` container and codec.
//!
//! Three families of properties back the checkpoint subsystem's safety
//! story:
//!
//! * **round-trip byte-identity** — arbitrary section payloads and typed
//!   values survive encode → decode unchanged, and re-encoding the decoded
//!   state reproduces the original file byte for byte (the foundation of
//!   the kill-and-resume bit-identity contract);
//! * **corruption detection** — truncating the file anywhere or flipping
//!   any single bit yields a *typed* [`CkptError`], never a panic and
//!   never a silently-accepted file;
//! * **garbage tolerance** — `Checkpoint::from_bytes` and the bounds-
//!   checked [`Reader`] reject arbitrary byte soup with typed errors.
//!
//! The reuse store's one encoding (`CkptExtra for InterFrameReuse`) gets a
//! round trip of its own: entries, both tiers' counters and the budget.

use pipad_repro::ckpt::codec::{
    get_matrix, put_bool, put_f32, put_f64, put_matrix, put_str, put_u32, put_u64, Reader,
};
use pipad_repro::ckpt::{Checkpoint, CheckpointWriter, CkptError};
use pipad_repro::gpu_sim::{DeviceConfig, Gpu};
use pipad_repro::pipad::{CkptExtra, InterFrameReuse};
use pipad_repro::tensor::Matrix;
use proptest::prelude::*;

/// Strategy: an arbitrary payload of up to `max` bytes.
fn payload(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u32..256, 0..max)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// Strategy: a short ASCII section/string name (possibly empty).
fn name(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..26, 0..max)
        .prop_map(|v| v.into_iter().map(|c| (b'a' + c as u8) as char).collect())
}

/// Build a writer holding `sections`. Names get a `<index>_` prefix —
/// generated names are all-letter, so prefixed names cannot collide and
/// decoded lookups are unambiguous.
fn writer_with(sections: &[(String, Vec<u8>)]) -> CheckpointWriter {
    let mut w = CheckpointWriter::new();
    for (i, (n, p)) in sections.iter().enumerate() {
        w.section(&format!("{i}_{n}")).extend_from_slice(p);
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn container_round_trips_and_reencodes_byte_identically(
        sections in proptest::collection::vec((name(12), payload(120)), 1..6)
    ) {
        let bytes = writer_with(&sections).encode();
        let ckpt = Checkpoint::from_bytes(bytes.clone()).expect("valid file must decode");
        for (i, (n, p)) in sections.iter().enumerate() {
            prop_assert_eq!(ckpt.section(&format!("{i}_{n}")).unwrap(), &p[..]);
        }
        prop_assert_eq!(ckpt.section_names().count(), sections.len());
        // Re-encoding the decoded sections reproduces the file exactly.
        let again = writer_with(&sections).encode();
        prop_assert_eq!(bytes, again);
    }

    #[test]
    fn truncation_anywhere_yields_typed_error(
        sections in proptest::collection::vec((name(8), payload(64)), 1..4),
        cut_salt in 0u64..10_000
    ) {
        let bytes = writer_with(&sections).encode();
        let cut = (cut_salt as usize) % bytes.len();
        let err = match Checkpoint::from_bytes(bytes[..cut].to_vec()) {
            Ok(_) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("truncated file decoded at cut {cut}"))),
            Err(e) => e,
        };
        // Short cuts fail the header reads; longer ones leave a plausible
        // header whose (now displaced) trailing "file CRC" cannot match.
        prop_assert!(matches!(
            err,
            CkptError::Truncated { .. }
                | CkptError::BadMagic
                | CkptError::BadVersion(_)
                | CkptError::FileCrc
        ), "unexpected error for cut at {}: {}", cut, err);
    }

    #[test]
    fn single_bit_flip_anywhere_yields_typed_error(
        sections in proptest::collection::vec((name(8), payload(64)), 1..4),
        pos_salt in 0u64..100_000,
        bit in 0u32..8
    ) {
        let mut bytes = writer_with(&sections).encode();
        let pos = (pos_salt as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        let res = Checkpoint::from_bytes(bytes);
        prop_assert!(res.is_err(), "bit flip at {}.{} went undetected", pos, bit);
    }

    #[test]
    fn garbage_bytes_never_panic(soup in payload(256)) {
        // Typed rejection, whatever the bytes happen to spell.
        prop_assert!(Checkpoint::from_bytes(soup.clone()).is_err());
        let mut r = Reader::new(&soup);
        // A plausible decode sequence over arbitrary bytes either yields
        // values or a typed error — then the residue check is also typed.
        let _ = r.get_u64().and_then(|_| r.get_str().map(str::len));
        let _ = r.finish();
    }

    #[test]
    fn typed_values_round_trip_bit_exactly(
        a in 0u32..u32::MAX, b in 0u64..u64::MAX, f_bits in 0u32..u32::MAX,
        d_bits in 0u64..u64::MAX, flag in 0u32..2, s in name(24)
    ) {
        // Floats travel as raw bits, so NaN payloads and -0.0 are fair game.
        let f = f32::from_bits(f_bits);
        let d = f64::from_bits(d_bits);
        let mut buf = Vec::new();
        put_u32(&mut buf, a);
        put_u64(&mut buf, b);
        put_f32(&mut buf, f);
        put_f64(&mut buf, d);
        put_bool(&mut buf, flag == 1);
        put_str(&mut buf, &s);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.get_u32().unwrap(), a);
        prop_assert_eq!(r.get_u64().unwrap(), b);
        prop_assert_eq!(r.get_f32().unwrap().to_bits(), f.to_bits());
        prop_assert_eq!(r.get_f64().unwrap().to_bits(), d.to_bits());
        prop_assert_eq!(r.get_bool().unwrap(), flag == 1);
        prop_assert_eq!(r.get_str().unwrap(), s.as_str());
        r.finish().unwrap();
    }

    #[test]
    fn matrices_round_trip_bit_exactly(
        rows in 1usize..12, cols in 1usize..12, salt in 0u64..1000
    ) {
        let m = Matrix::from_fn(rows, cols, |r, c| {
            if (r + c + salt as usize).is_multiple_of(7) {
                f32::NAN
            } else {
                ((r * 31 + c * 7) as f32).mul_add(0.125, salt as f32 * 0.01) - 1.0
            }
        });
        let mut buf = Vec::new();
        put_matrix(&mut buf, &m);
        let mut r = Reader::new(&buf);
        let back = get_matrix(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(back.shape(), m.shape());
        for rr in 0..rows {
            for cc in 0..cols {
                prop_assert_eq!(back[(rr, cc)].to_bits(), m[(rr, cc)].to_bits());
            }
        }
        back.recycle();
        m.recycle();
    }
}

#[test]
fn the_reuse_store_round_trips_entries_counters_and_budget() {
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let mut store = InterFrameReuse::new(1 << 20);
    for s in [3, 1, 2] {
        store.deposit(s, || {
            Matrix::from_fn(2, 3, |r, c| (s * 10 + r * 3 + c) as f32)
        });
    }
    assert!(store.lookup(1..4).is_some());
    assert!(store.lookup(0..2).is_none());
    store.slide(&mut gpu, 2..4);
    assert!(store.lookup(2..4).is_some());
    // Checkpoints are taken with the device tier empty.
    store.evict_device(&mut gpu);
    let encode = |store: &InterFrameReuse| {
        let mut meta = Vec::new();
        store.put_meta(&mut meta);
        let mut w = CheckpointWriter::new();
        store.put_sections(&mut w);
        (meta, w.encode())
    };
    let (meta, file) = encode(&store);

    let mut back = InterFrameReuse::default();
    let mut r = Reader::new(&meta);
    back.get_meta(&mut r).unwrap();
    r.finish().unwrap();
    back.get_sections(&Checkpoint::from_bytes(file.clone()).unwrap())
        .unwrap();
    let st = back.stats();
    assert_eq!(st, store.stats());
    assert_eq!((st.cpu_hits, st.cpu_misses), (4, 1));
    assert_eq!((st.gpu_hits, st.gpu_misses), (2, 5));
    assert_eq!(st.budget_bytes, 1 << 20);
    // Re-encoding the restored store reproduces both halves byte for byte.
    assert_eq!(encode(&back), (meta, file));
}
