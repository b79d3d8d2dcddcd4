//! On-page bytes are hostile: the record decoders and the node view face
//! whatever a failed device hands back, and must answer `Ok` or `Err` —
//! never panic, never size an allocation by what the bytes claim.
//!
//! The decoders borrow (`decode_fence` / `decode_branch` / `decode_leaf`
//! return slices of their input, checked below by address), so there is
//! no allocation to size; no owned decoder exists beside them that could
//! disagree. An owned `Bound` is only ever built from a decoded
//! `BoundRef`, and the two must then describe the same bound.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spf_btree::keys::{decode_branch, decode_fence, decode_leaf, encode_fence, BoundRef};
use spf_btree::node::{branch_record, build_node, leaf_record, NodeKind, RawRecord};
use spf_btree::{Bound, NodeView};
use spf_storage::{Page, PageId, PageType, DEFAULT_PAGE_SIZE};

/// `true` iff `part` is a sub-slice of `whole` — borrowed, not copied.
fn within(part: &[u8], whole: &[u8]) -> bool {
    let (p, w) = (part.as_ptr_range(), whole.as_ptr_range());
    part.is_empty() || (w.start <= p.start && p.end <= w.end)
}

fn check_bound(bound: BoundRef<'_>, input: &[u8]) -> Result<(), TestCaseError> {
    if let BoundRef::Key(k) = bound {
        prop_assert!(within(k, input), "fence key copied out of its record");
    }
    // Owned and borrowed forms agree, and the owned one re-encodes to a
    // record that decodes to the same bound.
    let owned = bound.to_bound();
    prop_assert_eq!(owned.as_bound_ref(), bound);
    let encoded = encode_fence(&owned);
    prop_assert_eq!(decode_fence(&encoded).unwrap(), bound);
    Ok(())
}

/// A well-formed node to corrupt: a leaf, a branch, or
/// either with a foster child.
fn seed_node(shape: u8) -> Page {
    let key = |i: u32| Bound::Key(format!("key-{i:04}").into_bytes());
    let foster = key(60);
    let foster = (shape & 2 != 0).then_some((PageId(77), &foster));
    let (kind, level, payload): (_, _, Vec<RawRecord>) = if shape & 1 == 0 {
        let records = (10..50)
            .map(|i| {
                (
                    leaf_record(format!("key-{i:04}").as_bytes(), b"value"),
                    i % 7 == 0,
                )
            })
            .collect();
        (NodeKind::Leaf, 0, records)
    } else {
        let mut entries: Vec<RawRecord> = (1..6)
            .map(|i| {
                (
                    branch_record(PageId(100 + u64::from(i)), &key(10 * i)),
                    false,
                )
            })
            .collect();
        let last = if foster.is_some() { key(60) } else { key(90) };
        entries.push((branch_record(PageId(200), &last), false));
        (NodeKind::Branch, 1, entries)
    };
    build_node(
        DEFAULT_PAGE_SIZE,
        PageId(9),
        kind,
        level,
        (&key(0), &key(90)),
        &payload,
        foster,
    )
}

/// Everything a descent, a scan or the verifier asks of a node.
fn exercise(page: &Page, probe: &[u8]) {
    let Ok(view) = NodeView::new(page) else {
        return;
    };
    let _ = view.route(probe);
    let _ = view.route(&[]);
    let _ = view.low_fence();
    let _ = view.high_fence();
    if view.has_foster() {
        let _ = view.foster_separator();
    }
    for pos in view.payload_range().take(64) {
        let _ = view.leaf_entry(pos);
        let _ = view.branch_entry(pos);
    }
    let _ = view.check_invariants();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn record_decoders_answer_ok_or_err(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        if let Ok(bound) = decode_fence(&bytes) {
            check_bound(bound, &bytes)?;
        }
        if let Ok((_child, upper)) = decode_branch(&bytes) {
            check_bound(upper, &bytes)?;
        }
        if let Ok((key, value)) = decode_leaf(&bytes) {
            prop_assert!(within(key, &bytes) && within(value, &bytes));
            prop_assert!(key.len() + value.len() <= bytes.len());
        }
    }

    /// A length prefix that promises more than the record holds — up to
    /// the full `u64` range — is an error, not a reservation.
    #[test]
    fn oversized_length_prefixes_are_refused(claimed in any::<u64>(), tail in 0usize..8) {
        let mut enc = spf_util::codec::Encoder::new();
        enc.put_varint(claimed);
        let mut record = enc.finish();
        record.extend(std::iter::repeat_n(0xAB, tail));
        let fits = claimed <= tail as u64;

        prop_assert_eq!(decode_leaf(&record).is_ok(), fits);
        let mut fence = vec![1u8]; // TAG_KEY
        fence.extend_from_slice(&record);
        prop_assert_eq!(decode_fence(&fence).is_ok(), fits);
        let mut branch = 42u64.to_le_bytes().to_vec();
        branch.extend_from_slice(&fence);
        prop_assert_eq!(decode_branch(&branch).is_ok(), fits);
    }

    /// A valid node with a handful of bytes overwritten anywhere — header,
    /// structure area, slot directory, record heap.
    #[test]
    fn corrupted_node_images_never_panic(
        shape in 0u8..4,
        damage in proptest::collection::vec(
            // Half the hits land on the header and the slot directory,
            // where a single byte redirects every later read.
            (prop_oneof![0usize..320, 0usize..DEFAULT_PAGE_SIZE], any::<u8>()),
            1..24,
        ),
        probe in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let mut page = seed_node(shape);
        prop_assert!(NodeView::new(&page).unwrap().check_invariants().is_empty());
        let ptype = page.page_type().unwrap();
        for (offset, byte) in damage {
            page.as_bytes_mut()[offset] = byte;
        }
        page.set_page_type(ptype);
        exercise(&page, &probe);
        exercise(&page, b"key-0033");
    }

    /// Pure noise that merely claims to be a B-tree node.
    #[test]
    fn random_images_with_a_btree_type_never_panic(seed in any::<u64>(), leaf in any::<bool>()) {
        let mut bytes = vec![0u8; DEFAULT_PAGE_SIZE];
        StdRng::seed_from_u64(seed).fill(&mut bytes[..]);
        let mut page = Page::from_bytes(bytes);
        page.set_page_type(if leaf { PageType::BTreeLeaf } else { PageType::BTreeBranch });
        exercise(&page, &seed.to_le_bytes());
    }
}
