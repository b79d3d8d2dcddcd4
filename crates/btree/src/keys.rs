//! Key bounds and on-page record encodings shared by both trees.
//!
//! Fence keys and branch separators are bounds: ordinary byte-string
//! keys extended with −∞ and +∞ so the leftmost and rightmost edges of the
//! tree have honest fences (the paper's Figure 2 shows them as the "white"
//! and "black" extremes).
//!
//! Two types carry a bound. [`BoundRef`] borrows the key bytes from the
//! page they were decoded from; every decoder returns it, and it is the
//! right type for anything that is only compared while the page latch is
//! held — routing, the fence check of a child against its parent's
//! promise, in-node invariants. [`Bound`] owns its bytes; build one (via
//! [`BoundRef::to_bound`]) only where the value outlives the latch: an
//! error payload, a record about to be logged by a split or adoption, a
//! scan cursor carried across a re-descent.

use std::cmp::Ordering;

use spf_util::codec::{DecodeError, Decoder, Encoder};

/// A key or an infinite bound, owning its bytes. See the module docs for
/// when to use this rather than [`BoundRef`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Below every key.
    NegInf,
    /// An ordinary key.
    Key(Vec<u8>),
    /// Above every key.
    PosInf,
}

impl Bound {
    /// The borrowed form of this bound.
    #[inline]
    #[must_use]
    pub fn as_bound_ref(&self) -> BoundRef<'_> {
        match self {
            Bound::NegInf => BoundRef::NegInf,
            Bound::Key(k) => BoundRef::Key(k),
            Bound::PosInf => BoundRef::PosInf,
        }
    }
}

impl PartialOrd for Bound {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bound {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bound_ref().cmp(&other.as_bound_ref())
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_bound_ref().fmt(f)
    }
}

/// A key or an infinite bound, borrowing its bytes from the page (or the
/// [`Bound`]) it came from. `Copy`, allocation-free, and ordered exactly
/// like [`Bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundRef<'a> {
    /// Below every key.
    NegInf,
    /// An ordinary key.
    Key(&'a [u8]),
    /// Above every key.
    PosInf,
}

impl BoundRef<'_> {
    /// Copies the key bytes into an owned [`Bound`].
    #[must_use]
    pub fn to_bound(self) -> Bound {
        match self {
            BoundRef::NegInf => Bound::NegInf,
            BoundRef::Key(k) => Bound::Key(k.to_vec()),
            BoundRef::PosInf => Bound::PosInf,
        }
    }

    /// `true` iff `key` lies in the half-open interval `[low, high)`.
    #[inline]
    #[must_use]
    pub fn contains(low: BoundRef<'_>, high: BoundRef<'_>, key: &[u8]) -> bool {
        low.cmp_key(key) != Ordering::Greater && high.cmp_key(key) == Ordering::Greater
    }

    /// Compares this bound with an ordinary key.
    #[inline]
    #[must_use]
    pub fn cmp_key(self, key: &[u8]) -> Ordering {
        match self {
            BoundRef::NegInf => Ordering::Less,
            BoundRef::Key(k) => k.cmp(key),
            BoundRef::PosInf => Ordering::Greater,
        }
    }
}

impl PartialEq<Bound> for BoundRef<'_> {
    fn eq(&self, other: &Bound) -> bool {
        *self == other.as_bound_ref()
    }
}

impl PartialOrd for BoundRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BoundRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        use BoundRef::*;
        match (self, other) {
            (NegInf, NegInf) | (PosInf, PosInf) => Ordering::Equal,
            (NegInf, _) | (_, PosInf) => Ordering::Less,
            (_, NegInf) | (PosInf, _) => Ordering::Greater,
            (Key(a), Key(b)) => a.cmp(b),
        }
    }
}

impl std::fmt::Display for BoundRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundRef::NegInf => write!(f, "-∞"),
            BoundRef::PosInf => write!(f, "+∞"),
            BoundRef::Key(k) => write!(f, "{}", spf_util::hex::hex_preview(k, 12)),
        }
    }
}

const TAG_NEG_INF: u8 = 0;
const TAG_KEY: u8 = 1;
const TAG_POS_INF: u8 = 2;

/// Encodes a fence record (a bound, stored as a ghost slot).
#[must_use]
pub fn encode_fence(bound: &Bound) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(8);
    match bound {
        Bound::NegInf => enc.put_u8(TAG_NEG_INF),
        Bound::Key(k) => {
            enc.put_u8(TAG_KEY);
            enc.put_len_bytes(k);
        }
        Bound::PosInf => enc.put_u8(TAG_POS_INF),
    }
    enc.finish()
}

/// Decodes a fence record, borrowing the key bytes from `record`.
#[inline]
pub fn decode_fence(record: &[u8]) -> Result<BoundRef<'_>, DecodeError> {
    let mut dec = Decoder::new(record);
    let bound = match dec.get_u8()? {
        TAG_NEG_INF => BoundRef::NegInf,
        TAG_KEY => BoundRef::Key(dec.get_len_bytes(1 << 14)?),
        TAG_POS_INF => BoundRef::PosInf,
        tag => return Err(DecodeError::InvalidTag { tag, what: "Bound" }),
    };
    Ok(bound)
}

/// Encodes a leaf data record: `varint(key_len) key value`.
#[must_use]
pub fn encode_leaf(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(key.len() + value.len() + 2);
    enc.put_len_bytes(key);
    enc.put_bytes(value);
    enc.finish()
}

/// Decodes a leaf data record into `(key, value)`.
#[inline]
pub fn decode_leaf(record: &[u8]) -> Result<(&[u8], &[u8]), DecodeError> {
    let mut dec = Decoder::new(record);
    let key = dec.get_len_bytes(1 << 14)?;
    let value = dec.get_bytes(dec.remaining())?;
    Ok((key, value))
}

/// Encodes a branch entry: `child_pid upper_bound`. The entry routes keys
/// in `[previous upper, upper)` to `child`.
#[must_use]
pub fn encode_branch(child: u64, upper: &Bound) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(16);
    enc.put_u64(child);
    enc.put_bytes(&encode_fence(upper));
    enc.finish()
}

/// Decodes a branch entry into `(child_pid, upper_bound)`, borrowing the
/// bound's key bytes from `record`.
#[inline]
pub fn decode_branch(record: &[u8]) -> Result<(u64, BoundRef<'_>), DecodeError> {
    let mut dec = Decoder::new(record);
    let child = dec.get_u64()?;
    let bound = decode_fence(dec.get_bytes(dec.remaining())?)?;
    Ok((child, bound))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_ordering() {
        let k = |s: &str| Bound::Key(s.as_bytes().to_vec());
        assert!(Bound::NegInf < k("a"));
        assert!(k("a") < k("b"));
        assert!(k("zzz") < Bound::PosInf);
        assert!(Bound::NegInf < Bound::PosInf);
        assert_eq!(k("m").cmp(&k("m")), Ordering::Equal);
    }

    #[test]
    fn cmp_key_and_contains() {
        let low = Bound::Key(b"c".to_vec());
        let high = Bound::Key(b"m".to_vec());
        let (l, h) = (low.as_bound_ref(), high.as_bound_ref());
        assert!(BoundRef::contains(l, h, b"c"));
        assert!(BoundRef::contains(l, h, b"lzz"));
        assert!(!BoundRef::contains(l, h, b"m"));
        assert!(!BoundRef::contains(l, h, b"b"));
        assert!(BoundRef::contains(
            BoundRef::NegInf,
            BoundRef::PosInf,
            b"anything"
        ));
        assert_eq!(l.cmp_key(b"c"), Ordering::Equal);
        assert_eq!(h.cmp_key(b"c"), Ordering::Greater);
    }

    #[test]
    fn fence_round_trip() {
        for b in [
            Bound::NegInf,
            Bound::PosInf,
            Bound::Key(b"fence".to_vec()),
            Bound::Key(vec![]),
        ] {
            let enc = encode_fence(&b);
            assert_eq!(decode_fence(&enc).unwrap(), b.as_bound_ref());
            assert_eq!(decode_fence(&enc).unwrap().to_bound(), b);
        }
    }

    #[test]
    fn leaf_round_trip() {
        let enc = encode_leaf(b"key", b"value bytes");
        let (k, v) = decode_leaf(&enc).unwrap();
        assert_eq!(k, b"key");
        assert_eq!(v, b"value bytes");
        // Empty value is legal.
        let enc = encode_leaf(b"k", b"");
        let (k, v) = decode_leaf(&enc).unwrap();
        assert_eq!(k, b"k");
        assert!(v.is_empty());
    }

    #[test]
    fn branch_round_trip() {
        for bound in [Bound::Key(b"sep".to_vec()), Bound::PosInf] {
            let enc = encode_branch(42, &bound);
            let (child, upper) = decode_branch(&enc).unwrap();
            assert_eq!(child, 42);
            assert_eq!(upper, bound.as_bound_ref());
        }
    }

    #[test]
    fn malformed_records_do_not_panic() {
        assert!(decode_fence(&[9, 9, 9]).is_err());
        assert!(decode_branch(&[1, 2]).is_err());
        assert!(decode_leaf(&[0xFF]).is_err());
    }
}
