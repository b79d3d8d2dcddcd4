//! CRC-32C (Castagnoli polynomial, reflected): the `crc32` instruction on
//! x86-64, slicing-by-8 everywhere else.
//!
//! Every database page in this workspace carries a CRC-32C over its payload
//! (see `spf-storage`). A checksum mismatch on read is the canonical
//! *in-page* test of the paper's Section 4.2 ("Many single-page failures may
//! be discovered by in-page tests, e.g., parity and checksum calculations").
//! The checksum therefore runs on every verified device read and on every
//! write-back of a page — and over every log record, archive run, manifest
//! and black box — so its throughput sits squarely on the buffer pool's
//! miss path, on commit and on every recovery.
//!
//! Three kernels compute the same function, bit for bit, so the on-disk
//! formats do not depend on which one ran:
//!
//! * **Hardware** (`sse42`, x86-64 only). SSE4.2's `crc32` instruction
//!   implements exactly this polynomial. Page-sized inputs run as three
//!   interleaved streams, which keeps the instruction's pipeline full; an
//!   8 KiB page verifies in about 0.36 µs, against 5.7 µs in software.
//! * **Slicing-by-8** ([`crc32c_slice8`]), the portable path: eight
//!   256-entry tables computed at compile time let the inner loop consume
//!   eight bytes per iteration with eight independent lookups.
//! * **Bytewise** ([`crc32c_bytewise`]), one lookup per byte: the reference
//!   oracle for tests and benchmarks.
//!
//! [`crc32c`] and [`Crc32c`] pick between the first two with one runtime
//! check of what the CPU reports (`is_x86_feature_detected!`, a cached
//! load). Nothing else selects a backend: no cargo feature, no environment
//! variable, no configuration field. That dispatch is also the single place
//! in the workspace where `unsafe` is allowed — calling a function compiled
//! for a CPU feature is the one thing safe Rust cannot express — and the
//! kernel behind it is itself safe code: register-only intrinsics and
//! `u64::from_le_bytes` loads, no raw pointers.
//!
//! CRC-32C was chosen over CRC-32 (IEEE) because it is what production
//! engines use for page checksums (e.g. PostgreSQL data checksums, RocksDB
//! block checksums), because commodity CPUs compute it in hardware, and
//! because it detects all single-bit and all two-bit errors within a
//! page-sized payload.

/// Reflected CRC-32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing tables. `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so one iteration can fold eight input bytes at once.
///
/// `const fn` construction keeps all eight tables (8 KiB) in rodata; no
/// runtime init cost.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32C of `data` in one shot, on the fastest kernel the
/// CPU offers.
///
/// ```
/// // Known-answer test vector from RFC 3720 (iSCSI): CRC-32C("123456789").
/// assert_eq!(spf_util::crc32c(b"123456789"), 0xE306_9283);
/// ```
#[must_use]
pub fn crc32c(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Portable slicing-by-8 CRC-32C. Bit-identical to [`crc32c`], which falls
/// back to it wherever the hardware kernel is unavailable; public so that
/// it stays tested and benchmarked on hosts where the dispatcher never
/// picks it.
#[must_use]
pub fn crc32c_slice8(data: &[u8]) -> u32 {
    !update_slice8(!0, data)
}

/// Reference byte-at-a-time CRC-32C. Bit-identical to [`crc32c`]; kept as
/// the oracle the faster kernels are tested and benchmarked against.
#[must_use]
pub fn crc32c_bytewise(data: &[u8]) -> u32 {
    !update_bytewise(!0, data)
}

/// Advances the raw (un-inverted) CRC state `crc` over `data`: the one
/// place a backend is chosen, by what the CPU reports and nothing else.
fn update(crc: u32, data: &[u8]) -> u32 {
    match update_hw(crc, data) {
        Some(crc) => crc,
        None => update_slice8(crc, data),
    }
}

/// The hardware kernel, or `None` where the CPU has none. Holds the
/// workspace's only `unsafe` block (ARCHITECTURE.md, invariant 3).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn update_hw(crc: u32, data: &[u8]) -> Option<u32> {
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `sse42::update` is a safe function whose only requirement on
    // its caller is the `sse4.2` target feature it is compiled with, and the
    // check above has just seen the running CPU report that feature.
    Some(unsafe { sse42::update(crc, data) })
}

#[cfg(not(target_arch = "x86_64"))]
fn update_hw(_crc: u32, _data: &[u8]) -> Option<u32> {
    None
}

fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        let idx = ((crc ^ u32::from(byte)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLES[0][idx];
    }
    crc
}

fn update_slice8(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // Fold the running CRC into the first four bytes, then look up
        // all eight bytes in independent tables: no serial dependency
        // between lookups, unlike the bytewise loop.
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    update_bytewise(crc, chunks.remainder())
}

/// The SSE4.2 `crc32` instruction, three streams at a time.
///
/// `crc32 r64, r/m64` folds eight bytes into the state with a latency of
/// three cycles and a throughput of one per cycle, so a single dependent
/// chain leaves two thirds of the unit idle. The kernel therefore cuts the
/// input into three equal blocks, runs one chain over each in the same
/// loop, and joins them: by linearity, the state after `A ‖ B` is the
/// state after `A`, advanced over `|B|` zero bytes, xor the state of `B`
/// started from zero, and "advance over `n` zero bytes" is a multiplication
/// by x^(8n) mod the polynomial, done here by four lookups in a table
/// computed at compile time (the scheme of Mark Adler's `crc32c.c`).
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use super::POLY;
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// Block size for page-sized inputs: three of them cover all but 28
    /// bytes of the 8 188 checksummed bytes of a default page, in one join.
    pub(super) const LONG: usize = 2720;
    /// Block size for what is left, and for inputs under `3 * LONG`.
    pub(super) const SHORT: usize = 256;

    static LONG_SHIFT: [[u32; 256]; 4] = shift_table(LONG);
    static SHORT_SHIFT: [[u32; 256]; 4] = shift_table(SHORT);

    /// Product of two polynomials mod `POLY`, in the bit order CRC states
    /// use (reflected: bit 31 is x^0).
    const fn mul_mod(a: u32, mut b: u32) -> u32 {
        let mut product = 0;
        let mut bit = 1u32 << 31;
        while bit != 0 {
            if a & bit != 0 {
                product ^= b;
            }
            bit >>= 1;
            b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        }
        product
    }

    /// `table[k][b]` is the state `b << 8k` advanced over `len` zero bytes,
    /// i.e. multiplied by x^(8·len), found by square-and-multiply.
    const fn shift_table(len: usize) -> [[u32; 256]; 4] {
        let mut x_pow = 1u32 << 31; // x^0
        let mut square = 1u32 << 23; // x^8: one zero byte
        let mut n = len;
        while n != 0 {
            if n & 1 != 0 {
                x_pow = mul_mod(x_pow, square);
            }
            square = mul_mod(square, square);
            n >>= 1;
        }
        let mut table = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                table[k][b] = mul_mod((b as u32) << (8 * k), x_pow);
                b += 1;
            }
            k += 1;
        }
        table
    }

    fn shift(table: &[[u32; 256]; 4], crc: u64) -> u64 {
        u64::from(
            table[0][(crc & 0xFF) as usize]
                ^ table[1][((crc >> 8) & 0xFF) as usize]
                ^ table[2][((crc >> 16) & 0xFF) as usize]
                ^ table[3][(crc >> 24) as usize],
        )
    }

    fn le_u64(chunk: &[u8]) -> u64 {
        u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"))
    }

    /// Folds the first `3 * block` bytes of `data` into `crc` as three
    /// interleaved streams and returns the state and the rest of `data`.
    #[target_feature(enable = "sse4.2")]
    fn three_streams<'a>(
        crc: u64,
        data: &'a [u8],
        block: usize,
        table: &[[u32; 256]; 4],
    ) -> (u64, &'a [u8]) {
        let (a, rest) = data.split_at(block);
        let (b, rest) = rest.split_at(block);
        let (c, rest) = rest.split_at(block);
        let (mut crc_a, mut crc_b, mut crc_c) = (crc, 0, 0);
        for ((a, b), c) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            crc_a = _mm_crc32_u64(crc_a, le_u64(a));
            crc_b = _mm_crc32_u64(crc_b, le_u64(b));
            crc_c = _mm_crc32_u64(crc_c, le_u64(c));
        }
        let crc_ab = shift(table, crc_a) ^ crc_b;
        (shift(table, crc_ab) ^ crc_c, rest)
    }

    /// Advances the raw CRC state `crc` over `data`.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn update(crc: u32, mut data: &[u8]) -> u32 {
        let mut crc = u64::from(crc);
        while data.len() >= 3 * LONG {
            (crc, data) = three_streams(crc, data, LONG, &LONG_SHIFT);
        }
        while data.len() >= 3 * SHORT {
            (crc, data) = three_streams(crc, data, SHORT, &SHORT_SHIFT);
        }
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            crc = _mm_crc32_u64(crc, le_u64(word));
        }
        // The instruction zeroes the upper half of its 64-bit destination.
        let mut crc = crc as u32;
        for &byte in words.remainder() {
            crc = _mm_crc32_u8(crc, byte);
        }
        crc
    }
}

/// Incremental CRC-32C hasher for multi-fragment payloads.
///
/// Used by the log manager to checksum a record header and body without
/// copying them into one buffer first.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Creates a hasher in the initial state.
    #[must_use]
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Consumes the hasher and returns the final checksum.
    #[must_use]
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sweeps below are sized by the hardware kernel's blocks, also on
    // targets where that kernel is not compiled.
    #[cfg(target_arch = "x86_64")]
    use super::sse42::{LONG, SHORT};
    #[cfg(not(target_arch = "x86_64"))]
    pub(super) const LONG: usize = 2720;
    #[cfg(not(target_arch = "x86_64"))]
    pub(super) const SHORT: usize = 256;

    type Kernel = (&'static str, fn(&[u8]) -> u32);

    /// Every fast one-shot kernel by name: the dispatcher, slicing-by-8
    /// and, where this CPU has it, the hardware kernel called directly.
    fn kernels() -> Vec<Kernel> {
        let mut all: Vec<Kernel> = vec![("dispatched", crc32c), ("slice8", crc32c_slice8)];
        if update_hw(!0, &[]).is_some() {
            all.push(("hardware", |data| {
                !update_hw(!0, data).expect("available: checked above")
            }));
        }
        all
    }

    /// Asserts that the bytewise reference and every kernel give `expected`.
    fn assert_all_backends(data: &[u8], expected: u32) {
        assert_eq!(crc32c_bytewise(data), expected, "bytewise");
        for (name, crc) in kernels() {
            assert_eq!(crc(data), expected, "{name}, {} bytes", data.len());
        }
    }

    /// Deterministic xorshift64*, so failures reproduce.
    struct XorShift(u64);

    impl XorShift {
        fn new() -> Self {
            Self(0x0123_4567_89AB_CDEF)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| (self.next() >> 56) as u8).collect()
        }
    }

    fn random_bytes(len: usize) -> Vec<u8> {
        XorShift::new().bytes(len)
    }

    #[test]
    fn known_answer_rfc3720() {
        // RFC 3720 B.4 test vector.
        assert_all_backends(b"123456789", 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_all_backends(b"", 0);
    }

    #[test]
    fn all_zero_block() {
        // RFC 3720: 32 bytes of zeros -> 0x8A9136AA.
        assert_all_backends(&[0u8; 32], 0x8A91_36AA);
    }

    #[test]
    fn all_ones_block() {
        // RFC 3720: 32 bytes of 0xFF -> 0x62A8AB43.
        assert_all_backends(&[0xFFu8; 32], 0x62A8_AB43);
    }

    #[test]
    fn ascending_block() {
        // RFC 3720: bytes 0x00..0x1F -> 0x46DD794E.
        let data: Vec<u8> = (0u8..32).collect();
        assert_all_backends(&data, 0x46DD_794E);
    }

    /// The on-disk format did not move: the checksummed region of a
    /// deterministic 8 KiB page image (everything after the 4-byte checksum
    /// field) has the CRC the slicing-by-8 kernel stored for it before the
    /// hardware kernel existed, under every backend, so a page sealed by
    /// one verifies under any other.
    #[test]
    fn golden_page_image_crc_is_backend_independent() {
        let image = random_bytes(8192);
        assert_all_backends(&image[4..], 0x8816_267C);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        let mut hasher = Crc32c::new();
        for chunk in data.chunks(97) {
            hasher.update(chunk);
        }
        assert_eq!(hasher.finalize(), crc32c(&data));
    }

    /// Every kernel must agree with the bytewise oracle on every length
    /// from 0 to past three long blocks (every mix of long rounds, short
    /// rounds, word loop and byte tail) at every start alignment.
    #[test]
    fn kernels_agree_on_every_length_and_alignment() {
        let max_len = 3 * LONG + 64;
        let pool = random_bytes(max_len + 8);
        let kernels = kernels();
        for offset in 0..8usize {
            let mut oracle = !0;
            for len in 0..=max_len {
                let slice = &pool[offset..offset + len];
                for (name, crc) in &kernels {
                    assert_eq!(crc(slice), !oracle, "{name}, len {len} offset {offset}");
                }
                oracle = update_bytewise(oracle, &pool[offset + len..=offset + len]);
            }
        }
    }

    /// A payload fed in two fragments must checksum like the whole,
    /// wherever the cut falls relative to the kernel's block, stream and
    /// word boundaries: every cut of a buffer that holds a long round,
    /// three short rounds and a tail.
    #[test]
    fn update_split_at_every_offset_matches_oneshot() {
        let data = random_bytes(3 * LONG + 3 * SHORT + 64);
        let whole = crc32c_bytewise(&data);
        for cut in 0..=data.len() {
            let mut hasher = Crc32c::new();
            hasher.update(&data[..cut]);
            hasher.update(&data[cut..]);
            assert_eq!(hasher.finalize(), whole, "cut at {cut}");
        }
    }

    /// Random lengths, alignments and multi-way splits against the
    /// bytewise oracle.
    #[test]
    fn slice8_matches_bytewise_fuzz() {
        let mut rng = XorShift::new();
        let pool = rng.bytes(16384);
        let mut next = move || rng.next();

        for _ in 0..4000 {
            let len = (next() as usize) % 4096;
            let offset = (next() as usize) % (pool.len() - len);
            let slice = &pool[offset..offset + len];
            assert_all_backends(slice, crc32c_bytewise(slice));
        }
        // Incremental updates across odd split points must also agree.
        for _ in 0..200 {
            let len = (next() as usize) % 4096;
            let offset = (next() as usize) % (pool.len() - len);
            let slice = &pool[offset..offset + len];
            let mut hasher = Crc32c::new();
            let mut pos = 0;
            while pos < slice.len() {
                let step = 1 + (next() as usize) % 101;
                let end = (pos + step).min(slice.len());
                hasher.update(&slice[pos..end]);
                pos = end;
            }
            assert_eq!(hasher.finalize(), crc32c_bytewise(slice));
        }
    }

    #[test]
    fn detects_single_bit_flip_in_page_sized_payload() {
        let mut data = vec![0xA5u8; 8192];
        let clean = crc32c(&data);
        for bit in [0usize, 1, 7, 8, 63, 8191 * 8, 8191 * 8 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&data), clean, "bit {bit} flip went undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32c(&data), clean);
    }

    #[test]
    fn detects_swapped_halves() {
        // A lost write that presents another valid-looking sector must not
        // collide. Swapping two distinct halves changes the checksum.
        let mut data = Vec::new();
        data.extend(std::iter::repeat_n(0x11u8, 4096));
        data.extend(std::iter::repeat_n(0x22u8, 4096));
        let mut swapped = Vec::new();
        swapped.extend(std::iter::repeat_n(0x22u8, 4096));
        swapped.extend(std::iter::repeat_n(0x11u8, 4096));
        assert_ne!(crc32c(&data), crc32c(&swapped));
    }
}
