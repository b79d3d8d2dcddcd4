//! The five workloads: sizes, the seeded operation stream, keys, values
//! and the in-memory model every engine result is checked against.
//!
//! Everything here is a pure function of `(workload, seed, scale)`; the
//! engine only ever sees the generated keys and values.

/// Bytes in a key: `key-` plus ten decimal digits.
pub const KEY_LEN: usize = 14;
/// Bytes in a value. Fixed, so an update never changes record size: no
/// leaf splits in a measured phase and the leaf map stays valid.
pub const VALUE_LEN: usize = 100;
/// Records a `scan` asks for.
pub const SCAN_LIMIT: usize = 50;
/// Rounds in a measured phase. The sandbox slows down in bursts of a
/// second or so, so the gated figures come from the quiet quartile of
/// many short rounds (see `stats::lower_quartile`), not from one long one.
pub const ROUNDS: usize = 12;
/// On `fail-recover`, every this-many-th operation trips an injected fault.
pub const FAULT_EVERY: u64 = 50;

/// A named workload. The names are what later issues refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadCached,
    ReadCold,
    WriteCommit,
    MixedEvict,
    FailRecover,
}

/// How large a run is. `FULL` is what `BENCHMARK.json` measures; `SMOKE`
/// walks every code path in a fraction of a second for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Keys loaded at set-up (N).
    pub keys: u32,
    /// Pool frames on the workloads whose tree must stay resident.
    pub frames_resident: usize,
    /// Pool frames on the workloads that must evict (1/11 of the leaves).
    pub frames_small: usize,
    /// Divides every per-round operation count and probe size.
    pub shrink: u64,
}

impl Scale {
    /// 200 000 keys → 5 882 leaves (46 MiB) against 8 192 or 512 frames.
    pub const FULL: Scale = Scale {
        keys: 200_000,
        frames_resident: 8192,
        frames_small: 512,
        shrink: 1,
    };
    /// 5 000 keys → 148 leaves against 512 or 16 frames.
    pub const SMOKE: Scale = Scale {
        keys: 5_000,
        frames_resident: 512,
        frames_small: 16,
        shrink: 100,
    };
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ReadCached,
        Workload::ReadCold,
        Workload::WriteCommit,
        Workload::MixedEvict,
        Workload::FailRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadCached => "read-cached",
            Workload::ReadCold => "read-cold",
            Workload::WriteCommit => "write-commit",
            Workload::MixedEvict => "mixed-evict",
            Workload::FailRecover => "fail-recover",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does the pool hold the whole tree on this workload?
    pub fn tree_resident(self) -> bool {
        matches!(self, Workload::ReadCached | Workload::WriteCommit)
    }

    pub fn pool_frames(self, scale: Scale) -> usize {
        if self.tree_resident() {
            scale.frames_resident
        } else {
            scale.frames_small
        }
    }

    /// Operations in one round of the measured phase. The counts are
    /// fixed (not "as many as fit in the time") so that log volume, space
    /// and every counter repeat exactly for a seed; they are sized so the
    /// twelve rounds take 5 to 10 s at `seconds` = 10 on the 2-core
    /// reference box.
    pub fn round_ops(self, scale: Scale, seconds: u64) -> u64 {
        let per_second = match self {
            Workload::ReadCached => 25_000,
            Workload::ReadCold => 7_500,
            Workload::WriteCommit => 5_000,
            Workload::MixedEvict => 4_000,
            Workload::FailRecover => 6_000,
        };
        (per_second * seconds / scale.shrink).max(FAULT_EVERY * 4)
    }

    /// `(interval, offset)`: a checkpoint runs after every operation
    /// whose 1-based index is `offset` modulo `interval`. One in the
    /// middle of every round, so that all rounds do the same work and the
    /// crash after the last one leaves half a round of redo.
    pub fn checkpoint_schedule(self, round_ops: u64) -> Option<(u64, u64)> {
        match self {
            Workload::WriteCommit | Workload::MixedEvict => Some((round_ops, round_ops / 2)),
            _ => None,
        }
    }

    /// The operation type `op_p50_us` reports.
    pub fn primary_is_put(self) -> bool {
        matches!(self, Workload::WriteCommit | Workload::MixedEvict)
    }

    /// Draws a key the way this workload's measured phase does.
    pub fn draw_key(self, rng: &mut Rng, keys: u32) -> u32 {
        match self {
            // Hot keys are adjacent, so hot *pages* exist.
            Workload::MixedEvict => {
                let u = rng.unit();
                ((f64::from(keys) * u * u * u) as u32).min(keys - 1)
            }
            _ => rng.below(keys),
        }
    }
}

/// The four injected single-page failures, cycled in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    BitRot,
    ZeroPage,
    HardReadError,
    StaleVersion,
}

impl FaultClass {
    pub const ALL: [FaultClass; 4] = [
        FaultClass::BitRot,
        FaultClass::ZeroPage,
        FaultClass::HardReadError,
        FaultClass::StaleVersion,
    ];
}

/// One generated operation. Keys are indices into the key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u32),
    Put(u32),
    Scan(u32),
    /// Arm `class` on the leaf chosen by `pick` (modulo the leaf count),
    /// make it non-resident, and read a key that lives on it.
    Fault {
        class: FaultClass,
        pick: u32,
    },
}

/// xorshift64*, private to the benchmark so the op stream cannot change
/// when the engine's vendored `rand` does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // splitmix64 of the seed: adjacent seeds give unrelated streams
        // and the state is never zero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded operation stream of one workload.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    keys: u32,
    rng: Rng,
    issued: u64,
    faults: u64,
    digest: u64,
}

/// Position of each operation type inside `mixed-evict`'s block of 20:
/// 9 puts, 9 gets, 2 scans, interleaved.
const MIXED_BLOCK: [u8; 20] = *b"pgpgpgpgpsgpgpgpgpgs";

impl OpStream {
    pub fn new(workload: Workload, seed: u64, keys: u32) -> Self {
        OpStream {
            workload,
            keys,
            rng: Rng::new(seed),
            issued: 0,
            faults: 0,
            digest: 0xCBF2_9CE4_8422_2325,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let slot = self.issued;
        self.issued += 1;
        let op = match self.workload {
            Workload::ReadCached | Workload::ReadCold => Op::Get(self.rng.below(self.keys)),
            Workload::WriteCommit => Op::Put(self.rng.below(self.keys)),
            Workload::MixedEvict => {
                let key = self.workload.draw_key(&mut self.rng, self.keys);
                match MIXED_BLOCK[(slot % 20) as usize] {
                    b'p' => Op::Put(key),
                    b'g' => Op::Get(key),
                    _ => Op::Scan(key),
                }
            }
            Workload::FailRecover => {
                if slot % FAULT_EVERY == FAULT_EVERY - 1 {
                    let class = FaultClass::ALL[(self.faults % 4) as usize];
                    self.faults += 1;
                    Op::Fault {
                        class,
                        pick: self.rng.next_u64() as u32,
                    }
                } else {
                    Op::Get(self.rng.below(self.keys))
                }
            }
        };
        let code = match op {
            Op::Get(k) => u64::from(k),
            Op::Put(k) => 1 << 32 | u64::from(k),
            Op::Scan(k) => 2 << 32 | u64::from(k),
            Op::Fault { class, pick } => (3 + class as u64) << 32 | u64::from(pick),
        };
        // FNV-1a over whole operations.
        self.digest = (self.digest ^ code).wrapping_mul(0x0000_0100_0000_01B3);
        op
    }

    /// Digest of every operation issued so far: equal digests mean equal
    /// streams, so two runs did the same work.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Writes `key-<id, 10 digits>` into `buf`.
pub fn write_key(buf: &mut [u8; KEY_LEN], id: u32) {
    buf[..4].copy_from_slice(b"key-");
    write_digits(&mut buf[4..], id);
}

/// Parses a key written by [`write_key`].
pub fn parse_key(key: &[u8]) -> Option<u32> {
    let digits = key.strip_prefix(b"key-")?;
    if digits.len() != KEY_LEN - 4 {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// Writes `v-<key>-<generation, 10 digits>-` padded with `x` to
/// [`VALUE_LEN`] bytes into `buf`.
pub fn write_value(buf: &mut [u8; VALUE_LEN], id: u32, generation: u32) {
    buf[..2].copy_from_slice(b"v-");
    let mut key = [0u8; KEY_LEN];
    write_key(&mut key, id);
    buf[2..2 + KEY_LEN].copy_from_slice(&key);
    buf[2 + KEY_LEN] = b'-';
    write_digits(&mut buf[3 + KEY_LEN..13 + KEY_LEN], generation);
    buf[13 + KEY_LEN] = b'-';
    buf[14 + KEY_LEN..].fill(b'x');
}

fn write_digits(buf: &mut [u8], mut n: u32) {
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

/// What the database must contain: the last acknowledged generation of
/// every key. Generation 0 is the bulk load.
#[derive(Debug, Clone)]
pub struct Model {
    generations: Vec<u32>,
}

impl Model {
    pub fn loaded(keys: u32) -> Self {
        Model {
            generations: vec![0; keys as usize],
        }
    }

    pub fn keys(&self) -> u32 {
        self.generations.len() as u32
    }

    pub fn generation(&self, id: u32) -> u32 {
        self.generations[id as usize]
    }

    /// Records that a put of `generation` on `id` was acknowledged.
    pub fn acknowledge(&mut self, id: u32, generation: u32) {
        self.generations[id as usize] = generation;
    }

    /// Does `found` equal the value the model holds for `id`?
    pub fn matches(&self, id: u32, found: Option<&[u8]>) -> bool {
        let mut expected = [0u8; VALUE_LEN];
        write_value(&mut expected, id, self.generation(id));
        found == Some(&expected[..])
    }

    /// Does `found` equal what `scan(id, SCAN_LIMIT)` must return?
    pub fn matches_scan(&self, id: u32, found: &[(Vec<u8>, Vec<u8>)]) -> bool {
        let expected_len = SCAN_LIMIT.min((self.keys() - id) as usize);
        found.len() == expected_len
            && found.iter().zip(id..).all(|((key, value), at)| {
                parse_key(key) == Some(at) && self.matches(at, Some(value))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(workload: Workload, seed: u64, ops: usize) -> u64 {
        let mut stream = OpStream::new(workload, seed, Scale::SMOKE.keys);
        for _ in 0..ops {
            stream.next_op();
        }
        stream.digest()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for workload in Workload::ALL {
            assert_eq!(digest_of(workload, 7, 5000), digest_of(workload, 7, 5000));
            assert_ne!(digest_of(workload, 7, 5000), digest_of(workload, 8, 5000));
        }
    }

    #[test]
    fn mixed_evict_block_is_nine_nine_two_and_skewed() {
        let mut stream = OpStream::new(Workload::MixedEvict, 1, 200_000);
        let (mut puts, mut gets, mut scans, mut low) = (0, 0, 0, 0);
        for _ in 0..20_000 {
            let key = match stream.next_op() {
                Op::Put(k) => {
                    puts += 1;
                    k
                }
                Op::Get(k) => {
                    gets += 1;
                    k
                }
                Op::Scan(k) => {
                    scans += 1;
                    k
                }
                Op::Fault { .. } => panic!("mixed-evict injects no faults"),
            };
            low += u32::from(key < 200_000 / 8);
        }
        assert_eq!((puts, gets, scans), (9000, 9000, 2000));
        // u³ < 1/8 when u < 1/2: half the accesses hit the lowest eighth.
        assert!((9_500..10_500).contains(&low), "low = {low}");
    }

    #[test]
    fn fail_recover_cycles_the_four_classes_every_fiftieth_op() {
        let mut stream = OpStream::new(Workload::FailRecover, 3, 5000);
        let mut classes = Vec::new();
        for i in 0..400u64 {
            match stream.next_op() {
                Op::Fault { class, .. } => {
                    assert_eq!(i % FAULT_EVERY, FAULT_EVERY - 1);
                    classes.push(class);
                }
                Op::Get(_) => assert_ne!(i % FAULT_EVERY, FAULT_EVERY - 1),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(classes, [FaultClass::ALL, FaultClass::ALL].concat());
    }

    #[test]
    fn keys_and_values_round_trip_and_keep_their_size() {
        let mut key = [0u8; KEY_LEN];
        write_key(&mut key, 123);
        assert_eq!(&key, b"key-0000000123");
        assert_eq!(parse_key(&key), Some(123));
        assert_eq!(parse_key(b"key-12"), None);

        let mut value = [0u8; VALUE_LEN];
        write_value(&mut value, 123, 4_000_000_000);
        assert!(value.starts_with(b"v-key-0000000123-4000000000-x"));
        assert!(value.ends_with(b"xxxx"));
    }

    #[test]
    fn model_checks_gets_and_scans() {
        let mut model = Model::loaded(60);
        let mut value = [0u8; VALUE_LEN];
        write_value(&mut value, 5, 0);
        assert!(model.matches(5, Some(&value)));
        assert!(!model.matches(5, None));
        model.acknowledge(5, 1);
        assert!(!model.matches(5, Some(&value)), "stale generation");

        let rows: Vec<(Vec<u8>, Vec<u8>)> = (20..60)
            .map(|id| {
                let (mut k, mut v) = ([0u8; KEY_LEN], [0u8; VALUE_LEN]);
                write_key(&mut k, id);
                write_value(&mut v, id, model.generation(id));
                (k.to_vec(), v.to_vec())
            })
            .collect();
        assert!(model.matches_scan(20, &rows), "40 rows left before the end");
        assert!(!model.matches_scan(19, &rows));
        assert!(!model.matches_scan(20, &rows[..39]));
    }

    #[test]
    fn rng_below_stays_in_range_and_covers_it() {
        let mut rng = Rng::new(0);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&rng.unit())));
    }
}
