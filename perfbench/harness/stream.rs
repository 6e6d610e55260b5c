//! The seeded request streams: a small deterministic RNG, a Zipf(1)
//! sampler, and the read templates every workload draws from. Pure
//! functions of the seed, so two runs with one seed send the same
//! requests in the same order (per connection).

use xtwig_datagen::queries::xmark_queries;

/// SplitMix64: tiny, fast, and good enough to drive a request stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream derived from `seed` and a lane number
    /// (one lane per connection or purpose).
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf(1) over a domain of `n` values: rank `r` (0-based) is drawn
/// with probability proportional to `1 / (r + 1)`, and ranks map to
/// domain values through a seeded permutation so the hot values differ
/// between seeds.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    values: Vec<u64>,
}

impl Zipf {
    pub fn new(n: u64, rng: &mut Rng) -> Zipf {
        assert!(n > 0, "Zipf over an empty domain");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut values: Vec<u64> = (0..n).collect();
        rng.shuffle(&mut values);
        Zipf { cdf, values }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.values[rank]
    }
}

/// One read the harness sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Read {
    /// The paper's `Q{n+1}x`, `n` in `0..15`.
    Paper(u8),
    /// `open_auction[annotation/author/@person=…]/time` for a person.
    AuctionTimes(u32),
    /// `person[@id=…]/name` for a person.
    PersonName(u32),
    /// `//item[name=…]/location` for an item.
    ItemLocation(u32),
    /// `person[name='bench-K']` — the inserted-person probe of
    /// `serve-update`'s known-defect check (expected answer from the
    /// writer's record).
    Probe(u32),
}

/// The 15 paper query texts, Q1x first.
pub fn paper_xpaths() -> Vec<&'static str> {
    xmark_queries().into_iter().map(|q| q.xpath).collect()
}

/// The name leaf value of inserted person `k`.
pub fn probe_name(k: u32) -> String {
    format!("bench-{k}")
}

impl Read {
    pub fn xpath(self, paper: &[&str]) -> String {
        match self {
            Read::Paper(i) => paper[usize::from(i)].to_owned(),
            Read::AuctionTimes(p) => format!(
                "/site/open_auctions/open_auction[annotation/author/@person = 'person{p}']/time"
            ),
            Read::PersonName(p) => format!("/site/people/person[@id = 'person{p}']/name"),
            Read::ItemLocation(i) => format!("//item[name = 'thing number {i}']/location"),
            Read::Probe(k) => format!("/site/people/person[name = '{}']", probe_name(k)),
        }
    }
}

/// The `serve-mix` stream: half the paper's Q1x–Q15x chosen uniformly,
/// half point reads with Zipf(1) constants over persons and items.
#[derive(Debug, Clone)]
pub struct MixStream {
    rng: Rng,
    persons: Zipf,
    items: Zipf,
}

impl MixStream {
    /// The stream of connection `lane` for `seed`, over a document with
    /// `persons` persons and `items` items.
    pub fn new(seed: u64, lane: u64, persons: u64, items: u64) -> MixStream {
        // The Zipf permutations depend on the seed only, so every
        // connection shares the same hot set (that is what makes the
        // result cache useful across connections).
        let mut domain_rng = Rng::lane(seed, 0xD0);
        let persons = Zipf::new(persons, &mut domain_rng);
        let items = Zipf::new(items, &mut domain_rng);
        MixStream { rng: Rng::lane(seed, lane + 1), persons, items }
    }

    pub fn next_read(&mut self) -> Read {
        if self.rng.below(2) == 0 {
            return Read::Paper(self.rng.below(15) as u8);
        }
        match self.rng.below(3) {
            0 => Read::AuctionTimes(self.persons.sample(&mut self.rng) as u32),
            1 => Read::PersonName(self.persons.sample(&mut self.rng) as u32),
            _ => Read::ItemLocation(self.items.sample(&mut self.rng) as u32),
        }
    }
}

/// The `engine-paper` stream: Q1x–Q15x in a fresh seeded order each
/// cycle, so every query runs equally often.
#[derive(Debug, Clone)]
pub struct PaperStream {
    rng: Rng,
    order: Vec<u8>,
    at: usize,
}

impl PaperStream {
    pub fn new(seed: u64) -> PaperStream {
        PaperStream { rng: Rng::lane(seed, 0xE0), order: (0..15).collect(), at: 15 }
    }

    pub fn next_read(&mut self) -> Read {
        if self.at == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.at = 0;
        }
        self.at += 1;
        Read::Paper(self.order[self.at - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take_mix(seed: u64, lane: u64, n: usize) -> Vec<Read> {
        let mut s = MixStream::new(seed, lane, 2550, 2175);
        (0..n).map(|_| s.next_read()).collect()
    }

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        assert_eq!(take_mix(7, 0, 500), take_mix(7, 0, 500));
        assert_ne!(take_mix(7, 0, 500), take_mix(8, 0, 500));
        assert_ne!(take_mix(7, 0, 500), take_mix(7, 1, 500), "lanes are independent");
        let paper = |seed| {
            let mut s = PaperStream::new(seed);
            (0..90).map(|_| s.next_read()).collect::<Vec<_>>()
        };
        assert_eq!(paper(3), paper(3));
        assert_ne!(paper(3), paper(4));
    }

    #[test]
    fn mix_is_half_paper_and_paper_cycles_evenly() {
        let reads = take_mix(1, 0, 20_000);
        let paper = reads.iter().filter(|r| matches!(r, Read::Paper(_))).count();
        assert!((9_500..10_500).contains(&paper), "{paper} paper reads of 20000");
        let mut s = PaperStream::new(1);
        let mut counts = [0u32; 15];
        for _ in 0..150 {
            let Read::Paper(i) = s.next_read() else { unreachable!() };
            counts[usize::from(i)] += 1;
        }
        assert_eq!(counts, [10; 15]);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut rng = Rng::new(5);
        let z = Zipf::new(1000, &mut rng);
        let hot = z.values[0];
        let cold = z.values[999];
        let draws: Vec<u64> = (0..50_000).map(|_| z.sample(&mut rng)).collect();
        let count = |v| draws.iter().filter(|&&d| d == v).count();
        // P(rank 0) = 1/H(1000) ≈ 0.134; P(rank 999) ≈ 0.000134.
        assert!((6_000..7_400).contains(&count(hot)), "hot {}", count(hot));
        assert!(count(cold) < 30, "cold {}", count(cold));
    }

    #[test]
    fn read_texts_parse() {
        let paper = paper_xpaths();
        assert_eq!(paper.len(), 15);
        for r in [
            Read::Paper(2),
            Read::AuctionTimes(5),
            Read::PersonName(5),
            Read::ItemLocation(5),
            Read::Probe(3),
        ] {
            xtwig_core::parse_xpath(&r.xpath(&paper)).expect("template parses");
        }
    }
}
