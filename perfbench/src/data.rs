//! Seeded workload inputs: Quest records and the request bodies built from
//! them.  The daemon sees only the generated bytes, never the seed.

use datagen::{QuestConfig, QuestGenerator};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::Write;
use transact::Record;

/// Seed of the Quest population every run draws from.  The population and
/// the base data set (its first records) are part of the workload's
/// definition; the run's seed draws everything sent after the base:
/// appended and ingested records, read terms and the open-loop schedule.
/// Anonymization cost and `tlost` change by tens of percent between
/// different samples of one population, far more than between runs, so a
/// per-seed base would hide any change smaller than that.
const POPULATION_SEED: u64 = 0x0D15_A550;

/// Quest records with domain 5000 and average record length 10 (what
/// `disassoc generate --kind quest --domain 5000 --avg-len 10` writes): a
/// fixed base, then an endless stream of seeded permutations of the rest
/// of the population, so base, appended and ingested records all follow
/// one distribution and the stream repeats no record within a permutation.
pub struct Corpus {
    population: Vec<Record>,
    base: usize,
    rng: StdRng,
    order: Vec<usize>,
}

impl Corpus {
    /// A population of `population` records whose first `base` are the
    /// base data set; the stream after it is drawn with `seed`.
    pub fn new(seed: u64, population: usize, base: usize) -> Corpus {
        assert!(
            base < population,
            "the stream needs records beyond the base"
        );
        let mut generator = QuestGenerator::new(QuestConfig {
            num_transactions: population,
            domain_size: 5_000,
            avg_transaction_len: 10.0,
            seed: POPULATION_SEED,
            ..QuestConfig::default()
        });
        Corpus {
            population: generator.generate().into_records(),
            base,
            rng: StdRng::seed_from_u64(seed),
            order: Vec::new(),
        }
    }

    /// The base data set.
    pub fn base(&self) -> &[Record] {
        &self.population[..self.base]
    }

    /// The `n` records that follow the base in the population: the same in
    /// every run, whatever the seed.
    pub fn after_base(&self, n: usize) -> Vec<Record> {
        self.population[self.base..self.base + n].to_vec()
    }

    /// The next `n` records of the seeded stream.
    pub fn take(&mut self, n: usize) -> Vec<Record> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if self.order.is_empty() {
                self.order = (self.base..self.population.len()).collect();
                self.order.shuffle(&mut self.rng);
            }
            let i = self.order.pop().expect("refilled above");
            out.push(self.population[i].clone());
        }
        out
    }
}

/// Renders records as a numeric-transaction request body (one record per
/// line, space-separated term ids).
pub fn body(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 48);
    for record in records {
        let mut first = true;
        for term in record.iter() {
            if !first {
                out.push(b' ');
            }
            write!(out, "{}", term.raw()).expect("writing to a Vec cannot fail");
            first = false;
        }
        out.push(b'\n');
    }
    out
}

/// Draws terms in proportion to their support: uniformly over every term
/// occurrence in the published records.
pub struct TermDraw {
    occurrences: Vec<u32>,
}

impl TermDraw {
    /// The draw over `records`.
    pub fn new(records: &[Record]) -> TermDraw {
        TermDraw {
            occurrences: records
                .iter()
                .flat_map(|r| r.iter().map(|t| t.raw()))
                .collect(),
        }
    }

    /// The next term.
    pub fn draw(&self, rng: &mut StdRng) -> u32 {
        self.occurrences[rng.gen_range(0..self.occurrences.len())]
    }
}
