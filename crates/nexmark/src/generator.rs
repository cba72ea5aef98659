//! Deterministic Nexmark event generator.
//!
//! Follows the Apache Beam generator's structure: out of every 50 events,
//! 1 is a person, 3 are auctions and 46 are bids (so bids dominate, as in
//! the paper's Table 3 workloads). Ids are dense and monotone; bids
//! reference recent auctions and persons with a hot-key bias, auctions
//! reference recent persons as sellers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::model::{Auction, Bid, Event, Person, US_CITIES, US_STATES};

/// Proportions per 50-event block (Beam defaults).
pub const PERSON_PROPORTION: u64 = 1;
/// Auctions per 50-event block.
pub const AUCTION_PROPORTION: u64 = 3;
/// Bids per 50-event block.
pub const BID_PROPORTION: u64 = 46;
/// Total events per block.
pub const PROPORTION_DENOMINATOR: u64 = PERSON_PROPORTION + AUCTION_PROPORTION + BID_PROPORTION;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed for deterministic streams.
    pub seed: u64,
    /// Average event-time gap between events, in microseconds.
    pub inter_event_gap_us: u64,
    /// Number of auction categories.
    pub num_categories: u64,
    /// Fraction of bids that target the single hottest auction
    /// (`1/hot_auction_ratio` of bids go to the hottest auction).
    pub hot_auction_ratio: u64,
    /// Same for hot bidders.
    pub hot_bidder_ratio: u64,
    /// How long auctions stay open, in milliseconds of event time.
    pub auction_duration_ms: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            inter_event_gap_us: 100,
            num_categories: 5,
            hot_auction_ratio: 2,
            hot_bidder_ratio: 4,
            auction_duration_ms: 10_000,
        }
    }
}

/// Deterministic Nexmark event generator.
#[derive(Debug)]
pub struct EventGenerator {
    config: GeneratorConfig,
    rng: SmallRng,
    next_event_number: u64,
}

impl EventGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: GeneratorConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        Self {
            config,
            rng,
            next_event_number: 0,
        }
    }

    /// Creates a generator with default configuration and `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self::new(GeneratorConfig {
            seed,
            ..Default::default()
        })
    }

    fn event_timestamp(&self, event_number: u64) -> u64 {
        event_number * self.config.inter_event_gap_us / 1_000
    }

    /// Ids of persons generated among the first `event_number` events.
    fn persons_so_far(event_number: u64) -> u64 {
        let blocks = event_number / PROPORTION_DENOMINATOR;
        let rem = event_number % PROPORTION_DENOMINATOR;
        blocks * PERSON_PROPORTION + rem.min(PERSON_PROPORTION)
    }

    /// Ids of auctions generated among the first `event_number` events.
    fn auctions_so_far(event_number: u64) -> u64 {
        let blocks = event_number / PROPORTION_DENOMINATOR;
        let rem = event_number % PROPORTION_DENOMINATOR;
        blocks * AUCTION_PROPORTION
            + rem
                .saturating_sub(PERSON_PROPORTION)
                .min(AUCTION_PROPORTION)
    }

    fn random_string(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b'a' + self.rng.gen_range(0..26u8)) as char)
            .collect()
    }

    fn make_person(&mut self, id: u64, ts: u64) -> Person {
        let name = format!("{} {}", self.random_string(4), self.random_string(6));
        let idx = self.rng.gen_range(0..US_STATES.len());
        Person {
            id,
            email: format!("{}@{}.com", self.random_string(6), self.random_string(4)),
            credit_card: format!("{:016}", self.rng.gen_range(0u64..10_000_000_000_000_000)),
            city: US_CITIES[idx].to_string(),
            state: US_STATES[idx].to_string(),
            name,
            date_time: ts,
        }
    }

    fn make_auction(&mut self, id: u64, event_number: u64, ts: u64) -> Auction {
        let persons = Self::persons_so_far(event_number).max(1);
        // Sellers are recent persons, biased to the most recent 10.
        let seller = if self.rng.gen_bool(0.5) {
            persons - 1 - self.rng.gen_range(0..persons.min(10))
        } else {
            self.rng.gen_range(0..persons)
        };
        let initial_bid = self.rng.gen_range(100..10_000);
        Auction {
            id,
            item_name: self.random_string(8),
            description: self.random_string(20),
            initial_bid,
            reserve: initial_bid + self.rng.gen_range(100..5_000),
            date_time: ts,
            expires: ts + self.config.auction_duration_ms,
            seller,
            category: self.rng.gen_range(0..self.config.num_categories),
        }
    }

    fn make_bid(&mut self, event_number: u64, ts: u64) -> Bid {
        let auctions = Self::auctions_so_far(event_number).max(1);
        let persons = Self::persons_so_far(event_number).max(1);
        // Hot-auction bias: 1/hot_ratio of bids go to the hottest auction.
        let auction = if self.rng.gen_ratio(1, self.config.hot_auction_ratio as u32) {
            auctions - 1
        } else {
            self.rng.gen_range(0..auctions)
        };
        let bidder = if self.rng.gen_ratio(1, self.config.hot_bidder_ratio as u32) {
            persons - 1
        } else {
            self.rng.gen_range(0..persons)
        };
        Bid {
            auction,
            bidder,
            price: self.rng.gen_range(100..10_000),
            date_time: ts,
        }
    }

    /// Generates the next event.
    pub fn next_event(&mut self) -> Event {
        let n = self.next_event_number;
        self.next_event_number += 1;
        let ts = self.event_timestamp(n);
        let rem = n % PROPORTION_DENOMINATOR;
        if rem < PERSON_PROPORTION {
            let id = Self::persons_so_far(n);
            Event::Person(self.make_person(id, ts))
        } else if rem < PERSON_PROPORTION + AUCTION_PROPORTION {
            let id = Self::auctions_so_far(n);
            Event::Auction(self.make_auction(id, n, ts))
        } else {
            Event::Bid(self.make_bid(n, ts))
        }
    }

    /// Generates a batch of `n` events.
    pub fn take_events(&mut self, n: usize) -> Vec<Event> {
        (0..n).map(|_| self.next_event()).collect()
    }
}

impl Iterator for EventGenerator {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        Some(self.next_event())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_match_beam() {
        let mut g = EventGenerator::seeded(7);
        let events = g.take_events(5_000);
        let persons = events.iter().filter(|e| e.person().is_some()).count();
        let auctions = events.iter().filter(|e| e.auction().is_some()).count();
        let bids = events.iter().filter(|e| e.bid().is_some()).count();
        assert_eq!(persons, 100); // 5000 / 50 * 1
        assert_eq!(auctions, 300); // 5000 / 50 * 3
        assert_eq!(bids, 4_600); // 5000 / 50 * 46
    }

    #[test]
    fn deterministic_given_seed() {
        let a = EventGenerator::seeded(11).take_events(500);
        let b = EventGenerator::seeded(11).take_events(500);
        assert_eq!(a, b);
        let c = EventGenerator::seeded(12).take_events(500);
        assert_ne!(a, c);
    }

    #[test]
    fn timestamps_monotone() {
        let mut g = EventGenerator::seeded(3);
        let events = g.take_events(1_000);
        for w in events.windows(2) {
            assert!(w[0].timestamp() <= w[1].timestamp());
        }
    }

    #[test]
    fn ids_dense_and_monotone() {
        let mut g = EventGenerator::seeded(5);
        let events = g.take_events(10_000);
        let person_ids: Vec<u64> = events
            .iter()
            .filter_map(|e| e.person().map(|p| p.id))
            .collect();
        for (i, &id) in person_ids.iter().enumerate() {
            assert_eq!(id, i as u64);
        }
        let auction_ids: Vec<u64> = events
            .iter()
            .filter_map(|e| e.auction().map(|a| a.id))
            .collect();
        for (i, &id) in auction_ids.iter().enumerate() {
            assert_eq!(id, i as u64);
        }
    }

    #[test]
    fn bids_reference_existing_entities() {
        let mut g = EventGenerator::seeded(9);
        let events = g.take_events(20_000);
        let mut max_auction = 0u64;
        let mut max_person = 0u64;
        for e in &events {
            match e {
                Event::Auction(a) => {
                    assert!(a.seller <= max_person, "seller {} unknown", a.seller);
                    max_auction = max_auction.max(a.id);
                }
                Event::Person(p) => max_person = max_person.max(p.id),
                Event::Bid(b) => {
                    assert!(b.auction <= max_auction, "auction {} unknown", b.auction);
                    assert!(b.bidder <= max_person, "bidder {} unknown", b.bidder);
                }
            }
        }
    }

    #[test]
    fn hot_auction_bias_present() {
        let mut g = EventGenerator::new(GeneratorConfig {
            seed: 13,
            hot_auction_ratio: 2,
            ..Default::default()
        });
        // With ratio 2, half the bids target the hottest (most recent)
        // auction *at the time of the bid*.
        let mut auctions_so_far = 0u64;
        let mut bids = 0u64;
        let mut hot = 0u64;
        for e in g.take_events(50_000) {
            match e {
                Event::Auction(_) => auctions_so_far += 1,
                Event::Bid(b) => {
                    bids += 1;
                    if auctions_so_far > 0 && b.auction == auctions_so_far - 1 {
                        hot += 1;
                    }
                }
                Event::Person(_) => {}
            }
        }
        let frac = hot as f64 / bids as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "hot-bid fraction {frac} should be ~0.5"
        );
    }

    #[test]
    fn auction_expiry_after_open() {
        let mut g = EventGenerator::seeded(21);
        for e in g.take_events(5_000) {
            if let Event::Auction(a) = e {
                assert!(a.expires > a.date_time);
                assert!(a.reserve >= a.initial_bid);
            }
        }
    }
}
