//! Executable implementations of the six Nexmark queries the paper
//! evaluates (§5.1): stateless transformations (Q1, Q2), an incremental
//! two-input join (Q3), and window operators (Q5 sliding, Q8 tumbling join,
//! Q11 session).
//!
//! The operators here are pure state machines — `process` consumes one
//! event and appends outputs — so they can run on the threaded mini-runtime
//! (`ds2-runtime`), inside tests, or anywhere else. Their *cost profiles*
//! for the fluid simulator live in [`crate::profiles`].

use std::collections::HashMap;

use crate::model::{Auction, Bid, Event, Person, USD_TO_EUR};

/// Q1 — currency conversion: every bid's price converted from USD to EUR.
/// A stateless map with selectivity 1.
#[derive(Debug, Default, Clone)]
pub struct Q1CurrencyConversion;

impl Q1CurrencyConversion {
    /// Processes one event.
    pub fn process(&mut self, event: &Event, out: &mut Vec<Bid>) {
        if let Event::Bid(b) = event {
            out.push(Bid {
                price: (b.price as f64 * USD_TO_EUR).round() as u64,
                ..b.clone()
            });
        }
    }
}

/// Q2 — selection: bids on a sampled set of auctions (`auction % divisor ==
/// 0`). A stateless filter with selectivity `1/divisor` over bids.
#[derive(Debug, Clone)]
pub struct Q2Selection {
    /// Auction-id divisor defining the selected set.
    pub(crate) divisor: u64,
}

impl Default for Q2Selection {
    fn default() -> Self {
        Self { divisor: 123 }
    }
}

impl Q2Selection {
    /// Processes one event.
    pub fn process(&mut self, event: &Event, out: &mut Vec<(u64, u64)>) {
        if let Event::Bid(b) = event {
            if b.auction % self.divisor == 0 {
                out.push((b.auction, b.price));
            }
        }
    }
}

/// A Q3 result row: who is selling in particular US states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q3Row {
    /// Seller name.
    pub name: String,
    /// Seller city.
    pub city: String,
    /// Seller state.
    pub state: String,
    /// Auction id.
    pub auction: u64,
}

/// Q3 — local item suggestion: an *incremental* join of auctions in
/// category 10 with persons from OR, ID or CA. A stateful record-at-a-time
/// two-input operator: each side is indexed, and every arrival probes the
/// opposite index immediately (no windows).
#[derive(Debug, Default)]
pub struct Q3LocalItemSuggestion {
    persons: HashMap<u64, Person>,
    auctions_by_seller: HashMap<u64, Vec<Auction>>,
}

impl Q3LocalItemSuggestion {
    /// The category Q3 selects.
    pub(crate) const CATEGORY: u64 = 3;

    fn person_matches(p: &Person) -> bool {
        matches!(p.state.as_str(), "OR" | "ID" | "CA")
    }

    /// Processes one event from either input.
    pub fn process(&mut self, event: &Event, out: &mut Vec<Q3Row>) {
        match event {
            Event::Person(p) => {
                if Self::person_matches(p) {
                    if let Some(auctions) = self.auctions_by_seller.get(&p.id) {
                        for a in auctions {
                            out.push(Q3Row {
                                name: p.name.clone(),
                                city: p.city.clone(),
                                state: p.state.clone(),
                                auction: a.id,
                            });
                        }
                    }
                    self.persons.insert(p.id, p.clone());
                }
            }
            Event::Auction(a) => {
                if a.category == Self::CATEGORY {
                    if let Some(p) = self.persons.get(&a.seller) {
                        out.push(Q3Row {
                            name: p.name.clone(),
                            city: p.city.clone(),
                            state: p.state.clone(),
                            auction: a.id,
                        });
                    }
                    self.auctions_by_seller
                        .entry(a.seller)
                        .or_default()
                        .push(a.clone());
                }
            }
            Event::Bid(_) => {}
        }
    }
}

/// Q5 — hot items: the auction(s) with the most bids in a hopping window.
#[derive(Debug)]
pub struct Q5HotItems {
    /// Window length in event-time milliseconds.
    pub window_ms: u64,
    /// Hop (slide) in event-time milliseconds.
    pub(crate) hop_ms: u64,
    counts: HashMap<u64, u64>,
    window_end: u64,
}

impl Q5HotItems {
    /// Creates a hot-items operator with the given window and hop.
    pub fn new(window_ms: u64, hop_ms: u64) -> Self {
        Self {
            window_ms,
            hop_ms,
            counts: HashMap::new(),
            window_end: window_ms,
        }
    }

    /// Processes one event; emits `(auction, bid_count)` for the hottest
    /// auction each time a window closes.
    pub fn process(&mut self, event: &Event, out: &mut Vec<(u64, u64)>) {
        let ts = event.timestamp();
        while ts >= self.window_end {
            if let Some((&auction, &count)) = self.counts.iter().max_by_key(|&(_, &c)| c) {
                out.push((auction, count));
            }
            // Hopping window approximation: retain nothing across hops
            // (hop == window gives exact tumbling semantics).
            self.counts.clear();
            self.window_end += self.hop_ms;
        }
        if let Event::Bid(b) = event {
            *self.counts.entry(b.auction).or_insert(0) += 1;
        }
    }
}

/// Q8 — monitor new users: persons who created an auction within the same
/// tumbling window as their registration.
#[derive(Debug)]
pub struct Q8MonitorNewUsers {
    /// Tumbling window length in event-time milliseconds.
    pub window_ms: u64,
    persons_in_window: HashMap<u64, String>,
    sellers_in_window: Vec<u64>,
    window_end: u64,
}

impl Q8MonitorNewUsers {
    /// Creates the operator with the given tumbling window.
    pub fn new(window_ms: u64) -> Self {
        Self {
            window_ms,
            persons_in_window: HashMap::new(),
            sellers_in_window: Vec::new(),
            window_end: window_ms,
        }
    }

    /// Processes one event; at each window close emits `(person_id, name)`
    /// for new persons who opened auctions in the window.
    pub fn process(&mut self, event: &Event, out: &mut Vec<(u64, String)>) {
        let ts = event.timestamp();
        while ts >= self.window_end {
            for seller in self.sellers_in_window.drain(..) {
                if let Some(name) = self.persons_in_window.get(&seller) {
                    out.push((seller, name.clone()));
                }
            }
            self.persons_in_window.clear();
            self.window_end += self.window_ms;
        }
        match event {
            Event::Person(p) => {
                self.persons_in_window.insert(p.id, p.name.clone());
            }
            Event::Auction(a) => self.sellers_in_window.push(a.seller),
            Event::Bid(_) => {}
        }
    }
}

/// Q11 — user sessions: the number of bids per person per session, where a
/// session closes after a gap with no bids from that person.
#[derive(Debug)]
pub struct Q11UserSessions {
    /// Session gap in event-time milliseconds.
    pub(crate) gap_ms: u64,
    sessions: HashMap<u64, (u64, u64)>, // bidder -> (last_ts, count)
}

impl Q11UserSessions {
    /// Creates the operator with the given session gap.
    pub fn new(gap_ms: u64) -> Self {
        Self {
            gap_ms,
            sessions: HashMap::new(),
        }
    }

    /// Processes one event; emits `(bidder, bid_count)` when a session
    /// closes (detected on the next bid after the gap, or via
    /// [`Q11UserSessions::flush`]).
    pub fn process(&mut self, event: &Event, out: &mut Vec<(u64, u64)>) {
        if let Event::Bid(b) = event {
            match self.sessions.get_mut(&b.bidder) {
                Some((last_ts, count)) => {
                    if b.date_time.saturating_sub(*last_ts) > self.gap_ms {
                        out.push((b.bidder, *count));
                        *count = 1;
                    } else {
                        *count += 1;
                    }
                    *last_ts = b.date_time;
                }
                None => {
                    self.sessions.insert(b.bidder, (b.date_time, 1));
                }
            }
        }
    }

    /// Closes every session older than `now_ms - gap_ms`.
    pub fn flush(&mut self, now_ms: u64, out: &mut Vec<(u64, u64)>) {
        let gap = self.gap_ms;
        let mut closed = Vec::new();
        for (&bidder, &(last_ts, count)) in &self.sessions {
            if now_ms.saturating_sub(last_ts) > gap {
                closed.push((bidder, count));
            }
        }
        for &(bidder, count) in &closed {
            self.sessions.remove(&bidder);
            out.push((bidder, count));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::EventGenerator;
    use crate::model::US_STATES;

    fn bid(auction: u64, bidder: u64, price: u64, ts: u64) -> Event {
        Event::Bid(Bid {
            auction,
            bidder,
            price,
            date_time: ts,
        })
    }

    #[test]
    fn q1_converts_currency() {
        let mut q = Q1CurrencyConversion;
        let mut out = Vec::new();
        q.process(&bid(1, 2, 1000, 0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].price, 908);
        // Non-bids pass through nothing.
        let mut g = EventGenerator::seeded(1);
        let person = g.find(|e| e.person().is_some()).unwrap();
        q.process(&person, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn q2_filters_by_divisor() {
        let mut q = Q2Selection { divisor: 10 };
        let mut out = Vec::new();
        q.process(&bid(20, 1, 100, 0), &mut out);
        q.process(&bid(21, 1, 100, 0), &mut out);
        q.process(&bid(30, 1, 100, 0), &mut out);
        assert_eq!(out, vec![(20, 100), (30, 100)]);
    }

    #[test]
    fn q2_selectivity_matches_divisor() {
        let mut q = Q2Selection { divisor: 123 };
        let mut g = EventGenerator::seeded(5);
        let mut out = Vec::new();
        let mut bids = 0u64;
        for e in g.take_events(200_000) {
            if e.bid().is_some() {
                bids += 1;
            }
            q.process(&e, &mut out);
        }
        let sel = out.len() as f64 / bids as f64;
        assert!(
            (sel - 1.0 / 123.0).abs() < 0.01,
            "selectivity {sel} should be ~1/123"
        );
    }

    #[test]
    fn q3_joins_person_and_auction_both_orders() {
        let mut q = Q3LocalItemSuggestion::default();
        let mut out = Vec::new();
        let person = Person {
            id: 7,
            name: "ann a".into(),
            email: "a@b.com".into(),
            credit_card: "1".into(),
            city: "Portland".into(),
            state: "OR".into(),
            date_time: 0,
        };
        let auction = Auction {
            id: 99,
            item_name: "x".into(),
            description: "y".into(),
            initial_bid: 1,
            reserve: 2,
            date_time: 1,
            expires: 100,
            seller: 7,
            category: Q3LocalItemSuggestion::CATEGORY,
        };
        // Person first, then auction.
        q.process(&Event::Person(person.clone()), &mut out);
        assert!(out.is_empty());
        q.process(&Event::Auction(auction.clone()), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].auction, 99);
        assert_eq!(out[0].state, "OR");

        // Auction first, then person (incremental join symmetry).
        let mut q2 = Q3LocalItemSuggestion::default();
        let mut out2 = Vec::new();
        q2.process(&Event::Auction(auction), &mut out2);
        assert!(out2.is_empty());
        q2.process(&Event::Person(person), &mut out2);
        assert_eq!(out2.len(), 1);
    }

    #[test]
    fn q3_filters_state_and_category() {
        let mut q = Q3LocalItemSuggestion::default();
        let mut out = Vec::new();
        let mut person = Person {
            id: 1,
            name: "n".into(),
            email: "e".into(),
            credit_card: "c".into(),
            city: "Phoenix".into(),
            state: "AZ".into(), // not in {OR, ID, CA}
            date_time: 0,
        };
        q.process(&Event::Person(person.clone()), &mut out);
        assert_eq!(q.persons.len(), 0, "AZ person must not be indexed");
        person.state = "CA".into();
        person.id = 2;
        q.process(&Event::Person(person), &mut out);
        assert_eq!(q.persons.len(), 1);
        // Wrong category: ignored.
        let auction = Auction {
            id: 5,
            item_name: "i".into(),
            description: "d".into(),
            initial_bid: 1,
            reserve: 2,
            date_time: 1,
            expires: 10,
            seller: 2,
            category: Q3LocalItemSuggestion::CATEGORY + 1,
        };
        q.process(&Event::Auction(auction), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn q3_end_to_end_produces_rows() {
        let mut q = Q3LocalItemSuggestion::default();
        let mut g = EventGenerator::seeded(17);
        let mut out = Vec::new();
        for e in g.take_events(100_000) {
            q.process(&e, &mut out);
        }
        assert!(!out.is_empty(), "the generated stream must join sometimes");
        for row in &out {
            assert!(US_STATES.contains(&row.state.as_str()));
        }
    }

    #[test]
    fn q5_emits_hottest_per_window() {
        let mut q = Q5HotItems::new(1_000, 1_000);
        let mut out = Vec::new();
        q.process(&bid(1, 1, 100, 0), &mut out);
        q.process(&bid(2, 1, 100, 100), &mut out);
        q.process(&bid(2, 1, 100, 200), &mut out);
        assert!(out.is_empty(), "window still open");
        q.process(&bid(9, 1, 100, 1_500), &mut out);
        assert_eq!(out, vec![(2, 2)], "auction 2 had the most bids");
        q.process(&bid(9, 1, 100, 2_500), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], (9, 1));
    }

    #[test]
    fn q8_joins_within_window_only() {
        let mut q = Q8MonitorNewUsers::new(1_000);
        let mut out = Vec::new();
        let person = Person {
            id: 4,
            name: "pat p".into(),
            email: "p@q.com".into(),
            credit_card: "9".into(),
            city: "Boise".into(),
            state: "ID".into(),
            date_time: 100,
        };
        q.process(&Event::Person(person.clone()), &mut out);
        let auction = Auction {
            id: 1,
            item_name: "i".into(),
            description: "d".into(),
            initial_bid: 1,
            reserve: 2,
            date_time: 500,
            expires: 600,
            seller: 4,
            category: 0,
        };
        q.process(&Event::Auction(auction.clone()), &mut out);
        // Close the window.
        q.process(&bid(1, 1, 1, 1_200), &mut out);
        assert_eq!(out, vec![(4, "pat p".to_string())]);
        // A new auction by the same person in the next window does not
        // match (the person is no longer "new").
        let late = Auction {
            date_time: 1_500,
            ..auction
        };
        q.process(&Event::Auction(late), &mut out);
        q.process(&bid(1, 1, 1, 2_500), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn q11_sessions_close_after_gap() {
        let mut q = Q11UserSessions::new(1_000);
        let mut out = Vec::new();
        q.process(&bid(1, 7, 1, 0), &mut out);
        q.process(&bid(1, 7, 1, 500), &mut out);
        q.process(&bid(1, 7, 1, 900), &mut out);
        assert!(out.is_empty(), "session still open");
        // Gap > 1000 closes the session (3 bids) and starts a new one.
        q.process(&bid(1, 7, 1, 2_500), &mut out);
        assert_eq!(out, vec![(7, 3)]);
        // Flush closes the remaining session.
        q.flush(10_000, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], (7, 1));
    }

    #[test]
    fn q11_sessions_are_per_bidder() {
        let mut q = Q11UserSessions::new(1_000);
        let mut out = Vec::new();
        q.process(&bid(1, 1, 1, 0), &mut out);
        q.process(&bid(1, 2, 1, 100), &mut out);
        q.process(&bid(1, 1, 1, 200), &mut out);
        q.flush(5_000, &mut out);
        out.sort();
        assert_eq!(out, vec![(1, 2), (2, 1)]);
    }
}
