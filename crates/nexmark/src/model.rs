//! The Nexmark auction data model (Tucker et al., "NEXMark — A Benchmark
//! for Queries over Data Streams"; proportions and field conventions follow
//! the Apache Beam implementation the paper uses, §5.1).

/// United States state codes used for person addresses.
pub const US_STATES: [&str; 6] = ["AZ", "CA", "ID", "OR", "WA", "WY"];

/// Cities used for person addresses.
pub const US_CITIES: [&str; 6] = [
    "Phoenix",
    "Los Angeles",
    "San Francisco",
    "Boise",
    "Portland",
    "Seattle",
];

/// A person who can open auctions and place bids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Person {
    /// Unique person id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Email address.
    pub(crate) email: String,
    /// Credit-card number (opaque digits).
    pub(crate) credit_card: String,
    /// Home city.
    pub city: String,
    /// Home state code (see [`US_STATES`]).
    pub state: String,
    /// Event time in milliseconds since the epoch.
    pub date_time: u64,
}

/// An auction listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Auction {
    /// Unique auction id.
    pub id: u64,
    /// Item short name.
    pub(crate) item_name: String,
    /// Item description.
    pub(crate) description: String,
    /// Opening bid price in cents.
    pub initial_bid: u64,
    /// Reserve price in cents.
    pub reserve: u64,
    /// Event time in milliseconds since the epoch.
    pub date_time: u64,
    /// Auction close time in milliseconds since the epoch.
    pub expires: u64,
    /// Seller (person id).
    pub seller: u64,
    /// Category id.
    pub(crate) category: u64,
}

/// A bid on an auction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bid {
    /// Auction the bid applies to.
    pub auction: u64,
    /// Bidder (person id).
    pub bidder: u64,
    /// Bid price in cents (US dollars).
    pub price: u64,
    /// Event time in milliseconds since the epoch.
    pub date_time: u64,
}

/// A Nexmark stream event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A new person registered.
    Person(Person),
    /// A new auction opened.
    Auction(Auction),
    /// A bid was placed.
    Bid(Bid),
}

impl Event {
    /// Event time in milliseconds since the epoch.
    pub fn timestamp(&self) -> u64 {
        match self {
            Event::Person(p) => p.date_time,
            Event::Auction(a) => a.date_time,
            Event::Bid(b) => b.date_time,
        }
    }

    /// Returns the contained person, if this is a person event.
    pub fn person(&self) -> Option<&Person> {
        match self {
            Event::Person(p) => Some(p),
            _ => None,
        }
    }

    /// Returns the contained auction, if this is an auction event.
    pub fn auction(&self) -> Option<&Auction> {
        match self {
            Event::Auction(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the contained bid, if this is a bid event.
    pub fn bid(&self) -> Option<&Bid> {
        match self {
            Event::Bid(b) => Some(b),
            _ => None,
        }
    }
}

/// Dollar-to-euro conversion rate used by Query 1 (the Beam constant).
pub(crate) const USD_TO_EUR: f64 = 0.908;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let bid = Bid {
            auction: 1,
            bidder: 2,
            price: 300,
            date_time: 42,
        };
        let e = Event::Bid(bid.clone());
        assert_eq!(e.timestamp(), 42);
        assert_eq!(e.bid(), Some(&bid));
        assert!(e.person().is_none());
        assert!(e.auction().is_none());
    }
}
