//! Event damping: how a stream of control-plane events is split into
//! recompute batches.
//!
//! Flap damping collapses a maximal run of consecutive link events on
//! the same link into a single recompute of its net effect. A
//! multi-fabric daemon wants the choice *per fabric* (never across
//! fabrics — one tenant's flapping transceiver must not change another
//! tenant's batching): a soak harness may batch aggressively, a
//! latency-sensitive fabric may want every event staged alone.
//! [`Damping`] names the three choices.
//!
//! Every variant is **suffix-closed**: splitting a stream, removing the
//! first batch, and re-splitting the remainder must yield the remaining
//! batches unchanged. This is what lets an ingest queue drain a bounded
//! number of batches per cycle and leave the rest queued without
//! changing how they will eventually be batched — the property the
//! interleaving-equivalence tests pin down.

use crate::event::CtrlEvent;
use std::ops::Range;
use tagger_topo::LinkId;

/// How an ordered event stream is split into contiguous recompute
/// batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Damping {
    /// Every event stages its own epoch.
    None,
    /// Maximal same-link runs collapse into one recompute (the default).
    Flap,
    /// Flap damping with a per-batch event ceiling: a same-link run
    /// longer than the cap is chopped into cap-sized pieces (each still
    /// one recompute), bounding the state one epoch can move through at
    /// the cost of extra recomputes on very long flap storms. A cap of 0
    /// is treated as 1.
    FlapCapped(usize),
}

fn link_of(e: &CtrlEvent) -> Option<LinkId> {
    match e {
        CtrlEvent::LinkDown(l) | CtrlEvent::LinkUp(l) => Some(*l),
        _ => None,
    }
}

impl Damping {
    /// Parses the CLI syntax: `none`, `flap`, or `flap:N` (cap N ≥ 1).
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "none" => Ok(Damping::None),
            "flap" => Ok(Damping::Flap),
            _ => match spec.strip_prefix("flap:").map(str::parse) {
                Some(Ok(n)) if n >= 1 => Ok(Damping::FlapCapped(n)),
                _ => Err(format!(
                    "damping {spec:?} is not none | flap | flap:N (N >= 1)"
                )),
            },
        }
    }

    /// Partitions `events` into contiguous, in-order, non-empty ranges
    /// covering the whole slice. Each range becomes one staged batch
    /// (one recompute of the range's net effect).
    pub fn split(self, events: &[CtrlEvent]) -> Vec<Range<usize>> {
        let cap = match self {
            Damping::None => 1,
            Damping::Flap => usize::MAX,
            Damping::FlapCapped(n) => n.max(1),
        };
        let mut batches = Vec::new();
        let mut start = 0;
        while start < events.len() {
            let mut end = start + 1;
            if let Some(link) = link_of(&events[start]) {
                while end < events.len() && end - start < cap && link_of(&events[end]) == Some(link)
                {
                    end += 1;
                }
            }
            batches.push(start..end);
            start = end;
        }
        batches
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::event::parse_trace;
    use tagger_topo::ClosConfig;

    fn events(trace: &str) -> Vec<CtrlEvent> {
        parse_trace(&ClosConfig::small().build(), trace).unwrap()
    }

    fn assert_covering(events: &[CtrlEvent], ranges: &[Range<usize>]) {
        let mut at = 0;
        for r in ranges {
            assert_eq!(r.start, at, "ranges must be contiguous and in order");
            assert!(r.end > r.start, "ranges must be non-empty");
            at = r.end;
        }
        assert_eq!(at, events.len(), "ranges must cover the stream");
    }

    fn assert_suffix_closed(damping: Damping, events: &[CtrlEvent]) {
        let full = damping.split(events);
        assert_covering(events, &full);
        if full.len() < 2 {
            return;
        }
        let cut = full[0].end;
        let rest = damping.split(&events[cut..]);
        let shifted: Vec<Range<usize>> = rest.iter().map(|r| r.start + cut..r.end + cut).collect();
        assert_eq!(
            &full[1..],
            shifted.as_slice(),
            "removing the first batch must not re-batch the remainder"
        );
    }

    #[test]
    fn flap_damping_collapses_same_link_runs() {
        let evs = events("flap L1 T1 3\ndown L2 T2\nresync\nup L2 T2");
        let split = Damping::Flap.split(&evs);
        // 6 flap events, then three singletons.
        assert_eq!(split, vec![0..6, 6..7, 7..8, 8..9]);
    }

    #[test]
    fn no_damping_is_all_singletons() {
        let evs = events("flap L1 T1 2\nresync");
        let split = Damping::None.split(&evs);
        assert_eq!(split.len(), evs.len());
        assert_covering(&evs, &split);
    }

    #[test]
    fn capped_damping_chops_long_runs() {
        let evs = events("flap L1 T1 4"); // 8 events on one link
        assert_eq!(
            Damping::FlapCapped(3).split(&evs),
            vec![0..3, 3..6, 6..8],
            "an 8-event run capped at 3 is 3+3+2"
        );
        assert_eq!(
            Damping::FlapCapped(0).split(&evs),
            Damping::FlapCapped(1).split(&evs),
            "a zero cap behaves as 1"
        );
    }

    #[test]
    fn every_variant_is_suffix_closed() {
        let evs = events("flap L1 T1 4\ndown L2 T2\nresync\nflap L3 T3 2\nup L2 T2");
        for damping in [
            Damping::None,
            Damping::Flap,
            Damping::FlapCapped(3),
            Damping::FlapCapped(1),
        ] {
            assert_suffix_closed(damping, &evs);
        }
    }

    #[test]
    fn parse_accepts_the_cli_syntax() {
        assert_eq!(Damping::parse("none"), Ok(Damping::None));
        assert_eq!(Damping::parse("flap"), Ok(Damping::Flap));
        assert_eq!(Damping::parse("flap:4"), Ok(Damping::FlapCapped(4)));
        assert!(Damping::parse("flap:0").is_err());
        assert!(Damping::parse("flap:x").is_err());
        assert!(Damping::parse("window").is_err());
    }
}
