//! The failure-class taxonomy (paper Section 3) and escalation logic
//! (Figure 1).

use spf_obs::{failure_class, EscalationRecord, EventKind, Obs};
use spf_storage::PageId;
use spf_util::SimDuration;

/// The four failure classes. The first three are the traditional taxonomy
/// ("they are the foundation of today's failure detection, recovery,
/// reliability, and availability"); the fourth is the paper's
/// contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// "A transaction failure leaves other transactions running; only a
    /// single transaction fails and must roll back."
    Transaction,
    /// "A media failure focuses on a storage device … all transactions
    /// fail that have touched data on the failed media."
    Media,
    /// "A system failure is most severe; the database management system
    /// and perhaps even the operating system require restart and
    /// recovery."
    System,
    /// "All failures to read a data page correctly and with plausible
    /// contents despite all correction attempts in lower system levels."
    SinglePage,
}

impl FailureClass {
    /// What an unhandled failure of this class becomes (Figure 1's
    /// escalation arrows): a single-page failure without single-page
    /// recovery must be treated as a media failure; a media failure on a
    /// single-device node is a system failure; system failures are
    /// terminal (restart).
    #[must_use]
    pub fn escalates_to(self, single_device_node: bool) -> Option<FailureClass> {
        match self {
            FailureClass::SinglePage => Some(FailureClass::Media),
            FailureClass::Media if single_device_node => Some(FailureClass::System),
            _ => None,
        }
    }

    /// Every class an unhandled failure of this class passes through,
    /// in order: Figure 1's arrows followed to the end.
    pub fn escalation_path(self, single_device_node: bool) -> impl Iterator<Item = FailureClass> {
        std::iter::successors(self.escalates_to(single_device_node), move |class| {
            class.escalates_to(single_device_node)
        })
    }

    /// The class's code in the observability plane's
    /// [`failure_class`] vocabulary.
    fn obs_code(self) -> u64 {
        match self {
            FailureClass::Transaction => failure_class::TRANSACTION,
            FailureClass::Media => failure_class::MEDIA,
            FailureClass::System => failure_class::SYSTEM,
            FailureClass::SinglePage => failure_class::SINGLE_PAGE,
        }
    }
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureClass::Transaction => write!(f, "transaction failure"),
            FailureClass::Media => write!(f, "media failure"),
            FailureClass::System => write!(f, "system failure"),
            FailureClass::SinglePage => write!(f, "single-page failure"),
        }
    }
}

/// Escalates a single-page failure that was not repaired along Figure 1
/// for the node's shape, and records it: the one `Escalation` event and
/// the one repair-ledger record (with the flight-recorder window that led
/// up to it), both naming `page` — `u64::MAX` when no page is known — and
/// the terminal class, which is returned. Every escalation in the engine
/// goes through here, whichever detector found the failure.
pub fn escalate(
    obs: &Obs,
    page: Option<PageId>,
    detector: &'static str,
    single_device_node: bool,
    at: SimDuration,
) -> FailureClass {
    let class = FailureClass::SinglePage
        .escalation_path(single_device_node)
        .last()
        .unwrap_or(FailureClass::SinglePage);
    let page_id = page.map_or(u64::MAX, |p| p.0);
    obs.emit(EventKind::Escalation, page_id, class.obs_code());
    obs.ledger().record_escalation(EscalationRecord {
        page_id,
        detector,
        escalated_to: failure_class::name(class.obs_code()),
        at,
        trace: obs.drain_trace(),
    });
    class
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_escalation() {
        // Left-to-right arrows of Figure 1.
        assert_eq!(
            FailureClass::SinglePage.escalates_to(false),
            Some(FailureClass::Media)
        );
        assert_eq!(
            FailureClass::Media.escalates_to(true),
            Some(FailureClass::System)
        );
        assert_eq!(FailureClass::Media.escalates_to(false), None);
        assert_eq!(FailureClass::System.escalates_to(true), None);
        assert_eq!(FailureClass::Transaction.escalates_to(true), None);
    }

    #[test]
    fn full_escalation_chain_on_single_device_node() {
        // A single-page failure on a one-device node, unhandled, becomes
        // a system failure in two hops — the paper's nightmare.
        let mut class = FailureClass::SinglePage;
        let mut hops = 0;
        while let Some(next) = class.escalates_to(true) {
            class = next;
            hops += 1;
        }
        assert_eq!(class, FailureClass::System);
        assert_eq!(hops, 2);
        assert_eq!(
            FailureClass::SinglePage
                .escalation_path(true)
                .collect::<Vec<_>>(),
            [FailureClass::Media, FailureClass::System]
        );
    }

    #[test]
    fn escalate_records_one_event_and_one_ledger_record() {
        let obs = Obs::new(std::sync::Arc::new(spf_util::SimClock::new()), true);
        let class = escalate(&obs, Some(PageId(7)), "checksum", true, SimDuration::ZERO);
        assert_eq!(class, FailureClass::System);
        let records = obs.ledger().escalations();
        assert_eq!(records.len(), 1);
        assert_eq!((records[0].page_id, records[0].escalated_to), (7, "system"));
        let events: Vec<_> = records[0].trace.of_kind(EventKind::Escalation).collect();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].a, events[0].b), (7, failure_class::SYSTEM));

        escalate(&obs, None, "engine", false, SimDuration::ZERO);
        let last = obs.ledger().escalations().pop().unwrap();
        assert_eq!((last.page_id, last.escalated_to), (u64::MAX, "media"));
    }
}
