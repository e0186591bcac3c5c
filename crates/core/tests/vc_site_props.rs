//! Property tests for `VersionControl` numbered as one site of a cluster
//! (`for_site`), under arbitrary interleavings of register /
//! `complete_as(p, f ≥ p)` / discard / observe.
//!
//! * **invariants** — `validate()` holds after every step: nothing queued
//!   or held over is at or below `vtnc`, and `vtnc`'s time is below `tnc`.
//! * **reference model** — every issued number and every `vtnc` equals a
//!   straight transcription of the distributed rule: a proposal queue
//!   keyed by number, a holdover of finals, and a barrier at the head
//!   proposal or the next time the clock could issue.
//! * **lag** — `lag()` and `view()` report `tnc` and `vtnc` in one unit,
//!   the Lamport time, so the lag counts clock ticks not yet visible.
//! * **central path** — with `f == p` only, a site's `vtnc` trajectory is
//!   plain `complete`'s on a densely numbered module, number for number:
//!   the holdover is never used.

use mvcc_core::VersionControl;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const BITS: u32 = 16;
const SITE: u64 = 3;

fn lamport(time: u64, site: u64) -> u64 {
    (time << BITS) | site
}

/// The distributed visibility rule, written out on its own.
#[derive(Default)]
struct Model {
    /// Time of the last issued number.
    time: u64,
    /// Proposal → final, `None` while in doubt.
    queue: BTreeMap<u64, Option<u64>>,
    holdover: BTreeSet<u64>,
    vtnc: u64,
}

impl Model {
    fn register(&mut self) -> u64 {
        self.time += 1;
        let p = lamport(self.time, SITE);
        self.queue.insert(p, None);
        p
    }

    fn observe(&mut self, g: u64) {
        self.time = self.time.max(g >> BITS);
    }

    fn complete_as(&mut self, p: u64, f: u64) {
        self.observe(f);
        self.queue.insert(p, Some(f));
        self.drain();
    }

    fn discard(&mut self, p: u64) {
        self.queue.remove(&p);
        self.drain();
    }

    fn drain(&mut self) {
        while let Some((&p, &Some(f))) = self.queue.first_key_value() {
            self.queue.remove(&p);
            self.holdover.insert(f);
        }
        let barrier = match self.queue.keys().next() {
            Some(&head) => head,
            None => lamport(self.time + 1, 0),
        };
        while let Some(&f) = self.holdover.first() {
            if f >= barrier {
                break;
            }
            self.holdover.remove(&f);
            self.vtnc = self.vtnc.max(f);
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Register,
    /// Complete the `pick`-th live proposal, its final `boost` time units
    /// above it at site `site` (never below the proposal).
    Complete {
        pick: usize,
        boost: u64,
        site: u64,
    },
    Discard {
        pick: usize,
    },
    /// Observe a number `ahead` time units past the site's clock.
    Observe {
        ahead: u64,
        site: u64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Register),
        3 => (0usize..8, 0u64..4, 0u64..6)
            .prop_map(|(pick, boost, site)| Op::Complete { pick, boost, site }),
        1 => (0usize..8).prop_map(|pick| Op::Discard { pick }),
        1 => (0u64..4, 0u64..6).prop_map(|(ahead, site)| Op::Observe { ahead, site }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn site_module_matches_the_distributed_rule(ops in proptest::collection::vec(op(), 1..120)) {
        let vc = VersionControl::for_site(BITS, SITE as u16);
        let mut model = Model::default();
        let mut live: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Register => {
                    let p = vc.register();
                    prop_assert_eq!(p, model.register());
                    live.push(p);
                }
                Op::Complete { pick, boost, site } if !live.is_empty() => {
                    let p = live.swap_remove(pick % live.len());
                    let f = lamport((p >> BITS) + boost, site).max(p);
                    vc.complete_as(p, f);
                    model.complete_as(p, f);
                }
                Op::Discard { pick } if !live.is_empty() => {
                    let p = live.swap_remove(pick % live.len());
                    prop_assert!(vc.discard(p));
                    model.discard(p);
                }
                Op::Observe { ahead, site } => {
                    let g = lamport(model.time + ahead, site);
                    vc.observe(g);
                    model.observe(g);
                }
                _ => {}
            }
            prop_assert_eq!(vc.vtnc(), model.vtnc);
            prop_assert_eq!(vc.queue_len(), model.queue.len() + model.holdover.len());
            // Lag and view count in one unit at a site: Lamport time.
            let lag = model.time - (model.vtnc >> BITS);
            prop_assert_eq!(vc.lag(), lag);
            let view = vc.view();
            prop_assert_eq!((view.tnc, view.vtnc, view.vtnc_lag()), (model.time, model.vtnc >> BITS, lag));
            if let Err(e) = vc.validate() {
                prop_assert!(false, "{}", e);
            }
        }
        // Finish every survivor locally: everything drains.
        for p in live {
            vc.complete_as(p, p);
            model.complete_as(p, p);
        }
        prop_assert_eq!(vc.vtnc(), model.vtnc);
        prop_assert_eq!(vc.queue_len(), 0);
        vc.validate().unwrap();
    }

    #[test]
    fn unboosted_site_tracks_plain_complete(
        ops in proptest::collection::vec((0u8..3, 0usize..8), 1..120),
    ) {
        let site = VersionControl::for_site(BITS, SITE as u16);
        let central = VersionControl::new();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (kind, pick) in ops {
            match kind {
                0 => live.push((site.register(), central.register())),
                1 | 2 if !live.is_empty() => {
                    let (p, tn) = live.swap_remove(pick % live.len());
                    prop_assert_eq!(p, lamport(tn, SITE));
                    if kind == 1 {
                        site.complete_as(p, p);
                        central.complete(tn);
                    } else {
                        site.discard(p);
                        central.discard(tn);
                    }
                }
                _ => {}
            }
            let v = central.vtnc();
            prop_assert_eq!(site.vtnc(), if v == 0 { 0 } else { lamport(v, SITE) });
            prop_assert_eq!(site.tnc(), central.tnc());
            prop_assert_eq!(site.queue_len(), central.queue_len());
            prop_assert_eq!(site.lag(), central.lag());
            let (s, c) = (site.view(), central.view());
            prop_assert_eq!((s.tnc, s.vtnc), (c.tnc, c.vtnc));
            site.validate().unwrap();
            central.validate().unwrap();
        }
    }
}
