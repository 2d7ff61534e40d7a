//! Property tests: no random sequence of requests, co-allocations,
//! confirms, cancels, and slot rolls may ever overcommit a capacitated
//! link in any slot, corrupt the store's invariants, or leak booked
//! bandwidth past expiry.

use arm_net::ids::LinkId;
use arm_resv_cal::{ReservationId, ResvOrigin, SlottedSchedule};
use proptest::prelude::*;

const CAPACITY: f64 = 100.0;
const EPS: f64 = 1e-6;
const HORIZON: u64 = 24;

/// Two capacitated links and one the store has no capacity for
/// (exempt from the capacity check, not from the leak check).
fn resources() -> [LinkId; 3] {
    [LinkId(0), LinkId(1), LinkId(2)]
}

#[derive(Clone, Debug)]
enum Op {
    Request {
        res: usize,
        start: u64,
        len: u64,
        kbps: f64,
    },
    CoAllocate {
        start: u64,
        len: u64,
        kbps: f64,
    },
    Confirm(usize),
    Cancel(usize),
    Roll(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, 0u64..HORIZON, 1u64..4, 1.0f64..80.0).prop_map(|(res, start, len, kbps)| {
            Op::Request {
                res,
                start,
                len,
                kbps,
            }
        }),
        (0u64..HORIZON, 1u64..4, 1.0f64..60.0).prop_map(|(start, len, kbps)| Op::CoAllocate {
            start,
            len,
            kbps
        }),
        (0usize..64).prop_map(Op::Confirm),
        (0usize..64).prop_map(Op::Cancel),
        (1u64..4).prop_map(Op::Roll),
    ]
}

/// Every capacitated resource honours its capacity in every slot of
/// the active horizon.
fn assert_capacity_honored(sched: &SlottedSchedule) {
    let base = sched.current_slot();
    for res in resources() {
        let Some(cap) = sched.capacity(res) else {
            continue;
        };
        for slot in base..base + 2 * HORIZON {
            let booked = sched.booked(slot, res);
            assert!(
                booked <= cap + EPS,
                "slot {slot} on {res} overcommitted: {booked} > {cap}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_sequences_never_overcommit_or_leak(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let mut sched = SlottedSchedule::new();
        let [l0, l1, _] = resources();
        sched.set_capacity(l0, CAPACITY);
        sched.set_capacity(l1, CAPACITY);

        let mut issued: Vec<ReservationId> = Vec::new();
        for op in &ops {
            let res = resources();
            match op {
                Op::Request { res: r, start, len, kbps } => {
                    let s = sched.current_slot() + start;
                    if let Ok(id) = sched.request(
                        res[*r], s, s + len, *kbps, ResvOrigin::BulkTransfer,
                    ) {
                        issued.push(id);
                    }
                }
                Op::CoAllocate { start, len, kbps } => {
                    let s = sched.current_slot() + start;
                    let legs = [(res[0], *kbps), (res[1], *kbps)];
                    match sched.co_allocate(&legs, s, s + len, ResvOrigin::CoAllocation) {
                        Ok(out) => issued.extend(out.ids),
                        Err(_) => {
                            // All-or-nothing: a rejected group books nothing.
                        }
                    }
                }
                Op::Confirm(pick) => {
                    if !issued.is_empty() {
                        let id = issued[pick % issued.len()];
                        let _ = sched.confirm(id);
                    }
                }
                Op::Cancel(pick) => {
                    if !issued.is_empty() {
                        let id = issued[pick % issued.len()];
                        let _ = sched.release(id);
                    }
                }
                Op::Roll(by) => {
                    sched.roll_to(sched.current_slot() + by);
                }
            }
            sched.validate().expect("store invariants hold after every op");
            assert_capacity_honored(&sched);
        }

        // Roll far past every possible end slot: nothing may stay
        // booked (claims must not leak past expiry).
        let far = sched.current_slot() + 4 * HORIZON;
        sched.roll_to(far);
        sched.validate().expect("store invariants hold after drain");
        prop_assert_eq!(sched.live_count(), 0, "reservations leaked past expiry");
        for res in resources() {
            for slot in 0..far + HORIZON {
                let booked = sched.booked(slot, res);
                prop_assert!(
                    booked == 0.0,
                    "slot {} on {} still books {} after drain",
                    slot, res, booked
                );
            }
        }

        // And the drained store still snapshots byte-identically.
        let json = sched.to_json().expect("snapshot serializes");
        let back = SlottedSchedule::from_json(&json).expect("snapshot parses");
        prop_assert_eq!(back, sched);
    }
}
