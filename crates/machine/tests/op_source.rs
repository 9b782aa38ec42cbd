//! Engine-only runs are driven from the one thread that runs the event
//! loop, so an [`OpSource`] need not be `Send`: it may share `Rc` state
//! with its caller, as per-core coroutines polled on the engine thread
//! would.

use lr_machine::{Addr, Cycle, Machine, Op, OpSource, Reply, Request, SystemConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// Every core FAAs one shared counter `per_core` times, then exits.
/// Replies land in a log the test reads back through an `Rc`.
struct FaaSource {
    counter: Addr,
    per_core: u64,
    issued: Vec<u64>,
    clock: Vec<Cycle>,
    log: Rc<RefCell<Vec<Reply>>>,
}

impl OpSource for FaaSource {
    fn next(&mut self, tid: usize) -> Result<Request, String> {
        let at = self.clock[tid] + 1;
        let done = self.issued[tid];
        let op = if done < self.per_core {
            self.issued[tid] += 1;
            Op::Faa {
                addr: self.counter,
                delta: 1,
            }
        } else {
            Op::Exit {
                instructions: done,
                ops: done,
            }
        };
        Ok(Request { at, op })
    }

    fn observe(&mut self, tid: usize, reply: Reply) -> Result<(), String> {
        self.clock[tid] = reply.time;
        self.log.borrow_mut().push(reply);
        Ok(())
    }
}

#[test]
fn op_source_may_hold_rc_state() {
    let (cores, per_core) = (4usize, 5u64);
    let total = cores as u64 * per_core;
    let mut m = Machine::new(SystemConfig::with_cores(cores));
    let counter = m.setup(|mem| mem.alloc_line_aligned(8));
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut src = FaaSource {
        counter,
        per_core,
        issued: vec![0; cores],
        clock: vec![0; cores],
        log: Rc::clone(&log),
    };
    let (stats, mem, events) = m
        .run_source(cores, &mut src)
        .unwrap_or_else(|abort| panic!("{}", abort.report));
    assert_eq!(mem.read_word(counter), total);
    assert_eq!(stats.app_ops, total);
    assert!(events > 0);
    // Every FAA saw a distinct old value: the increments serialized.
    let mut olds: Vec<u64> = log.borrow().iter().map(|r| r.value).collect();
    olds.sort_unstable();
    assert_eq!(olds, (0..total).collect::<Vec<_>>());
}
