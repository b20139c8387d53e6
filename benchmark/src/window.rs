//! The load generator: a closed loop with a sliding window of
//! outstanding requests, driven from one thread.
//!
//! Callers that wait for their replies make a closed loop, so a slow
//! server receives less load. The loop blocks on the oldest outstanding
//! request, then makes one non-blocking sweep over the rest of the window
//! to retire whatever already completed, then refills — no spinning and
//! no client thread pool. Latency runs from the start of the `submit`
//! call to the first observation of completion.

use std::collections::VecDeque;
use std::time::Instant;

/// Outstanding requests per generator (fixed by the benchmark).
pub const WINDOW: usize = 16;

/// What the loop needs from a response handle.
pub trait Handle {
    /// The completed request's outcome.
    type Out;
    /// Block until the request completes.
    fn wait(self) -> Self::Out;
    /// Poll without blocking; `None` while still in flight.
    fn try_wait(&self) -> Option<Self::Out>;
}

impl Handle for tlpgnn_serve::ResponseHandle {
    type Out = Result<tlpgnn_serve::Response, tlpgnn_serve::ServeError>;
    fn wait(self) -> Self::Out {
        tlpgnn_serve::ResponseHandle::wait(self)
    }
    fn try_wait(&self) -> Option<Self::Out> {
        tlpgnn_serve::ResponseHandle::try_wait(self)
    }
}

/// One completed request as the generator saw it.
pub struct Completion<O> {
    /// Index of the request in submission order.
    pub index: usize,
    /// When the `submit` call started.
    pub submitted: Instant,
    /// When the `submit` call returned.
    pub accepted: Instant,
    /// When the generator first saw the request complete.
    pub observed: Instant,
    /// The handle's outcome.
    pub out: O,
}

/// Request accounting of one loop; `submitted == completed + refused`
/// always holds on return.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopCount {
    /// `submit` calls made.
    pub submitted: usize,
    /// Requests that completed (whatever their outcome).
    pub completed: usize,
    /// `submit` calls that returned an error instead of a handle.
    pub refused: usize,
    /// Most requests ever outstanding at once.
    pub max_outstanding: usize,
}

/// What the loop drives: the source of requests and the sink of their
/// outcomes.
pub trait Driver {
    /// Handle a successful submission returns.
    type Handle: Handle;
    /// Why a submission can be refused.
    type Refusal;
    /// Issue request `index`, or refuse it.
    fn submit(&mut self, index: usize) -> Result<Self::Handle, Self::Refusal>;
    /// Receive one completion.
    fn done(&mut self, completion: Completion<<Self::Handle as Handle>::Out>);
    /// Receive one refusal.
    fn refused(&mut self, index: usize, refusal: Self::Refusal);
}

/// Drive `n` requests through `driver` with at most `window`
/// outstanding.
pub fn closed_loop<D: Driver>(n: usize, window: usize, driver: &mut D) -> LoopCount {
    assert!(window >= 1, "window must hold at least one request");
    let mut count = LoopCount::default();
    let mut outstanding: VecDeque<(usize, Instant, Instant, D::Handle)> =
        VecDeque::with_capacity(window);
    let mut next = 0usize;
    while next < n || !outstanding.is_empty() {
        while outstanding.len() < window && next < n {
            let submitted = Instant::now();
            let result = driver.submit(next);
            let accepted = Instant::now();
            count.submitted += 1;
            match result {
                Ok(h) => outstanding.push_back((next, submitted, accepted, h)),
                Err(e) => {
                    count.refused += 1;
                    driver.refused(next, e);
                }
            }
            next += 1;
        }
        count.max_outstanding = count.max_outstanding.max(outstanding.len());
        let Some((index, submitted, accepted, h)) = outstanding.pop_front() else {
            continue; // every submit in this refill was refused
        };
        let out = h.wait();
        count.completed += 1;
        driver.done(Completion {
            index,
            submitted,
            accepted,
            observed: Instant::now(),
            out,
        });
        let mut i = 0;
        while i < outstanding.len() {
            match outstanding[i].3.try_wait() {
                Some(out) => {
                    let (index, submitted, accepted, _) =
                        outstanding.remove(i).expect("index checked above");
                    count.completed += 1;
                    driver.done(Completion {
                        index,
                        submitted,
                        accepted,
                        observed: Instant::now(),
                        out,
                    });
                }
                None => i += 1,
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A stub handle: complete once the shared clock reaches `ready_at`.
    /// Blocking on it advances the clock to its completion time, as
    /// waiting on a real server would.
    struct Stub {
        id: usize,
        ready_at: u64,
        clock: Rc<Cell<u64>>,
    }

    impl Handle for Stub {
        type Out = usize;
        fn wait(self) -> usize {
            self.clock.set(self.clock.get().max(self.ready_at));
            self.id
        }
        fn try_wait(&self) -> Option<usize> {
            (self.clock.get() >= self.ready_at).then_some(self.id)
        }
    }

    /// A stub server: request `i` completes at `ready_at(i)`, or is
    /// refused when that is `None`.
    struct StubServer<F> {
        ready_at: F,
        clock: Rc<Cell<u64>>,
        order: Vec<usize>,
        refused: Vec<usize>,
    }

    impl<F: Fn(usize) -> Option<u64>> Driver for StubServer<F> {
        type Handle = Stub;
        type Refusal = &'static str;
        fn submit(&mut self, index: usize) -> Result<Stub, &'static str> {
            match (self.ready_at)(index) {
                Some(ready_at) => Ok(Stub {
                    id: index,
                    ready_at,
                    clock: Rc::clone(&self.clock),
                }),
                None => Err("full"),
            }
        }
        fn done(&mut self, c: Completion<usize>) {
            assert_eq!(c.index, c.out);
            assert!(c.submitted <= c.accepted && c.accepted <= c.observed);
            self.order.push(c.index);
        }
        fn refused(&mut self, index: usize, why: &'static str) {
            assert_eq!(why, "full");
            self.refused.push(index);
        }
    }

    fn run(
        n: usize,
        window: usize,
        ready_at: impl Fn(usize) -> Option<u64>,
    ) -> (Vec<usize>, Vec<usize>, LoopCount) {
        let mut server = StubServer {
            ready_at,
            clock: Rc::new(Cell::new(0)),
            order: Vec::new(),
            refused: Vec::new(),
        };
        let count = closed_loop(n, window, &mut server);
        (server.order, server.refused, count)
    }

    #[test]
    fn fifo_completion_retires_in_submission_order() {
        let (order, _, count) = run(40, 4, |i| Some(i as u64 + 1));
        assert_eq!(order, (0..40).collect::<Vec<_>>());
        assert_eq!(count.submitted, 40);
        assert_eq!(count.completed, 40);
        assert_eq!(count.max_outstanding, 4);
    }

    #[test]
    fn out_of_order_completions_are_swept_without_blocking() {
        // Request 0 is slow; 1..4 finish first. Blocking on 0 moves the
        // clock past all of them, so one sweep retires the whole window.
        let (order, _, count) = run(8, 4, |i| Some(if i == 0 { 100 } else { i as u64 }));
        assert_eq!(&order[..4], &[0, 1, 2, 3]);
        assert_eq!(order.len(), 8);
        assert_eq!(count.completed, 8);
        assert!(count.max_outstanding <= 4);
        // A younger request that finished is retired before an older one
        // still in flight: after blocking on 0, the sweep finds 2 done
        // and 1 not.
        let ready = [10, 50, 5, 60, 60, 60];
        let (order, _, _) = run(6, 3, |i| Some(ready[i]));
        assert_eq!(order, vec![0, 2, 1, 3, 4, 5]);
    }

    #[test]
    fn refusals_are_counted_and_conserved() {
        let (order, refused, count) = run(20, 5, |i| (i % 4 != 3).then_some(0));
        assert_eq!(count.submitted, 20);
        assert_eq!(count.refused, 5);
        assert_eq!(refused, vec![3, 7, 11, 15, 19]);
        assert_eq!(count.completed, order.len());
        assert_eq!(count.submitted, count.completed + count.refused);
        assert!(count.max_outstanding <= 5);
    }

    #[test]
    fn a_window_of_only_refusals_terminates() {
        let (order, refused, count) = run(7, 3, |_| None);
        assert!(order.is_empty());
        assert_eq!(refused.len(), 7);
        assert_eq!(count.submitted, 7);
        assert_eq!(count.refused, 7);
        assert_eq!(count.completed, 0);
    }
}
