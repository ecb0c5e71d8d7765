//! Planner permits: the server's admission control. A cache miss (or a
//! `stall`) runs on its connection thread while it holds a permit; with
//! none free it waits in arrival order behind a bounded line of others.
//! After [`Permits::close`] newcomers are refused, while those already in
//! line are still served — that is what lets shutdown drain.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Why [`Permits::acquire`] gave no permit.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// The line of waiters is full.
    Busy,
    /// The permits were closed; the server is shutting down.
    Closed,
    /// The request's deadline passed while it waited.
    Deadline,
}

#[derive(Debug)]
struct State {
    /// Permits nobody holds. Nonzero only while nobody waits: a released
    /// permit goes straight to the oldest waiter.
    free: usize,
    /// Tickets of the waiting requests, oldest first. A ticket leaves the
    /// line when a release hands it a permit or its deadline passes.
    waiting: VecDeque<u64>,
    next_ticket: u64,
    closed: bool,
}

/// A counting semaphore with a bounded FIFO of waiters.
#[derive(Debug)]
pub(crate) struct Permits {
    max_waiting: usize,
    state: Mutex<State>,
    released: Condvar,
}

/// A held permit; dropping it hands the permit to the oldest waiter, or
/// back to the pool when nobody waits.
#[derive(Debug)]
pub(crate) struct Permit<'a> {
    permits: &'a Permits,
}

impl Permits {
    /// `permits` permits and room for `max_waiting` waiters (each at least 1).
    pub(crate) fn new(permits: usize, max_waiting: usize) -> Self {
        Permits {
            max_waiting: max_waiting.max(1),
            state: Mutex::new(State {
                free: permits.max(1),
                waiting: VecDeque::new(),
                next_ticket: 0,
                closed: false,
            }),
            released: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Nothing panics while the state is half-updated, so a poisoned
        // lock still guards a coherent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a permit: at once when one is free, otherwise after every
    /// earlier waiter, giving up at `deadline` (`None`: never). Once
    /// admitted, before blocking, the request calls `admitted` with the
    /// number of waiters, itself included (0 when a permit was free).
    pub(crate) fn acquire(
        &self,
        deadline: Option<Instant>,
        admitted: impl FnOnce(usize),
    ) -> Result<Permit<'_>, Refusal> {
        let mut state = self.lock();
        if state.closed {
            return Err(Refusal::Closed);
        }
        if state.free > 0 {
            state.free -= 1;
            drop(state);
            admitted(0);
            return Ok(Permit { permits: self });
        }
        if state.waiting.len() >= self.max_waiting {
            return Err(Refusal::Busy);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.waiting.push_back(ticket);
        let waiters = state.waiting.len();
        drop(state);
        admitted(waiters);
        let mut state = self.lock();
        // A release grants the permit by taking the oldest ticket off the
        // line, so a ticket gone from the line holds a permit.
        while state.waiting.contains(&ticket) {
            state = match deadline {
                None => self.released.wait(state).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        state.waiting.retain(|&t| t != ticket);
                        return Err(Refusal::Deadline);
                    }
                    let woken = self.released.wait_timeout(state, deadline - now);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
        Ok(Permit { permits: self })
    }

    /// Refuses every later [`Permits::acquire`]; requests already waiting
    /// keep their place in line.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.permits.lock();
        if state.waiting.pop_front().is_some() {
            drop(state);
            self.permits.released.notify_all();
        } else {
            state.free += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn await_waiters(permits: &Permits, n: usize) {
        while permits.lock().waiting.len() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_full_line_of_waiters_is_busy() {
        let permits = Permits::new(1, 1);
        let held = permits.acquire(None, |waiting| assert_eq!(waiting, 0)).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| permits.acquire(None, |n| assert_eq!(n, 1)).map(drop));
            await_waiters(&permits, 1);
            assert_eq!(permits.acquire(None, |_| {}).err(), Some(Refusal::Busy));
            drop(held);
            assert_eq!(waiter.join().unwrap(), Ok(()));
        });
    }

    #[test]
    fn closing_refuses_newcomers_and_still_serves_the_line() {
        let permits = Permits::new(1, 4);
        let held = permits.acquire(None, |_| {}).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| permits.acquire(None, |_| {}).map(drop));
            await_waiters(&permits, 1);
            permits.close();
            assert_eq!(permits.acquire(None, |_| {}).err(), Some(Refusal::Closed));
            drop(held);
            assert_eq!(waiter.join().unwrap(), Ok(()));
        });
    }

    #[test]
    fn a_release_wakes_the_oldest_waiter() {
        let permits = Permits::new(1, 4);
        let order = Mutex::new(Vec::new());
        let held = permits.acquire(None, |_| {}).unwrap();
        std::thread::scope(|s| {
            for (ahead, name) in ['a', 'b', 'c'].into_iter().enumerate() {
                let (permits, order) = (&permits, &order);
                s.spawn(move || {
                    let _permit = permits.acquire(None, |_| {}).unwrap();
                    order.lock().unwrap().push(name);
                });
                await_waiters(permits, ahead + 1);
            }
            drop(held);
        });
        assert_eq!(order.into_inner().unwrap(), ['a', 'b', 'c']);
    }

    #[test]
    fn a_waiter_past_its_deadline_leaves_the_line() {
        let permits = Permits::new(1, 1);
        let held = permits.acquire(None, |_| {}).unwrap();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert_eq!(permits.acquire(Some(deadline), |_| {}).err(), Some(Refusal::Deadline));
        assert!(Instant::now() >= deadline);
        // The release is not handed to the waiter that left.
        drop(held);
        assert!(permits.acquire(Some(Instant::now()), |_| {}).is_ok());
    }

    #[test]
    fn a_permit_dropped_on_an_early_return_is_freed() {
        let permits = Permits::new(1, 1);
        let plan = |bail: bool| -> Result<(), &str> {
            let _permit = permits.acquire(None, |_| {}).map_err(|_| "refused")?;
            if bail {
                return Err("bailed");
            }
            Ok(())
        };
        assert_eq!(plan(true), Err("bailed"));
        assert_eq!(plan(false), Ok(()));
        let unwound = std::panic::catch_unwind(|| {
            let _permit = permits.acquire(None, |_| {}).unwrap();
            panic!("planner panicked");
        });
        assert!(unwound.is_err());
        assert!(permits.acquire(Some(Instant::now()), |_| {}).is_ok());
    }
}
