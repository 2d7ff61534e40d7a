//! The event loop.
//!
//! [`Engine`] owns an [`EventQueue`] and repeatedly dispatches the earliest
//! event to a user-supplied [`Model`]. The model receives a [`Ctx`] through
//! which it can read the clock and schedule or cancel further events — the
//! only ways a model may influence the future, which is what keeps runs
//! reproducible.

use crate::event::EventId;
use crate::queue::EventQueue;
use crate::time::SimTime;
use crate::Audited;

/// Scheduling context handed to the model on every dispatch.
pub struct Ctx<'a, E> {
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedule an event at an absolute instant.
    pub fn schedule_at(&mut self, at: SimTime, ev: E) -> EventId {
        self.queue.schedule_at(at, ev)
    }

    /// Schedule an event after a delay from now.
    pub fn schedule_after(&mut self, after: crate::time::SimDuration, ev: E) -> EventId {
        self.queue.schedule_after(after, ev)
    }

    /// Cancel a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Ask the engine to stop after this dispatch returns.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// A simulation model: the single dispatch point for every event kind.
pub trait Model {
    /// The event payload type.
    type Event;

    /// Handle one event. `ctx` is the only channel back into the future.
    fn handle(&mut self, ev: Self::Event, ctx: &mut Ctx<'_, Self::Event>);
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCondition {
    /// The event queue drained.
    QueueEmpty,
    /// The time horizon passed; the clock stops at the horizon.
    HorizonReached,
    /// The model called [`Ctx::stop`].
    ModelStopped,
    /// The event budget was exhausted (runaway-model guard).
    EventBudgetExhausted,
}

/// Drives a [`Model`] over an [`EventQueue`].
pub struct Engine<M: Model> {
    queue: EventQueue<M::Event>,
    model: M,
    /// Hard cap on dispatched events, as a guard against accidental
    /// self-perpetuating event storms. Default: effectively unlimited.
    event_budget: u64,
    /// Events dispatched over the engine's lifetime (all runs). Feeds
    /// run reports; `arm_sim` sits below the observability crate, so
    /// this is a plain counter rather than an `arm_obs` hook.
    dispatched_total: u64,
}

impl<M: Model> Engine<M> {
    /// Wrap a model with a fresh queue at time zero.
    pub fn new(model: M) -> Self {
        Engine {
            queue: EventQueue::new(),
            model,
            event_budget: u64::MAX,
            dispatched_total: 0,
        }
    }

    /// Cap the total number of events this engine will dispatch.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to read out statistics after a run).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of live pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events dispatched so far, across every run of this engine.
    pub fn dispatched(&self) -> u64 {
        self.dispatched_total
    }

    /// Seed the queue before (or between) runs.
    pub fn schedule_at(&mut self, at: SimTime, ev: M::Event) -> EventId {
        self.queue.schedule_at(at, ev)
    }

    /// Run until the queue drains or the model stops.
    pub fn run(&mut self) -> StopCondition {
        self.run_until(SimTime::MAX)
    }

    /// Run until the queue drains, the model stops, or the next event would
    /// fire strictly after `horizon`. Events *at* the horizon still fire.
    pub fn run_until(&mut self, horizon: SimTime) -> StopCondition {
        let mut dispatched: u64 = 0;
        loop {
            match self.queue.peek_time() {
                None => return StopCondition::QueueEmpty,
                Some(t) if t > horizon => return StopCondition::HorizonReached,
                Some(_) => {}
            }
            if dispatched >= self.event_budget {
                return StopCondition::EventBudgetExhausted;
            }
            let (_, _, ev) = self
                .queue
                .pop()
                .invariant("a successful peek means pop returns an event");
            dispatched += 1;
            self.dispatched_total += 1;
            let mut stop = false;
            let mut ctx = Ctx {
                queue: &mut self.queue,
                stop_requested: &mut stop,
            };
            self.model.handle(ev, &mut ctx);
            if stop {
                return StopCondition::ModelStopped;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A model that re-arms a periodic tick and counts how often it fired.
    struct Ticker {
        period: SimDuration,
        fired: Vec<SimTime>,
        stop_after: usize,
    }

    impl Model for Ticker {
        type Event = ();
        fn handle(&mut self, _ev: (), ctx: &mut Ctx<'_, ()>) {
            self.fired.push(ctx.now());
            if self.fired.len() >= self.stop_after {
                ctx.stop();
            } else {
                ctx.schedule_after(self.period, ());
            }
        }
    }

    #[test]
    fn periodic_model_runs_and_stops() {
        let mut engine = Engine::new(Ticker {
            period: SimDuration::from_secs(2),
            fired: Vec::new(),
            stop_after: 4,
        });
        engine.schedule_at(SimTime::from_secs(1), ());
        let stop = engine.run();
        assert_eq!(stop, StopCondition::ModelStopped);
        assert_eq!(engine.dispatched(), 4);
        assert_eq!(
            engine.model().fired,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(3),
                SimTime::from_secs(5),
                SimTime::from_secs(7)
            ]
        );
    }

    #[test]
    fn horizon_stops_before_later_events() {
        let mut engine = Engine::new(Ticker {
            period: SimDuration::from_secs(10),
            fired: Vec::new(),
            stop_after: usize::MAX,
        });
        engine.schedule_at(SimTime::from_secs(5), ());
        let stop = engine.run_until(SimTime::from_secs(20));
        assert_eq!(stop, StopCondition::HorizonReached);
        // Fired at 5 and 15; the event at 25 is beyond the horizon.
        assert_eq!(engine.model().fired.len(), 2);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn event_at_horizon_still_fires() {
        let mut engine = Engine::new(Ticker {
            period: SimDuration::from_secs(10),
            fired: Vec::new(),
            stop_after: usize::MAX,
        });
        engine.schedule_at(SimTime::from_secs(20), ());
        engine.run_until(SimTime::from_secs(20));
        assert_eq!(engine.model().fired, vec![SimTime::from_secs(20)]);
    }

    #[test]
    fn empty_queue_reports_drained() {
        let mut engine = Engine::new(Ticker {
            period: SimDuration::from_secs(1),
            fired: Vec::new(),
            stop_after: 3,
        });
        assert_eq!(engine.run(), StopCondition::QueueEmpty);
    }

    #[test]
    fn event_budget_guards_runaway() {
        struct Storm;
        impl Model for Storm {
            type Event = ();
            fn handle(&mut self, _ev: (), ctx: &mut Ctx<'_, ()>) {
                // Re-arms itself forever at the same instant + 1 tick.
                ctx.schedule_after(SimDuration::from_ticks(1), ());
            }
        }
        let mut engine = Engine::new(Storm).with_event_budget(1000);
        engine.schedule_at(SimTime::ZERO, ());
        assert_eq!(engine.run(), StopCondition::EventBudgetExhausted);
    }
}
