/**
 * @file
 * Minimal discrete-event scheduler: a time-ordered queue of plain event
 * records with deterministic FIFO tie-breaking (equal timestamps pop in
 * scheduling order, so floating-point ties can never reorder runs).
 *
 * The queue stores records, not callbacks: the owner pops each record
 * and dispatches it itself (ServerInstance switches on the record's
 * kind). Records are trivially copyable, so scheduling allocates only
 * when the heap's storage grows.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace hercules::sim {

/** Priority queue of (time, record) events. */
template <typename Event>
class EventQueue
{
    static_assert(std::is_trivially_copyable_v<Event>,
                  "EventQueue records must be trivially copyable");

  public:
    /** Schedule `ev` at absolute time `t` seconds (>= now). */
    void
    schedule(double t, const Event& ev)
    {
        if (t < now_)
            panic("EventQueue: scheduling into the past (%f < %f)", t,
                  now_);
        heap_.push(Entry{t, seq_++, ev});
        if (heap_.size() > peak_)
            peak_ = heap_.size();
    }

    /** @return true when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** @return current simulation time (of the last popped event). */
    double now() const { return now_; }

    /** @return timestamp of the next pending event (panics when empty). */
    double
    nextTime() const
    {
        if (heap_.empty())
            panic("EventQueue: nextTime on empty queue");
        return heap_.top().t;
    }

    /**
     * Pop the next event: advances now() to its timestamp, counts it as
     * executed and returns its record for the caller to dispatch.
     */
    Event
    pop()
    {
        if (heap_.empty())
            panic("EventQueue: pop on empty queue");
        const Entry top = heap_.top();
        heap_.pop();
        now_ = top.t;
        ++executed_;
        return top.ev;
    }

    /**
     * Discard every pending event without running it (crash semantics:
     * work in flight simply never finishes). now() and the tie-break
     * counter are preserved so post-clear scheduling stays ordered
     * after everything that already ran.
     */
    void clear() { heap_ = {}; }

    /**
     * Self-profiling counters (survive clear()): total events executed
     * and the peak number of pending events. Deterministic — pure
     * functions of the simulated schedule, no wall clock involved.
     */
    uint64_t eventsExecuted() const { return executed_; }
    size_t peakDepth() const { return peak_; }

  private:
    struct Entry
    {
        double t;
        uint64_t seq;
        Event ev;

        bool
        operator>(const Entry& o) const
        {
            if (t != o.t)
                return t > o.t;
            return seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    uint64_t seq_ = 0;
    double now_ = 0.0;
    uint64_t executed_ = 0;
    size_t peak_ = 0;
};

}  // namespace hercules::sim
