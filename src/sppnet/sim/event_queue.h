#ifndef SPPNET_SIM_EVENT_QUEUE_H_
#define SPPNET_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <queue>
#include <vector>

namespace sppnet {

/// One scheduled simulator event. Payload interpretation depends on
/// `kind`; the simulator defines the kinds. Events at equal timestamps
/// are delivered in schedule order (FIFO via the sequence number), which
/// keeps runs bit-for-bit deterministic.
struct SimEvent {
  double time = 0.0;
  std::uint64_t seq = 0;   ///< Assigned by the queue; breaks time ties.
  std::uint32_t kind = 0;
  std::uint32_t node = 0;  ///< Destination / acting node.
  std::uint64_t a = 0;     ///< Kind-specific payload.
  std::uint64_t b = 0;
  double x = 0.0;
};

/// Min-heap of SimEvents ordered by (time, seq); O(log n) per
/// operation. A test oracle only: the simulator runs on CalendarQueue,
/// and tests/sim/event_queue_test.cc holds the two to identical pop
/// streams.
class EventQueue {
 public:
  EventQueue() = default;

  /// Schedules `event` at event.time; assigns the tie-breaking sequence
  /// number. Times must be finite and >= 0 (checked).
  void Schedule(SimEvent event);

  /// Caller-keyed counterpart of Schedule (see CalendarQueue).
  void SchedulePreKeyed(const SimEvent& event);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Aborts when empty.
  double NextTime() const;

  /// Removes and returns the earliest event. Aborts when empty.
  SimEvent Pop();

  /// Every pending event in (time, seq) order; the queue is unchanged.
  std::vector<SimEvent> SnapshotEvents() const;
  /// Re-inserts checkpointed events preserving their original sequence
  /// numbers and resumes the sequence counter at `next_seq`. The queue
  /// must be empty (checked).
  void RestorePending(const std::vector<SimEvent>& events,
                      std::uint64_t next_seq);
  std::uint64_t next_seq() const { return next_seq_; }

 private:
  struct Later {
    bool operator()(const SimEvent& lhs, const SimEvent& rhs) const {
      if (lhs.time != rhs.time) return lhs.time > rhs.time;
      return lhs.seq > rhs.seq;
    }
  };
  std::priority_queue<SimEvent, std::vector<SimEvent>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Pending-event structure driving the simulator main loop, its shard
/// queues and its control queue: a deterministic calendar queue
/// (R. Brown, "Calendar Queues", CACM 1988) beside a FIFO delivery
/// lane.
///
/// The calendar is a power-of-two array of unsorted buckets, each
/// holding the events whose time falls in one `width`-second slice
/// ("day"); a day maps to bucket `day & (nbuckets-1)`, so the array
/// wraps around once per `nbuckets * width` seconds ("year"). When the
/// calendar pops the first event of a day, the day's events move out
/// of the bucket into a staged "today" run served in order. Staging
/// is a counting pass over sub-day slices, a scatter pass into the
/// run, and an insertion sort of each (short) slice — never a
/// comparison sort of the whole day.
///
/// The lane is a ring buffer of message deliveries
/// (ScheduleDelivery). A delivery whose (time, seq) is not earlier
/// than the lane's tail is appended there; any other goes to the
/// calendar. Constant-latency sends — the bulk of a flood's events —
/// are therefore sorted by construction and never touch a bucket,
/// while jittered ones fall back to the calendar. Pop and NextTime
/// take the smaller (time, seq) of the lane front and the calendar
/// minimum.
///
/// Delivery order is (time, seq) everywhere — never storage position —
/// so the lane split, the swap-erase removal, the staging extraction
/// and the resize-time redistribution can never affect order, and the
/// pop sequence is bit-identical to the binary heap's by construction.
/// The bucket count adapts to the calendar's live event count and the
/// bucket width to the mean gap between its dequeues; both inputs are
/// functions of the schedule and pop sequence alone, so the resize
/// schedule (and everything downstream) is deterministic too.
///
/// Complexity: O(1) per lane operation, and O(1) amortized per calendar
/// operation while the calendar population is reasonably stationary
/// (the simulator's is: per-user Poisson clocks dominate), degrading
/// gracefully to a global scan when the calendar empties out far from
/// the next event.
class CalendarQueue {
 public:
  CalendarQueue();

  /// Schedules `event` at event.time on the calendar; assigns the
  /// tie-breaking sequence number. Times must be finite and >= 0
  /// (checked).
  void Schedule(SimEvent event);

  /// Schedule for a message delivery: same sequence numbering and
  /// checks, but the event joins the FIFO lane when it does not sort
  /// before the lane's tail (the calendar takes it otherwise). Meant
  /// for sends whose latency is (nearly) constant, so that consecutive
  /// calls arrive in time order; timers with spread-out delays belong
  /// on Schedule, where they cannot push the lane's tail ahead of the
  /// deliveries behind them.
  void ScheduleDelivery(SimEvent event);

  /// Schedules an event whose tie-breaking key the CALLER already
  /// assigned (event.seq is taken verbatim; the internal counter is
  /// untouched). The sharded discipline derives keys from message
  /// content — (class, domain, counter) — so an event's position in the
  /// (time, seq) order is independent of which queue it lands in;
  /// mixing caller-keyed and queue-keyed events in one queue is the
  /// caller's responsibility to keep collision-free.
  void SchedulePreKeyed(const SimEvent& event) { Insert(event); }

  bool empty() const { return size_ == 0 && lane_size_ == 0; }
  std::size_t size() const { return size_ + lane_size_; }

  /// Time of the earliest pending event. Aborts when empty.
  double NextTime() const;

  /// Removes and returns the earliest event. Aborts when empty.
  SimEvent Pop();

  /// Every pending event in (time, seq) order; the queue is unchanged
  /// (a scratch copy is drained, so the counters of this queue are
  /// untouched too).
  std::vector<SimEvent> SnapshotEvents() const;
  /// Re-inserts checkpointed events preserving their original sequence
  /// numbers and resumes the sequence counter at `next_seq`. The queue
  /// must be empty (checked). Restored events all go to the calendar;
  /// the lane refills from the next delivery on. Width calibration and
  /// scan counters start fresh: they are engine-internal and excluded
  /// from the determinism surface (see sim.queue.* docs), while
  /// delivery order — (time, seq) selection — is exactly preserved.
  void RestorePending(const std::vector<SimEvent>& events,
                      std::uint64_t next_seq);
  std::uint64_t next_seq() const { return next_seq_; }

  /// Engine introspection for the obs layer (sim.queue.*). Counts are
  /// deterministic: the resize schedule depends only on the event
  /// sequence.
  std::uint64_t resizes() const { return resizes_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  double bucket_width_seconds() const { return width_; }
  /// Scan-effort counters (deterministic): empty-day probes, slot
  /// visits during day scans, and whole-calendar fallback scans.
  std::uint64_t day_steps() const { return day_steps_; }
  std::uint64_t slot_visits() const { return slot_visits_; }
  std::uint64_t global_scans() const { return global_scans_; }
  /// Pops served by the lane and by the calendar (they sum to every Pop
  /// since construction or RestorePending), and ScheduleDelivery calls
  /// that sorted before the lane's tail and went to the calendar.
  std::uint64_t lane_pops() const { return lane_pops_; }
  std::uint64_t calendar_pops() const { return calendar_pops_; }
  std::uint64_t lane_fallbacks() const { return lane_fallbacks_; }
  /// Approximate resident bytes of the bucket array, the staged run,
  /// its slice counts and the lane (capacity-based).
  std::size_t ApproxMemoryBytes() const;

 private:
  /// The ordering key of an event.
  struct Key {
    double time;
    std::uint64_t seq;
  };
  static bool Earlier(const Key& lhs, const Key& rhs) {
    if (lhs.time != rhs.time) return lhs.time < rhs.time;
    return lhs.seq < rhs.seq;
  }
  static Key KeyOf(const SimEvent& e) { return {e.time, e.seq}; }

  std::uint64_t DayOf(double time) const {
    // Multiplication by the cached reciprocal, not division — this
    // runs once per Schedule and once per scanned slot. Any monotone
    // time -> day mapping is correct (the day bands stay ordered), so
    // the reciprocal's rounding is harmless; all slots of a given
    // width derive their day through this same function. Far-future
    // times collapse into one final "day" instead of overflowing the
    // cast; order among them is still resolved by (time, seq) when
    // that day is scanned.
    const double day = time * inv_width_;
    return day >= kLastDay ? static_cast<std::uint64_t>(kLastDay)
                           : static_cast<std::uint64_t>(day);
  }
  bool TodayHasEvents() const { return today_pos_ < today_.size(); }
  std::size_t BucketSideSize() const {
    return size_ - (today_.size() - today_pos_);
  }
  /// The calendar's earliest (time, seq). Requires size_ > 0.
  Key CalendarFront() const;
  /// True when the staged run's front beats every bucket-side event.
  /// Requires a staged run with events left.
  bool TodayWins() const;
  /// Locates the earliest (time, seq) bucket-side slot and caches its
  /// position; advances cur_day_ to that event's day. Requires
  /// BucketSideSize() > 0. Never touches the staged day.
  void FindMin() const;
  /// Extracts every slot of `day` (which holds at least one) from its
  /// bucket and makes them the staged run, ordered by (time, seq).
  void StageDay(std::uint64_t day);
  /// Which of `slices` equal sub-days of `day` holds `time`: derived
  /// from the same product as DayOf, so monotone in time. Far-future
  /// times clamped into the last day land in the last slice.
  std::size_t SliceOf(double time, std::uint64_t day,
                      std::size_t slices) const {
    const double scale = static_cast<double>(slices);
    const double pos = (time * inv_width_ - static_cast<double>(day)) * scale;
    return pos < scale ? static_cast<std::size_t>(pos) : slices - 1;
  }
  /// Removes and returns the calendar's earliest event.
  SimEvent PopCalendar();
  /// Doubles / halves the bucket array and re-derives the bucket width
  /// from the mean inter-dequeue gap observed since the last resize.
  /// Flushes the staged run back into the buckets (day values change
  /// with the width).
  void Resize(std::size_t new_buckets);
  /// Schedule minus the sequence-number assignment: places an event
  /// whose seq is already set on the calendar (restore path shares it
  /// with Schedule).
  void Insert(const SimEvent& event);
  void GrowLane();

  static constexpr double kLastDay = 9.0e18;

  /// A bucket holds bare events; a slot's day is re-derived on scan via
  /// DayOf (every resident slot was inserted under the current width,
  /// since Resize re-buckets everything).
  mutable std::vector<std::vector<SimEvent>> buckets_;
  double width_;
  double inv_width_;  ///< Always 1.0 / width_.
  /// Calendar-side events (buckets plus the staged run); the lane
  /// counts apart in lane_size_.
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Lower bound on the day of every bucket-side event: pops and
  /// staging advance it, and a Schedule into an earlier day rewinds it.
  /// While a run is staged, cur_day_ >= today_day_ means no bucket-side
  /// event can beat the run.
  mutable std::uint64_t cur_day_ = 0;

  // Staged front day: its events live here (removed from the buckets),
  // sorted ascending by (time, seq), served from today_pos_.
  std::vector<SimEvent> today_;
  std::size_t today_pos_ = 0;
  std::uint64_t today_day_ = 0;
  // StageDay scratch: per-slice counts, then slice boundaries.
  std::vector<std::uint32_t> stage_counts_;

  // Cached bucket-side minimum (valid between FindMin and the next
  // bucket-side mutation): location, plus a (time, seq) copy so the
  // Schedule and TodayWins paths compare against it without loading
  // the bucket (a near-guaranteed cache miss).
  mutable bool min_valid_ = false;
  mutable std::size_t min_bucket_ = 0;
  mutable std::size_t min_slot_ = 0;
  mutable Key min_key_{0.0, 0};

  // The FIFO lane: a ring buffer whose capacity is zero or a power of
  // two, holding lane_size_ events from lane_head_ on, in (time, seq)
  // order by construction.
  std::vector<SimEvent> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;

  // Width adaptation: mean gap between consecutively popped calendar
  // event times since the last resize.
  double last_pop_time_ = 0.0;
  bool have_last_pop_ = false;
  double gap_sum_ = 0.0;
  std::uint64_t gap_count_ = 0;
  std::uint64_t pops_since_resize_ = 0;

  std::uint64_t resizes_ = 0;
  mutable std::uint64_t day_steps_ = 0;
  mutable std::uint64_t slot_visits_ = 0;
  mutable std::uint64_t global_scans_ = 0;
  std::uint64_t lane_pops_ = 0;
  std::uint64_t calendar_pops_ = 0;
  std::uint64_t lane_fallbacks_ = 0;
};

}  // namespace sppnet

#endif  // SPPNET_SIM_EVENT_QUEUE_H_
